"""Tests for lattice layer kernels and their dense assembly."""

import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse

import latticebae.lgf as lgf_module
from latticebae import closure, harness
from latticebae.errors import AssemblyError, DoubleLayerInapplicableError
from latticebae.geometry import (
    DIRECTIONS,
    Grid,
    circle_exterior,
    classify,
    ellipse,
    select_intersections,
)
from latticebae.lgf import kernel_table, lgf
from latticebae.potentials import (
    _ROW_BLOCK,
    LayerKind,
    _exterior_connections,
    apply_layer_matrix,
    contract_layer_matrix,
)
from reference import assemble_layer_matrix, lgf_grid


def single_kernel(m, n) -> float:
    """S(m, n) = G(m - n); finite even at m = n (where it is 0)."""
    return lgf((m[0] - n[0], m[1] - n[1]))


def double_kernel(m, n, conn) -> float:
    """D(m, n) = sum over conn of G(m - n) - G(m - k).

    ``conn`` must be the exterior connection set of n; an empty set
    leaves the kernel undefined.
    """
    if not conn:
        raise DoubleLayerInapplicableError(
            f"double-layer kernel undefined at source {tuple(n)}: "
            "no exterior connections"
        )
    value = len(conn) * lgf((m[0] - n[0], m[1] - n[1]))
    for k in conn:
        value -= lgf((m[0] - k[0], m[1] - k[1]))
    return value


@pytest.fixture(scope="module")
def circle_setup():
    grid = Grid.from_box((-1.15, 1.15), (-1.15, 1.15), 32)
    shape = ellipse(1.0)
    ps = classify(grid, shape)
    return grid, shape, ps


@pytest.fixture(scope="module")
def ellipse256():
    """Ellipse a=2 at n=256: 496 gamma+ targets, several gather row blocks."""
    return classify(Grid.from_box((-1.15, 1.15), (-1.15, 1.15), 256), ellipse(2.0))


def brute_force_connections(ps, node):
    """Exterior connections of a gamma- node from the definition: its
    four-neighbours inside the box, in M- and not in gamma-."""
    j, k = (int(v) for v in node)
    return {
        (j + d1, k + d2) for d1, d2 in DIRECTIONS
        if 0 <= j + d1 < ps.grid.nx and 0 <= k + d2 < ps.grid.ny
        and not ps.m_plus[j + d1, k + d2] and not ps.gamma_minus[j + d1, k + d2]
    }


def _reference_block(ps, targets, sources, kind):
    """The block from 2-D table indexing and per-source connection sets."""
    radius = max(ps.grid.nx, ps.grid.ny) - 1
    table = lgf_grid(radius, radius)

    def gather(src):
        return table[targets[:, 0:1] - src[None, :, 0] + radius,
                     targets[:, 1:2] - src[None, :, 1] + radius]

    block = gather(sources)
    if kind is LayerKind.SINGLE:
        return block
    conns = [brute_force_connections(ps, idx) for idx in sources]
    block = block * np.array([len(c) for c in conns])[None, :]
    for d1, d2 in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        cols = [j for j, (idx, conn) in enumerate(zip(sources, conns))
                if (idx[0] + d1, idx[1] + d2) in conn]
        if cols:
            block[:, cols] -= gather(sources[cols] + np.array([d1, d2]))
    return block


def test_single_kernel_values():
    assert single_kernel((3, 4), (3, 4)) == 0.0
    assert single_kernel((4, 4), (3, 4)) == pytest.approx(-0.25, abs=1e-14)
    assert single_kernel((7, -2), (3, 1)) == single_kernel((3, 1), (7, -2))


def test_double_kernel_toy_values():
    n = (5, 5)
    assert double_kernel(n, n, {(6, 5)}) == pytest.approx(0.25, abs=1e-14)
    assert double_kernel(n, n, {(6, 5), (4, 5)}) == pytest.approx(0.5, abs=1e-14)


def test_double_kernel_rejects_empty_connections():
    with pytest.raises(DoubleLayerInapplicableError):
        double_kernel((0, 0), (1, 1), set())


def test_double_kernel_far_field_decay():
    # Differences of shifted G values telescope the log term, leaving
    # O(1/r) decay.
    n = (0, 0)
    conn = {(1, 0), (0, 1)}
    near = abs(double_kernel((40, 0), n, conn))
    far = abs(double_kernel((80, 0), n, conn))
    assert far < near
    assert far < 4.0 / 80.0


def test_assembled_single_block_matches_entrywise(circle_setup):
    _, _, ps = circle_setup
    sources = ps.gamma_minus_indices[:12]
    targets = ps.gamma_plus_indices[:9]
    lm = assemble_layer_matrix(targets, sources, LayerKind.SINGLE, ps)
    assert lm.shape == (9, 12)
    for i in range(9):
        for j in range(12):
            assert lm[i, j] == pytest.approx(
                single_kernel(targets[i], sources[j]), abs=1e-14
            )


def test_assembled_double_block_matches_entrywise(circle_setup):
    _, _, ps = circle_setup
    sources = ps.gamma_minus_indices[:10]
    targets = ps.gamma_plus_indices[:7]
    lm = assemble_layer_matrix(targets, sources, LayerKind.DOUBLE, ps)
    for i in range(7):
        for j in range(10):
            conn = brute_force_connections(ps, sources[j])
            assert lm[i, j] == pytest.approx(
                double_kernel(targets[i], sources[j], conn), abs=1e-13
            )


@pytest.mark.parametrize("kind", [LayerKind.SINGLE, LayerKind.DOUBLE])
def test_gather_is_bitwise_reference(ellipse256, kind):
    # The single gather is bitwise the 2-D table lookup.  The double
    # kernel sums through its connection matrix, in another order than
    # the reference, so it agrees to rounding.
    ps = ellipse256
    sources = ps.gamma_minus_indices
    full = ps.gamma_plus_indices
    assert len(full) == 496
    for targets in (full, full[:1], full[:0]):
        lm = assemble_layer_matrix(targets, sources, kind, ps)
        assert lm.shape == (len(targets), len(sources))
        reference = _reference_block(ps, targets, sources, kind)
        if kind is LayerKind.SINGLE:
            assert np.array_equal(lm, reference)
        else:
            np.testing.assert_allclose(lm, reference, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("geometry", ["ellipse", "diamond", "circle-exterior"])
@pytest.mark.parametrize("kind", [LayerKind.SINGLE, LayerKind.DOUBLE])
def test_gather_offsets_stay_in_the_table(monkeypatch, kind, geometry, n):
    # The gather reads the table without bounds checks, so every offset
    # from a target in the box window, its edge included, to a node it
    # reads from (gamma-, and for the double kernel the exterior
    # connections too) must lie within the
    # sets' kernel reach on each axis, which the table covers; then every
    # flat offset |t(m) - s(n)|, in the table's own row width, indexes
    # the table from its entry (0, 0) on, and at the entry of that very
    # offset.  So it does for the reach's own table and for a larger one.
    cfg = harness.ExperimentConfig(geometry=geometry, bc="dirichlet", n=n)
    ps = classify(harness.build_grid(cfg, n), harness.build_shape(cfg))
    sources = ps.gamma_minus_indices
    if kind is LayerKind.DOUBLE:
        sources = _exterior_connections(ps, sources)[0]
    window, (j0, k0) = ps.box_window
    targets = np.argwhere(np.ones((window.nx, window.ny), dtype=bool)) + (j0, k0)
    assert ps.n_plus[tuple(targets.T)].sum() == ps.n_plus.sum()  # the window holds N+
    rx, ry = ps.kernel_reach
    for axis, reach in enumerate((rx, ry)):
        furthest = max(targets[:, axis].max() - sources[:, axis].min(),
                       sources[:, axis].max() - targets[:, axis].min())
        assert furthest <= reach
    lo, hi = np.array([j0, k0]), np.array([j0 + window.nx, k0 + window.ny])
    for nodes in (targets, sources):
        assert (nodes >= lo).all() and (nodes < hi).all()
    assert rx < window.nx and ry < window.ny
    monkeypatch.setattr(lgf_module, "_KERNEL_TABLE", None)
    for grow in ((0, 0), (7, 19)):
        kernel_table(rx + grow[0], ry + grow[1])
        table = kernel_table(rx, ry)
        width = table.shape[1]
        assert table.shape == (rx + grow[0] + 1, 2 * (ry + grow[1]) + 1)
        t_flat = targets[:, 0] * width + targets[:, 1]
        s_flat = sources[:, 0] * width + sources[:, 1]
        furthest = max(t_flat.max() - s_flat.min(), s_flat.max() - t_flat.min())
        assert furthest < table.size - width // 2


@pytest.mark.parametrize("formulation", ["single-direct", "double-schur"])
@pytest.mark.parametrize("geometry", ["ellipse", "diamond"])
def test_solve_is_bitwise_the_same_from_a_larger_table(monkeypatch, geometry, formulation):
    # A gather may read a table built for a larger reach (an earlier
    # solve's): every M+ value is bitwise the one from the reach's own.
    cfg = harness.ExperimentConfig(geometry=geometry, bc="dirichlet",
                                   formulation=formulation, n=256, aspect=2.0)
    monkeypatch.setattr(lgf_module, "_KERNEL_TABLE", None)
    own = harness.solve_problem(cfg)
    rx, ry = own.ps.kernel_reach
    assert kernel_table(0, 0).shape == (rx + 1, 2 * ry + 1)
    window, _ = own.ps.box_window
    kernel_table(window.nx + 40, window.ny + 90)
    larger = harness.solve_problem(cfg)
    assert np.array_equal(larger.values, own.values)


def test_a_process_holds_one_table(monkeypatch):
    # Solving a second problem whose reach the first one's table does not
    # cover leaves one table covering both: the first is released, not kept.
    monkeypatch.setattr(lgf_module, "_KERNEL_TABLE", None)
    reaches, tables = [], []
    for geometry in ("diamond", "ellipse"):
        cfg = harness.ExperimentConfig(geometry=geometry, bc="dirichlet", n=128)
        reaches.append(harness.solve_problem(cfg).ps.kernel_reach)
        tables.append(weakref.ref(kernel_table(0, 0)))
    first, last = tables[0](), tables[1]()
    assert first is None and last is not None
    assert reaches[1][1] > reaches[0][1]
    assert last.shape == (max(r[0] for r in reaches) + 1, 2 * max(r[1] for r in reaches) + 1)


@pytest.mark.parametrize("kind", [LayerKind.SINGLE, LayerKind.DOUBLE])
def test_gather_scratch_memory(ellipse256, kind):
    # Beyond the block itself, temporaries stay at row-block size.
    ps = ellipse256
    window, _ = ps.box_window
    kernel_table(window.nx - 1, window.ny - 1)  # the table the gather reads
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lm = assemble_layer_matrix(ps.gamma_plus_indices, ps.gamma_minus_indices, kind, ps)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * lm.nbytes


@pytest.fixture(scope="module", params=["dirichlet", "robin"])
def closure256(request, ellipse256):
    ps = ellipse256
    xs = select_intersections(ps, ellipse(2.0))
    if request.param == "dirichlet":
        bc = closure.dirichlet(lambda x, y: x)
    else:
        bc = closure.robin(1.0, 1.0, lambda x, y: x)
    return ps, closure.assemble_closure(ps, xs, bc)


@pytest.mark.parametrize("kind", [LayerKind.SINGLE, LayerKind.DOUBLE])
@pytest.mark.parametrize("on_gamma_plus, off_gamma_plus", [
    (0, 0), (1, 0), (0, 1),
    (_ROW_BLOCK - 1, _ROW_BLOCK + 1), (_ROW_BLOCK, _ROW_BLOCK), (_ROW_BLOCK + 1, _ROW_BLOCK - 1),
    (None, None),
])
def test_contraction_matches_full_block(closure256, kind, on_gamma_plus, off_gamma_plus):
    # Targets are the first `on_gamma_plus` gamma+ nodes and the first
    # `off_gamma_plus` other nodes of gamma~+ (all of them for None), in
    # gamma~+ order.
    ps, cm = closure256
    tp = cm.gamma_tilde_plus
    on_gamma = ps.gamma_plus[tp[:, 0], tp[:, 1]]
    chosen = np.zeros(len(tp), dtype=bool)
    chosen[np.flatnonzero(on_gamma)[:on_gamma_plus]] = True
    chosen[np.flatnonzero(~on_gamma)[:off_gamma_plus]] = True
    targets = tp[chosen]
    weights = cm.c_plus[:, np.flatnonzero(chosen)]
    product = contract_layer_matrix(weights, targets, ps.gamma_minus_indices, kind, ps)
    reference = weights @ assemble_layer_matrix(targets, ps.gamma_minus_indices, kind, ps)
    assert product.shape == (len(cm.gamma_minus), len(cm.gamma_minus))
    scale = np.abs(reference).max() if reference.size else 0.0
    np.testing.assert_allclose(product, reference, rtol=1e-13, atol=1e-13 * scale)


def per_block_contraction(weights, targets, sources, kind, ps):
    """``weights @ K`` a row block of K at a time, each block's slab
    built from its entries by np.unique and a COO to CSR conversion."""
    full = assemble_layer_matrix(targets, sources, kind, ps)
    weights = sparse.coo_array(weights)
    blocks = weights.col // _ROW_BLOCK
    product = np.zeros((weights.shape[0], len(sources)))
    for start in range(0, len(targets), _ROW_BLOCK):
        pick = np.flatnonzero(blocks == start // _ROW_BLOCK)
        if not len(pick):
            continue
        block = full[start : start + _ROW_BLOCK]
        reached, local = np.unique(weights.row[pick], return_inverse=True)
        slab = sparse.csr_array(
            (weights.data[pick], (local, weights.col[pick] - start)),
            shape=(len(reached), len(block)),
        )
        product[reached] += slab @ block
    return product


@pytest.mark.parametrize("kind", [LayerKind.SINGLE, LayerKind.DOUBLE])
@pytest.mark.parametrize("weighting", ["system", "shuffled"])
def test_contraction_is_bitwise_the_per_block_slabs(closure256, kind, weighting):
    # "system": the solver's [C+ C-; 0 I] over gamma~+ and gamma-.
    # "shuffled": random weights in random entry order, with explicit
    # zeros of both signs, rows reached from far-apart blocks, and a
    # block that no weight reaches.
    ps, cm = closure256
    targets = np.concatenate([cm.gamma_tilde_plus, cm.gamma_minus])
    p = len(cm.gamma_minus)
    if weighting == "system":
        weights = sparse.bmat([[cm.c_plus, cm.c_minus], [None, sparse.identity(p)]])
    else:
        rng = np.random.default_rng(9)
        cells = rng.choice(np.flatnonzero(np.arange(len(targets)) // _ROW_BLOCK != 1), 600,
                           replace=False)
        rows = rng.integers(0, 40, len(cells))
        data = rng.standard_normal(len(cells))
        data[:50], data[50:100] = 0.0, -0.0
        weights = sparse.coo_array((data, (rows, cells)), shape=(40, len(targets)))
    product = contract_layer_matrix(weights, targets, cm.gamma_minus, kind, ps)
    reference = per_block_contraction(weights, targets, cm.gamma_minus, kind, ps)
    assert product.tobytes() == reference.tobytes()


def test_contraction_validates_its_weights(closure256):
    ps, cm = closure256
    with pytest.raises(AssemblyError):
        contract_layer_matrix(cm.c_plus[:, 1:], cm.gamma_tilde_plus,
                              ps.gamma_minus_indices, LayerKind.SINGLE, ps)


@pytest.mark.parametrize("kind", [LayerKind.SINGLE, LayerKind.DOUBLE])
@pytest.mark.parametrize("targets", ["gamma-", "gamma+"])
@pytest.mark.parametrize("count", [0, 1, _ROW_BLOCK - 1, _ROW_BLOCK + 1, None])
def test_product_matches_full_block(ellipse256, kind, targets, count):
    # The first `count` nodes of the target set (all of them for None).
    ps = ellipse256
    rng = np.random.default_rng(11)
    sources = ps.gamma_minus_indices
    q = rng.standard_normal(len(sources))
    nodes = (ps.gamma_minus_indices if targets == "gamma-" else ps.gamma_plus_indices)[:count]
    reference = assemble_layer_matrix(nodes, sources, kind, ps) @ q
    out = apply_layer_matrix(nodes, sources, q, kind, ps)
    assert out.shape == (len(nodes),)
    np.testing.assert_allclose(out, reference, rtol=1e-14)


def test_product_streams_exterior_edge_values():
    # 4 |gamma-| box-edge points of an exterior: the gather allocates a
    # few row blocks, never a |points| x |gamma-| block.
    ps = classify(Grid.from_box((-3.0, 3.0), (-3.0, 3.0), 256), circle_exterior(1.0))
    sources = ps.gamma_minus_indices
    points = np.argwhere(ps.m_plus)
    points = points[np.isin(points[:, 0], (0, ps.grid.nx - 1))
                    | np.isin(points[:, 1], (0, ps.grid.ny - 1))]
    assert len(points) >= 4 * len(sources)
    points = points[: 4 * len(sources)]
    q = np.ones(len(sources))
    window, _ = ps.box_window
    kernel_table(window.nx - 1, window.ny - 1)  # the table the gather reads
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        apply_layer_matrix(points, sources, q, LayerKind.SINGLE, ps)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    row_block = 8 * _ROW_BLOCK * len(sources)
    assert 4 * row_block <= 8 * len(points) * len(sources) / 3
    assert peak <= 4 * row_block


def test_double_block_names_first_unconnected_source():
    # Around a circle smaller than two cells some gamma- nodes touch
    # only M+ and gamma- nodes.
    ps = classify(Grid.from_box((-3.0, 3.0), (-3.0, 3.0), 32), circle_exterior(0.3))
    for sources in (ps.gamma_minus_indices, ps.gamma_minus_indices[::-1]):
        first = next(tuple(int(v) for v in idx) for idx in sources
                     if not brute_force_connections(ps, idx))
        with pytest.raises(DoubleLayerInapplicableError,
                           match=rf"source \({first[0]}, {first[1]}\) has no exterior"):
            assemble_layer_matrix(sources, sources, LayerKind.DOUBLE, ps)


def assert_exactly_symmetric_zero_diagonal(ps):
    # Entries (i, j) and (j, i) read one table offset, and (i, i) reads
    # G(0) = 0: the conditioning study's eigensolver path needs both exact.
    sources = ps.gamma_minus_indices
    entries = assemble_layer_matrix(sources, sources, LayerKind.SINGLE, ps)
    assert np.array_equal(entries, entries.T)
    assert not np.diag(entries).any()


def test_minus_single_block_symmetric_zero_diagonal(circle_setup, ellipse256):
    assert_exactly_symmetric_zero_diagonal(circle_setup[2])
    assert_exactly_symmetric_zero_diagonal(ellipse256)


def test_minus_single_block_symmetric_from_a_larger_table(ellipse256, monkeypatch):
    window, _ = ellipse256.box_window
    monkeypatch.setattr(lgf_module, "_KERNEL_TABLE", None)
    kernel_table(window.nx + 40, window.ny + 90)
    assert kernel_table(0, 0).shape == (window.nx + 41, 2 * (window.ny + 90) + 1)
    assert_exactly_symmetric_zero_diagonal(ellipse256)


def test_block_dimensions(circle_setup):
    _, _, ps = circle_setup
    lm = assemble_layer_matrix(ps.gamma_plus_indices, ps.gamma_minus_indices,
                               LayerKind.SINGLE, ps)
    assert lm.shape == (len(ps.gamma_plus_indices), len(ps.gamma_minus_indices))


def test_assembly_validates_memberships(ellipse256):
    # Sources must lie in gamma-, and targets in the box window, which
    # the kernel table covers: its corners are legal, and the grid's
    # corner and one node beyond each side of the window are not.
    ps = ellipse256
    sources = ps.gamma_minus_indices
    with pytest.raises(AssemblyError):
        assemble_layer_matrix(ps.gamma_plus_indices, ps.gamma_plus_indices,
                              LayerKind.SINGLE, ps)
    window, (j0, k0) = ps.box_window
    j1, k1 = j0 + window.nx - 1, k0 + window.ny - 1
    corners = np.array([[j0, k0], [j0, k1], [j1, k0], [j1, k1]])
    assert assemble_layer_matrix(corners, sources, LayerKind.SINGLE, ps).shape == (4, len(sources))
    jm, km = (j0 + j1) // 2, (k0 + k1) // 2
    for outside in ([0, 0], [j0 - 1, km], [j1 + 1, km], [jm, k0 - 1], [jm, k1 + 1]):
        with pytest.raises(AssemblyError, match="target set"):
            assemble_layer_matrix(np.array([outside]), sources, LayerKind.SINGLE, ps)


@pytest.mark.parametrize("kind", [LayerKind.SINGLE, LayerKind.DOUBLE])
def test_potential_is_discretely_harmonic(circle_setup, kind):
    # The layer field must satisfy the 5-point equation at every interior
    # node whose full stencil stays inside M+.
    grid, _, ps = circle_setup
    rng = np.random.default_rng(3)
    q = rng.standard_normal(len(ps.gamma_minus_indices))
    full_stencil = ps.m_plus.copy()
    full_stencil[1:-1, 1:-1] = (
        ps.m_plus[1:-1, 1:-1]
        & ps.m_plus[2:, 1:-1] & ps.m_plus[:-2, 1:-1]
        & ps.m_plus[1:-1, 2:] & ps.m_plus[1:-1, :-2]
    )
    full_stencil[0, :] = full_stencil[-1, :] = False
    full_stencil[:, 0] = full_stencil[:, -1] = False
    centers = np.argwhere(full_stencil)
    field = {}
    needed = set()
    for j, k in centers:
        for dj, dk in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
            needed.add((j + dj, k + dk))
    needed = np.array(sorted(needed))
    values = apply_layer_matrix(needed, ps.gamma_minus_indices, q, kind, ps)
    field = {tuple(idx): v for idx, v in zip(map(tuple, needed), values)}
    qmax = np.abs(q).max()
    for j, k in centers:
        residual = 4.0 * field[(j, k)] - field[(j + 1, k)] - field[(j - 1, k)] \
            - field[(j, k + 1)] - field[(j, k - 1)]
        assert abs(residual) <= 1e-10 * qmax


@pytest.mark.parametrize("kind", [LayerKind.SINGLE, LayerKind.DOUBLE])
def test_evaluation_matches_matrix_action(circle_setup, kind):
    _, shape, small = circle_setup
    large = classify(Grid.from_box((-1.15, 1.15), (-1.15, 1.15), 96), shape)
    rng = np.random.default_rng(5)
    for ps, targets in ((small, small.gamma_plus_indices), (large, np.argwhere(large.m_plus))):
        sources = ps.gamma_minus_indices
        q = rng.standard_normal(len(sources))
        lm = assemble_layer_matrix(targets, sources, kind, ps)
        direct = apply_layer_matrix(targets, sources, q, kind, ps)
        np.testing.assert_allclose(direct, lm @ q, rtol=1e-13, atol=1e-15)


def test_zero_density_gives_zero_field(circle_setup):
    _, _, ps = circle_setup
    q = np.zeros(len(ps.gamma_minus_indices))
    out = apply_layer_matrix(ps.gamma_plus_indices[:5], ps.gamma_minus_indices, q,
                             LayerKind.SINGLE, ps)
    assert np.all(out == 0.0)


def test_unit_density_reproduces_matrix_column(circle_setup):
    _, _, ps = circle_setup
    n = len(ps.gamma_minus_indices)
    values = np.zeros(n)
    values[7] = 1.0
    targets = ps.gamma_plus_indices[:20]
    lm = assemble_layer_matrix(targets, ps.gamma_minus_indices, LayerKind.SINGLE, ps)
    out = apply_layer_matrix(targets, ps.gamma_minus_indices, values, LayerKind.SINGLE, ps)
    np.testing.assert_allclose(out, lm[:, 7], rtol=1e-14)


def test_product_validates_density_length(circle_setup):
    _, _, ps = circle_setup
    sources = ps.gamma_minus_indices
    with pytest.raises(AssemblyError, match=rf"3 values on {len(sources)} support nodes"):
        apply_layer_matrix(ps.gamma_plus_indices, sources, np.zeros(3), LayerKind.SINGLE, ps)
