"""Tests for the box solver and difference potentials."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from scipy import fft as sfft
from scipy import sparse

from latticebae import closure, diffpot, geometry, harness, potentials, solver
from latticebae.errors import AssemblyError, BoxTooSmallError
from latticebae.lgf import kernel_table
from reference import apply_stencil, assemble_layer_matrix, auxiliary_domain_solve, gamma_trace


def centered_grid(half, n):
    return geometry.Grid.from_box((-half, half), (-half, half), n)


@pytest.fixture(scope="module")
def ellipse_box():
    grid = centered_grid(1.15, 32)
    shape = geometry.ellipse(2.0)
    ps = geometry.classify(grid, shape)
    return grid, ps


def edge_mask(grid):
    """The nodes on the edge of a grid, where box solves take Dirichlet data."""
    mask = np.zeros((grid.nx, grid.ny), dtype=bool)
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    return mask


def dense_interior_solve(rhs_interior):
    """Independent dense solve of the 5-point system with zero edges."""
    a, b = rhs_interior.shape
    k_a = sparse.diags_array(
        [-np.ones(a - 1), 2.0 * np.ones(a), -np.ones(a - 1)], offsets=(-1, 0, 1)
    )
    k_b = sparse.diags_array(
        [-np.ones(b - 1), 2.0 * np.ones(b), -np.ones(b - 1)], offsets=(-1, 0, 1)
    )
    full = sparse.kron(k_a, sparse.eye_array(b)) + sparse.kron(sparse.eye_array(a), k_b)
    solution = np.linalg.solve(full.toarray(), rhs_interior.ravel())
    return solution.reshape(a, b)


# ---------------------------------------------------------------------------
# fft_poisson_solve


def test_fft_zero_rhs_gives_zero(ellipse_box):
    grid, _ = ellipse_box
    w = diffpot.fft_poisson_solve(np.zeros((grid.nx, grid.ny)))
    assert np.all(w == 0.0)


def test_fft_eigenfunction_round_trip():
    grid = geometry.Grid.from_box((-1.0, 1.0), (-1.0, 1.0), 16)
    j = np.arange(grid.nx)
    sine = np.outer(np.sin(np.pi * j / 16.0), np.sin(np.pi * j / 16.0))
    sine[0, :] = sine[-1, :] = 0.0
    sine[:, 0] = sine[:, -1] = 0.0
    lam = 4.0 - 4.0 * np.cos(np.pi / 16.0)
    stencil = apply_stencil(sine)
    assert np.abs(stencil[1:-1, 1:-1] - lam * sine[1:-1, 1:-1]).max() < 1e-13
    rhs = lam * sine
    w = diffpot.fft_poisson_solve(rhs)
    assert np.abs(w - sine).max() < 1e-13


@pytest.mark.parametrize("n_nodes", [16, 32])
def test_fft_matches_dense_oracle(n_nodes):
    grid = geometry.Grid(h=0.1, origin=(0.0, 0.0), nx=n_nodes, ny=n_nodes)
    rng = np.random.default_rng(17 + n_nodes)
    rhs = np.zeros((grid.nx, grid.ny))
    rhs[1:-1, 1:-1] = rng.standard_normal((n_nodes - 2, n_nodes - 2))
    w = diffpot.fft_poisson_solve(rhs)
    oracle = dense_interior_solve(rhs[1:-1, 1:-1])
    assert np.abs(w[1:-1, 1:-1] - oracle).max() < 1e-12
    assert np.all(w[0, :] == 0.0)
    assert np.all(w[:, -1] == 0.0)


def test_fft_rejects_boundary_data(ellipse_box):
    grid, _ = ellipse_box
    rhs = np.zeros((grid.nx, grid.ny))
    rhs[0, 3] = 1.0
    with pytest.raises(AssemblyError):
        diffpot.fft_poisson_solve(rhs)


def test_fft_in_place_is_bitwise_the_out_of_place_solve():
    # 151 x 97 nodes: the interior rows make two full 64-row blocks and a
    # partial one.  The rhs is left as it was.
    grid = geometry.Grid(h=0.1, origin=(0.0, 0.0), nx=151, ny=97)
    rhs = np.zeros((grid.nx, grid.ny))
    rhs[1:-1, 1:-1] = np.random.default_rng(5).standard_normal((149, 95))
    given = rhs.copy()
    w = diffpot.fft_poisson_solve(rhs)
    mx, my = grid.nx - 1, grid.ny - 1
    lam = (4.0 - 2.0 * np.cos(np.pi * np.arange(1, mx) / mx))[:, None] - 2.0 * np.cos(
        np.pi * np.arange(1, my) / my
    )[None, :]
    reference = np.zeros_like(given)
    reference[1:-1, 1:-1] = sfft.idstn(sfft.dstn(given[1:-1, 1:-1], type=1) / lam, type=1)
    assert w.tobytes() == reference.tobytes()
    assert rhs.tobytes() == given.tobytes()
    assert w.shape == (grid.nx, grid.ny)


# ---------------------------------------------------------------------------
# the right-hand sides handed to the box solve, against window-sized builds


def box_solve_rhs(monkeypatch, fn, *args):
    """The rhs that ``fn(*args)`` hands its one box solve, which runs in
    that rhs's own array."""
    seen = []
    solve = diffpot._solve_in_place

    def recorded(rhs):
        seen.append(rhs.copy())
        w = solve(rhs)
        assert w is rhs
        return w

    monkeypatch.setattr(diffpot, "_solve_in_place", recorded)
    fn(*args)
    (rhs,) = seen
    return rhs


def difference_potential_rhs_reference(u_gamma, ps):
    """[A u] of the zero-extension of the gamma data on the exterior band,
    from window-sized arrays."""
    grid, offset = ps.box_window
    extension = np.zeros((grid.nx, grid.ny))
    extension[diffpot._local(ps.gamma_indices, extension.shape, offset, 0)] = u_gamma
    rhs = np.zeros_like(extension)
    band = ~diffpot._window_of(ps.m_plus, grid, offset) & ~edge_mask(grid)
    rhs[band] = apply_stencil(extension)[band]
    return rhs


def recover_rhs_reference(density, kind, ps):
    """The lattice sources of the density's layer potential, minus [A u]
    of the zero-extension of its window-edge values, from window-sized
    arrays: the sources are the density on gamma-, or B density on E."""
    grid, offset = ps.box_window
    edge = diffpot.edge_nodes(ps)
    extension = np.zeros((grid.nx, grid.ny))
    extension[diffpot._local(edge, extension.shape, offset, 0)] = potentials.apply_layer_matrix(
        edge, ps.gamma_minus_indices, density, kind, ps)
    rhs = 0.0 - apply_stencil(extension)
    sources, charges = ps.gamma_minus_indices, density
    if kind is potentials.LayerKind.DOUBLE:
        sources, b = potentials._exterior_connections(ps, sources)
        charges = b @ density
    rhs[diffpot._local(sources, rhs.shape, offset, 0)] += charges
    return rhs


def particular_rhs_reference(f, ps):
    """h^2 f at the window-interior nodes of M+, from window-sized arrays."""
    grid, offset = ps.box_window
    rhs = np.zeros((grid.nx, grid.ny))
    inside = diffpot._window_of(ps.m_plus, grid, offset) & ~edge_mask(grid)
    x, y = ps.grid.nodes(np.argwhere(inside) + offset).T
    rhs[inside] = grid.h**2 * np.asarray(f(x, y))
    return rhs


@pytest.fixture(scope="module", params=["ellipse", "circle-exterior"])
def sets128(request):
    # The exterior's window is the grid, with edge data; the ellipse's is
    # a window inside the grid, without.
    cfg = harness.ExperimentConfig(request.param, "dirichlet", n=128, aspect=2.0)
    return harness._discretize(cfg, 128)[1]


def test_difference_potential_rhs_is_bitwise_the_window_sized_build(monkeypatch, sets128):
    ps = sets128
    rng = np.random.default_rng(3)
    u_gamma = rng.standard_normal(len(ps.gamma_indices))
    rhs = box_solve_rhs(monkeypatch, diffpot.difference_potential, u_gamma, ps)
    assert rhs.tobytes() == difference_potential_rhs_reference(u_gamma, ps).tobytes()


@pytest.mark.parametrize("kind", [potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE])
def test_recover_rhs_is_bitwise_the_window_sized_build(monkeypatch, sets128, kind):
    ps = sets128
    density = np.random.default_rng(3).standard_normal(len(ps.gamma_minus_indices))
    rhs = box_solve_rhs(monkeypatch, solver.recover, density, kind, ps)
    assert rhs.tobytes() == recover_rhs_reference(density, kind, ps).tobytes()


def test_particular_rhs_is_bitwise_the_window_sized_build(monkeypatch, sets128):
    ps = sets128
    rhs = box_solve_rhs(monkeypatch, diffpot.particular_solution, forcing, ps)
    assert rhs.tobytes() == particular_rhs_reference(forcing, ps).tobytes()


def random_sets(seed):
    """Point sets of a random M+ mask on a 40 x 30 grid: the window is the
    grid, and M+ holds a random part of its edge, corners included."""
    grid = geometry.Grid(h=0.1, origin=(0.0, 0.0), nx=40, ny=30)
    m_plus = np.random.default_rng(seed).random((40, 30)) < 0.5
    return three_mask_sets(grid, m_plus)


def three_mask_sets(grid, m_plus):
    """PointSets of an M+ mask, its gamma+ and gamma- by their definitions."""
    return geometry.PointSets(grid=grid, m_plus=m_plus,
                              gamma_plus=m_plus & geometry._dilate(~m_plus),
                              gamma_minus=~m_plus & geometry._dilate(m_plus))


@pytest.mark.parametrize("sets", ["ellipse", "circle-exterior", 0, 1, 2])
def test_edge_nodes_are_bitwise_the_window_mask_argwhere(sets):
    if isinstance(sets, str):
        ps = harness._discretize(harness.ExperimentConfig(sets, "dirichlet", n=128), 128)[1]
    else:
        ps = random_sets(sets)
        assert ps.box_window[0] == ps.grid
    grid, offset = ps.box_window
    reference = np.argwhere(edge_mask(grid)) + offset
    assert len(reference) == 2 * (grid.nx + grid.ny) - 4
    nodes = diffpot.edge_nodes(ps)
    assert nodes.dtype == reference.dtype and nodes.shape == reference.shape
    assert nodes.tobytes() == reference.tobytes()


@pytest.fixture(scope="module")
def exterior256():
    cfg = harness.ExperimentConfig("circle-exterior", "dirichlet", n=256)
    ps = harness._discretize(cfg, 256)[1]
    kernel_table(*ps.kernel_reach)  # the table recover's gather reads
    window, _ = ps.box_window
    return ps, 8 * window.nx * window.ny


def test_difference_potential_holds_at_most_three_window_arrays(exterior256, traced_peak):
    # The rhs, the solution, and one 64-row block of temporaries, a
    # quarter window here; measured 2.67 window arrays (margin 12%), and
    # 8.1 when the rhs was built from window-sized arrays.
    ps, window_bytes = exterior256
    rng = np.random.default_rng(4)
    u_gamma = rng.standard_normal(len(ps.gamma_indices))
    peak, _ = traced_peak(diffpot.difference_potential, u_gamma, ps)
    assert peak <= 3 * window_bytes


def test_difference_potential_solves_in_its_rhs(exterior256, traced_peak):
    # The rhs, solved in place, and one 64-row block of temporaries, a
    # quarter window here; measured 1.67 window arrays (margin 14%), and
    # 2.67 when the box solve copied its rhs into a new solution.
    ps, window_bytes = exterior256
    rng = np.random.default_rng(4)
    u_gamma = rng.standard_normal(len(ps.gamma_indices))
    peak, _ = traced_peak(diffpot.difference_potential, u_gamma, ps)
    assert peak <= 1.9 * window_bytes


def test_recover_holds_at_most_three_window_arrays(exterior256, traced_peak):
    # The difference potential's bounds hold for the recovery's one box
    # solve too: the product for the edge values, whose row blocks are
    # smaller than a window here, ends before the window array exists.
    # Measured 1.53 window arrays.
    ps, window_bytes = exterior256
    density = np.random.default_rng(4).standard_normal(len(ps.gamma_minus_indices))
    peak, _ = traced_peak(solver.recover, density, potentials.LayerKind.SINGLE, ps)
    assert peak <= 3 * window_bytes


def test_recover_solves_in_its_rhs(exterior256, traced_peak):
    ps, window_bytes = exterior256
    density = np.random.default_rng(4).standard_normal(len(ps.gamma_minus_indices))
    peak, _ = traced_peak(solver.recover, density, potentials.LayerKind.SINGLE, ps)
    assert peak <= 1.9 * window_bytes


def test_particular_solution_holds_its_rhs_solution_and_one_block(exterior256, traced_peak):
    # The rhs, the solution, and one 64-row block of index, coordinate and
    # forcing temporaries, a quarter window each here; measured 3.0
    # window arrays (margin 17%), and 7.9 when every M+ node's indices
    # and coordinates were built at once.
    ps, window_bytes = exterior256
    peak, _ = traced_peak(diffpot.particular_solution, forcing, ps)
    assert peak <= 3.5 * window_bytes


# ---------------------------------------------------------------------------
# difference potentials


def test_difference_potential_of_zero_data(ellipse_box):
    _, ps = ellipse_box
    w = diffpot.difference_potential(np.zeros(len(ps.gamma_indices)), ps)
    assert np.all(w == 0.0)


@pytest.mark.parametrize("kind", [potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE])
def test_trace_reproduction_for_layer_data(ellipse_box, kind):
    grid, ps = ellipse_box
    k_gamma = assemble_layer_matrix(
        ps.gamma_indices, ps.gamma_minus_indices, kind, ps
    )
    rng = np.random.default_rng(23)
    gamma = ps.gamma_indices
    for _ in range(20):
        q = rng.standard_normal(k_gamma.shape[1])
        u_gamma = k_gamma @ q
        w = diffpot.difference_potential(u_gamma, ps)
        trace = diffpot.window_values(w, gamma, ps)
        assert np.abs(trace - u_gamma).max() <= 1e-10 * np.abs(u_gamma).max()


def test_projection_idempotence(ellipse_box):
    grid, ps = ellipse_box
    gamma = ps.gamma_indices
    rng = np.random.default_rng(2)

    def project(data):
        return diffpot.window_values(diffpot.difference_potential(data, ps), gamma, ps)

    for _ in range(5):
        u_gamma = rng.standard_normal(len(gamma))
        once = project(u_gamma)
        twice = project(once)
        assert np.abs(twice - once).max() <= 1e-10 * np.abs(once).max()


@pytest.fixture(scope="module")
def exterior_box():
    grid = centered_grid(3.0, 32)
    ps = geometry.classify(grid, geometry.circle_exterior(1.0))
    return grid, ps


def test_interior_equivalence_with_direct_summation(ellipse_box, exterior_box):
    for _, ps in (ellipse_box, exterior_box):
        rng = np.random.default_rng(31)
        sources = ps.gamma_minus_indices
        q = rng.standard_normal(len(sources))
        direct = potentials.apply_layer_matrix(
            np.argwhere(ps.m_plus), sources, q, potentials.LayerKind.SINGLE, ps
        )
        w = solver.recover(q, potentials.LayerKind.SINGLE, ps)
        recovered = diffpot.window_values(w, np.argwhere(ps.m_plus), ps)
        assert np.abs(recovered - direct).max() < 1e-8


def test_recovery_rejects_wrong_data_lengths(exterior_box):
    _, ps = exterior_box
    n_edge = len(diffpot.edge_nodes(ps))
    assert n_edge == 4 * (ps.grid.nx - 1)
    with pytest.raises(AssemblyError):
        diffpot.difference_potential(np.zeros(len(ps.gamma_indices) - 1), ps)
    with pytest.raises(AssemblyError):
        solver.recover(np.zeros(len(ps.gamma_minus_indices) - 1),
                       potentials.LayerKind.SINGLE, ps)


def test_box_margin_is_enforced():
    grid = geometry.Grid(h=1.0, origin=(0.0, 0.0), nx=8, ny=8)
    m_plus = np.zeros((8, 8), dtype=bool)
    m_plus[1:-1, 1:-1] = True
    ps = three_mask_sets(grid, m_plus)
    with pytest.raises(BoxTooSmallError):
        diffpot.difference_potential(np.zeros(len(ps.gamma_indices)), ps)


# ---------------------------------------------------------------------------
# particular solutions and the boundary right-hand side


def forcing(x, y):
    return 2.0 * np.sin(x) * np.cos(y)


def test_particular_solution_stencil_residual(ellipse_box):
    grid, ps = ellipse_box
    u_p = diffpot.particular_solution(forcing, ps)
    window, (j0, k0) = ps.box_window
    assert u_p.shape == (window.nx, window.ny)
    x, y = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    rhs_exact = (grid.h**2 * forcing(x, y))[j0 : j0 + window.nx, k0 : k0 + window.ny]
    m_plus = ps.m_plus[j0 : j0 + window.nx, k0 : k0 + window.ny]
    stencil = apply_stencil(u_p)
    scale = np.abs(rhs_exact[m_plus]).max()
    # Every M+ node lies inside the window, off its edge.
    inner = ~edge_mask(window)
    assert np.count_nonzero(m_plus & inner) == np.count_nonzero(ps.m_plus)
    assert np.abs(stencil - rhs_exact)[m_plus].max() <= 1e-11 * scale
    # Outside the domain the forcing is zeroed.
    assert np.abs(stencil[~m_plus & inner]).max() <= 1e-11 * scale


def test_particular_solution_of_zero_forcing(ellipse_box):
    _, ps = ellipse_box
    u_p = diffpot.particular_solution(lambda x, y: np.zeros_like(x), ps)
    assert np.all(u_p == 0.0)


def test_particular_solution_evaluates_forcing_inside_only(ellipse_box):
    grid, ps = ellipse_box
    shapes = []

    def recorded(x, y):
        shapes.append(np.shape(x))
        return forcing(x, y)

    u_p = diffpot.particular_solution(recorded, ps)
    window, (j0, k0) = ps.box_window
    crop = (slice(j0, j0 + window.nx), slice(k0, k0 + window.ny))
    inside = ps.m_plus[crop] & ~edge_mask(window)
    assert shapes == [(int(inside.sum()),)]
    x, y = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    rhs = np.zeros((window.nx, window.ny))
    rhs[inside] = grid.h**2 * forcing(x[crop], y[crop])[inside]
    assert np.array_equal(u_p, diffpot.fft_poisson_solve(rhs))


def test_rhs_correction_trivial_and_affine(ellipse_box):
    _, ps = ellipse_box
    shape = geometry.ellipse(2.0)
    xs = geometry.select_intersections(ps, shape)
    cm = closure.assemble_dirichlet(ps, xs, lambda x, y: np.sin(x) * np.cos(y))
    window, _ = ps.box_window
    zero = np.zeros((window.nx, window.ny))
    assert np.array_equal(closure.correct_boundary_rhs(cm, zero, ps), cm.rhs)
    rng = np.random.default_rng(7)
    u1 = rng.standard_normal(zero.shape)
    u2 = rng.standard_normal(zero.shape)
    lhs = closure.correct_boundary_rhs(cm, u1 + u2, ps)
    rhs = (
        closure.correct_boundary_rhs(cm, u1, ps)
        + closure.correct_boundary_rhs(cm, u2, ps)
        - cm.rhs
    )
    assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("geometry_name, transforms", [("circle-exterior", 1), ("ellipse", 2)])
def test_zero_forcing_costs_no_transform(monkeypatch, geometry_name, transforms):
    # The exterior's forcing is zero, so only its difference potential
    # needs a box solve; a bounded solve also transforms its forcing.
    from scipy import fft as sfft

    from latticebae import harness

    calls = []
    dstn = sfft.dstn

    def counted(*args, **kwargs):
        calls.append(1)
        return dstn(*args, **kwargs)

    monkeypatch.setattr(sfft, "dstn", counted)
    harness.solve_problem(harness.ExperimentConfig(geometry_name, "dirichlet", n=64))
    assert len(calls) == transforms


# ---------------------------------------------------------------------------
# the box-solve window


def full_grid_values(cfg):
    """Oracle: the bounded recovery with both box solves on the whole
    classification grid (no edge data, since M+ stays off the grid edge)."""
    mf, ps, cm = harness._discretize(cfg, cfg.n)
    grid = ps.grid
    edge = edge_mask(grid)
    rhs = np.zeros((grid.nx, grid.ny))
    inside = ps.m_plus & ~edge
    x, y = grid.nodes(np.argwhere(inside)).T
    rhs[inside] = grid.h**2 * mf.f(x, y)
    u_p = diffpot.fft_poisson_solve(rhs)
    # The correction reads the whole-grid solve at the closure nodes, which
    # the window holds.
    window, (j0, k0) = ps.box_window
    u_p_window = u_p[j0 : j0 + window.nx, k0 : k0 + window.ny]
    cm = replace(cm, rhs=closure.correct_boundary_rhs(cm, u_p_window, ps))
    kernel, _ = harness._formulation(cfg)
    density, _ = solver.solve_system(kernel, cm, ps)
    extension = np.zeros((grid.nx, grid.ny))
    extension[ps.gamma] = gamma_trace(density, kernel, ps)
    rhs = np.zeros((grid.nx, grid.ny))
    band = ~ps.m_plus & ~edge
    rhs[band] = apply_stencil(extension)[band]
    u_h = diffpot.fft_poisson_solve(rhs)
    mp = np.argwhere(ps.m_plus)
    return (u_h + u_p)[mp[:, 0], mp[:, 1]]


# The diamond's corners leave Robin closures without extrapolation
# stencils (ExtrapolationStencilError, by design), so it has no Robin case.
BOUNDED = [("ellipse", "dirichlet"), ("ellipse", "robin"), ("diamond", "dirichlet")]


@pytest.mark.parametrize("formulation", ["single-direct", "single-schur",
                                         "double-direct", "double-schur"])
@pytest.mark.parametrize("geometry_name, bc", BOUNDED)
def test_window_recovery_matches_full_grid(geometry_name, bc, formulation):
    cfg = harness.ExperimentConfig(geometry_name, bc, formulation=formulation,
                                   n=128, aspect=2.0)
    values = harness.solve_problem(cfg).values
    oracle = full_grid_values(cfg)
    assert np.abs(values - oracle).max() <= 1e-9 * np.abs(oracle).max()


@functools.cache
def auxiliary_domain_values(geometry_name, bc):
    cfg = harness.ExperimentConfig(geometry_name, bc, n=64, aspect=2.0)
    return auxiliary_domain_solve(*harness._discretize(cfg, 64))


@pytest.mark.parametrize("formulation", ["single-direct", "double-direct"])
@pytest.mark.parametrize("geometry_name, bc", BOUNDED)
def test_solve_matches_the_auxiliary_domain_reference(geometry_name, bc, formulation):
    # The lattice potential and the paper's bounded auxiliary-domain
    # potential give one discrete solution from the same closure rows,
    # by routes that share no kernel work: 4e-13 to 1.3e-11 relative.
    cfg = harness.ExperimentConfig(geometry_name, bc, formulation=formulation,
                                   n=64, aspect=2.0)
    values = harness.solve_problem(cfg).values
    reference = auxiliary_domain_values(geometry_name, bc)
    assert np.abs(reference - values).max() <= 1e-9 * np.abs(values).max()


def test_exterior_window_is_the_grid():
    cfg = harness.ExperimentConfig("circle-exterior", "dirichlet", n=64)
    _, ps, _ = harness._discretize(cfg, 64)
    assert ps.box_window == (ps.grid, (0, 0))


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


@pytest.mark.parametrize("n", [32, 128, 1024])
@pytest.mark.parametrize("geometry_name", ["ellipse", "diamond"])
def test_bounded_window_covers_n_plus_with_fast_lengths(geometry_name, n):
    grid = harness.build_grid(harness.ExperimentConfig(geometry_name, "dirichlet"), n)
    shape = geometry.ellipse(2.0) if geometry_name == "ellipse" else geometry.diamond()
    ps = geometry.classify(grid, shape)
    window, (j0, k0) = ps.box_window
    assert _is_5_smooth(window.nx - 1) and _is_5_smooth(window.ny - 1)
    assert window.h == grid.h and window.origin == grid.node(j0, k0)
    covered = np.zeros_like(ps.n_plus)
    covered[j0 : j0 + window.nx, k0 : k0 + window.ny] = True
    assert not (ps.n_plus & ~covered).any()
    if geometry_name == "ellipse":
        assert window.nx * window.ny < grid.nx * grid.ny


@pytest.mark.parametrize("bc", ["dirichlet", "robin"])
def test_gamma_and_eta_lie_two_nodes_inside_the_window(bc):
    cfg = harness.ExperimentConfig("ellipse", bc, n=128, aspect=2.0)
    mf, ps, cm = harness._discretize(cfg, 128)
    window, offset = ps.box_window
    for nodes in (ps.gamma_indices, cm.eta):
        local = nodes - offset
        assert (local >= 2).all() and (local <= (window.nx - 3, window.ny - 3)).all()
    # The library checks this rather than assuming it: a window array one
    # node too tight for the closure nodes is refused.
    u_p = diffpot.particular_solution(mf.f, ps)
    hi = max(nodes[:, 0].max() for nodes in (ps.gamma_indices, cm.gamma_tilde_plus, cm.eta)
             if len(nodes)) - offset[0]
    tight = u_p[: hi + 2]
    with pytest.raises(AssemblyError):
        closure.correct_boundary_rhs(cm, tight, ps)
