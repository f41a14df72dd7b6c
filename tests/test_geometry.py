"""Tests for node classification and boundary-crossing selection."""

import numpy as np
import pytest

from latticebae.errors import (
    AssemblyError,
    DegenerateDomainError,
    GeometryTooTightError,
)
from latticebae.geometry import (
    DIRECTIONS,
    Grid,
    circle_exterior,
    classify,
    custom,
    diamond,
    dump_classification_csv,
    ellipse,
    select_intersections,
)
from latticebae.potentials import LayerKind, _exterior_connections
from reference import assemble_layer_matrix


def centered_grid(half_width, n_cells):
    return Grid.from_box((-half_width, half_width), (-half_width, half_width), n_cells)


def brute_force_sets(grid, shape):
    """Reference construction straight from the definitions."""
    x, y = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    m_plus = shape.psi(x, y) <= 0.0
    n_plus = np.zeros_like(m_plus)
    n_minus = np.zeros_like(m_plus)
    for j in range(grid.nx):
        for k in range(grid.ny):
            for dj, dk in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
                jj, kk = j + dj, k + dk
                if 0 <= jj < grid.nx and 0 <= kk < grid.ny:
                    if m_plus[jj, kk]:
                        n_plus[j, k] = True
                    else:
                        n_minus[j, k] = True
    gamma = n_plus & n_minus
    return m_plus, n_plus, n_minus, gamma


@pytest.mark.parametrize("shape", [ellipse(1.0), ellipse(4.0), diamond(0.9, 0.5)])
def test_classify_matches_brute_force(shape):
    grid = centered_grid(1.15, 48)
    ps = classify(grid, shape)
    m_plus, n_plus, n_minus, gamma = brute_force_sets(grid, shape)
    np.testing.assert_array_equal(ps.m_plus, m_plus)
    np.testing.assert_array_equal(ps.n_plus, n_plus)
    np.testing.assert_array_equal(~ps.m_plus | ps.gamma_plus, n_minus)
    np.testing.assert_array_equal(ps.gamma, gamma)
    # Set algebra identities.
    np.testing.assert_array_equal(ps.gamma_plus, gamma & m_plus)
    np.testing.assert_array_equal(ps.gamma_minus, gamma & ~m_plus)
    np.testing.assert_array_equal(ps.gamma_plus | ps.gamma_minus, ps.gamma)
    assert not (ps.gamma_plus & ps.gamma_minus).any()
    np.testing.assert_array_equal(ps.gamma_minus, ps.n_plus & ~m_plus)
    np.testing.assert_array_equal(ps.gamma_plus, n_minus & m_plus)


STAR = custom(lambda x, y: np.hypot(x, y) - 0.7 * (1.0 + 0.25 * np.cos(5.0 * np.arctan2(y, x))),
              label="star")


@pytest.mark.parametrize("shape, half_width", [
    (ellipse(2.0), 1.15), (diamond(0.9, 0.5), 1.15), (circle_exterior(), 3.0), (STAR, 1.15),
])
def test_classify_in_row_blocks_is_bitwise_the_full_grid_psi(shape, half_width):
    # 201 nodes per axis: three full blocks of rows and a partial one.
    grid = centered_grid(half_width, 200)
    x, y = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    np.testing.assert_array_equal(classify(grid, shape).m_plus, shape.psi(x, y) <= 0.0)


@pytest.mark.parametrize("shape, half_width", [
    (ellipse(2.0), 1.15), (diamond(0.9, 0.5), 1.15), (circle_exterior(), 3.0), (STAR, 1.15),
])
def test_gamma_index_sets_are_bitwise_the_full_grid_argwhere(shape, half_width):
    ps = classify(centered_grid(half_width, 200), shape)
    for mask, indices in ((ps.gamma, ps.gamma_indices), (ps.gamma_plus, ps.gamma_plus_indices),
                          (ps.gamma_minus, ps.gamma_minus_indices)):
        reference = np.argwhere(mask)
        assert indices.dtype == reference.dtype and indices.shape == reference.shape
        assert indices.tobytes() == reference.tobytes()


def test_classify_holds_its_masks_and_one_block_of_rows(traced_peak):
    # Exterior n=256.  The six masks are 0.75 float grid arrays, and one
    # 64-row block of psi temporaries a quarter grid each; measured 1.38
    # grid arrays (margin 27%), and 4.0 when psi was evaluated on the
    # whole grid at once.
    grid = centered_grid(3.0, 256)
    peak, _ = traced_peak(classify, grid, circle_exterior())
    assert peak <= 1.75 * 8 * grid.nx * grid.ny


@pytest.mark.parametrize("centre", [(-0.12, 0.0), (0.12, 0.0), (0.0, -0.12), (0.0, 0.12)])
def test_classify_rejects_a_boundary_near_any_one_edge(centre):
    # The unit circle in a box of half-width 1.15, shifted towards one
    # edge, passes within 2h of that edge alone.
    grid = centered_grid(1.15, 32)
    cx, cy = centre
    near = custom(lambda x, y: (x - cx) ** 2 + (y - cy) ** 2 - 1.0)
    with pytest.raises(GeometryTooTightError):
        classify(grid, near)
    classify(grid, ellipse(1.0))


def test_boundary_node_counts_as_inside():
    # h = 0.5 with the box [-2.5, 2.5]: nodes at +-1.0 sit exactly on
    # the unit circle and must land in M+ (and in gamma+).
    grid = centered_grid(2.5, 10)
    ps = classify(grid, ellipse(1.0))
    j_node = round((1.0 - grid.origin[0]) / grid.h)
    k_zero = round(-grid.origin[1] / grid.h)
    assert grid.node(j_node, k_zero) == pytest.approx((1.0, 0.0))
    assert ps.m_plus[j_node, k_zero]
    assert ps.gamma_plus[j_node, k_zero]
    assert not ps.gamma_minus[j_node, k_zero]


def test_classify_rejects_empty_interior():
    grid = centered_grid(1.0, 10)
    faraway = custom(lambda x, y: (x - 50.0) ** 2 + y * y - 1.0)
    with pytest.raises(DegenerateDomainError):
        classify(grid, faraway)


def test_classify_rejects_box_inside_domain():
    grid = centered_grid(0.4, 8)
    with pytest.raises(DegenerateDomainError):
        classify(grid, ellipse(1.0))


def test_classify_rejects_tight_margin():
    # Unit circle in a box that leaves less than 2h of clearance.
    grid = centered_grid(1.05, 16)
    with pytest.raises(GeometryTooTightError):
        classify(grid, ellipse(1.0))


def test_exterior_domain_classifies():
    grid = centered_grid(3.0, 48)
    ps = classify(grid, circle_exterior())
    # Outside the circle is M+; the center of the box is not.
    assert ps.m_plus[0, 0]
    assert not ps.m_plus[24, 24]
    assert ps.gamma_minus.sum() > 0


def test_refinement_grows_gamma():
    shape = ellipse(2.0)
    coarse = classify(centered_grid(1.15, 32), shape)
    fine = classify(centered_grid(1.15, 64), shape)
    assert len(fine.gamma_minus_indices) >= 2 * len(coarse.gamma_minus_indices) - 8


def test_intersections_on_coarse_circle():
    # h = 0.6, nodes at multiples of 0.6: gamma- node (1.2, 0) pairs with
    # inner node (0.6, 0) and the crossing (1.0, 0), alpha = 2/3.
    grid = centered_grid(3.0, 10)
    shape = ellipse(1.0)
    ps = classify(grid, shape)
    points = select_intersections(ps, shape)
    assert len(points) == len(ps.gamma_minus_indices)
    j_out = round((1.2 - grid.origin[0]) / grid.h)
    k_zero = round(-grid.origin[1] / grid.h)
    match = np.flatnonzero((points.owner == (j_out, k_zero)).all(axis=1))
    assert len(match) == 1
    i = match[0]
    assert tuple(points.location[i]) == pytest.approx((1.0, 0.0), abs=1e-12)
    assert tuple(points.inner[i]) == (j_out - 1, k_zero)
    assert points.alpha[i] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert tuple(points.normal[i]) == pytest.approx((1.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("shape", [ellipse(2.0), diamond(0.9, 0.5)])
def test_intersection_invariants(shape):
    grid = centered_grid(1.15, 48)
    ps = classify(grid, shape)
    points = select_intersections(ps, shape)
    owners = {tuple(owner) for owner in points.owner}
    assert owners == {tuple(idx) for idx in ps.gamma_minus_indices}
    for (x, y), alpha, inner, owner, normal in zip(
        points.location, points.alpha, points.inner, points.owner, points.normal
    ):
        assert abs(shape.psi(np.float64(x), np.float64(y))) < 1e-12
        assert 0.0 <= alpha < 1.0
        # location = (1-alpha) inner + alpha owner, re-derived.
        xi, yi = grid.node(*inner)
        xo, yo = grid.node(*owner)
        assert x == pytest.approx((1.0 - alpha) * xi + alpha * xo, abs=1e-12)
        assert y == pytest.approx((1.0 - alpha) * yi + alpha * yo, abs=1e-12)
        assert np.hypot(*normal) == pytest.approx(1.0, abs=1e-12)
        # Outward orientation: psi grows along the normal.
        eps = 1e-6
        ahead = shape.psi(x + eps * normal[0], y + eps * normal[1])
        behind = shape.psi(x - eps * normal[0], y - eps * normal[1])
        assert ahead > behind


def test_crossing_picks_nearest_to_owner():
    # For each selected point, no other candidate segment of the same
    # owner has a crossing with larger alpha.
    grid = centered_grid(1.15, 32)
    shape = ellipse(2.0)
    ps = classify(grid, shape)
    points = select_intersections(ps, shape)
    for (j, k), alpha in zip(points.owner, points.alpha):
        for dj, dk in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            jj, kk = j + dj, k + dk
            if not (0 <= jj < grid.nx and 0 <= kk < grid.ny) or not ps.m_plus[jj, kk]:
                continue
            # Bisect this segment independently.
            xo, yo = grid.node(j, k)
            xi, yi = grid.node(jj, kk)
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if shape.psi(xo + mid * (xi - xo), yo + mid * (yi - yo)) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            alpha_candidate = 1.0 - hi
            assert alpha >= alpha_candidate - 1e-10


def test_alpha_zero_when_node_on_boundary():
    grid = centered_grid(2.5, 10)
    shape = ellipse(1.0)
    ps = classify(grid, shape)
    points = select_intersections(ps, shape)
    j_out = round((1.5 - grid.origin[0]) / grid.h)
    k_zero = round(-grid.origin[1] / grid.h)
    match = np.flatnonzero((points.owner == (j_out, k_zero)).all(axis=1))
    assert len(match) == 1
    assert points.alpha[match[0]] == 0.0
    assert tuple(points.location[match[0]]) == pytest.approx((1.0, 0.0), abs=1e-14)


def test_exact_alpha_ties_take_the_x_step():
    # h = 3/16 is exact, and the circle is symmetric under x <-> y, so the
    # four diagonal owners below cross Gamma at bitwise-equal alphas on
    # their x and y segments.  The direction order gives the x step.
    grid = Grid.from_box((-1.5, 1.5), (-1.5, 1.5), 16)
    shape = ellipse(1.0)
    points = select_intersections(classify(grid, shape), shape)
    for owner, inner in (((4, 4), (5, 4)), ((4, 12), (5, 12)),
                         ((12, 4), (11, 4)), ((12, 12), (11, 12))):
        (i,) = np.flatnonzero((points.owner == owner).all(axis=1))
        assert tuple(points.inner[i]) == inner
        assert points.alpha[i] == 0.5276684147527879


def test_multi_crossing_segment_rejected():
    # Two sub-cell strips make one lattice segment cross the boundary
    # three times; crossing selection must refuse rather than pick one.
    def psi(x, y):
        s1 = (x - 0.05) * (x - 0.10)
        s2 = (x - 0.20) * (x - 0.45)
        return np.maximum(np.minimum(s1, s2), np.abs(y) - 0.25)

    strips = custom(psi)
    grid = centered_grid(1.0, 8)
    ps = classify(grid, strips)
    with pytest.raises(GeometryTooTightError):
        select_intersections(ps, strips)


def brute_force_connections(ps, node):
    """Exterior connections of a gamma- node from the definition: its
    four-neighbours inside the box, in M- and not in gamma-."""
    j, k = node
    return {
        (j + d1, k + d2) for d1, d2 in DIRECTIONS
        if 0 <= j + d1 < ps.grid.nx and 0 <= k + d2 < ps.grid.ny
        and not ps.m_plus[j + d1, k + d2] and not ps.gamma_minus[j + d1, k + d2]
    }


def connections_by_structure(ps, sources):
    """The connection sets that the double kernel applies, per source:
    the nodes of E with a -1 in the source's column of B."""
    expanded, b = _exterior_connections(ps, sources)
    b = b.tocsc()
    sets = []
    for col in range(len(sources)):
        rows = b.indices[b.indptr[col] : b.indptr[col + 1]]
        values = b.data[b.indptr[col] : b.indptr[col + 1]]
        sets.append({tuple(int(v) for v in expanded[r]) for r in rows[values == -1]})
    return sets


def test_exterior_connections_definition():
    grid = centered_grid(3.0, 10)
    shape = ellipse(1.0)
    ps = classify(grid, shape)
    j_out = round((1.2 - grid.origin[0]) / grid.h)
    k_zero = round(-grid.origin[1] / grid.h)
    (conns,) = connections_by_structure(ps, np.array([[j_out, k_zero]]))
    assert (j_out + 1, k_zero) in conns
    assert conns == brute_force_connections(ps, (j_out, k_zero))


def test_exterior_connections_nonempty_on_convex_shapes():
    for shape in (ellipse(1.0), ellipse(8.0), diamond(0.9, 0.5), circle_exterior(1.0)):
        grid = centered_grid(1.15, 64)
        ps = classify(grid, shape)
        sources = ps.gamma_minus_indices
        conns = connections_by_structure(ps, sources)
        assert conns == [brute_force_connections(ps, tuple(idx)) for idx in sources]
        assert all(conns)


CONNECTION_CASES = [
    (3.0, 10, ellipse(1.0)),
    *((1.15, 64, shape) for shape in
      (ellipse(1.0), ellipse(8.0), diamond(0.9, 0.5), circle_exterior(1.0))),
]


@pytest.mark.parametrize("half_width, n_cells, shape", CONNECTION_CASES)
def test_connection_matrix_invariants(half_width, n_cells, shape):
    ps = classify(centered_grid(half_width, n_cells), shape)
    sources = ps.gamma_minus_indices
    expanded, b = _exterior_connections(ps, sources)
    assert b.shape == (len(expanded), len(sources))
    # The double layer carries no net charge.
    assert np.all(b.sum(axis=0) == 0.0)
    sizes = [len(brute_force_connections(ps, tuple(idx))) for idx in sources]
    assert np.array_equal(np.diff(b.tocsc().indptr), np.array(sizes) + 1)
    # E is in canonical order, each node once, inside gamma- or M- \ gamma-.
    keys = expanded[:, 0] * ps.grid.ny + expanded[:, 1]
    assert np.all(np.diff(keys) > 0)
    allowed = ps.gamma_minus | (~ps.m_plus & ~ps.gamma_minus)
    assert allowed[expanded[:, 0], expanded[:, 1]].all()


def test_exterior_connections_requires_gamma_minus_node():
    # The connection rule is defined for gamma- sources only; the layer
    # assembly that applies it refuses any other source.
    grid = centered_grid(3.0, 10)
    ps = classify(grid, ellipse(1.0))
    with pytest.raises(AssemblyError):
        assemble_layer_matrix(ps.gamma_indices, np.array([[0, 0]]), LayerKind.DOUBLE, ps)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(h=0.0, origin=(0.0, 0.0), nx=8, ny=8)
    with pytest.raises(ValueError):
        Grid(h=0.1, origin=(0.0, 0.0), nx=3, ny=8)
    with pytest.raises(ValueError):
        Grid.from_box((0.0, 1.0), (0.0, 0.95), 10)


def test_classification_csv_dump(tmp_path):
    grid = centered_grid(3.0, 10)
    ps = classify(grid, ellipse(1.0))
    path = tmp_path / "sets.csv"
    dump_classification_csv(ps, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,class"
    assert len(lines) == 1 + grid.nx * grid.ny
    classes = {line.split(",")[2] for line in lines[1:]}
    assert classes == {"M+", "M-", "gamma+", "gamma-"}
