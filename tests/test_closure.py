"""Tests for the boundary closure rows."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from latticebae import closure, geometry
from latticebae.errors import AssemblyError, ConfigError, ExtrapolationStencilError


def centered_grid(half, n):
    return geometry.Grid.from_box((-half, half), (-half, half), n)


def sample(u, indices, grid):
    return np.array([u(*grid.node(int(j), int(k))) for j, k in indices])


def flat_edged_rectangle(c):
    """Rectangle [-0.9, c] x [-0.9, 0.9]; its right edge acts as a half-plane."""
    return geometry.custom(
        psi=lambda x, y: np.maximum(np.maximum(x - c, -0.9 - x), np.abs(y) - 0.9),
        grad=None,
        label="rectangle",
    )


@pytest.fixture(scope="module")
def ellipse_setup():
    # Coarse enough that some support cells trap exterior nodes outside
    # gamma-, so the eta extrapolation path is exercised.
    grid = centered_grid(1.5, 16)
    shape = geometry.ellipse(2.0)
    ps = geometry.classify(grid, shape)
    xs = geometry.select_intersections(ps, shape)
    return grid, ps, xs


@pytest.fixture(scope="module")
def rectangle_setup():
    grid = centered_grid(1.15, 32)
    shape = flat_edged_rectangle(0.305)
    ps = geometry.classify(grid, shape)
    xs = geometry.select_intersections(ps, shape)
    return grid, ps, xs


# ---------------------------------------------------------------------------
# basis functions


def test_quadratic_midpoint_slice():
    grid = geometry.Grid(h=0.25, origin=(0.0, 0.0), nx=8, ny=8)
    value, _, _ = closure.quadratic_basis(np.array([(0, 0)]), np.array([(0.125, 0.0)]), grid)
    values = value[0, :, 0]
    assert np.allclose(values, [3.0 / 8.0, 3.0 / 4.0, -1.0 / 8.0], atol=1e-14)


def test_quadratic_kronecker_and_unity():
    grid = geometry.Grid(h=0.3, origin=(-1.0, -1.0), nx=12, ny=12)
    nodes = np.array([(2 + i, 3 + j) for i in range(3) for j in range(3)])
    anchors = np.tile((2, 3), (9, 1))
    value, _, _ = closure.quadratic_basis(anchors, grid.nodes(nodes), grid)
    # Row b: the 9 basis functions, in local order, at the cell's node b.
    assert np.abs(value.reshape(9, 9) - np.eye(9)).max() < 1e-13
    rng = np.random.default_rng(9)
    points = grid.node(2, 3) + rng.uniform(0.0, 2 * grid.h, size=(10, 2))
    value, _, _ = closure.quadratic_basis(np.tile((2, 3), (10, 1)), points, grid)
    assert np.abs(value.sum(axis=(1, 2)) - 1.0).max() < 1e-13


def test_quadratic_grad_matches_finite_differences():
    grid = geometry.Grid(h=0.3, origin=(-1.0, -1.0), nx=12, ny=12)
    anchors = np.tile((1, 1), (5, 1))
    rng = np.random.default_rng(3)
    delta = 1e-6
    points = grid.node(1, 1) + rng.uniform(0.0, 2 * grid.h, size=(5, 2))
    _, gx, gy = closure.quadratic_basis(anchors, points, grid)

    def value_at(shift):
        return closure.quadratic_basis(anchors, points + shift, grid)[0]

    fx = (value_at((delta, 0.0)) - value_at((-delta, 0.0))) / (2 * delta)
    fy = (value_at((0.0, delta)) - value_at((0.0, -delta))) / (2 * delta)
    assert np.abs(gx - fx).max() < 1e-8
    assert np.abs(gy - fy).max() < 1e-8


# ---------------------------------------------------------------------------
# boundary condition objects


def test_robin_zero_alpha_rejected():
    with pytest.raises(ConfigError):
        closure.robin(0.0, 1.0, lambda x, y: 0.0)


def test_neumann_is_robin():
    bc = closure.neumann(lambda x, y: 0.0)
    assert bc.kind == "robin"
    assert bc.alpha_coef == 1.0
    assert bc.beta_coef == 0.0


# ---------------------------------------------------------------------------
# Dirichlet rows


def test_dirichlet_shapes_and_diagonal(ellipse_setup):
    grid, ps, xs = ellipse_setup
    cm = closure.assemble_dirichlet(ps, xs, lambda x, y: 0.0)
    n = len(ps.gamma_minus_indices)
    assert cm.phi_plus.shape == (n, len(ps.gamma_plus_indices))
    assert cm.phi_minus.shape == (n, n)
    assert cm.phi_prime_minus.shape == (n, 0)
    assert cm.r_plus.shape == (0, len(ps.gamma_plus_indices))
    assert cm.r_minus.shape == (0, n)
    off_diagonal = cm.phi_minus.toarray() - np.diag(cm.phi_minus.diagonal())
    assert np.abs(off_diagonal).max() == 0.0
    diag = cm.phi_minus.diagonal()
    assert np.all(diag >= 0.0)
    assert np.all(diag < 1.0)
    assert np.allclose(diag, xs.alpha, atol=1e-14)


def test_dirichlet_exact_on_bilinear_polynomials(ellipse_setup):
    grid, ps, xs = ellipse_setup
    cm = closure.assemble_dirichlet(ps, xs, lambda x, y: 0.0)
    for u in (
        lambda x, y: np.ones_like(x),
        lambda x, y: x,
        lambda x, y: y,
        lambda x, y: x * y,
    ):
        got = cm.phi_plus @ sample(u, cm.gamma_tilde_plus, grid) + cm.phi_minus @ sample(
            u, cm.gamma_minus, grid
        )
        want = np.array([u(*location) for location in xs.location])
        assert np.abs(got - want).max() < 1e-12


def test_dirichlet_rhs_and_row_sums(ellipse_setup):
    grid, ps, xs = ellipse_setup
    cm = closure.assemble_dirichlet(ps, xs, lambda x, y: 1.0)
    assert np.allclose(cm.rhs, 1.0)
    sums = cm.phi_plus @ np.ones(cm.phi_plus.shape[1]) + cm.phi_minus @ np.ones(
        cm.phi_minus.shape[1]
    )
    assert np.abs(sums - 1.0).max() < 1e-13


def test_dirichlet_coarse_circle_row_values():
    grid = centered_grid(3.0, 10)
    shape = geometry.ellipse(1.0)
    ps = geometry.classify(grid, shape)
    xs = geometry.select_intersections(ps, shape)
    cm = closure.assemble_dirichlet(ps, xs, lambda x, y: x)
    owners = [tuple(map(int, idx)) for idx in ps.gamma_minus_indices]
    i = owners.index((7, 5))  # the node at (1.2, 0)
    assert abs(xs.alpha[i] - 2.0 / 3.0) < 1e-12
    assert abs(cm.phi_minus[i, i] - 2.0 / 3.0) < 1e-12
    row = cm.phi_plus[[i], :].toarray().ravel()
    (j,) = np.nonzero(row)[0:1]
    assert len(j) == 1
    assert abs(row[j[0]] - 1.0 / 3.0) < 1e-12
    assert tuple(cm.gamma_tilde_plus[j[0]]) == (6, 5)  # the node at (0.6, 0)
    assert abs(cm.rhs[i] - 1.0) < 1e-12


def test_dirichlet_on_boundary_node_row_is_identity():
    grid = centered_grid(2.5, 10)
    shape = geometry.ellipse(1.0)
    ps = geometry.classify(grid, shape)
    xs = geometry.select_intersections(ps, shape)
    cm = closure.assemble_dirichlet(ps, xs, lambda x, y: x + 2.0)
    i = int(np.flatnonzero(xs.alpha == 0.0)[0])
    assert cm.phi_minus[i, i] == 0.0
    row = cm.phi_plus[[i], :].toarray().ravel()
    nz = np.nonzero(row)[0]
    assert len(nz) == 1
    assert row[nz[0]] == 1.0
    node = tuple(cm.gamma_tilde_plus[nz[0]])
    assert np.allclose(grid.node(*node), xs.location[i])


# ---------------------------------------------------------------------------
# support cells and eta extrapolation


def flat_edge_rows(xs):
    """Rows of the rectangle whose crossing sits on a flat edge, away from corners."""
    for i, ((x, y), normal) in enumerate(zip(xs.location, xs.normal)):
        near_corner = min(abs(abs(x) - 0.9), abs(x - 0.305)) < 0.2
        near_corner &= min(abs(abs(y) - 0.9), 2.0) < 0.2
        if max(abs(normal[0]), abs(normal[1])) > 0.999 and not near_corner:
            yield i


def test_flat_edge_support_cells_mostly_interior(rectangle_setup):
    grid, ps, xs = rectangle_setup
    support = closure.build_support_cells(xs, ps)
    assert len(support.anchors) == len(xs)
    checked = 0
    for i in flat_edge_rows(xs):
        assert support.interior_counts[i] >= 6
        checked += 1
    assert checked > 10
    for anchor, location in zip(support.anchors, xs.location):
        lo = np.array(grid.node(*anchor)) - grid.h
        hi = lo + 4 * grid.h
        assert np.all(location >= lo - 1e-12)
        assert np.all(location <= hi + 1e-12)


def test_support_cells_match_a_per_point_search(ellipse_setup):
    # The loop form of the cell choice: the first best anchor in (a, b) order.
    grid, ps, xs = ellipse_setup
    support = closure.build_support_cells(xs, ps)
    for location, anchor, count in zip(xs.location, support.anchors, support.interior_counts):
        xi = [(c - o) / grid.h for c, o in zip(location, grid.origin)]
        xi = [round(t) if abs(t - round(t)) < 1e-9 else t for t in xi]
        best, best_count = None, -1
        for a in range(math.ceil(xi[0]) - 2, math.floor(xi[0]) + 1):
            for b in range(math.ceil(xi[1]) - 2, math.floor(xi[1]) + 1):
                inside = int(ps.m_plus[a:a + 3, b:b + 3].sum())
                if inside > best_count:
                    best, best_count = (a, b), inside
        assert tuple(map(int, anchor)) == best
        assert count == best_count


def test_support_sets_are_consistent(ellipse_setup):
    grid, ps, xs = ellipse_setup
    support = closure.build_support_cells(xs, ps)
    plus = {tuple(map(int, idx)) for idx in ps.gamma_plus_indices}
    tilde = {tuple(map(int, idx)) for idx in support.gamma_tilde_plus}
    assert plus <= tilde
    for j, k in support.gamma_tilde_plus:
        assert ps.m_plus[j, k]
    minus = {tuple(map(int, idx)) for idx in ps.gamma_minus_indices}
    for j, k in support.eta:
        assert not ps.m_plus[j, k]
        assert (int(j), int(k)) not in minus
    # The curved boundary must actually exercise the eta machinery.
    assert len(support.eta) > 0


def test_eta_extrapolation_exact_on_quadratics(ellipse_setup):
    grid, ps, xs = ellipse_setup
    support = closure.build_support_cells(xs, ps)
    bc = closure.robin(1.0, 1.0, lambda x, y: 0.0)
    cm = closure.assemble_robin(ps, xs, support, bc)
    for u in (lambda x, y: x * x, lambda x, y: x * y, lambda x, y: y * y):
        residual = (
            sample(u, cm.eta, grid)
            + cm.r_plus @ sample(u, cm.gamma_tilde_plus, grid)
            + cm.r_minus @ sample(u, cm.gamma_minus, grid)
        )
        assert np.abs(residual).max() < 1e-12


def test_eta_stencil_failure_is_reported():
    grid = centered_grid(1.15, 32)
    ps = geometry.classify(grid, geometry.ellipse(2.0))
    # A node far outside the domain has no usable run in any direction.
    with pytest.raises(ExtrapolationStencilError):
        closure._eta_stencils(np.array([(1, 1)]), ps)


def test_eta_stencil_takes_the_negative_direction_on_ties():
    # Every node but (5, 5) is interior, so all four directions offer a
    # run of three: the x axis wins, and on it the negative direction.
    grid = geometry.Grid(h=1.0, origin=(0.0, 0.0), nx=11, ny=11)
    shape = geometry.custom(psi=lambda x, y: np.where((x == 5.0) & (y == 5.0), 1.0, -1.0))
    ps = geometry.classify(grid, shape)
    assert ps.m_plus.sum() == 11 * 11 - 1
    stencil = closure._eta_stencils(np.array([(5, 5)]), ps)
    assert stencil.tolist() == [[[4, 5], [3, 5], [2, 5]]]
    assert closure._EXTRAP_WEIGHTS == (3.0, -3.0, 1.0)


def test_thin_diamond_tip_defeats_extrapolation():
    # Near the diamond tips the exterior cell nodes see no run of three
    # usable neighbors on either axis; the failure must be reported, not
    # papered over.
    grid = centered_grid(1.15, 32)
    shape = geometry.diamond(0.9, 0.5)
    ps = geometry.classify(grid, shape)
    xs = geometry.select_intersections(ps, shape)
    with pytest.raises(ExtrapolationStencilError):
        closure.build_support_cells(xs, ps)


def test_finer_grid_assembles_without_eta():
    # On a finer grid of the same ellipse every exterior cell node is a
    # gamma- node; the closure must degrade gracefully to empty eta.
    grid = centered_grid(1.15, 32)
    shape = geometry.ellipse(2.0)
    ps = geometry.classify(grid, shape)
    xs = geometry.select_intersections(ps, shape)
    support = closure.build_support_cells(xs, ps)
    assert len(support.eta) == 0
    bc = closure.robin(0.7, 1.3, lambda x, y: 0.0)
    cm = closure.assemble_robin(ps, xs, support, bc)
    u, du = QUADRATICS[4]
    got = robin_apply(cm, u, grid)
    want = np.array(
        [0.7 * np.dot(du(*location), normal) + 1.3 * u(*location)
         for location, normal in zip(xs.location, xs.normal)]
    )
    assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# Robin rows


def robin_apply(cm, u, grid):
    return (
        cm.phi_plus @ sample(u, cm.gamma_tilde_plus, grid)
        + cm.phi_minus @ sample(u, cm.gamma_minus, grid)
        + cm.phi_prime_minus @ sample(u, cm.eta, grid)
    )


QUADRATICS = (
    (lambda x, y: 1.0, lambda x, y: (0.0, 0.0)),
    (lambda x, y: x, lambda x, y: (1.0, 0.0)),
    (lambda x, y: y, lambda x, y: (0.0, 1.0)),
    (lambda x, y: x * x, lambda x, y: (2 * x, 0.0)),
    (lambda x, y: x * y, lambda x, y: (y, x)),
    (lambda x, y: y * y, lambda x, y: (0.0, 2 * y)),
)


def test_robin_rows_reproduce_quadratics(ellipse_setup):
    grid, ps, xs = ellipse_setup
    support = closure.build_support_cells(xs, ps)
    bc = closure.robin(0.7, 1.3, lambda x, y: 0.0)
    for u, du in QUADRATICS:
        got = robin_apply(closure.assemble_robin(ps, xs, support, bc), u, grid)
        want = np.array(
            [
                0.7 * np.dot(du(*location), normal) + 1.3 * u(*location)
                for location, normal in zip(xs.location, xs.normal)
            ]
        )
        assert np.abs(got - want).max() < 1e-12


def test_robin_rows_match_a_scalar_loop(ellipse_setup):
    # The loop form of the row arithmetic, in the same order: equal bit for bit.
    grid, ps, xs = ellipse_setup
    support = closure.build_support_cells(xs, ps)
    cm = closure.assemble_robin(ps, xs, support, closure.robin(0.7, 1.3, lambda x, y: 0.0))
    nodes = np.concatenate([cm.gamma_tilde_plus, cm.gamma_minus, cm.eta])
    column = {(int(j), int(k)): c for c, (j, k) in enumerate(nodes)}
    got = sparse.hstack([cm.phi_plus, cm.phi_minus, cm.phi_prime_minus]).toarray()
    want = np.zeros_like(got)

    def lagrange3(t):
        return ((0.5 * (t - 1.0) * (t - 2.0), t * (2.0 - t), 0.5 * t * (t - 1.0)),
                (t - 1.5, 2.0 - 2.0 * t, t - 0.5))

    for i, ((x, y), normal, (a, b)) in enumerate(zip(xs.location, xs.normal, support.anchors)):
        xa, yb = grid.node(int(a), int(b))
        lx, dlx = lagrange3((x - xa) / grid.h)
        ly, dly = lagrange3((y - yb) / grid.h)
        for li in range(3):
            for lj in range(3):
                gx = dlx[li] * ly[lj] / grid.h
                gy = lx[li] * dly[lj] / grid.h
                want[i, column[(int(a) + li, int(b) + lj)]] = (
                    0.7 * (gx * normal[0] + gy * normal[1]) + 1.3 * (lx[li] * ly[lj]))
    assert np.array_equal(got, want)


def test_robin_eliminated_rows_reproduce_quadratics(ellipse_setup):
    grid, ps, xs = ellipse_setup
    support = closure.build_support_cells(xs, ps)
    bc = closure.robin(0.4, 2.0, lambda x, y: 0.0)
    cm = closure.assemble_robin(ps, xs, support, bc)
    e_plus = cm.phi_plus - cm.phi_prime_minus @ cm.r_plus
    e_minus = cm.phi_minus - cm.phi_prime_minus @ cm.r_minus
    for u, du in QUADRATICS:
        got = e_plus @ sample(u, cm.gamma_tilde_plus, grid) + e_minus @ sample(
            u, cm.gamma_minus, grid
        )
        want = np.array(
            [
                0.4 * np.dot(du(*location), normal) + 2.0 * u(*location)
                for location, normal in zip(xs.location, xs.normal)
            ]
        )
        assert np.abs(got - want).max() < 1e-12


def test_neumann_annihilates_constants(ellipse_setup):
    grid, ps, xs = ellipse_setup
    support = closure.build_support_cells(xs, ps)
    cm = closure.assemble_robin(ps, xs, support, closure.neumann(lambda x, y: 0.0))
    got = robin_apply(cm, lambda x, y: 1.0, grid)
    assert np.abs(got).max() < 1e-12


def test_rectangle_neumann_rows_give_normal_slope(rectangle_setup):
    grid, ps, xs = rectangle_setup
    support = closure.build_support_cells(xs, ps)
    cm = closure.assemble_robin(ps, xs, support, closure.neumann(lambda x, y: 0.0))
    got = robin_apply(cm, lambda x, y: x, grid)
    want = xs.normal[:, 0]
    assert np.abs(got - want).max() < 1e-12
    # On the flat right edge du/dn is exactly 1.
    right = [i for i in flat_edge_rows(xs) if xs.normal[i, 0] > 0.999]
    assert right and np.abs(got[right] - 1.0).max() < 1e-12


def test_robin_row_count_and_rhs(ellipse_setup):
    grid, ps, xs = ellipse_setup
    support = closure.build_support_cells(xs, ps)
    bc = closure.robin(1.0, 2.0, lambda x, y: x - y)
    cm = closure.assemble_robin(ps, xs, support, bc)
    assert cm.phi_plus.shape[0] == len(ps.gamma_minus_indices)
    want = xs.location[:, 0] - xs.location[:, 1]
    assert np.allclose(cm.rhs, want)


def test_assembly_is_deterministic(ellipse_setup):
    grid, ps, xs = ellipse_setup
    bc = closure.robin(1.0, 1.0, lambda x, y: 0.0)
    a = closure.assemble_closure(ps, xs, bc)
    b = closure.assemble_closure(ps, xs, bc)
    for name in ("phi_plus", "phi_minus", "phi_prime_minus", "r_plus", "r_minus"):
        diff = getattr(a, name) - getattr(b, name)
        assert diff.nnz == 0
    assert np.array_equal(a.gamma_tilde_plus, b.gamma_tilde_plus)
    assert np.array_equal(a.eta, b.eta)


# ---------------------------------------------------------------------------
# intersection points from other point sets


def ellipse_sets(n):
    grid = centered_grid(1.15, n)
    shape = geometry.ellipse(2.0)
    ps = geometry.classify(grid, shape)
    return grid, ps, geometry.select_intersections(ps, shape)


@pytest.mark.parametrize("n_ps, n_xs", [(64, 128), (128, 64)])
@pytest.mark.parametrize("bc", [closure.dirichlet(lambda x, y: 1.0),
                                closure.robin(1.0, 1.0, lambda x, y: 1.0)],
                         ids=["dirichlet", "robin"])
def test_intersections_of_other_point_sets_are_rejected(bc, n_ps, n_xs):
    grid, ps, _ = ellipse_sets(n_ps)
    _, _, xs = ellipse_sets(n_xs)
    with pytest.raises(AssemblyError, match="gamma- nodes"):
        closure.assemble_closure(ps, xs, bc)


def test_dirichlet_inner_node_off_gamma_plus_is_rejected():
    grid, ps, xs = ellipse_sets(32)
    far = (16, 16)  # the box centre, deep inside
    assert not ps.gamma_plus[far]
    inner = xs.inner.copy()
    inner[0] = far
    xs = replace(xs, inner=inner)
    with pytest.raises(AssemblyError, match="not a gamma\\+ node"):
        closure.assemble_dirichlet(ps, xs, lambda x, y: 0.0)


# ---------------------------------------------------------------------------
# boundary data


@pytest.mark.parametrize("assemble", [
    lambda ps, xs, g: closure.assemble_dirichlet(ps, xs, g),
    lambda ps, xs, g: closure.assemble_robin(ps, xs, closure.build_support_cells(xs, ps),
                                             closure.robin(1.0, 1.0, g)),
], ids=["dirichlet", "robin"])
def test_boundary_data_is_one_call_on_the_crossing_arrays(ellipse_setup, assemble):
    _, ps, xs = ellipse_setup
    calls = []

    def g(x, y):
        calls.append((x, y))
        return x - y

    cm = assemble(ps, xs, g)
    assert len(calls) == 1
    x, y = calls[0]
    assert x.shape == y.shape == (len(xs),)
    assert np.array_equal(x, xs.location[:, 0]) and np.array_equal(y, xs.location[:, 1])
    assert np.array_equal(cm.rhs, x - y)
    constant = assemble(ps, xs, lambda x, y: 1.0)
    assert constant.rhs.shape == (len(xs),) and np.all(constant.rhs == 1.0)
