"""Tests for the box solver and difference potentials."""

import numpy as np
import pytest
from scipy import sparse

from latticebae import diffpot, geometry, potentials
from latticebae.errors import AssemblyError, BoxTooSmallError


def centered_grid(half, n):
    return geometry.Grid.from_box((-half, half), (-half, half), n)


@pytest.fixture(scope="module")
def ellipse_box():
    grid = centered_grid(1.15, 32)
    shape = geometry.ellipse(2.0)
    ps = geometry.classify(grid, shape)
    return grid, ps


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
    w = diffpot.fft_poisson_solve(diffpot.GridFunction.zeros(grid))
    assert np.all(w.values == 0.0)


def test_fft_eigenfunction_round_trip():
    grid = geometry.Grid.from_box((-1.0, 1.0), (-1.0, 1.0), 16)
    j = np.arange(grid.nx)
    sine = np.outer(np.sin(np.pi * j / 16.0), np.sin(np.pi * j / 16.0))
    sine[0, :] = sine[-1, :] = 0.0
    sine[:, 0] = sine[:, -1] = 0.0
    lam = 4.0 - 4.0 * np.cos(np.pi / 16.0)
    stencil = diffpot.apply_stencil(sine)
    assert np.abs(stencil[1:-1, 1:-1] - lam * sine[1:-1, 1:-1]).max() < 1e-13
    rhs = diffpot.GridFunction(grid=grid, values=lam * sine)
    w = diffpot.fft_poisson_solve(rhs)
    assert np.abs(w.values - sine).max() < 1e-13


@pytest.mark.parametrize("n_nodes", [16, 32])
def test_fft_matches_dense_oracle(n_nodes):
    grid = geometry.Grid(h=0.1, origin=(0.0, 0.0), nx=n_nodes, ny=n_nodes)
    rng = np.random.default_rng(17 + n_nodes)
    rhs = diffpot.GridFunction.zeros(grid)
    rhs.values[1:-1, 1:-1] = rng.standard_normal((n_nodes - 2, n_nodes - 2))
    w = diffpot.fft_poisson_solve(rhs)
    oracle = dense_interior_solve(rhs.values[1:-1, 1:-1])
    assert np.abs(w.values[1:-1, 1:-1] - oracle).max() < 1e-12
    assert np.all(w.values[0, :] == 0.0)
    assert np.all(w.values[:, -1] == 0.0)


def test_fft_rejects_boundary_data(ellipse_box):
    grid, _ = ellipse_box
    rhs = diffpot.GridFunction.zeros(grid)
    rhs.values[0, 3] = 1.0
    with pytest.raises(AssemblyError):
        diffpot.fft_poisson_solve(rhs)


# ---------------------------------------------------------------------------
# difference potentials


def test_difference_potential_of_zero_data(ellipse_box):
    _, ps = ellipse_box
    w = diffpot.difference_potential(np.zeros(len(ps.gamma_indices)), ps)
    assert np.all(w.values == 0.0)


@pytest.mark.parametrize("kind", [potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE])
def test_trace_reproduction_for_layer_data(ellipse_box, kind):
    grid, ps = ellipse_box
    k_gamma = potentials.assemble_layer_matrix(
        ps.gamma_indices, ps.gamma_minus_indices, kind, ps
    ).entries
    rng = np.random.default_rng(23)
    gamma = ps.gamma_indices
    for _ in range(20):
        q = rng.standard_normal(k_gamma.shape[1])
        u_gamma = k_gamma @ q
        w = diffpot.difference_potential(u_gamma, ps)
        trace = w.values[gamma[:, 0], gamma[:, 1]]
        assert np.abs(trace - u_gamma).max() <= 1e-10 * np.abs(u_gamma).max()


def test_projection_idempotence(ellipse_box):
    grid, ps = ellipse_box
    gamma = ps.gamma_indices
    rng = np.random.default_rng(2)

    def project(data):
        w = diffpot.difference_potential(data, ps)
        return w.values[gamma[:, 0], gamma[:, 1]]

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
        q = rng.standard_normal(len(ps.gamma_minus_indices))
        density = potentials.DensityVector(support=ps.gamma_minus_indices, values=q)
        direct = potentials.evaluate_potential(
            ps.m_plus_indices, density, potentials.LayerKind.SINGLE, ps
        )
        k_gamma = potentials.assemble_layer_matrix(
            ps.gamma_indices, ps.gamma_minus_indices, potentials.LayerKind.SINGLE, ps
        ).entries
        # Empty for the bounded ellipse; every box-edge node for the exterior.
        u_edge = potentials.evaluate_potential(
            diffpot.edge_nodes(ps), density, potentials.LayerKind.SINGLE, ps
        )
        w = diffpot.difference_potential(k_gamma @ q, ps, u_edge)
        mp = ps.m_plus_indices
        assert np.abs(w.values[mp[:, 0], mp[:, 1]] - direct).max() < 1e-8


def test_difference_potential_rejects_wrong_edge_length(exterior_box):
    _, ps = exterior_box
    n_edge = len(diffpot.edge_nodes(ps))
    assert n_edge == 4 * (ps.grid.nx - 1)
    with pytest.raises(AssemblyError):
        diffpot.difference_potential(
            np.zeros(len(ps.gamma_indices)), ps, np.zeros(n_edge - 1)
        )


def test_box_margin_is_enforced():
    grid = geometry.Grid(h=1.0, origin=(0.0, 0.0), nx=8, ny=8)
    m_plus = np.zeros((8, 8), dtype=bool)
    m_plus[1:-1, 1:-1] = True
    n_plus = geometry._dilate(m_plus)
    n_minus = geometry._dilate(~m_plus)
    gamma = n_plus & n_minus
    ps = geometry.PointSets(
        grid=grid,
        m_plus=m_plus,
        n_plus=n_plus,
        n_minus=n_minus,
        gamma=gamma,
        gamma_plus=gamma & m_plus,
        gamma_minus=gamma & ~m_plus,
    )
    with pytest.raises(BoxTooSmallError):
        diffpot.difference_potential(np.zeros(len(ps.gamma_indices)), ps)


# ---------------------------------------------------------------------------
# particular solutions and the boundary right-hand side


def forcing(x, y):
    return 2.0 * np.sin(x) * np.cos(y)


def test_particular_solution_stencil_residual(ellipse_box):
    grid, ps = ellipse_box
    u_p = diffpot.particular_solution(forcing, ps)
    x, y = grid.mesh()
    rhs_exact = grid.h**2 * forcing(x, y)
    stencil = diffpot.apply_stencil(u_p.values)
    mp = ps.m_plus_indices
    scale = np.abs(rhs_exact[mp[:, 0], mp[:, 1]]).max()
    rng = np.random.default_rng(41)
    picks = rng.choice(len(mp), size=40)
    for idx in picks:
        j, k = mp[idx]
        assert abs(stencil[j, k] - rhs_exact[j, k]) <= 1e-11 * scale
    # Outside the domain the forcing is zeroed.
    band = ps.m_minus[1:-1, 1:-1]
    assert np.abs(stencil[1:-1, 1:-1][band]).max() <= 1e-11 * scale


def test_particular_solution_of_zero_forcing(ellipse_box):
    _, ps = ellipse_box
    u_p = diffpot.particular_solution(lambda x, y: np.zeros_like(x), ps)
    assert np.all(u_p.values == 0.0)


def test_particular_solution_evaluates_forcing_inside_only(ellipse_box):
    grid, ps = ellipse_box
    shapes = []

    def recorded(x, y):
        shapes.append(np.shape(x))
        return forcing(x, y)

    u_p = diffpot.particular_solution(recorded, ps)
    inside = ps.m_plus & ~diffpot._edge_mask(grid)
    assert shapes == [(int(inside.sum()),)]
    x, y = grid.mesh()
    rhs = diffpot.GridFunction.zeros(grid)
    rhs.values[inside] = grid.h**2 * forcing(x, y)[inside]
    assert np.array_equal(u_p.values, diffpot.fft_poisson_solve(rhs).values)


def test_rhs_correction_trivial_and_affine(ellipse_box):
    from latticebae import closure

    grid, ps = ellipse_box
    shape = geometry.ellipse(2.0)
    xs = geometry.select_intersections(ps, shape)
    cm = closure.assemble_dirichlet(ps, xs, lambda x, y: np.sin(x) * np.cos(y))
    zero = diffpot.GridFunction.zeros(grid)
    assert np.array_equal(diffpot.correct_boundary_rhs(cm, zero), cm.rhs)
    rng = np.random.default_rng(7)
    u1 = diffpot.GridFunction(grid=grid, values=rng.standard_normal(zero.values.shape))
    u2 = diffpot.GridFunction(grid=grid, values=rng.standard_normal(zero.values.shape))
    both = diffpot.GridFunction(grid=grid, values=u1.values + u2.values)
    lhs = diffpot.correct_boundary_rhs(cm, both)
    rhs = (
        diffpot.correct_boundary_rhs(cm, u1)
        + diffpot.correct_boundary_rhs(cm, u2)
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
