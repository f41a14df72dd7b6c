"""Tests for the dense boundary-system solver."""

import numpy as np
import pytest
import scipy.linalg

from latticebae import closure, diffpot, geometry, harness, potentials, solver
from latticebae.errors import (
    AssemblyError,
    FormulationSingularError,
    SingularSystemError,
)

FORMULATION_TAGS = ("single-direct", "single-schur", "double-direct", "double-schur")


def centered_grid(half, n):
    return geometry.Grid.from_box((-half, half), (-half, half), n)


def interior_values(result, cm, ps):
    w = diffpot.difference_potential(harness._gamma_trace(result, cm, ps), ps)
    mp = ps.m_plus_indices
    return w.values[mp[:, 0], mp[:, 1]]


@pytest.fixture(scope="module")
def circle_problem():
    grid = centered_grid(1.15, 32)
    shape = geometry.ellipse(1.0)
    ps = geometry.classify(grid, shape)
    xs = geometry.select_intersections(ps, shape, grid)
    cm = closure.assemble_dirichlet(ps, xs, lambda x, y: 1.0, grid)
    return grid, ps, cm


# ---------------------------------------------------------------------------
# dense linear algebra helpers


def test_dense_solve_identity():
    rhs = np.array([3.0, -1.0, 2.0])
    assert np.allclose(solver.dense_solve(np.eye(3), rhs), rhs)


def test_dense_solve_diagonal():
    x = solver.dense_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_dense_solve_residual():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((50, 50)) + 10.0 * np.eye(50)
    b = rng.standard_normal(50)
    x = solver.dense_solve(a, b)
    assert np.abs(a @ x - b).max() / np.abs(b).max() <= 1e-12


def test_dense_solve_rejects_singular():
    with pytest.raises(SingularSystemError):
        solver.dense_solve(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))


def test_condition_number_basics():
    assert solver.condition_number(np.eye(4)) == pytest.approx(1.0)
    assert solver.condition_number(np.diag([1.0, 2.0])) == pytest.approx(2.0)
    assert solver.condition_number(np.diag([1.0, 0.0])) == np.inf


def test_formulation_tags_round_trip():
    for tag in FORMULATION_TAGS:
        assert solver.formulation_from_tag(tag).tag == tag
    with pytest.raises(AssemblyError):
        solver.formulation_from_tag("quadruple-direct")


# ---------------------------------------------------------------------------
# assembly guards


def test_assemble_rejects_misaligned_layers(circle_problem):
    grid, ps, cm = circle_problem
    k_plus, k_minus = solver.build_layer_matrices(cm, ps, potentials.LayerKind.SINGLE)
    form = solver.formulation_from_tag("single-direct")
    with pytest.raises(AssemblyError):
        solver.assemble_system(form, cm, k_minus, k_minus)


def test_schur_rejects_singular_kernel_matrix(circle_problem):
    grid, ps, cm = circle_problem
    k_plus, k_minus = solver.build_layer_matrices(cm, ps, potentials.LayerKind.SINGLE)
    broken = potentials.LayerMatrix(
        rows=k_minus.rows,
        cols=k_minus.cols,
        entries=np.zeros_like(k_minus.entries),
        kind=k_minus.kind,
    )
    form = solver.formulation_from_tag("single-schur")
    with pytest.raises(FormulationSingularError):
        solver.assemble_system(form, cm, k_plus, broken)


# ---------------------------------------------------------------------------
# solve behavior on the circle


def test_recover_zero_density(circle_problem):
    grid, ps, cm = circle_problem
    k_plus, k_minus = solver.build_layer_matrices(cm, ps, potentials.LayerKind.SINGLE)
    form = solver.formulation_from_tag("single-direct")
    result = solver.recover(np.zeros(len(cm.gamma_minus)), form, cm, k_plus, k_minus)
    assert np.all(result.trace_minus == 0.0)
    assert np.all(result.trace_plus == 0.0)


@pytest.mark.parametrize("tag", ["single-direct", "double-direct"])
def test_constant_dirichlet_is_exact(circle_problem, tag):
    grid, ps, cm = circle_problem
    form = solver.formulation_from_tag(tag)
    k_plus, k_minus = solver.build_layer_matrices(cm, ps, form.kernel)
    result = solver.solve_system(form, cm, k_plus, k_minus)
    u = interior_values(result, cm, ps)
    assert np.abs(u - 1.0).max() <= 1e-9


def test_formulation_equivalence(circle_problem):
    grid, ps, cm = circle_problem
    solutions = {}
    for tag in FORMULATION_TAGS:
        form = solver.formulation_from_tag(tag)
        k_plus, k_minus = solver.build_layer_matrices(cm, ps, form.kernel)
        result = solver.solve_system(form, cm, k_plus, k_minus)
        solutions[tag] = interior_values(result, cm, ps)
        if form.form is solver.SystemForm.DIRECT:
            direct_trace = k_minus.entries @ result.density.values
        else:
            assert np.abs(result.trace_minus - direct_trace).max() <= 1e-8
    values = list(solutions.values())
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert np.abs(values[i] - values[j]).max() <= 1e-8


@pytest.mark.parametrize("tag", FORMULATION_TAGS)
def test_schur_solve_reuses_kernel_factor(circle_problem, monkeypatch, tag):
    # One factorization of the system; the Schur form adds one of K-^T,
    # which both its assembly and its density recovery use.
    grid, ps, cm = circle_problem
    form = solver.formulation_from_tag(tag)
    k_plus, k_minus = solver.build_layer_matrices(cm, ps, form.kernel)
    calls = []
    lu_factor = scipy.linalg.lu_factor

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return lu_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    solver.solve_system(form, cm, k_plus, k_minus)
    assert len(calls) == (2 if form.form is solver.SystemForm.SCHUR else 1)


def test_closure_rows_are_satisfied(circle_problem):
    grid, ps, cm = circle_problem
    form = solver.formulation_from_tag("single-direct")
    k_plus, k_minus = solver.build_layer_matrices(cm, ps, form.kernel)
    result = solver.solve_system(form, cm, k_plus, k_minus)
    lhs = cm.phi_plus @ result.trace_plus + cm.phi_minus @ result.trace_minus
    assert np.abs(lhs - cm.rhs).max() <= 1e-9 * np.abs(cm.rhs).max()


def test_residual_invariant(circle_problem):
    grid, ps, cm = circle_problem
    form = solver.formulation_from_tag("double-schur")
    k_plus, k_minus = solver.build_layer_matrices(cm, ps, form.kernel)
    matrix, rhs, _ = solver.assemble_system(form, cm, k_plus, k_minus)
    result = solver.solve_system(form, cm, k_plus, k_minus, compute_cond=True)
    bound = 1e-10 * (
        np.abs(matrix).max() * np.abs(result.trace_minus).max() + np.abs(rhs).max()
    )
    assert result.residual_norm <= bound
    assert result.system_cond is not None and result.system_cond > 1.0


# ---------------------------------------------------------------------------
# Robin path


def test_robin_system_solves_and_satisfies_closure():
    grid = centered_grid(1.5, 16)
    shape = geometry.ellipse(2.0)
    ps = geometry.classify(grid, shape)
    xs = geometry.select_intersections(ps, shape, grid)

    def u_exact(x, y):
        return np.sin(x) * np.cos(y)

    def g(x, y):
        shape_grad = (2.0 * x, 8.0 * y)
        norm = np.hypot(*shape_grad)
        n = (shape_grad[0] / norm, shape_grad[1] / norm)
        du = (np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y))
        return du[0] * n[0] + du[1] * n[1] + u_exact(x, y)

    bc = closure.robin(1.0, 1.0, g)
    cm = closure.assemble_closure(ps, xs, bc, grid)
    interiors = {}
    for tag in ("single-direct", "single-schur"):
        form = solver.formulation_from_tag(tag)
        k_plus, k_minus = solver.build_layer_matrices(cm, ps, form.kernel)
        result = solver.solve_system(form, cm, k_plus, k_minus)
        trace_minus = k_minus.entries @ result.density.values
        eta_vals = -(cm.r_plus @ result.trace_plus + cm.r_minus @ trace_minus)
        lhs = (
            cm.phi_plus @ result.trace_plus
            + cm.phi_minus @ trace_minus
            + cm.phi_prime_minus @ eta_vals
        )
        assert np.abs(lhs - cm.rhs).max() <= 1e-9 * np.abs(cm.rhs).max()
        interiors[tag] = interior_values(result, cm, ps)
    diff = np.abs(interiors["single-direct"] - interiors["single-schur"]).max()
    assert diff <= 1e-8
