"""Tests for the dense boundary-system solver."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

from latticebae import closure, diffpot, geometry, harness, potentials, solver
from latticebae.errors import (
    AssemblyError,
    FormulationSingularError,
    SingularSystemError,
)
from latticebae.lgf import kernel_table
from reference import assemble_layer_matrix

FORMULATION_TAGS = harness.FORMULATIONS


def centered_grid(half, n):
    return geometry.Grid.from_box((-half, half), (-half, half), n)


def interior_values(result, ps):
    w = diffpot.difference_potential(result.trace, ps)
    return w.at(np.argwhere(ps.m_plus))


def gamma_plus_part(result, ps):
    """The trace on gamma+, in canonical gamma+ order."""
    gamma = ps.gamma_indices
    return result.trace[ps.gamma_plus[gamma[:, 0], gamma[:, 1]]]


@pytest.fixture(scope="module")
def circle_problem():
    grid = centered_grid(1.15, 32)
    shape = geometry.ellipse(1.0)
    ps = geometry.classify(grid, shape)
    xs = geometry.select_intersections(ps, shape)
    cm = closure.assemble_dirichlet(ps, xs, lambda x, y: 1.0)
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
    x = solver.dense_solve(a.copy(), b)
    assert np.abs(a @ x - b).max() / np.abs(b).max() <= 1e-12


@pytest.mark.parametrize("order", ["C", "F"])
def test_dense_solve_either_memory_order(order):
    # A C-ordered matrix is factored in place as its transpose; a
    # Fortran-ordered one is copied first.  Both solve A x = b, not A^T x = b.
    rng = np.random.default_rng(23)
    a = rng.standard_normal((40, 40)) + 8.0 * np.eye(40)
    a[0, 1:] += 5.0  # far from symmetric
    b = rng.standard_normal(40)
    matrix = np.array(a, order=order)
    x = solver.dense_solve(matrix, b)
    assert np.abs(a @ x - b).max() / np.abs(b).max() <= 1e-12
    if order == "C":
        assert not np.array_equal(matrix, a)  # consumed: it holds the factor


def test_dense_solve_rejects_a_wrong_length_right_hand_side():
    with pytest.raises(AssemblyError, match=r"right-hand side has shape \(4,\)"):
        solver.dense_solve(np.eye(3), np.ones(4))


def test_dense_solve_rejects_singular():
    with pytest.raises(SingularSystemError):
        solver.dense_solve(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))


def test_dense_solve_rejects_non_finite_entries():
    for value in (np.nan, np.inf, -np.inf):
        matrix = np.eye(3)
        matrix[1, 2] = value
        with pytest.raises(AssemblyError, match="system matrix contains non-finite"):
            solver.dense_solve(matrix, np.ones(3))
    with pytest.raises(AssemblyError, match="right-hand side contains non-finite"):
        solver.dense_solve(np.eye(3), np.array([1.0, np.inf, 0.0]))


def test_condition_number_basics():
    assert solver.condition_number(np.eye(4)) == pytest.approx(1.0)
    assert solver.condition_number(np.diag([1.0, 2.0])) == pytest.approx(2.0)
    assert solver.condition_number(np.diag([1.0, 0.0])) == np.inf


def test_condition_number_of_symmetric_matrices():
    # The singular values are the moduli of the eigenvalues, signs and all.
    assert solver.condition_number(np.diag([1.0, -2.0])) == 2.0
    assert solver.condition_number(np.diag([3.0, 0.0, -1.0])) == np.inf
    assert solver.condition_number(np.zeros((3, 3))) == np.inf


def test_condition_number_rejects_non_finite_entries():
    for value in (np.nan, np.inf):
        matrix = np.eye(3)
        matrix[0, 0] = value
        with pytest.raises(AssemblyError, match="non-finite"):
            solver.condition_number(matrix)


def _s_minus(ps, cm):
    return assemble_layer_matrix(cm.gamma_minus, cm.gamma_minus, potentials.LayerKind.SINGLE, ps)


def test_s_minus_condition_number_matches_the_svd(circle_problem):
    grid, ps, cm = circle_problem
    s_minus = _s_minus(ps, cm)
    assert scipy.linalg.issymmetric(s_minus)
    sv = scipy.linalg.svdvals(s_minus)
    reference = sv[0] / sv[-1]
    cond = solver.condition_number(s_minus)
    assert abs(cond - reference) <= 10 * np.finfo(float).eps * reference * reference


def test_matrix_one_ulp_from_symmetric_takes_the_svd(circle_problem):
    grid, ps, cm = circle_problem
    matrix = _s_minus(ps, cm)
    matrix[0, 1] = np.nextafter(matrix[0, 1], np.inf)
    assert not scipy.linalg.issymmetric(matrix)
    sv = scipy.linalg.svdvals(matrix)
    assert solver.condition_number(matrix) == sv[0] / sv[-1]


def test_formulation_tags_round_trip():
    for tag in FORMULATION_TAGS:
        assert solver.formulation_from_tag(tag).tag == tag
    with pytest.raises(AssemblyError):
        solver.formulation_from_tag("quadruple-direct")


@pytest.mark.parametrize("tag", [None, 3, b"single-direct"])
def test_formulation_tag_must_be_a_string(tag):
    with pytest.raises(AssemblyError, match="formulation tag must be a string"):
        solver.formulation_from_tag(tag)


# ---------------------------------------------------------------------------
# assembly guards


def _plant_in_k_minus(monkeypatch, cm, plant):
    """Route the solver's contractions through ``plant``, applied in place
    to the K- half of a stacked [M; K-] product; M-only products pass."""
    n = len(cm.gamma_minus)

    def planted(*args, **kwargs):
        product = potentials.contract_layer_matrix(*args, **kwargs)
        if len(product) == 2 * n:
            plant(product[n:])
        return product

    monkeypatch.setattr(solver, "contract_layer_matrix", planted)


def test_schur_rejects_singular_kernel_matrix(circle_problem, monkeypatch):
    grid, ps, cm = circle_problem
    _plant_in_k_minus(monkeypatch, cm, lambda k_minus: k_minus.fill(0.0))
    with pytest.raises(FormulationSingularError):
        solver.condition_numbers(potentials.LayerKind.SINGLE, cm, ps)


def test_schur_solve_factors_k_minus_only_for_its_condition_number(circle_problem, monkeypatch):
    # A Schur solve solves the direct system, so a singular K- is seen
    # only where K- is factored: for the Schur matrix's condition number.
    grid, ps, cm = circle_problem
    n = len(cm.gamma_minus)
    shapes = []
    _plant_in_k_minus(monkeypatch, cm, lambda k_minus: k_minus.fill(0.0))
    contract = solver.contract_layer_matrix

    def recorded(*args, **kwargs):
        product = contract(*args, **kwargs)
        shapes.append(product.shape)
        return product

    monkeypatch.setattr(solver, "contract_layer_matrix", recorded)
    form = solver.formulation_from_tag("single-schur")
    solver.solve_system(form, cm, ps)
    assert shapes == [(n, n)]  # no K- rows gathered
    with pytest.raises(FormulationSingularError):
        solver.solve_system(form, cm, ps, compute_cond=True)
    assert shapes == [(n, n), (2 * n, n)]


def _nan_k_minus(monkeypatch, cm):
    def plant(k_minus):
        k_minus[1, 0] = np.nan

    _plant_in_k_minus(monkeypatch, cm, plant)


@pytest.mark.parametrize("tag", ["single-schur", "double-schur"])
def test_schur_assembly_rejects_a_non_finite_kernel_matrix(circle_problem, monkeypatch, tag):
    grid, ps, cm = circle_problem
    _nan_k_minus(monkeypatch, cm)
    name = "S-" if tag.startswith("single") else "D-"
    with pytest.raises(AssemblyError, match=f"{name} contains non-finite"):
        solver.solve_system(solver.formulation_from_tag(tag), cm, ps, compute_cond=True)


@pytest.mark.parametrize("kernel", [potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE])
def test_condition_numbers_reject_a_non_finite_kernel_matrix(circle_problem, monkeypatch,
                                                              kernel):
    grid, ps, cm = circle_problem
    _nan_k_minus(monkeypatch, cm)
    with pytest.raises(AssemblyError, match="non-finite"):
        solver.condition_numbers(kernel, cm, ps)


# ---------------------------------------------------------------------------
# solve behavior on the circle


def test_recover_zero_density(circle_problem):
    grid, ps, cm = circle_problem
    result = solver.recover(np.zeros(len(cm.gamma_minus)), potentials.LayerKind.SINGLE, ps)
    assert np.all(result.trace_minus == 0.0)
    assert np.all(result.trace == 0.0)


@pytest.mark.parametrize("tag", ["single-direct", "double-direct"])
def test_constant_dirichlet_is_exact(circle_problem, tag):
    grid, ps, cm = circle_problem
    form = solver.formulation_from_tag(tag)
    result = solver.solve_system(form, cm, ps)
    u = interior_values(result, ps)
    assert np.abs(u - 1.0).max() <= 1e-9


def test_formulation_equivalence(circle_problem):
    grid, ps, cm = circle_problem
    solutions = {}
    for tag in FORMULATION_TAGS:
        form = solver.formulation_from_tag(tag)
        result = solver.solve_system(form, cm, ps)
        solutions[tag] = interior_values(result, ps)
        if form.form is solver.SystemForm.DIRECT:
            direct_trace = result.trace_minus
        else:
            assert np.abs(result.trace_minus - direct_trace).max() <= 1e-8
    values = list(solutions.values())
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert np.abs(values[i] - values[j]).max() <= 1e-8


@pytest.mark.parametrize("tag", FORMULATION_TAGS)
def test_one_factorization_per_solve(circle_problem, monkeypatch, tag):
    # Either form factors the direct system once, and nothing else.
    grid, ps, cm = circle_problem
    form = solver.formulation_from_tag(tag)
    calls = []
    lu_factor = scipy.linalg.lu_factor

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return lu_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    solver.solve_system(form, cm, ps)
    n = len(cm.gamma_minus)
    assert calls == [(n, n)]


@pytest.mark.parametrize("problem", ["circle_problem", "robin_ellipse256"])
@pytest.mark.parametrize("kernel", ["single", "double"])
def test_schur_solve_is_the_direct_solve(request, problem, kernel):
    ps, cm = request.getfixturevalue(problem)[-2:]
    direct, schur = (solver.solve_system(solver.formulation_from_tag(f"{kernel}-{form}"), cm, ps)
                     for form in ("direct", "schur"))
    assert np.array_equal(schur.density, direct.density)
    assert np.array_equal(schur.trace, direct.trace)
    assert np.array_equal(schur.trace_minus, direct.trace_minus)


def test_closure_rows_are_satisfied(circle_problem):
    grid, ps, cm = circle_problem
    form = solver.formulation_from_tag("single-direct")
    result = solver.solve_system(form, cm, ps)
    lhs = cm.phi_plus @ gamma_plus_part(result, ps) + cm.phi_minus @ result.trace_minus
    assert np.abs(lhs - cm.rhs).max() <= 1e-9 * np.abs(cm.rhs).max()


def test_residual_invariant():
    # The closure residual of the recovered field stays at rounding level.
    cfg = harness.ExperimentConfig("ellipse", "dirichlet", formulation="double-schur", n=32,
                                   compute_cond=True)
    sol = harness.solve_problem(cfg)
    assert sol.residual <= 1e-10 * np.abs(sol.exact).max()
    assert sol.result.system_cond is not None and sol.result.system_cond > 1.0


@pytest.mark.parametrize("tag", FORMULATION_TAGS)
def test_solve_cond_is_of_the_unfactored_matrix(circle_problem, tag):
    # The system is factored in place, so its condition number must be
    # taken before the factor overwrites it.
    grid, ps, cm = circle_problem
    form = solver.formulation_from_tag(tag)
    _, cond_schur, cond_direct = solver.condition_numbers(form.kernel, cm, ps)
    expected = cond_schur if form.form is solver.SystemForm.SCHUR else cond_direct
    result = solver.solve_system(form, cm, ps, compute_cond=True)
    assert result.system_cond == expected
    assert solver.solve_system(form, cm, ps).system_cond is None


@pytest.mark.parametrize("problem", ["circle_problem", "robin_ellipse256"])
@pytest.mark.parametrize("kernel", [potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE])
def test_condition_numbers_match_each_system(request, problem, kernel):
    # One gather serves K- and both forms; each number is bitwise the one
    # its own solve gives, Robin closures (C- beyond Phi-) included.
    ps, cm = request.getfixturevalue(problem)[-2:]
    k_minus = assemble_layer_matrix(cm.gamma_minus, cm.gamma_minus, kernel, ps)
    expected = [solver.condition_number(k_minus)]
    for form in (solver.SystemForm.SCHUR, solver.SystemForm.DIRECT):
        result = solver.solve_system(solver.Formulation(kernel, form), cm, ps, compute_cond=True)
        expected.append(result.system_cond)
    assert solver.condition_numbers(kernel, cm, ps) == tuple(expected)


# ---------------------------------------------------------------------------
# Robin path


def test_robin_system_solves_and_satisfies_closure():
    grid = centered_grid(1.5, 16)
    shape = geometry.ellipse(2.0)
    ps = geometry.classify(grid, shape)
    xs = geometry.select_intersections(ps, shape)

    def u_exact(x, y):
        return np.sin(x) * np.cos(y)

    def g(x, y):
        shape_grad = (2.0 * x, 8.0 * y)
        norm = np.hypot(*shape_grad)
        n = (shape_grad[0] / norm, shape_grad[1] / norm)
        du = (np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y))
        return du[0] * n[0] + du[1] * n[1] + u_exact(x, y)

    bc = closure.robin(1.0, 1.0, g)
    cm = closure.assemble_closure(ps, xs, bc)
    interiors = {}
    for tag in ("single-direct", "single-schur"):
        form = solver.formulation_from_tag(tag)
        result = solver.solve_system(form, cm, ps)
        # The trace is on gamma only; the closure rows need all of gamma~+.
        k_plus = assemble_layer_matrix(
            cm.gamma_tilde_plus, cm.gamma_minus, form.kernel, ps
        )
        trace_plus = k_plus @ result.density
        tp = cm.gamma_tilde_plus
        on_gamma = ps.gamma_plus[tp[:, 0], tp[:, 1]]
        assert not on_gamma.all()
        assert np.array_equal(ps.gamma_plus_indices, tp[on_gamma])
        np.testing.assert_allclose(gamma_plus_part(result, ps), trace_plus[on_gamma],
                                   rtol=1e-13, atol=1e-13 * np.abs(trace_plus).max())
        k_minus = assemble_layer_matrix(
            cm.gamma_minus, cm.gamma_minus, form.kernel, ps
        )
        trace_minus = k_minus @ result.density
        eta_vals = -(cm.r_plus @ trace_plus + cm.r_minus @ trace_minus)
        lhs = (
            cm.phi_plus @ trace_plus
            + cm.phi_minus @ trace_minus
            + cm.phi_prime_minus @ eta_vals
        )
        assert np.abs(lhs - cm.rhs).max() <= 1e-9 * np.abs(cm.rhs).max()
        interiors[tag] = interior_values(result, ps)
    diff = np.abs(interiors["single-direct"] - interiors["single-schur"]).max()
    assert diff <= 1e-8


# ---------------------------------------------------------------------------
# what the solve holds


@pytest.fixture(scope="module")
def robin_ellipse256():
    cfg = harness.ExperimentConfig("ellipse", "robin", n=256, aspect=2.0)
    _, ps, cm = harness._discretize(cfg, 256)
    return ps, cm


@pytest.mark.parametrize("tag", FORMULATION_TAGS)
def test_solve_holds_no_gamma_tilde_plus_block(robin_ellipse256, tag):
    # The peak of layer build, assembly, solve and recovery is bounded by
    # the arrays that must be held: the direct matrix, factored in place
    # in either form, and two row blocks over E, with |gamma-|^2 / 2 to
    # spare for library workspace.  The matrix is one contraction, so no
    # kernel block is held; the traces are streamed, so neither K- nor the
    # gamma+ rows of K+ is held through the solve, and the
    # |gamma~+| x |gamma-| block K+ (2.6 |gamma-|^2 here) never is.
    ps, cm = robin_ellipse256
    form = solver.formulation_from_tag(tag)
    window, _ = ps.box_window
    kernel_table(window.nx - 1, window.ny - 1)  # the table the gather reads
    cm.c_plus, cm.c_minus  # sparse, and cached on the closure
    n = len(cm.gamma_minus)
    n_e = n
    if form.kernel is potentials.LayerKind.DOUBLE:
        n_e = len(potentials._exterior_connections(ps, cm.gamma_minus)[0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solver.solve_system(form, cm, ps)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(cm.gamma_tilde_plus) > 2 * n
    assert peak <= 8 * (1.5 * n * n + 2 * potentials._ROW_BLOCK * n_e)


def _seam_block(cm):
    """Positions, in the direct form's stacked targets (gamma~+, then
    gamma-), of the row block that straddles the seam of the two."""
    start = len(cm.gamma_tilde_plus) // potentials._ROW_BLOCK * potentials._ROW_BLOCK
    return np.arange(start, start + potentials._ROW_BLOCK)


@pytest.mark.parametrize("kernel", [potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE])
def test_direct_matrix_is_one_contraction_of_the_held_blocks(robin_ellipse256, kernel):
    ps, cm = robin_ellipse256
    seam = _seam_block(cm)
    assert seam[0] < len(cm.gamma_tilde_plus) < seam[-1]  # a block straddles the seam
    matrix = solver.assemble_system(kernel, cm, ps)
    k_plus = assemble_layer_matrix(cm.gamma_tilde_plus, cm.gamma_minus, kernel, ps)
    k_minus = assemble_layer_matrix(cm.gamma_minus, cm.gamma_minus, kernel, ps)
    reference = cm.c_plus @ k_plus + cm.c_minus @ k_minus
    np.testing.assert_allclose(matrix, reference, rtol=1e-14,
                               atol=1e-14 * np.abs(reference).max())


@pytest.mark.parametrize("kernel", [potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE])
def test_seam_block_adds_only_the_rows_it_reaches(robin_ellipse256, kernel):
    # The seam block's weights reach a few dozen of the |gamma-| product
    # rows, far apart (gamma~+ rows and gamma- rows); beyond the product
    # its contraction allocates a few row blocks over E, not a partial
    # product spanning every row between them.
    ps, cm = robin_ellipse256
    seam = _seam_block(cm)
    targets = np.concatenate([cm.gamma_tilde_plus, cm.gamma_minus])[seam]
    weights = sparse.hstack([cm.c_plus, cm.c_minus]).tocsc()[:, seam]
    n = len(cm.gamma_minus)
    n_e = n
    if kernel is potentials.LayerKind.DOUBLE:
        n_e = len(potentials._exterior_connections(ps, cm.gamma_minus)[0])
    reached = np.unique(sparse.coo_array(weights).row)
    assert len(reached) < n / 4 and reached[-1] - reached[0] > 3 * n / 4
    window, _ = ps.box_window
    kernel_table(window.nx - 1, window.ny - 1)  # the table the gather reads
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        product = potentials.contract_layer_matrix(weights, targets, cm.gamma_minus, kernel, ps)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= product.nbytes + 3.5 * 8 * potentials._ROW_BLOCK * n_e


@pytest.mark.parametrize("tag", FORMULATION_TAGS)
def test_recover_streams_the_held_block_traces(robin_ellipse256, tag):
    # The streamed traces are the products of the held kernel blocks.
    ps, cm = robin_ellipse256
    form = solver.formulation_from_tag(tag)
    result = solver.solve_system(form, cm, ps)
    q = result.density
    k_plus_gamma = assemble_layer_matrix(
        ps.gamma_plus_indices, cm.gamma_minus, form.kernel, ps
    )
    np.testing.assert_allclose(gamma_plus_part(result, ps), k_plus_gamma @ q, rtol=1e-14)
    k_minus = assemble_layer_matrix(cm.gamma_minus, cm.gamma_minus, form.kernel, ps)
    np.testing.assert_allclose(result.trace_minus, k_minus @ q, rtol=1e-14)


@pytest.mark.parametrize("tag", FORMULATION_TAGS)
def test_recover_streams_one_product_in_gamma_order(robin_ellipse256, monkeypatch, tag):
    # Every form streams the whole trace on gamma in one product.
    ps, cm = robin_ellipse256
    form = solver.formulation_from_tag(tag)
    targets = []
    apply_layer_matrix = solver.apply_layer_matrix

    def recorded(points, *args, **kwargs):
        targets.append(points)
        return apply_layer_matrix(points, *args, **kwargs)

    monkeypatch.setattr(solver, "apply_layer_matrix", recorded)
    result = solver.solve_system(form, cm, ps)
    assert result.trace.shape == (len(ps.gamma_indices),)
    assert len(targets) == 1
    assert np.array_equal(targets[0], ps.gamma_indices)


def test_schur_assembly_solves_gamma_minus_right_hand_sides(robin_ellipse256, monkeypatch):
    ps, cm = robin_ellipse256
    shapes = []
    lu_solve = scipy.linalg.lu_solve

    def recorded(lu_and_piv, b, *args, **kwargs):
        shapes.append(np.shape(b))
        return lu_solve(lu_and_piv, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_solve", recorded)
    solver.condition_numbers(potentials.LayerKind.SINGLE, cm, ps)
    n = len(cm.gamma_minus)
    assert len(cm.gamma_tilde_plus) != n
    assert shapes == [(n, n)]


@pytest.mark.parametrize("kernel", [potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE])
def test_schur_matrix_is_the_textbook_form(robin_ellipse256, monkeypatch, kernel):
    # The Schur matrix, right-divided from the direct one, against
    # C+ K+ K-^{-1} + C- from the held blocks, within the rounding that
    # the right division by K- allows.  A Schur solve with its condition
    # number hands that matrix to condition_number first.
    ps, cm = robin_ellipse256
    seen = []
    condition_number = solver.condition_number

    def recorded(matrix):
        seen.append(matrix)
        return condition_number(matrix)

    monkeypatch.setattr(solver, "condition_number", recorded)
    solver.solve_system(solver.Formulation(kernel, solver.SystemForm.SCHUR), cm, ps,
                        compute_cond=True)
    assert len(seen) == 1
    k_plus = assemble_layer_matrix(cm.gamma_tilde_plus, cm.gamma_minus, kernel, ps)
    k_minus = assemble_layer_matrix(cm.gamma_minus, cm.gamma_minus, kernel, ps)
    reference = scipy.linalg.solve(k_minus.T, (cm.c_plus @ k_plus).T).T
    reference += cm.c_minus.toarray()
    bound = 10 * np.finfo(float).eps * condition_number(k_minus)
    error = np.abs(seen[0] - reference).max() / np.abs(reference).max()
    assert error <= bound


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("shape, bc", [("ellipse", "dirichlet"), ("ellipse", "robin"),
                                       ("diamond", "dirichlet")])
def test_schur_matrix_does_not_depend_on_the_kernel(shape, bc, n):
    # K+ K-^{-1} maps the trace on gamma- to the discrete harmonic
    # extension through M+ (A w = 0 there), read on gamma~+, whichever
    # kernel spans it; so A_s = M_s S-^{-1} and A_d = M_d D-^{-1} are one
    # matrix in exact arithmetic.  Measured 6.1e-12 to 1.2e-11.
    cfg = harness.ExperimentConfig(shape, bc, n=n, aspect=2.0)
    _, ps, cm = harness._discretize(cfg, n)
    schur = []
    for kernel in potentials.LayerKind:
        matrix, k_minus = np.split(solver.assemble_system(kernel, cm, ps, with_k_minus=True), 2)
        schur.append(solver._right_divide(matrix, k_minus, kernel))
    a_s, a_d = schur
    assert np.abs(a_s - a_d).max() <= 1e-9 * np.abs(a_s).max()


@pytest.mark.parametrize("kernel", [potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE])
def test_gather_counts_per_call(circle_problem, monkeypatch, kernel):
    # Wherever K- is factored, one contraction gives it together with the
    # direct matrix, and no other kernel gather runs; a solve adds only
    # the one trace product of its recovery.
    grid, ps, cm = circle_problem
    calls = []
    for owner, name in ((solver, "contract_layer_matrix"), (solver, "apply_layer_matrix"),
                        (potentials, "_row_gatherer")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    contraction = ["contract_layer_matrix", "_row_gatherer"]
    schur = solver.Formulation(kernel, solver.SystemForm.SCHUR)
    for call in (lambda: solver.condition_numbers(kernel, cm, ps),
                 lambda: solver.assemble_system(kernel, cm, ps, with_k_minus=True),
                 lambda: solver.assemble_system(kernel, cm, ps)):
        calls.clear()
        call()
        assert calls == contraction
    calls.clear()
    solver.solve_system(schur, cm, ps, compute_cond=True)
    assert calls == contraction + ["apply_layer_matrix", "_row_gatherer"]


@pytest.mark.parametrize("problem", ["circle_problem", "robin_ellipse256"])
@pytest.mark.parametrize("kernel", [potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE])
def test_stacked_contraction_is_bitwise_the_held_k_minus_and_the_direct_matrix(
        request, problem, kernel):
    # Signs of zero included; both halves are C-ordered, so K-^T factors in place.
    ps, cm = request.getfixturevalue(problem)[-2:]
    stacked = solver.assemble_system(kernel, cm, ps, with_k_minus=True)
    matrix, k_minus = np.split(stacked, 2)
    held = assemble_layer_matrix(cm.gamma_minus, cm.gamma_minus, kernel, ps)
    for got, expected in ((k_minus, held), (matrix, solver.assemble_system(kernel, cm, ps))):
        assert got.flags.c_contiguous
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("kernel", [potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE])
def test_direct_assembly_owns_exactly_its_matrix(circle_problem, kernel):
    # An M-only assembly is one P x P array, not a view keeping a larger
    # product alive.
    grid, ps, cm = circle_problem
    n = len(cm.gamma_minus)
    matrix = solver.assemble_system(kernel, cm, ps)
    assert type(matrix) is np.ndarray
    assert matrix.shape == (n, n)
    assert matrix.base is None and matrix.flags.owndata
    assert matrix.nbytes == 8 * n * n


def test_recover_streams_the_exterior_edge_values_with_the_trace(monkeypatch):
    cfg = harness.ExperimentConfig("circle-exterior", "dirichlet", n=64)
    _, ps, _ = harness._discretize(cfg, 64)
    kernel = potentials.LayerKind.SINGLE
    sources = ps.gamma_minus_indices
    q = np.random.default_rng(7).standard_normal(len(sources))
    edge = diffpot.edge_nodes(ps)
    expected_edge = potentials.apply_layer_matrix(edge, sources, q, kernel, ps)
    expected_trace = potentials.apply_layer_matrix(ps.gamma_indices, sources, q, kernel, ps)
    targets = []
    apply_layer_matrix = solver.apply_layer_matrix

    def recorded(points, *args, **kwargs):
        targets.append(points)
        return apply_layer_matrix(points, *args, **kwargs)

    monkeypatch.setattr(solver, "apply_layer_matrix", recorded)
    result = solver.recover(q, kernel, ps)
    assert len(edge) == 4 * (ps.grid.nx - 1)
    assert len(targets) == 1
    assert np.array_equal(targets[0], np.concatenate([ps.gamma_indices, edge]))
    assert np.array_equal(result.edge, expected_edge)
    assert np.array_equal(result.trace, expected_trace)


def test_recover_has_no_edge_values_on_a_bounded_domain(circle_problem):
    grid, ps, cm = circle_problem
    result = solver.recover(np.ones(len(cm.gamma_minus)), potentials.LayerKind.SINGLE, ps)
    assert len(diffpot.edge_nodes(ps)) == 0
    assert result.edge.shape == (0,)
