"""Tests for the dense boundary-system solver."""

import os
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

from latticebae import closure, diffpot, geometry, harness, potentials, solver
from latticebae.errors import (
    AssemblyError,
    ConfigError,
    FormulationSingularError,
    SingularSystemError,
)
from latticebae.lgf import kernel_table
from reference import assemble_layer_matrix, gamma_trace, svd_condition_number

FORMULATION_TAGS = harness.FORMULATIONS
EPS = np.finfo(float).eps


def kernel_and_form(tag):
    """The (kernel, form) that a formulation tag names."""
    kernel, form = tag.split("-")
    return potentials.LayerKind(kernel), solver.SystemForm(form)


def centered_grid(half, n):
    return geometry.Grid.from_box((-half, half), (-half, half), n)


def interior_values(density, kernel, ps):
    w = diffpot.difference_potential(gamma_trace(density, kernel, ps), ps)
    return diffpot.window_values(w, np.argwhere(ps.m_plus), ps)


def gamma_part(density, kernel, ps, mask):
    """The trace of the solved density on the gamma nodes in ``mask``
    (gamma+ or gamma-), in canonical order."""
    gamma = ps.gamma_indices
    return gamma_trace(density, kernel, ps)[mask[gamma[:, 0], gamma[:, 1]]]


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


def _within_8_eps_cond(cond, reference):
    """Whether ``cond`` agrees with the SVD's ``reference`` to 8 eps cond
    relative: the accuracy of a backward-stable smallest singular value."""
    return abs(cond - reference) <= 8 * EPS * reference * reference


def test_s_minus_condition_number_matches_the_svd(circle_problem):
    grid, ps, cm = circle_problem
    s_minus = _s_minus(ps, cm)
    assert scipy.linalg.issymmetric(s_minus)
    reference = svd_condition_number(s_minus)
    cond = solver.condition_number(s_minus)
    assert abs(cond - reference) <= 10 * EPS * reference * reference


def test_matrix_one_ulp_from_symmetric_takes_the_gram_path(circle_problem, monkeypatch):
    grid, ps, cm = circle_problem
    matrix = _s_minus(ps, cm)
    matrix[0, 1] = np.nextafter(matrix[0, 1], np.inf)
    assert not scipy.linalg.issymmetric(matrix)
    calls = []
    tridiagonalize = scipy.linalg.lapack.dsytrd

    def counted(*args, **kwargs):
        calls.append(1)
        return tridiagonalize(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dsytrd", counted)
    assert _within_8_eps_cond(solver.condition_number(matrix), svd_condition_number(matrix))
    assert calls == [1]


_STUDY_PROBLEMS = [("ellipse", "dirichlet", 64), ("ellipse", "dirichlet", 128),
                   ("ellipse", "robin", 64), ("ellipse", "robin", 128),
                   ("diamond", "dirichlet", 64), ("diamond", "dirichlet", 128)]


@pytest.mark.parametrize("geometry_name, bc, n", _STUDY_PROBLEMS)
@pytest.mark.parametrize("kernel", [potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE])
def test_study_condition_numbers_match_the_svd(monkeypatch, geometry_name, bc, n, kernel):
    # K-, M and M K-^{-1} of a conditioning rung.  Measured worst: 2.5 eps
    # cond (diamond n=128, M_d K-^{-1}); 0.56 on the ellipse.
    cfg = harness.ExperimentConfig(geometry=geometry_name, bc=bc, aspect=2.0,
                                   n_list=(n, 2 * n, 4 * n))
    _, ps, cm = harness._discretize(cfg, n)
    condition_number = solver.condition_number
    pairs = []

    def compared(matrix):
        pairs.append((svd_condition_number(matrix), condition_number(matrix)))
        return pairs[-1][1]

    monkeypatch.setattr(solver, "condition_number", compared)
    solver.condition_numbers(kernel, cm, ps)
    assert len(pairs) == 3
    for reference, cond in pairs:
        assert _within_8_eps_cond(cond, reference), (cond, reference)


def test_a_near_double_smallest_singular_value_keeps_the_svd_accuracy():
    # The diamond's direct single-layer matrix at n=256 has its two
    # smallest singular values within 2e-6 relative of each other.  The
    # Rayleigh value of the bottom Gram eigenvector alone was 8.1 eps cond
    # off the SVD (2.4e-11 relative), and 155 eps cond at n=512; the Ritz
    # value on the bottom two is 0.27 eps cond off.
    cfg = harness.ExperimentConfig(geometry="diamond", bc="dirichlet", n_list=(64, 128, 256))
    _, ps, cm = harness._discretize(cfg, 256)
    matrix = solver.assemble_system(potentials.LayerKind.SINGLE, cm, ps)
    sv = scipy.linalg.svdvals(matrix)
    assert sv[-2] - sv[-1] < 2e-6 * sv[-1]
    reference = sv[0] / sv[-1]
    assert abs(solver.condition_number(matrix) - reference) <= EPS * reference * reference


def test_random_orthogonal_matrices_read_one():
    rng = np.random.default_rng(34)
    for n in range(2, 121):
        q = scipy.linalg.qr(rng.standard_normal((n, n)))[0]
        q[:, 0] *= -1.0  # a 2 x 2 Q is one reflection, which is symmetric
        assert not scipy.linalg.issymmetric(q)
        assert 1.0 <= solver.condition_number(q) <= 1.0 + 16 * EPS, n


def test_orthogonal_matrix_whose_top_eigenvalue_fails_to_bisect_by_index_reads_one(
        monkeypatch):
    # On this matrix of scipy's seeded orthogonal family, bisecting T's top
    # eigenvalue as its n-th returns info 2 and no eigenvalue; bisected as
    # the bottom one of -T, it converges.
    from scipy.stats import ortho_group

    q = ortho_group.rvs(13, random_state=130)
    assert not scipy.linalg.issymmetric(q)
    bisect = scipy.linalg.lapack.dstebz
    bisected = []

    def recorded(d, e, *args):
        bisected.append((d, e))
        return bisect(d, e, *args)

    monkeypatch.setattr(scipy.linalg.lapack, "dstebz", recorded)
    assert 1.0 <= solver.condition_number(q) <= 1.0 + 16 * EPS
    d, e = bisected[0]
    assert bisect(d, e, 2, 0.0, 0.0, 13, 13, 0.0, b"E")[-1] == 2


@pytest.mark.parametrize("exponent", [-450, -300, 300, 450])
def test_scaled_matrices_read_the_unscaled_condition_number(exponent):
    # G's tridiagonal T is scaled to max(|d|, |e|) in [0.5, 1) before it
    # is bisected: unscaled, inverse iteration returned NaN vectors from
    # about 2^300 on, and the final eigh raised a ValueError.
    scale = 2.0 ** exponent
    matrix = np.random.default_rng(1).standard_normal((50, 50))
    assert _within_8_eps_cond(solver.condition_number(matrix * scale),
                              svd_condition_number(matrix))
    q = scipy.linalg.qr(np.random.default_rng(2).standard_normal((50, 50)))[0]
    assert 1.0 <= solver.condition_number(q * scale) <= 1.0 + 16 * EPS


@pytest.mark.parametrize("n", [2, 3])
def test_matrices_with_no_or_one_reflector_match_the_svd(n):
    # n = 2 applies no reflector to T's eigenvectors, n = 3 one.
    rng = np.random.default_rng(n)
    for _ in range(20):
        matrix = rng.standard_normal((n, n))
        assert not scipy.linalg.issymmetric(matrix)
        assert _within_8_eps_cond(solver.condition_number(matrix),
                                  svd_condition_number(matrix))


def test_condition_number_does_not_copy_its_matrix(traced_peak):
    # The Gram matrix is the one n^2 array it holds: dsyrk and dgemv both
    # read the Fortran-ordered view A^T of a C-ordered A.  Measured 1.06;
    # a copy of A would read about 2.
    n = 600
    matrix = np.random.default_rng(38).standard_normal((n, n))
    peak, _ = traced_peak(solver.condition_number, matrix)
    assert peak <= 1.25 * 8 * n * n


def _thread_cpu_seconds():
    """CPU seconds of each of this process's threads, by thread id."""
    ticks = os.sysconf("SC_CLK_TCK")
    seconds = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # the thread ended
            continue
        seconds[tid] = (int(fields[11]) + int(fields[12])) / ticks
    return seconds


def test_condition_number_leaves_numpys_blas_pool_idle():
    # numpy and scipy each load an OpenBLAS.  A pool woken by a threaded
    # call keeps its worker spinning on a core for about 0.1 s, where it
    # competes with the other pool's LAPACK; the Gram path's products A z
    # in numpy woke numpy's pool (0.12 s of worker CPU per call).
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no per-thread CPU times without /proc")
    matrix = np.random.default_rng(38).standard_normal((1024, 1024))
    settle = 0.3  # longer than a woken worker spins

    def ran_during(work):
        before = _thread_cpu_seconds()
        work()
        time.sleep(settle)
        after = _thread_cpu_seconds()
        return {tid for tid, seconds in after.items() if seconds > before.get(tid, 0.0)}

    time.sleep(settle)  # a worker that an earlier test woke stops
    idle = ran_during(lambda: None)
    scipys = ran_during(lambda: scipy.linalg.lu_factor(matrix))
    numpys = ran_during(lambda: matrix @ matrix[0]) - idle - scipys
    if not numpys:
        pytest.skip("numpy's BLAS runs one thread")
    before = _thread_cpu_seconds()
    solver.condition_number(matrix)
    time.sleep(settle)
    after = _thread_cpu_seconds()
    assert sum(after[tid] - before[tid] for tid in numpys) < 0.05


def test_singular_non_symmetric_matrix_reads_inf():
    assert solver.condition_number(np.array([[1.0, 1.0], [0.0, 0.0]])) == np.inf


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (4,), (2, 2, 2)])
def test_condition_number_rejects_a_non_square_matrix(shape):
    with pytest.raises(AssemblyError, match="shape"):
        solver.condition_number(np.arange(np.prod(shape), dtype=float).reshape(shape))


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_condition_number_rejects_entries_whose_squares_leave_the_range(scale):
    # A Gram matrix of such entries overflows, or underflows to 0.
    with pytest.raises(AssemblyError, match="out of range for its Gram matrix"):
        solver.condition_number(scale * np.array([[1.0, 2.0], [0.5, 3.0]]))


def test_interior_neumann_direct_matrix_reads_singular():
    # The interior Neumann problem is singular (constants); the SVD reads
    # 8.1e11 for this matrix.
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="neumann", aspect=2.0,
                                   n_list=(64, 128, 256))
    _, ps, cm = harness._discretize(cfg, 64)
    assert solver.condition_number(
        solver.assemble_system(potentials.LayerKind.SINGLE, cm, ps)) >= 1e11


@pytest.mark.parametrize("tag", [None, 3])
def test_formulation_tag_must_be_a_string(tag):
    # The solver takes a LayerKind and a SystemForm; a tag reaches it only
    # through the config, which refuses one that is not a string.
    with pytest.raises(ConfigError, match="formulation tag must be a string"):
        harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", formulation=tag)


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
    single = potentials.LayerKind.SINGLE
    solver.solve_system(single, cm, ps)
    assert shapes == [(n, n)]  # no K- rows gathered
    with pytest.raises(FormulationSingularError):
        solver.solve_system(single, cm, ps, cond_of=solver.SystemForm.SCHUR)
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
    kernel, form = kernel_and_form(tag)
    with pytest.raises(AssemblyError, match=f"{name} contains non-finite"):
        solver.solve_system(kernel, cm, ps, cond_of=form)


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
    w = solver.recover(np.zeros(len(cm.gamma_minus)), potentials.LayerKind.SINGLE, ps)
    assert np.all(w == 0.0)


@pytest.mark.parametrize("tag", ["single-direct", "double-direct"])
def test_constant_dirichlet_is_exact(circle_problem, tag):
    grid, ps, cm = circle_problem
    kernel, _ = kernel_and_form(tag)
    density, _ = solver.solve_system(kernel, cm, ps)
    u = interior_values(density, kernel, ps)
    assert np.abs(u - 1.0).max() <= 1e-9


def test_formulation_equivalence(circle_problem):
    grid, ps, cm = circle_problem
    solutions = {}
    for tag in FORMULATION_TAGS:
        kernel, form = kernel_and_form(tag)
        density, _ = solver.solve_system(kernel, cm, ps, cond_of=form)
        solutions[tag] = interior_values(density, kernel, ps)
        trace_minus = gamma_part(density, kernel, ps, ps.gamma_minus)
        if form is solver.SystemForm.DIRECT:
            direct_trace = trace_minus
        else:
            assert np.abs(trace_minus - direct_trace).max() <= 1e-8
    values = list(solutions.values())
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert np.abs(values[i] - values[j]).max() <= 1e-8


@pytest.mark.parametrize("tag", FORMULATION_TAGS)
def test_one_factorization_per_solve(circle_problem, monkeypatch, tag):
    # Either form factors the direct system once, and nothing else.
    grid, ps, cm = circle_problem
    kernel, _ = kernel_and_form(tag)
    calls = []
    lu_factor = scipy.linalg.lu_factor

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return lu_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    solver.solve_system(kernel, cm, ps)
    n = len(cm.gamma_minus)
    assert calls == [(n, n)]


@pytest.mark.parametrize("problem", ["circle_problem", "robin_ellipse256"])
@pytest.mark.parametrize("kernel", ["single", "double"])
def test_schur_solve_is_the_direct_solve(request, problem, kernel):
    ps, cm = request.getfixturevalue(problem)[-2:]
    # Each with its own condition number, which must leave the solve as it was.
    kind = potentials.LayerKind(kernel)
    direct, schur = (solver.solve_system(kind, cm, ps, cond_of=form)[0]
                     for form in solver.SystemForm)
    assert np.array_equal(schur, direct)
    assert np.array_equal(gamma_trace(schur, kind, ps),
                          gamma_trace(direct, kind, ps))
    assert np.array_equal(solver.recover(schur, kind, ps),
                          solver.recover(direct, kind, ps))


def test_closure_rows_are_satisfied(circle_problem):
    grid, ps, cm = circle_problem
    single = potentials.LayerKind.SINGLE
    density, _ = solver.solve_system(single, cm, ps)
    lhs = (cm.phi_plus @ gamma_part(density, single, ps, ps.gamma_plus)
           + cm.phi_minus @ gamma_part(density, single, ps, ps.gamma_minus))
    assert np.abs(lhs - cm.rhs).max() <= 1e-9 * np.abs(cm.rhs).max()


def test_residual_invariant():
    # The closure residual of the recovered field stays at rounding level.
    cfg = harness.ExperimentConfig("ellipse", "dirichlet", formulation="double-schur", n=32,
                                   compute_cond=True)
    sol = harness.solve_problem(cfg)
    assert sol.residual <= 1e-10 * np.abs(sol.exact).max()
    assert sol.cond is not None and sol.cond > 1.0


@pytest.mark.parametrize("tag", FORMULATION_TAGS)
def test_solve_cond_is_of_the_unfactored_matrix(circle_problem, tag):
    # The system is factored in place, so its condition number must be
    # taken before the factor overwrites it.
    grid, ps, cm = circle_problem
    kernel, form = kernel_and_form(tag)
    _, cond_schur, cond_direct = solver.condition_numbers(kernel, cm, ps)
    expected = cond_schur if form is solver.SystemForm.SCHUR else cond_direct
    _, cond = solver.solve_system(kernel, cm, ps, cond_of=form)
    assert cond == expected
    assert solver.solve_system(kernel, cm, ps)[1] is None


@pytest.mark.parametrize("problem", ["circle_problem", "robin_ellipse256"])
@pytest.mark.parametrize("kernel", [potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE])
def test_condition_numbers_match_each_system(request, problem, kernel):
    # One gather serves K- and both forms; each number is bitwise the one
    # its own solve gives, Robin closures (C- beyond Phi-) included.
    ps, cm = request.getfixturevalue(problem)[-2:]
    k_minus = assemble_layer_matrix(cm.gamma_minus, cm.gamma_minus, kernel, ps)
    expected = [solver.condition_number(k_minus)]
    for form in (solver.SystemForm.SCHUR, solver.SystemForm.DIRECT):
        _, cond = solver.solve_system(kernel, cm, ps, cond_of=form)
        expected.append(cond)
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
        kernel, form = kernel_and_form(tag)
        density, _ = solver.solve_system(kernel, cm, ps, cond_of=form)
        # The trace is on gamma only; the closure rows need all of gamma~+.
        k_plus = assemble_layer_matrix(
            cm.gamma_tilde_plus, cm.gamma_minus, kernel, ps
        )
        trace_plus = k_plus @ density
        tp = cm.gamma_tilde_plus
        on_gamma = ps.gamma_plus[tp[:, 0], tp[:, 1]]
        assert not on_gamma.all()
        assert np.array_equal(ps.gamma_plus_indices, tp[on_gamma])
        np.testing.assert_allclose(gamma_part(density, kernel, ps, ps.gamma_plus),
                                   trace_plus[on_gamma],
                                   rtol=1e-13, atol=1e-13 * np.abs(trace_plus).max())
        k_minus = assemble_layer_matrix(
            cm.gamma_minus, cm.gamma_minus, kernel, ps
        )
        trace_minus = k_minus @ density
        eta_vals = -(cm.r_plus @ trace_plus + cm.r_minus @ trace_minus)
        lhs = (
            cm.phi_plus @ trace_plus
            + cm.phi_minus @ trace_minus
            + cm.phi_prime_minus @ eta_vals
        )
        assert np.abs(lhs - cm.rhs).max() <= 1e-9 * np.abs(cm.rhs).max()
        interiors[tag] = interior_values(density, kernel, ps)
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
    # The peak of layer build, assembly and solve is bounded by the
    # arrays that must be held: the direct matrix, factored in place in
    # either form, and two row blocks over E, with |gamma-|^2 / 2 to spare
    # for library workspace.  The matrix is one contraction, so no kernel
    # block is held, and the |gamma~+| x |gamma-| block K+ (2.6 |gamma-|^2
    # here) never is.
    ps, cm = robin_ellipse256
    kernel, _ = kernel_and_form(tag)
    window, _ = ps.box_window
    kernel_table(window.nx - 1, window.ny - 1)  # the table the gather reads
    cm.c_plus, cm.c_minus  # sparse, and cached on the closure
    n = len(cm.gamma_minus)
    n_e = n
    if kernel is potentials.LayerKind.DOUBLE:
        n_e = len(potentials._exterior_connections(ps, cm.gamma_minus)[0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solver.solve_system(kernel, cm, ps)
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
    # The streamed values on the window edge, which the recovered field
    # keeps there, and the traces that the closure rows read, are the
    # products of the held kernel blocks.
    ps, cm = robin_ellipse256
    kernel, _ = kernel_and_form(tag)
    q, _ = solver.solve_system(kernel, cm, ps)
    edge = diffpot.edge_nodes(ps)
    k_edge = assemble_layer_matrix(edge, cm.gamma_minus, kernel, ps)
    recovered = solver.recover(q, kernel, ps)
    np.testing.assert_allclose(diffpot.window_values(recovered, edge, ps), k_edge @ q,
                               rtol=1e-14)
    k_plus_gamma = assemble_layer_matrix(
        ps.gamma_plus_indices, cm.gamma_minus, kernel, ps
    )
    np.testing.assert_allclose(gamma_part(q, kernel, ps, ps.gamma_plus),
                               k_plus_gamma @ q, rtol=1e-14)
    k_minus = assemble_layer_matrix(cm.gamma_minus, cm.gamma_minus, kernel, ps)
    np.testing.assert_allclose(gamma_part(q, kernel, ps, ps.gamma_minus),
                               k_minus @ q, rtol=1e-14)


@pytest.mark.parametrize("tag", FORMULATION_TAGS)
def test_recover_streams_one_product_in_window_edge_order(robin_ellipse256, monkeypatch, tag):
    # Every form's recovery streams the layer potential on the window
    # edge, in canonical order, in one product, and the solve none.
    ps, cm = robin_ellipse256
    kernel, _ = kernel_and_form(tag)
    targets = []
    apply_layer_matrix = solver.apply_layer_matrix

    def recorded(points, *args, **kwargs):
        targets.append(points)
        return apply_layer_matrix(points, *args, **kwargs)

    monkeypatch.setattr(solver, "apply_layer_matrix", recorded)
    density, _ = solver.solve_system(kernel, cm, ps)
    assert targets == []
    w = solver.recover(density, kernel, ps)
    window, offset = ps.box_window
    assert w.shape == (window.nx, window.ny)
    assert len(targets) == 1
    assert len(targets[0]) == 2 * (window.nx + window.ny) - 4
    assert np.array_equal(targets[0], diffpot.edge_nodes(ps))


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
    solver.solve_system(kernel, cm, ps, cond_of=solver.SystemForm.SCHUR)
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
    # direct matrix, and no other kernel gather runs; the recovery adds
    # only its one product on the window edge.
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
    for call in (lambda: solver.condition_numbers(kernel, cm, ps),
                 lambda: solver.assemble_system(kernel, cm, ps, with_k_minus=True),
                 lambda: solver.assemble_system(kernel, cm, ps)):
        calls.clear()
        call()
        assert calls == contraction
    calls.clear()
    density, _ = solver.solve_system(kernel, cm, ps, cond_of=solver.SystemForm.SCHUR)
    assert calls == contraction
    calls.clear()
    solver.recover(density, kernel, ps)
    assert calls == ["apply_layer_matrix", "_row_gatherer"]


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


# The diamond's corners leave Robin closures without extrapolation
# stencils (ExtrapolationStencilError, by design), so it has no Robin
# case; its point sets, all that recovery reads, are its Dirichlet case's.
@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("shape, bc, kernel", [
    (shape, bc, kernel)
    for shape, bc in (("ellipse", "dirichlet"), ("ellipse", "robin"), ("diamond", "dirichlet"))
    for kernel in ("single", "double")
] + [("circle-exterior", "dirichlet", "single")])
def test_recovered_field_is_the_lattice_potential(shape, bc, kernel, n):
    # [A K q] is the density's lattice sources, so their box solve with
    # K q on the window edge is K q on the whole window: at seeded M+
    # samples and on gamma+ and gamma-, against the held kernel block,
    # for the solved density and a seeded one.  Measured 5e-13 to 2.4e-12
    # (single layer) and 7e-12 to 2.0e-11 (double layer).
    cfg = harness.ExperimentConfig(shape, bc, formulation=f"{kernel}-direct", n=n, aspect=2.0)
    _, ps, cm = harness._discretize(cfg, n)
    kind = potentials.LayerKind(kernel)
    rng = np.random.default_rng(n)
    m_plus = np.argwhere(ps.m_plus)
    targets = np.concatenate([m_plus[rng.choice(len(m_plus), 200, replace=False)],
                              ps.gamma_plus_indices, ps.gamma_minus_indices])
    k_targets = assemble_layer_matrix(targets, cm.gamma_minus, kind, ps)
    solved, _ = solver.solve_system(kind, cm, ps)
    for q in (solved, rng.standard_normal(len(cm.gamma_minus))):
        expected = k_targets @ q
        recovered = diffpot.window_values(solver.recover(q, kind, ps), targets, ps)
        error = np.abs(recovered - expected).max()
        assert error <= 1e-10 * np.abs(expected).max()


def test_recover_streams_the_exterior_edge_values(monkeypatch):
    cfg = harness.ExperimentConfig("circle-exterior", "dirichlet", n=64)
    _, ps, _ = harness._discretize(cfg, 64)
    kernel = potentials.LayerKind.SINGLE
    sources = ps.gamma_minus_indices
    q = np.random.default_rng(7).standard_normal(len(sources))
    edge = diffpot.edge_nodes(ps)
    expected_edge = potentials.apply_layer_matrix(edge, sources, q, kernel, ps)
    targets = []
    apply_layer_matrix = solver.apply_layer_matrix

    def recorded(points, *args, **kwargs):
        targets.append(points)
        return apply_layer_matrix(points, *args, **kwargs)

    monkeypatch.setattr(solver, "apply_layer_matrix", recorded)
    w = solver.recover(q, kernel, ps)
    assert len(edge) == 4 * (ps.grid.nx - 1)
    assert len(targets) == 1
    assert np.array_equal(targets[0], edge)
    assert np.array_equal(diffpot.window_values(w, edge, ps), expected_edge)


def test_recover_keeps_the_edge_values_of_a_bounded_domain(circle_problem):
    # The window edge lies outside a bounded domain, and the layer
    # potential's values there are the box solve's edge data all the same.
    grid, ps, cm = circle_problem
    sources = ps.gamma_minus_indices
    edge = diffpot.edge_nodes(ps)
    q = np.ones(len(sources))
    w = solver.recover(q, potentials.LayerKind.SINGLE, ps)
    window, _ = ps.box_window
    assert len(edge) == 2 * (window.nx + window.ny) - 4
    assert not ps.m_plus[edge[:, 0], edge[:, 1]].any()
    expected = potentials.apply_layer_matrix(edge, sources, q, potentials.LayerKind.SINGLE, ps)
    assert np.array_equal(diffpot.window_values(w, edge, ps), expected)
