"""Acceptance battery: one test per numbered release criterion.

Each test prints a single PASS line via its pytest verdict and asserts
the criterion at its stated tolerance.  Criterion 7 is split into three
named clauses so a failing clause does not hide the passing ones; the
two growth-rate clauses encode bounds that the assembled matrices
measurably exceed (analysis in the project notes), and they are
asserted as stated rather than loosened.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import sparse

from latticebae import closure as closure_mod
from latticebae import diffpot, geometry, harness, potentials, solver
from latticebae.lgf import (
    lgf,
    lgf_asymptotic,
    lgf_quadrature,
    lgf_recursion_table,
)
from reference import assemble_layer_matrix, gamma_trace, lgf_grid

LADDER = (64, 128, 256, 512)
COND_LADDER = (128, 256, 512)

BOUNDED_GEOMETRIES = (
    dict(geometry="ellipse", aspect=1.0),
    dict(geometry="ellipse", aspect=2.0),
    dict(geometry="ellipse", aspect=4.0),
    dict(geometry="ellipse", aspect=8.0),
    dict(geometry="diamond", r1=0.9, r2=0.5),
    dict(geometry="diamond", r1=0.9, r2=0.25),
)


def test_criterion_01_lgf_closed_forms():
    start = time.perf_counter()
    assert abs(lgf((0, 0)) - 0.0) <= 1e-12
    assert abs(lgf((1, 0)) - (-0.25)) <= 1e-12
    assert abs(lgf((1, 1)) - (-1.0 / math.pi)) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_02_delta_identity():
    start = time.perf_counter()
    table = lgf_grid(42, 42)
    c = 42  # origin offset inside the (2*42+1)^2 table
    stencil = (
        4.0 * table[1:-1, 1:-1]
        - table[2:, 1:-1] - table[:-2, 1:-1]
        - table[1:-1, 2:] - table[1:-1, :-2]
    )
    jj, kk = np.meshgrid(np.arange(-41, 42), np.arange(-41, 42), indexing="ij")
    disk = jj**2 + kk**2 <= 40 * 40
    assert disk.sum() > 4500  # about 5000 lattice points
    delta = ((jj == 0) & (kk == 0)).astype(float)
    assert np.abs(stencil[disk] - delta[disk]).max() <= 1e-10
    assert time.perf_counter() - start < 10.0


def test_criterion_03_regime_agreement():
    # the dihedral symmetry of the kernel reduces the 20 <= |m| <= 50
    # annulus to its canonical octant
    checked = 0
    for j in range(0, 51):
        for k in range(0, j + 1):
            r = math.hypot(j, k)
            if not 20.0 <= r <= 50.0:
                continue
            diff = abs(lgf_quadrature((j, k), 1e-13) - lgf_asymptotic((j, k)))
            assert diff <= 1e-10, f"m=({j},{k}) disagreement {diff:.3e}"
            checked += 1
    assert checked > 500
    table = lgf_recursion_table(12)
    for (a, b), value in table.values.items():
        assert abs(value - lgf((a, b))) <= 1e-8


@pytest.mark.parametrize("kind", [potentials.LayerKind.SINGLE,
                                  potentials.LayerKind.DOUBLE])
@pytest.mark.parametrize("aspect", [1.0, 2.0])
def test_criterion_04_discrete_harmonicity(kind, aspect):
    grid = geometry.Grid.from_box((-1.15, 1.15), (-1.15, 1.15), 64)
    ps = geometry.classify(grid, geometry.ellipse(aspect))
    rng = np.random.default_rng(17)
    q = rng.standard_normal(len(ps.gamma_minus_indices))
    full = ps.m_plus.copy()
    full[1:-1, 1:-1] = (
        ps.m_plus[1:-1, 1:-1]
        & ps.m_plus[2:, 1:-1] & ps.m_plus[:-2, 1:-1]
        & ps.m_plus[1:-1, 2:] & ps.m_plus[1:-1, :-2]
    )
    full[0, :] = full[-1, :] = False
    full[:, 0] = full[:, -1] = False
    centers = np.argwhere(full)
    needed = sorted({(j + dj, k + dk) for j, k in centers
                     for dj, dk in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))})
    values = potentials.apply_layer_matrix(np.array(needed), ps.gamma_minus_indices, q,
                                           kind, ps)
    field = dict(zip(needed, values))
    worst = max(
        abs(4.0 * field[(j, k)] - field[(j + 1, k)] - field[(j - 1, k)]
            - field[(j, k + 1)] - field[(j, k - 1)])
        for j, k in centers
    )
    # residual roundoff scales with the density, not the field: a
    # near-equilibrium dipole density gives a tiny field at the same
    # summation cost, so the density sup is the well-posed referent
    assert worst <= 1e-10 * np.abs(q).max()


def _dense_interior_solve(rhs_interior, m):
    main = 2.0 * np.ones(m)
    off = -np.ones(m - 1)
    k1 = sparse.diags_array([off, main, off], offsets=[-1, 0, 1]).toarray()
    eye = np.eye(m)
    big = np.kron(k1, eye) + np.kron(eye, k1)
    return np.linalg.solve(big, rhs_interior.reshape(-1)).reshape(m, m)


def test_criterion_05_projection_and_fft():
    grid = geometry.Grid.from_box((-1.15, 1.15), (-1.15, 1.15), 32)
    ps = geometry.classify(grid, geometry.ellipse(2.0))
    gamma = ps.gamma_indices
    rng = np.random.default_rng(23)

    for kind in (potentials.LayerKind.SINGLE, potentials.LayerKind.DOUBLE):
        km = assemble_layer_matrix(gamma, ps.gamma_minus_indices, kind, ps)
        for _ in range(5):
            q = rng.standard_normal(len(ps.gamma_minus_indices))
            trace = km @ q
            back = diffpot.difference_potential(trace, ps)
            reproduced = diffpot.window_values(back, gamma, ps)
            err = np.abs(reproduced - trace).max()
            assert err <= 1e-10 * max(1.0, np.abs(trace).max())

    for _ in range(5):
        arbitrary = rng.standard_normal(len(gamma))
        once = diffpot.difference_potential(arbitrary, ps)
        tr1 = diffpot.window_values(once, gamma, ps)
        twice = diffpot.difference_potential(tr1, ps)
        tr2 = diffpot.window_values(twice, gamma, ps)
        assert np.abs(tr2 - tr1).max() <= 1e-10 * max(1.0, np.abs(tr1).max())

    for n_nodes in (16, 32):
        rhs = np.zeros((n_nodes, n_nodes))
        rhs[1:-1, 1:-1] = rng.standard_normal((n_nodes - 2, n_nodes - 2))
        fast = diffpot.fft_poisson_solve(rhs)
        oracle = _dense_interior_solve(rhs[1:-1, 1:-1], n_nodes - 2)
        assert np.abs(fast[1:-1, 1:-1] - oracle).max() <= 1e-12 * max(
            1.0, np.abs(oracle).max())


def _ladder_report(**kw):
    cfg = harness.ExperimentConfig(n_list=LADDER, **kw)
    start = time.perf_counter()
    rep = harness.run_convergence(cfg)
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0, f"ladder exceeded 5 minutes: {kw}"
    assert not rep.failures, f"ladder members failed: {rep.failures} for {kw}"
    assert rep.order is not None
    assert 1.7 <= rep.order <= 2.3, f"order {rep.order:.3f} out of band for {kw}"
    return rep


def test_criterion_06_convergence_dirichlet_ellipses():
    errors_by_aspect = {}
    for aspect in (1.0, 2.0, 4.0, 8.0):
        for tag in ("single-direct", "single-schur",
                    "double-direct", "double-schur"):
            rep = _ladder_report(geometry="ellipse", aspect=aspect,
                                 bc="dirichlet", formulation=tag)
        errors_by_aspect[aspect] = [r.max_error for r in rep.rows]
    # accuracy is insensitive to the aspect ratio: spreads stay small
    for i in range(len(LADDER)):
        errs = [errors_by_aspect[a][i] for a in errors_by_aspect]
        assert max(errs) <= 3.0 * min(errs)


def test_criterion_06_convergence_dirichlet_diamonds():
    _ladder_report(geometry="diamond", r1=0.9, r2=0.5,
                   bc="dirichlet", formulation="single-direct")
    _ladder_report(geometry="diamond", r1=0.9, r2=0.25,
                   bc="dirichlet", formulation="single-direct")


def test_criterion_06_convergence_robin_ellipse():
    _ladder_report(geometry="ellipse", aspect=2.0, bc="robin",
                   formulation="single-direct")


def test_criterion_06_convergence_nonhomogeneous_ellipse():
    # the bounded problems always carry forcing
    _ladder_report(geometry="ellipse", aspect=2.0, bc="dirichlet",
                   formulation="single-direct")


def test_criterion_06_convergence_unbounded():
    _ladder_report(geometry="circle-exterior", bc="dirichlet",
                   formulation="single-direct")
    _ladder_report(geometry="circle-exterior", bc="neumann",
                   formulation="single-direct")


def _conditioning_table(bc):
    cfg = harness.ExperimentConfig(geometry="ellipse", aspect=2.0, bc=bc,
                                   n_list=COND_LADDER)
    rep = harness.run_conditioning(cfg)
    table = {}
    for row in rep.rows:
        table.setdefault(row.formulation, {})[row.n] = row.cond
    return table


@pytest.fixture(scope="module")
def dirichlet_conditioning():
    return _conditioning_table("dirichlet")


@pytest.fixture(scope="module")
def robin_conditioning():
    return _conditioning_table("robin")


def test_criterion_07a_conditioning_dirichlet_bounded(dirichlet_conditioning):
    table = dirichlet_conditioning
    for label in ("D-", "A_d", "M_d", "A_s"):
        ratio = table[label][512] / table[label][128]
        assert ratio <= 1.5, f"{label} ratio {ratio:.3f}"
    for n in COND_LADDER:
        a_s, a_d = table["A_s"][n], table["A_d"][n]
        assert abs(a_s - a_d) <= 0.05 * a_d, f"A_s vs A_d at N={n}"


def test_criterion_07b_conditioning_dirichlet_single_layer(dirichlet_conditioning):
    table = dirichlet_conditioning
    for label in ("S-", "M_s"):
        ratio = table[label][512] / table[label][128]
        assert ratio <= 3.0, f"{label} ratio {ratio:.3f}"


def test_criterion_07c_conditioning_robin_only_double(robin_conditioning):
    table = robin_conditioning
    d_ratio = table["D-"][512] / table["D-"][128]
    assert d_ratio <= 1.5, f"D- ratio {d_ratio:.3f}"
    for label in ("S-", "A_s", "A_d", "M_s", "M_d"):
        ratio = table[label][512] / table[label][128]
        assert ratio > 1.5, f"{label} ratio {ratio:.3f} also satisfies the bound"


def test_criterion_08_unbounded_double_exits_3():
    proc = subprocess.run(
        [sys.executable, "-m", "latticebae", "solve",
         "--geometry", "circle-exterior", "--bc", "dirichlet",
         "--formulation", "double-direct", "--n", "64"],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "D-" in proc.stderr


@pytest.mark.parametrize("kw", BOUNDED_GEOMETRIES,
                         ids=lambda kw: f"{kw['geometry']}-{kw.get('aspect', kw.get('r2'))}")
def test_criterion_09_constant_dirichlet_exactness(kw):
    cfg = harness.ExperimentConfig(bc="dirichlet", n=64, **kw)
    shape = harness.build_shape(cfg)
    grid = harness.build_grid(cfg, 64)
    ps = geometry.classify(grid, shape)
    xs = geometry.select_intersections(ps, shape)
    cm = closure_mod.assemble_closure(ps, xs, closure_mod.dirichlet(lambda x, y: 1.0))
    density, _ = solver.solve_system(potentials.LayerKind.SINGLE, cm, ps)
    u = diffpot.difference_potential(
        gamma_trace(density, potentials.LayerKind.SINGLE, ps), ps)
    mp = np.argwhere(ps.m_plus)
    assert np.abs(diffpot.window_values(u, mp, ps) - 1.0).max() <= 1e-9


@pytest.mark.parametrize("kernel", ["single", "double"])
def test_criterion_10_direct_vs_schur_interiors(kernel):
    values = {}
    for form in ("direct", "schur"):
        cfg = harness.ExperimentConfig(geometry="ellipse", aspect=1.0,
                                       bc="dirichlet",
                                       formulation=f"{kernel}-{form}", n=64)
        values[form] = harness.solve_problem(cfg).values
    assert np.abs(values["direct"] - values["schur"]).max() <= 1e-8
