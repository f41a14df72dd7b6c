"""Experiment engine tests: configs, manufactured data, pipelines, CSV."""

import ast
import csv
import io
import math
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg

from latticebae import cli, diffpot, geometry, harness, solver
from latticebae.errors import ConfigError, DoubleLayerInapplicableError


def test_config_rejects_bad_selectors():
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(geometry="pentagon", bc="dirichlet", n=32)
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(geometry="ellipse", bc="absorbing", n=32)
    for tag in ("triple-direct", "quadruple-direct"):
        with pytest.raises(ConfigError, match="unknown formulation tag"):
            harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", formulation=tag, n=32)


def test_formulation_tags_name_their_kernel_and_form():
    for tag in harness.FORMULATIONS:
        cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", formulation=tag)
        kernel, form = harness._formulation(cfg)
        assert f"{kernel.value}-{form.value}" == tag


def test_config_rejects_bad_grid_sizes():
    for n in (16, 48, 4096, 31):
        with pytest.raises(ConfigError, match=r"\[32, 2048\]"):
            harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n=n)
    assert harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n=2048).n == 2048
    # power-of-two members are validated inside ladders too
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(geometry="ellipse", bc="dirichlet",
                                 n_list=(32, 48, 64))


def test_config_rejects_non_integer_grid_sizes():
    with pytest.raises(ConfigError, match=r"\[32, 2048\], got 128.0"):
        harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n=128.0)
    with pytest.raises(ConfigError, match=r"\[32, 2048\]"):
        harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n_list=(32, 64.0, 128))


def test_solve_rejects_an_explicit_bad_grid_size():
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n=64)
    for n in (48, 64.0):
        with pytest.raises(ConfigError, match=r"\[32, 2048\]"):
            harness.solve_problem(cfg, n)


def test_config_rejects_bad_ladders():
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet",
                                   n_list=(32, 64))
    with pytest.raises(ConfigError):
        cfg.ladder()
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet",
                                   n_list=(64, 32, 128))
    with pytest.raises(ConfigError):
        cfg.ladder()


def test_config_rejects_nonpositive_parameters():
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(geometry="ellipse", aspect=-2.0,
                                 bc="dirichlet", n=32)
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(geometry="diamond", r2=0.0,
                                 bc="dirichlet", n=32)


@pytest.mark.parametrize("name", ["aspect", "r1", "r2", "radius", "ell"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "2", None, 1e200, 1e308])
def test_config_rejects_non_finite_or_non_numeric_parameters(name, value):
    # A parameter whose square overflows breaks the shape or the box.
    with pytest.raises(ConfigError, match=f"{name} must be a finite positive number"):
        harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n=64, **{name: value})


@pytest.mark.parametrize("name, value", [
    ("n_list", None), ("n_list", 5), ("formulation", None), ("formulation", 3),
    ("formulation", b"single-direct"),
])
def test_config_rejects_selectors_of_the_wrong_type(name, value):
    with pytest.raises(ConfigError, match=r"(n_list|formulation tag) must be"):
        harness.ExperimentConfig(geometry="ellipse", bc="robin", **{name: value})


@pytest.mark.parametrize("value", ["no", 1])
def test_config_rejects_a_compute_cond_that_is_not_a_bool(value):
    # "no" is truthy: accepted, it would run the SVD the caller meant to skip.
    with pytest.raises(ConfigError, match="compute_cond must be a bool"):
        harness.ExperimentConfig(geometry="ellipse", bc="robin", compute_cond=value)


@pytest.mark.parametrize("value", [True, False, np.True_])
def test_config_takes_a_bool_compute_cond(value):
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="robin", compute_cond=value)
    assert cfg.compute_cond == value


def test_config_says_a_size_is_a_string():
    with pytest.raises(ConfigError, match="got the string '64'"):
        harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n="64")
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n=64)
    with pytest.raises(ConfigError, match="got the string '64'"):
        harness.solve_problem(cfg, "64")


def test_config_does_not_iterate_a_string_of_sizes():
    with pytest.raises(ConfigError, match="n_list must be a sequence of sizes, "
                                          "got the string '64,128,256'"):
        harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n_list="64,128,256")


def test_config_takes_its_sizes_as_a_tuple_and_hashes():
    sizes = [64, 128, 256]
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n_list=sizes)
    sizes.append(48)
    assert cfg.n_list == (64, 128, 256)
    assert hash(cfg) == hash(harness.ExperimentConfig(geometry="ellipse", bc="dirichlet",
                                                      n_list=(64, 128, 256)))


@pytest.mark.parametrize("name", ["aspect", "r1", "r2", "radius", "ell"])
def test_config_rejects_booleans_as_shape_parameters(name):
    with pytest.raises(ConfigError, match=f"{name} must be a finite positive number, got True"):
        harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n=64, **{name: True})


def test_config_refuses_a_circle_exterior_body_no_wider_than_one_cell():
    # The smallest size of a ladder has the widest cell: h = 6/32 at n=32.
    with pytest.raises(ConfigError, match=r"radius 0.1875 is 1 cells at n=32 \(h = 0.1875\)"):
        harness.ExperimentConfig(geometry="circle-exterior", bc="dirichlet", radius=0.1875,
                                 n_list=(32, 64, 128))
    cfg = harness.ExperimentConfig(geometry="circle-exterior", bc="dirichlet", radius=0.1)
    with pytest.raises(ConfigError, match="radius 0.1 is 0.533 cells at n=32"):
        harness.solve_problem(cfg, 32)
    assert harness.ExperimentConfig(geometry="circle-exterior", bc="dirichlet", radius=0.1,
                                    n_list=(64, 128, 256)).radius == 0.1
    # The bounded shapes do not read the radius.
    harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", radius=1e-9, n=32)


def test_manufactured_bounded_consistency():
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n=32)
    mf = harness.manufactured_solution(cfg)
    rng = np.random.default_rng(11)
    for x, y in rng.uniform(-1.0, 1.0, size=(20, 2)):
        eps = 1e-6
        gx = (mf.u(x + eps, y) - mf.u(x - eps, y)) / (2 * eps)
        gy = (mf.u(x, y + eps) - mf.u(x, y - eps)) / (2 * eps)
        ax, ay = mf.grad(x, y)
        assert abs(gx - ax) < 1e-9
        assert abs(gy - ay) < 1e-9
        # f = -lap(u) by the manufactured construction
        lap = (mf.u(x + eps, y) + mf.u(x - eps, y) + mf.u(x, y + eps)
               + mf.u(x, y - eps) - 4 * mf.u(x, y)) / eps**2
        assert abs(-lap - mf.f(x, y)) < 1e-3


def test_manufactured_unbounded_is_harmonic():
    cfg = harness.ExperimentConfig(geometry="circle-exterior", bc="dirichlet", n=32)
    mf = harness.manufactured_solution(cfg)
    assert mf.f is None
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = rng.uniform(1.2, 2.5)
        t = rng.uniform(0.0, 2 * math.pi)
        x, y = r * math.cos(t), r * math.sin(t)
        eps = 1e-5
        lap = (mf.u(x + eps, y) + mf.u(x - eps, y) + mf.u(x, y + eps)
               + mf.u(x, y - eps) - 4 * mf.u(x, y)) / eps**2
        assert abs(lap) < 1e-4
        gx = (mf.u(x + eps, y) - mf.u(x - eps, y)) / (2 * eps)
        ax, ay = mf.grad(x, y)
        assert abs(gx - ax) < 1e-8
        gy = (mf.u(x, y + eps) - mf.u(x, y - eps)) / (2 * eps)
        assert abs(gy - ay) < 1e-8


def test_robin_data_matches_directional_derivative():
    cfg = harness.ExperimentConfig(geometry="ellipse", aspect=2.0, bc="robin", n=32)
    shape = harness.build_shape(cfg)
    mf = harness.manufactured_solution(cfg)
    bc = harness.make_boundary_condition(cfg, shape, mf, 2.3 / 32)
    assert bc.alpha_coef == 1.0 and bc.beta_coef == 1.0
    # on the boundary curve the data is du/dn + u for the manufactured u
    t = 1.1
    x, y = math.cos(t), math.sin(t) / 2.0
    gx, gy = shape.grad(x, y)
    norm = math.hypot(gx, gy)
    ux, uy = mf.grad(x, y)
    expected = (ux * gx + uy * gy) / norm + mf.u(x, y)
    assert abs(bc.data(x, y) - expected) < 1e-14


def test_robin_data_on_a_shape_without_gradient(monkeypatch):
    # The Robin normal falls back to central differences of psi, as the
    # intersection normals do; the solve stays second order and within
    # rounding of the finite differences of the analytic-gradient run.
    cfg = harness.ExperimentConfig(geometry="ellipse", aspect=2.0, bc="robin",
                                   formulation="single-direct", n=128)
    analytic = harness.solve_problem(cfg)
    shape = geometry.ellipse(2.0)
    monkeypatch.setattr(harness, "build_shape",
                        lambda cfg: geometry.custom(shape.psi, label=shape.label))
    fallback = harness.solve_problem(cfg)
    assert fallback.max_error <= 0.8 * fallback.grid.h**2
    assert np.abs(fallback.values - analytic.values).max() <= 1e-6


def test_solve_bounded_dirichlet_accuracy():
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet",
                                   formulation="single-direct", n=32)
    sol = harness.solve_problem(cfg)
    assert sol.max_error < 1e-3
    assert len(sol.values) == int(sol.ps.m_plus.sum())


#: Patch fields (u, grad u, f) that a closure row reproduces exactly: the
#: Dirichlet segment row is linear along its grid line, where xy + x is,
#: and the Robin 3x3 cell is quadratic.  Harmonic fields carry f=None.
PATCH_FIELDS = {
    "xy+x": (lambda x, y: x * y + x, lambda x, y: (y + 1.0, x), None),
    "x2-y2": (lambda x, y: x * x - y * y, lambda x, y: (2.0 * x, -2.0 * y), None),
    "x2+y2": (lambda x, y: x * x + y * y, lambda x, y: (2.0 * x, 2.0 * y),
              lambda x, y: np.full(np.shape(x), -4.0)),
}


# Robin on the diamond raises ExtrapolationStencilError by design, so it
# has no case here.
@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("tag", harness.FORMULATIONS)
@pytest.mark.parametrize("geometry_name, bc, field", [
    ("ellipse", "dirichlet", "xy+x"), ("diamond", "dirichlet", "xy+x"),
    ("ellipse", "robin", "x2-y2"), ("ellipse", "robin", "x2+y2"),
])
def test_closure_reproduces_patch_fields(monkeypatch, geometry_name, bc, field, tag, n):
    # A wrong closure weight or kernel offset shows at any n.  Measured:
    # 4.9e-13 to 4.7e-12 for the single layer, up to 6.4e-11 for the
    # double layer (Robin x^2 - y^2, n = 64), its box-solve rounding.
    monkeypatch.setattr(harness, "manufactured_solution",
                        lambda cfg: harness.Manufactured(*PATCH_FIELDS[field]))
    cfg = harness.ExperimentConfig(geometry_name, bc, formulation=tag, n=n, aspect=2.0)
    assert harness.solve_problem(cfg).max_error <= 1e-10


#: Bound on the closure residual of the recovered field at n <= 128 (the
#: data are O(1)).  It is box-solve rounding amplified by the closure
#: weights: about 1e-9 for Robin double layers at n = 128, 3e-13 for
#: Dirichlet single layers.
FIELD_RESIDUAL_BOUND = 1e-8


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("bc", ["dirichlet", "robin"])
@pytest.mark.parametrize("tag", ["single-direct", "single-schur", "double-direct", "double-schur"])
def test_field_residual_is_small(tag, bc, n):
    cfg = harness.ExperimentConfig(geometry="ellipse", aspect=2.0, bc=bc, formulation=tag, n=n)
    assert 0.0 < harness.solve_problem(cfg).residual <= FIELD_RESIDUAL_BOUND


@pytest.mark.parametrize("tag", ["single-direct", "single-schur", "double-direct", "double-schur"])
def test_field_residual_flags_a_perturbed_solution(monkeypatch, tag):
    # The solved density perturbed by 1e-6 relative: the traces and the
    # field are consistent with it, but the closure rows are not.
    dense_solve = solver.dense_solve
    rng = np.random.default_rng(7)

    def perturbed(matrix, rhs):
        x = dense_solve(matrix, rhs)
        return x * (1.0 + 1e-6 * rng.choice((-1.0, 1.0), size=len(x)))

    monkeypatch.setattr(solver, "dense_solve", perturbed)
    cfg = harness.ExperimentConfig(geometry="ellipse", aspect=2.0, bc="robin",
                                   formulation=tag, n=64)
    assert harness.solve_problem(cfg).residual > 10 * FIELD_RESIDUAL_BOUND


@pytest.mark.parametrize("kernel", ["single", "double"])
def test_schur_solve_is_the_direct_solve(kernel):
    # Either form solves the direct system, so the two forms of a kernel
    # give the same field, error and residual to the last bit.
    direct, schur = (harness.solve_problem(harness.ExperimentConfig(
        geometry="ellipse", aspect=2.0, bc="robin", formulation=f"{kernel}-{form}", n=64))
        for form in ("direct", "schur"))
    assert np.array_equal(direct.values, schur.values)
    assert direct.max_error == schur.max_error
    assert direct.residual == schur.residual


def test_solve_rows_carry_metadata():
    cfg = harness.ExperimentConfig(geometry="diamond", bc="dirichlet",
                                   formulation="double-direct", n=32)
    _, row = harness.solve_with_row(cfg)
    assert row.geometry.startswith("diamond")
    assert row.bc == "dirichlet"
    assert row.formulation == "double-direct"
    assert row.h == pytest.approx(2.3 / 32)
    assert row.wall_time > 0.0


def test_solve_unbounded_double_raises():
    from latticebae.errors import DoubleLayerInapplicableError

    cfg = harness.ExperimentConfig(geometry="circle-exterior", bc="dirichlet",
                                   formulation="double-schur", n=32)
    with pytest.raises(DoubleLayerInapplicableError, match="D-"):
        harness.solve_problem(cfg)


def test_convergence_report_fits_order_two():
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet",
                                   formulation="single-direct",
                                   n_list=(32, 64, 128))
    rep = harness.run_convergence(cfg)
    assert not rep.failures
    assert len(rep.rows) == 3
    assert 1.5 < rep.order < 2.5
    errs = [r.max_error for r in rep.rows]
    assert errs[0] > errs[1] > errs[2]


def test_convergence_keeps_partial_table_on_failure():
    # the thin diamond defeats the exterior extrapolation stencil at
    # every ladder size, so rows stay empty and failures are recorded
    cfg = harness.ExperimentConfig(geometry="diamond", r1=0.9, r2=0.5,
                                   bc="neumann", formulation="single-direct",
                                   n_list=(32, 64, 128))
    rep = harness.run_convergence(cfg)
    assert rep.failures
    assert len(rep.rows) + len(rep.failures) == 3


def test_convergence_propagates_untyped_errors(monkeypatch):
    # Only library errors are ladder failures; a bug must not become a note.
    def broken(cfg):
        raise TypeError("bug in the pipeline")

    monkeypatch.setattr(harness, "solve_with_row", broken)
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet",
                                   n_list=(32, 64, 128))
    with pytest.raises(TypeError, match="bug in the pipeline"):
        harness.run_convergence(cfg)


def test_conditioning_report_layout():
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet",
                                   n_list=(32, 64, 128))
    rep = harness.run_conditioning(cfg)
    assert len(rep.rows) == 3 * len(harness.CONDITIONING_LABELS)
    labels = {r.formulation for r in rep.rows}
    assert labels == set(harness.CONDITIONING_LABELS)
    for r in rep.rows:
        assert r.max_error is None
        assert r.cond > 1.0


def test_conditioning_unbounded_skips_double_family():
    cfg = harness.ExperimentConfig(geometry="circle-exterior", bc="dirichlet",
                                   n_list=(32, 64, 128))
    rep = harness.run_conditioning(cfg)
    assert rep.notes
    for r in rep.rows:
        if r.formulation in ("D-", "A_d", "M_d"):
            assert r.cond is None
        else:
            assert r.cond > 1.0


@pytest.mark.parametrize("geometry_name, gathers", [("ellipse", 2), ("circle-exterior", 1)])
def test_conditioning_gathers_once_per_kernel(monkeypatch, geometry_name, gathers):
    # K- and both forms of a kernel come from one gather; the exterior
    # skips the double layer.
    calls = []
    contract = solver.contract_layer_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return contract(*args, **kwargs)

    monkeypatch.setattr(solver, "contract_layer_matrix", counted)
    cfg = harness.ExperimentConfig(geometry=geometry_name, bc="dirichlet",
                                   n_list=(32, 64, 128))
    harness.run_conditioning(cfg)
    assert len(calls) == gathers * 3


@pytest.mark.parametrize("bc", ["dirichlet", "robin"])
def test_conditioning_rows_are_the_solves_condition_numbers(bc):
    # The study reports the condition numbers of the very matrices that
    # the solves factor, bitwise.
    cfg = harness.ExperimentConfig(geometry="ellipse", bc=bc, aspect=2.0,
                                   n_list=(32, 64, 128))
    names = {"A_s": "single-schur", "A_d": "double-schur",
             "M_s": "single-direct", "M_d": "double-direct"}
    for row in harness.run_conditioning(cfg).rows:
        if row.formulation in names:
            solve_cfg = replace(cfg, formulation=names[row.formulation], compute_cond=True)
            sol = harness.solve_problem(replace(solve_cfg, n=row.n))
            assert sol.cond == row.cond


@pytest.mark.parametrize("geometry_name", ["ellipse", "diamond"])
def test_conditioning_takes_s_minus_from_the_eigensolver(monkeypatch, geometry_name):
    # S- is exactly symmetric, so its condition number comes from its
    # eigenvalues; the other five study matrices of a rung take one
    # tridiagonalization of their Gram matrix each, and none the SVD.
    # Each bisects only T's extremes, twice, and applies its reflectors in
    # one dormqr.
    calls = {"svdvals": 0, "eigvalsh": 0, "dsytrd": 0, "dsterf": 0, "dstebz": 0, "dormqr": 0}
    for name in calls:
        module = scipy.linalg if name in ("svdvals", "eigvalsh") else scipy.linalg.lapack
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    cfg = harness.ExperimentConfig(geometry=geometry_name, bc="dirichlet",
                                   n_list=(32, 64, 128))
    harness.run_conditioning(cfg)
    assert calls.pop("dormqr") <= 5 * 3
    assert calls == {"svdvals": 0, "eigvalsh": 1 * 3, "dsytrd": 5 * 3, "dsterf": 0,
                     "dstebz": 2 * 5 * 3}


def _csv_bytes(rows, **kw):
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        harness.emit_csv(rows, path, **kw)
        with open(path, "rb") as fh:
            return fh.read()
    finally:
        os.unlink(path)


def test_csv_deterministic_and_parseable():
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet",
                                   formulation="single-direct",
                                   n_list=(32, 64, 128))
    rep1 = harness.run_convergence(cfg)
    rep2 = harness.run_convergence(cfg)
    b1 = _csv_bytes(rep1.rows)
    b2 = _csv_bytes(rep2.rows)
    assert b1 == b2  # wall times differ between runs but are not written
    reader = csv.DictReader(io.StringIO(b1.decode("ascii")))
    assert reader.fieldnames == harness.CSV_HEADER.split(",")
    parsed = list(reader)
    assert len(parsed) == 3
    for rec in parsed:
        assert rec["wall_time"] == ""
        float(rec["max_error"])


def test_conditioning_csv_deterministic():
    # The condition numbers run through threaded BLAS, twice in one process.
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="robin", aspect=2.0,
                                   n_list=(32, 64, 128))
    b1 = _csv_bytes(harness.run_conditioning(cfg).rows)
    b2 = _csv_bytes(harness.run_conditioning(cfg).rows)
    assert b1 == b2
    parsed = list(csv.DictReader(io.StringIO(b1.decode("ascii"))))
    assert len(parsed) == 3 * len(harness.CONDITIONING_LABELS)
    assert all(float(rec["cond"]) >= 1.0 for rec in parsed)


def test_csv_timing_and_metadata():
    row = harness.ResultRow(n=32, h=0.1, geometry="g", bc="dirichlet",
                            formulation="single-direct", max_error=1e-3,
                            cond=None, wall_time=0.25)
    data = _csv_bytes([row], include_timing=True,
                      metadata=("about this file",)).decode("ascii")
    lines = data.splitlines()
    assert lines[0] == "# about this file"
    assert lines[1] == harness.CSV_HEADER
    fields = lines[2].split(",")
    assert fields[-1] == "0.25"
    assert fields[-2] == ""  # cond stays empty


def test_error_locality_tracks_solution_magnitude():
    # with the thin ellipse the manufactured solution is largest near the
    # tips; the discrete error concentrates where the solution does
    cfg = harness.ExperimentConfig(geometry="ellipse", aspect=8.0,
                                   bc="dirichlet", formulation="single-direct",
                                   n=64)
    sol = harness.solve_problem(cfg)
    worst = np.abs(sol.exact[int(sol.errors.argmax())])
    assert worst >= 0.5 * np.abs(sol.exact).max()


def test_plot_scripts_reference_csv_by_basename(tmp_path):
    csv_path = tmp_path / "table.csv"
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet",
                                   formulation="single-direct",
                                   n_list=(32, 64, 128))
    rep = harness.run_convergence(cfg)
    harness.emit_csv(rep.rows, csv_path)
    script = tmp_path / "plot_conv.py"
    harness.write_plot_script(csv_path, script, "convergence")
    text = script.read_text()
    assert '"table.csv"' in text
    assert str(tmp_path) not in text
    with pytest.raises(ConfigError):
        harness.write_plot_script(csv_path, script, "histogram")


@pytest.mark.parametrize("csv_name, script_name", [("results/conv.csv", "plot.py"),
                                                   ("conv.csv", "scripts/plot.py")])
def test_plot_script_reads_its_csv_from_another_directory(monkeypatch, tmp_path,
                                                          csv_name, script_name):
    # The script opens its CSV relative to its own directory, wherever the
    # two were written from.  The text is read, not run: it needs matplotlib.
    monkeypatch.chdir(tmp_path)
    for name in (csv_name, script_name):
        (tmp_path / name).parent.mkdir(exist_ok=True)
    harness.write_plot_script(csv_name, script_name, "convergence")
    script = tmp_path / script_name
    (rel,) = re.findall(r'open\(HERE / "([^"]*)"\)', script.read_text())
    assert (script.parent / rel).resolve() == (tmp_path / csv_name).resolve()


@pytest.mark.parametrize("csv_name", ["r\u00e9sum\u00e9.csv", 'a"b.csv', "a\\b.csv"])
def test_plot_script_reads_a_csv_with_an_unusual_name(tmp_path, csv_name):
    # The path is an escaped ASCII literal, so a non-ASCII name can be
    # written and a double quote or backslash still parses as itself.
    script = tmp_path / "plot.py"
    harness.write_plot_script(tmp_path / csv_name, script, "conditioning")
    text = script.read_text(encoding="ascii")
    (path,) = [ast.literal_eval(node.args[0].right) for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"]
    assert script.parent / path == tmp_path / csv_name


def test_plot_script_runs_if_matplotlib_available(tmp_path):
    pytest.importorskip("matplotlib")
    csv_path = tmp_path / "table.csv"
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet",
                                   formulation="single-direct",
                                   n_list=(32, 64, 128))
    harness.emit_csv(harness.run_convergence(cfg).rows, csv_path)
    script = tmp_path / "plot_conv.py"
    harness.write_plot_script(csv_path, script, "convergence")
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "convergence.png").exists()


def test_dump_solution_csv(tmp_path):
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n=32)
    sol = harness.solve_problem(cfg)
    path = tmp_path / "field.csv"
    harness.dump_solution_csv(sol, path)
    with open(path) as fh:
        reader = csv.DictReader(fh)
        records = list(reader)
    assert len(records) == len(sol.values)
    first = records[0]
    assert abs(float(first["error"])
               - abs(float(first["value"]) - float(first["exact"]))) < 1e-15


def test_solution_read_out_and_dump_are_bitwise_the_whole_m_plus_build(tmp_path):
    # 129 grid rows: M+ spans three blocks of rows.  The references read
    # every M+ node's indices and coordinates at once.
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n=128)
    sol = harness.solve_problem(cfg)
    mp = np.argwhere(sol.ps.m_plus)
    x, y = sol.grid.nodes(mp).T
    assert sol.exact.tobytes() == harness.manufactured_solution(cfg).u(x, y).tobytes()
    reference = io.StringIO()
    reference.write("x,y,value,exact,error\n")
    for (x, y), v, e in zip(sol.grid.nodes(mp), sol.values, sol.exact):
        reference.write(f"{x:.17g},{y:.17g},{v:.17g},{e:.17g},{abs(v - e):.17g}\n")
    path = tmp_path / "field.csv"
    harness.dump_solution_csv(sol, path)
    assert path.read_bytes() == reference.getvalue().encode("ascii")


@pytest.mark.parametrize("geometry_name", ["ellipse", "circle-exterior"])
def test_read_out_is_bitwise_the_whole_m_plus_read(monkeypatch, geometry_name):
    # The references read a copy of the recovered field, taken as the
    # read-out starts packing it in place, through window_values, and
    # the exact solution at Grid.nodes, at every M+ node at once.
    fields = []
    pack = harness._pack_m_plus

    def recorded(ps, window):
        fields.append(window.copy())
        return pack(ps, window)

    monkeypatch.setattr(harness, "_pack_m_plus", recorded)
    cfg = harness.ExperimentConfig(geometry=geometry_name, bc="dirichlet", n=128)
    sol = harness.solve_problem(cfg)
    (u_h,) = fields
    assert sol.ps.box_window[0].nx > geometry.ROW_BLOCK
    mp = np.argwhere(sol.ps.m_plus)
    assert sol.values.tobytes() == diffpot.window_values(u_h, mp, sol.ps).tobytes()
    x, y = sol.grid.nodes(mp).T
    assert sol.exact.tobytes() == harness.manufactured_solution(cfg).u(x, y).tobytes()


def test_read_out_holds_its_outputs_and_one_block(traced_peak):
    # Exterior n = 256, whose window is the grid: the M+ values, the
    # output, are packed in the window array itself, so the read-out
    # holds no new array but one 64-row block of values, a quarter window
    # here.  Measured 0.252 window arrays (margin 19%), and 3.08 when the
    # values and the exact solution were new arrays.
    cfg = harness.ExperimentConfig(geometry="circle-exterior", bc="dirichlet", n=256)
    mf, ps, _ = harness._discretize(cfg, 256)
    window, _ = ps.box_window
    u_h = np.random.default_rng(6).standard_normal((window.nx, window.ny))
    reference = diffpot.window_values(u_h, np.argwhere(ps.m_plus), ps)
    peak, count = traced_peak(harness._pack_m_plus, ps, u_h)
    assert count == len(reference)
    assert u_h.reshape(-1)[:count].tobytes() == reference.tobytes()
    assert peak <= 0.3 * 8 * u_h.size


@pytest.mark.parametrize("geometry_name", ["ellipse", "diamond", "circle-exterior"])
def test_max_error_is_the_whole_m_plus_maximum(geometry_name):
    # Folded over blocks of M+ rows, bitwise the maximum over all of M+;
    # one NaN value makes it NaN.
    cfg = harness.ExperimentConfig(geometry=geometry_name, bc="dirichlet", n=128)
    sol = harness.solve_problem(cfg)
    assert sol.max_error == float(np.abs(sol.values - sol.exact).max())
    sol.values[len(sol.values) // 2] = np.nan
    assert np.isnan(sol.max_error)


def test_values_own_exactly_their_doubles():
    # The window array the values were packed in is cut to |M+| doubles,
    # not viewed.
    cfg = harness.ExperimentConfig(geometry="ellipse", bc="robin", n=128)
    sol = harness.solve_problem(cfg)
    assert sol.values.base is None and sol.values.flags.owndata
    assert sol.values.nbytes == 8 * np.count_nonzero(sol.ps.m_plus)


TRACED_CASES = {
    "ellipse-robin": harness.ExperimentConfig(geometry="ellipse", aspect=2.0, bc="robin", n=64),
    "circle-exterior": harness.ExperimentConfig(geometry="circle-exterior", bc="dirichlet", n=64),
}


@pytest.mark.parametrize("set_hook, get_hook", [(sys.setprofile, sys.getprofile),
                                                 (sys.settrace, sys.gettrace)],
                         ids=["setprofile", "settrace"])
@pytest.mark.parametrize("case", TRACED_CASES)
def test_solve_under_a_tracer_is_bitwise_the_untraced_solve(case, set_hook, get_hook):
    # A profiler, debugger or coverage tool holds the solve's locals
    # through its frame, so the read-out's array has references beyond
    # the solve's own.
    cfg = TRACED_CASES[case]
    untraced = harness.solve_problem(cfg).values

    def tracer(frame, event, arg):
        return tracer

    previous = get_hook()
    set_hook(tracer)
    try:
        traced = harness.solve_problem(cfg).values
    finally:
        set_hook(previous)
    assert traced.tobytes() == untraced.tobytes()


def test_exterior_solve_holds_its_values_and_one_box_solve(traced_peak):
    # Exterior n = 256, whose window is the grid, with the kernel table
    # already built: the box solve's one window array, which becomes the
    # values, and one 64-row block of temporaries, a quarter window here.
    # Measured 2.18 window arrays (margin 15%), and 4.96 when the box
    # solves copied their rhs and the read-out built new arrays.
    cfg = harness.ExperimentConfig(geometry="circle-exterior", bc="dirichlet", n=256)
    harness.solve_problem(cfg)
    peak, sol = traced_peak(harness.solve_problem, cfg)
    window, _ = sol.ps.box_window
    assert peak <= 2.5 * 8 * window.nx * window.ny


def test_bounded_solve_calls_the_particular_solution_once(monkeypatch):
    calls = []
    particular = diffpot.particular_solution

    def recorded(f, ps):
        calls.append(f)
        return particular(f, ps)

    monkeypatch.setattr(diffpot, "particular_solution", recorded)
    harness.solve_problem(harness.ExperimentConfig(geometry="ellipse", bc="dirichlet", n=64))
    assert len(calls) == 1


def test_exterior_solve_never_calls_the_particular_solution(monkeypatch):
    def refuse(f, ps):
        raise AssertionError("Laplace data has no particular solution")

    monkeypatch.setattr(diffpot, "particular_solution", refuse)
    cfg = harness.ExperimentConfig(geometry="circle-exterior", bc="dirichlet", n=64)
    sol = harness.solve_problem(cfg)
    assert sol.max_error <= 0.5 * sol.grid.h**2


def test_cli_dump_solution_solves_once(tmp_path, monkeypatch):
    calls = []
    solve = harness.solve_problem

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness, "solve_problem", counted)
    row_path, dump_path = tmp_path / "row.csv", tmp_path / "field.csv"
    code = cli.main(["solve", "--geometry", "ellipse", "--bc", "dirichlet", "--n", "32",
                     "--out", str(row_path), "--dump-solution", str(dump_path)])
    assert code == 0
    assert len(calls) == 1
    with open(dump_path) as fh:
        records = list(csv.DictReader(fh))
    max_error = max(float(r["error"]) for r in records)
    with open(row_path) as fh:
        assert float(next(csv.DictReader(fh))["max_error"]) == max_error


def test_cli_timing_fills_wall_time(tmp_path):
    walls = {}
    for flags in ((), ("--timing",)):
        out = tmp_path / f"row{len(flags)}.csv"
        code = cli.main(["solve", "--geometry", "ellipse", "--bc", "dirichlet", "--n", "32",
                         "--out", str(out), *flags])
        assert code == 0
        with open(out) as fh:
            walls[flags] = next(csv.DictReader(fh))["wall_time"]
    assert walls[()] == ""
    assert float(walls[("--timing",)]) > 0.0


@pytest.mark.parametrize("code, argv, message", [
    (0, ["--geometry", "ellipse", "--bc", "dirichlet", "--n", "32"], ""),
    (2, ["--geometry", "ellipse", "--bc", "dirichlet", "--n", "64", "--ell", "nan"],
     "error: ell must be a finite positive number"),
    (3, ["--geometry", "circle-exterior", "--bc", "dirichlet", "--formulation", "double-schur",
         "--n", "32"], "error: the double-layer matrix D-"),
    (4, ["--geometry", "diamond", "--bc", "robin", "--n", "128"],
     "error: eta node (13, 62) has no direction"),
    # Finite, but their squares overflow in the box and the shape.
    (2, ["--geometry", "ellipse", "--bc", "dirichlet", "--n", "32", "--ell", "1e308"],
     "error: ell must be a finite positive number below"),
    (2, ["--geometry", "ellipse", "--bc", "dirichlet", "--n", "32", "--aspect", "1e200"],
     "error: aspect must be a finite positive number below"),
    # A circle-exterior body no wider than one cell (h = 0.1875) is refused.
    (2, ["--geometry", "circle-exterior", "--bc", "dirichlet", "--n", "32", "--radius", "0.01"],
     "error: radius 0.01 is 0.0533 cells at n=32"),
    (2, ["--geometry", "circle-exterior", "--bc", "robin", "--n", "32", "--radius", "1e-9"],
     "error: radius 1e-09 is 5.33e-09 cells at n=32"),
    (0, ["--geometry", "circle-exterior", "--bc", "dirichlet", "--n", "32",
         "--radius", "0.20625"], ""),
    # An ellipse far narrower than a cell: a crossing snaps onto the centre
    # node, where the level set's gradient is zero.
    (4, ["--geometry", "ellipse", "--bc", "dirichlet", "--n", "32", "--ell", "1e100"],
     "error: vanishing level-set gradient at the crossing of gamma- node (15, 16), snapped "
     "onto its inner node (16, 16), h = 6.25e+98; the grid does not resolve the boundary"),
    (4, ["--geometry", "ellipse", "--bc", "dirichlet", "--n", "32", "--ell", "1e30"],
     "error: vanishing level-set gradient at the crossing of gamma- node (15, 16), snapped "
     "onto its inner node (16, 16), h = 6.25e+28; the grid does not resolve the boundary"),
    (4, ["--geometry", "ellipse", "--bc", "dirichlet", "--n", "32", "--aspect", "1e100"],
     "error: vanishing level-set gradient at the crossing of gamma- node (16, 15), snapped "
     "onto its inner node (16, 16), h = 0.071875; the grid does not resolve the boundary"),
])
def test_cli_exit_codes(capsys, code, argv, message):
    # One solve per exit code of the README's contract; every failure is
    # one typed line on stderr, never a traceback.
    assert cli.main(["solve", *argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1 if message else err == ""


def _refuse_solves(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no solve may run")

    for name in ("solve_problem", "run_convergence", "run_conditioning"):
        monkeypatch.setattr(harness, name, refuse)


@pytest.mark.parametrize("command, flags", [("solve", ["--n", "32"]),
                                            ("convergence", ["--n-list", "32,64,128"]),
                                            ("conditioning", ["--n-list", "32,64,128"])])
def test_cli_unwritable_out_exits_2_before_any_solve(capsys, monkeypatch, tmp_path,
                                                     command, flags):
    _refuse_solves(monkeypatch)
    out = tmp_path / "missing" / "x.csv"
    code = cli.main([command, "--geometry", "ellipse", "--bc", "dirichlet", *flags,
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: no directory {out.parent}\n"


@pytest.mark.parametrize("flag, target", [("--dump-solution", "missing"),
                                          ("--dump-solution", "directory"),
                                          ("--plot-script", "missing")])
def test_cli_unwritable_dump_or_plot_script_exits_2_before_any_solve(
        capsys, monkeypatch, tmp_path, flag, target):
    _refuse_solves(monkeypatch)
    path = tmp_path / "missing" / "p.py" if target == "missing" else tmp_path
    argv = (["solve", "--n", "32"] if flag == "--dump-solution"
            else ["convergence", "--n-list", "32,64,128", "--out", str(tmp_path / "c.csv")])
    code = cli.main([*argv, "--geometry", "ellipse", "--bc", "dirichlet", flag, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, first, second", [
    (["solve", "--n", "32", "--out", "same.csv", "--dump-solution", "same.csv"],
     "--out", "--dump-solution"),
    (["convergence", "--n-list", "32,64,128", "--out", "same.csv", "--plot-script", "link.py"],
     "--out", "--plot-script"),
    (["conditioning", "--n-list", "32,64,128", "--out", "same.csv",
      "--plot-script", "./same.csv"], "--out", "--plot-script"),
])
def test_cli_two_outputs_naming_one_file_exit_2_before_any_solve(
        capsys, monkeypatch, tmp_path, argv, first, second):
    # Spelled the same, through a symbolic link, or with a "./" prefix: the
    # paths resolve to one file, which one output would overwrite.
    _refuse_solves(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.py").symlink_to("same.csv")
    code = cli.main([*argv, "--geometry", "ellipse", "--bc", "dirichlet"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {first} and {second} both name the file {argv[-1]}\n"
    assert not (tmp_path / "same.csv").exists()


def test_run_convergence_refuses_the_double_layer_on_the_exterior(monkeypatch):
    # Refused before the first rung, not reported as a failure per rung.
    def refuse(cfg):
        raise AssertionError("no rung may be solved")

    monkeypatch.setattr(harness, "solve_problem", refuse)
    cfg = harness.ExperimentConfig(geometry="circle-exterior", bc="dirichlet",
                                   formulation="double-direct", n_list=(32, 64, 128))
    with pytest.raises(DoubleLayerInapplicableError, match="D-"):
        harness.run_convergence(cfg)


def test_cli_write_failure_exits_2_with_one_line(capsys, monkeypatch, tmp_path):
    # A failure the up-front check cannot see, such as a directory without
    # write permission, is caught where the CSV is written.
    out = tmp_path / "row.csv"

    def denied(rows, path, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(harness, "emit_csv", denied)
    code = cli.main(["solve", "--geometry", "ellipse", "--bc", "dirichlet", "--n", "32",
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.startswith("n=32")
    assert captured.err == f"error: cannot write {out}: Permission denied\n"


def test_cli_takes_its_choices_and_defaults_from_the_harness():
    assert harness.FORMULATIONS == ("single-direct", "single-schur",
                                    "double-direct", "double-schur")
    parser = cli.build_parser()
    for command in ("solve", "convergence", "conditioning"):
        sub = parser._subparsers._group_actions[0].choices[command]
        choices = {action.dest: action.choices for action in sub._actions}
        assert choices["geometry"] == harness.GEOMETRIES
        assert choices["bc"] == harness.BCS
        # The conditioning study reads every formulation and times nothing.
        if command == "conditioning":
            assert "formulation" not in choices and "timing" not in choices
        else:
            assert choices["formulation"] == harness.FORMULATIONS
            assert "timing" in choices
    args = parser.parse_args(["solve", "--geometry", "ellipse", "--bc", "robin", "--n", "64"])
    assert cli._config_from_args(args, n=64) == harness.ExperimentConfig("ellipse", "robin", n=64)


#: Parsed flags that the command line reads itself, not the config.
CLI_ONLY_DESTS = ("out", "timing", "dump_solution", "plot_script", "n_list", "command", "func")


@pytest.mark.parametrize("argv", [["solve", "--n", "64", "--cond"],
                                  ["convergence", "--n-list", "32,64,128"],
                                  ["conditioning", "--n-list", "32,64,128"]])
def test_cli_flags_are_config_fields_or_read_by_the_cli(argv):
    # The config is built from the flags whose dest names one of its
    # fields, so a flag stored under any other name would be dropped.
    names = {f.name for f in fields(harness.ExperimentConfig)}
    args = cli.build_parser().parse_args([*argv, "--geometry", "ellipse", "--bc", "robin"])
    for dest in vars(args):
        assert dest in names or dest in CLI_ONLY_DESTS, dest
    if argv[0] == "solve":
        assert cli._config_from_args(args).compute_cond is True


class TestCli:
    def run_cli(self, *argv):
        return subprocess.run([sys.executable, "-m", "latticebae", *argv],
                              capture_output=True, text=True)

    def test_lgf_value(self):
        proc = self.run_cli("lgf", "--m1", "1", "--m2", "1")
        assert proc.returncode == 0
        assert abs(float(proc.stdout) - (-1.0 / np.pi)) < 1e-15

    def test_solve_writes_csv(self, tmp_path):
        out = tmp_path / "row.csv"
        proc = self.run_cli("solve", "--geometry", "ellipse",
                            "--bc", "dirichlet", "--n", "32",
                            "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "max_error" in proc.stdout
        assert out.read_text().startswith(harness.CSV_HEADER)

    def test_bad_n_exits_2(self):
        proc = self.run_cli("solve", "--geometry", "ellipse",
                            "--bc", "dirichlet", "--n", "33")
        assert proc.returncode == 2

    def test_bad_choice_exits_2(self):
        proc = self.run_cli("solve", "--geometry", "hexagon",
                            "--bc", "dirichlet", "--n", "32")
        assert proc.returncode == 2

    def test_unbounded_double_exits_3_naming_kernel(self):
        proc = self.run_cli("solve", "--geometry", "circle-exterior",
                            "--bc", "dirichlet",
                            "--formulation", "double-direct", "--n", "32")
        assert proc.returncode == 3
        assert "D-" in proc.stderr

    def test_unbounded_double_ladder_exits_3_before_any_rung(self, tmp_path):
        out = tmp_path / "conv.csv"
        proc = self.run_cli("convergence", "--geometry", "circle-exterior",
                            "--bc", "dirichlet", "--formulation", "double-direct",
                            "--n-list", "32,64,128", "--out", str(out))
        assert proc.returncode == 3
        assert "D-" in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    def test_convergence_prints_order(self, tmp_path):
        out = tmp_path / "conv.csv"
        script = tmp_path / "plot.py"
        proc = self.run_cli("convergence", "--geometry", "ellipse",
                            "--bc", "dirichlet", "--n-list", "32,64,128",
                            "--out", str(out), "--plot-script", str(script))
        assert proc.returncode == 0, proc.stderr
        assert "fitted order" in proc.stdout
        assert script.exists()
        assert len(out.read_text().splitlines()) == 4

    @pytest.mark.parametrize("flag", [["--formulation", "double-schur"], ["--timing"]])
    def test_conditioning_refuses_the_flags_it_would_not_read(self, tmp_path, flag):
        out = tmp_path / "cond.csv"
        proc = self.run_cli("conditioning", "--geometry", "ellipse", "--bc", "robin",
                            "--n-list", "32,64,128", *flag, "--out", str(out))
        assert proc.returncode == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["convergence", "conditioning"])
    def test_plot_script_without_out_exits_2(self, tmp_path, command):
        script = tmp_path / "p.py"
        proc = self.run_cli(command, "--geometry", "ellipse", "--bc", "dirichlet",
                            "--n-list", "32,64,128", "--plot-script", str(script))
        assert proc.returncode == 2
        assert "--plot-script needs --out" in proc.stderr
        assert not script.exists()
        assert proc.stdout == ""  # refused before the first rung is solved
