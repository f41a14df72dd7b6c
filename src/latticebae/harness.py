"""Experiment engine: manufactured problems, ladders, and CSV output.

Bounded runs all solve the Poisson problem manufactured from
u = sin(x)cos(y) (which is not discretely harmonic, so the particular
solution machinery is always exercised); boundary data comes from the
same u.  The unbounded study solves potential flow past the unit circle
with u = x/(x^2 + y^2), harmonic away from the origin, so it carries no
forcing and its solves skip the particular solution.  Every solve
recovers interior values through the same difference-potential box
solve of what the solver recovers; on the exterior the box edge lies in
the domain and takes the lattice potential's own values there, which
the solver streams from the density in the same product as the trace on
gamma, so this module does no kernel work of its own.

Timings are measured but written into the CSV only on request; the
default output is byte-identical across runs for identical configs,
which keeps diffs meaningful.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import closure as closure_mod
from . import diffpot, geometry, potentials, solver
from .errors import AssemblyError, ConfigError, DoubleLayerInapplicableError, LatticeBaeError

CSV_HEADER = "n,h,geometry,bc,formulation,max_error,cond,wall_time"

GEOMETRIES = ("ellipse", "diamond", "circle-exterior")
BCS = ("dirichlet", "robin", "neumann")
FORMULATIONS = tuple(solver.Formulation(kernel, form).tag
                     for kernel in potentials.LayerKind for form in solver.SystemForm)
#: Robin coefficients (normal-derivative, value) used throughout the study.
ROBIN_COEFFS = (1.0, 1.0)

#: Conditioning study matrices, in output order.
CONDITIONING_LABELS = ("S-", "D-", "A_s", "A_d", "M_s", "M_d")


def _check_n(n) -> None:
    """ConfigError unless ``n`` is an integer power of two in [32, 2048]."""
    if isinstance(n, str):
        raise ConfigError(f"n must be a power of two in [32, 2048], got the string {n!r}")
    if not isinstance(n, (int, np.integer)) or not 32 <= n <= 2048 or n & (n - 1):
        raise ConfigError(f"n must be a power of two in [32, 2048], got {n}")


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: str
    bc: str
    formulation: str = "single-direct"
    n: Optional[int] = None
    n_list: tuple = ()
    aspect: float = 1.0
    r1: float = 0.9
    r2: float = 0.5
    radius: float = 1.0
    ell: float = 0.15
    compute_cond: bool = False

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ConfigError(f"unknown geometry {self.geometry!r}")
        if self.bc not in BCS:
            raise ConfigError(f"unknown boundary condition {self.bc!r}")
        try:
            solver.formulation_from_tag(self.formulation)
        except AssemblyError as exc:
            raise ConfigError(str(exc)) from None
        for value, name in ((self.aspect, "aspect"), (self.r1, "r1"),
                            (self.r2, "r2"), (self.radius, "radius"),
                            (self.ell, "ell")):
            if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                               and 0.0 < value < np.inf):
                raise ConfigError(f"{name} must be a finite positive number, got {value!r}")
        if not isinstance(self.compute_cond, (bool, np.bool_)):
            raise ConfigError(f"compute_cond must be a bool, got {self.compute_cond!r}")
        # A string is a sequence of characters, not of sizes.
        if isinstance(self.n_list, str):
            raise ConfigError(f"n_list must be a sequence of sizes, got the string {self.n_list!r}")
        # Frozen and hashable: a list of sizes would stay mutable after its check.
        try:
            object.__setattr__(self, "n_list", tuple(self.n_list))
        except TypeError:
            raise ConfigError(f"n_list must be a sequence of sizes, got {self.n_list!r}") from None
        for n in self.all_n():
            _check_n(n)

    @property
    def unbounded(self) -> bool:
        return self.geometry == "circle-exterior"

    def all_n(self):
        if self.n is not None:
            yield self.n
        yield from self.n_list

    def single_n(self) -> int:
        if self.n is None:
            raise ConfigError("this operation needs a single n")
        return self.n

    def ladder(self) -> tuple:
        ns = self.n_list
        if len(ns) < 3:
            raise ConfigError("ladders need at least three n values")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError("n-list must be strictly ascending")
        return ns


@dataclass
class ResultRow:
    n: int
    h: float
    geometry: str
    bc: str
    formulation: str
    max_error: Optional[float]
    cond: Optional[float] = None
    wall_time: Optional[float] = None


@dataclass
class Manufactured:
    """A solution u of -lap u = f with its gradient; ``f=None`` means
    Laplace data (f = 0), which needs no particular solution."""

    u: Callable
    grad: Callable
    f: Optional[Callable]


def build_shape(cfg: ExperimentConfig) -> geometry.LevelSetShape:
    if cfg.geometry == "ellipse":
        return geometry.ellipse(cfg.aspect)
    if cfg.geometry == "diamond":
        return geometry.diamond(cfg.r1, cfg.r2)
    return geometry.circle_exterior(cfg.radius)


def build_grid(cfg: ExperimentConfig, n: int) -> geometry.Grid:
    """The box [-1 - ell, 1 + ell]^2 for bounded geometries; the exterior
    ignores ``ell`` and takes [-3, 3]^2."""
    if cfg.unbounded:
        return geometry.Grid.from_box((-3.0, 3.0), (-3.0, 3.0), n)
    half = 1.0 + cfg.ell
    return geometry.Grid.from_box((-half, half), (-half, half), n)


def manufactured_solution(cfg: ExperimentConfig) -> Manufactured:
    if cfg.unbounded:
        def u(x, y):
            return x / (x**2 + y**2)

        def grad(x, y):
            r2 = x**2 + y**2
            return (y**2 - x**2) / r2**2, -2.0 * x * y / r2**2

        return Manufactured(u=u, grad=grad, f=None)

    def u(x, y):
        return np.sin(x) * np.cos(y)

    def grad(x, y):
        return np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)

    def f(x, y):
        return 2.0 * np.sin(x) * np.cos(y)

    return Manufactured(u=u, grad=grad, f=f)


def make_boundary_condition(cfg: ExperimentConfig, shape: geometry.LevelSetShape,
                            mf: Manufactured, h: float) -> closure_mod.BoundaryCondition:
    """Dirichlet or Robin data from the manufactured solution.

    The normal comes from the shape's gradient, or, when it has none,
    from central differences of psi on the scale of the grid spacing h,
    as for the intersection normals.
    """
    if cfg.bc == "dirichlet":
        return closure_mod.dirichlet(mf.u)
    alpha_c, beta_c = ROBIN_COEFFS if cfg.bc == "robin" else (1.0, 0.0)

    def g(x, y):
        gx, gy = geometry._gradient_at(shape, x, y, h)
        norm = np.hypot(gx, gy)
        ux, uy = mf.grad(x, y)
        return alpha_c * (ux * gx + uy * gy) / norm + beta_c * mf.u(x, y)

    return closure_mod.robin(alpha_c, beta_c, g)


@dataclass
class SolutionField:
    """A solved problem: the recovered values on the interior nodes, in
    canonical order, and the exact solution ``u`` they approximate.

    ``exact``, ``errors`` and ``max_error`` evaluate u at the M+ nodes
    anew on each read, one block of box-window rows at a time, so a
    result holds no array of exact values.  ``residual`` is the closure
    residual of the recovered field, max |C+ u_h(gamma~+) + C- t- - g|
    with u_h the difference potential (before the particular solution is
    added), t- the gamma- trace and g the corrected right-hand side.  It
    checks assembly, the traces and the box solve together.
    """

    ps: geometry.PointSets
    values: np.ndarray
    u: Callable
    result: solver.SolveResult
    residual: float

    @property
    def grid(self) -> geometry.Grid:
        return self.ps.grid

    def _exact_rows(self):
        """(out, x, y, exact) one block of M+ nodes at a time, ``out``
        locating the block in M+ order and (x, y) its coordinates."""
        _, (j0, k0) = self.ps.box_window
        for out, rows, mask in _m_plus_rows(self.ps):
            x, y = self.ps.grid.nodes_where(mask, (j0 + rows.start, k0))
            yield out, x, y, self.u(x, y)

    @property
    def exact(self) -> np.ndarray:
        exact = np.empty_like(self.values)
        for out, _, _, block in self._exact_rows():
            exact[out] = block
        return exact

    @property
    def errors(self) -> np.ndarray:
        return np.abs(self.values - self.exact)

    @property
    def max_error(self) -> float:
        """max |values - exact|, folded over the blocks; NaN if either
        holds one."""
        worst = 0.0
        for out, _, _, block in self._exact_rows():
            if len(block):
                worst = np.maximum(worst, np.abs(self.values[out] - block).max())
        return float(worst)


def _double_on_exterior(cfg: ExperimentConfig, kernel: potentials.LayerKind) -> bool:
    """The double-layer matrix D- is singular on the unbounded exterior."""
    return cfg.unbounded and kernel is potentials.LayerKind.DOUBLE


def _discretize(cfg: ExperimentConfig, n: int):
    """Manufactured solution, point sets and closure for one grid size."""
    _check_n(n)
    shape = build_shape(cfg)
    mf = manufactured_solution(cfg)
    ps = geometry.classify(build_grid(cfg, n), shape)
    xs = geometry.select_intersections(ps, shape)
    bc = make_boundary_condition(cfg, shape, mf, ps.grid.h)
    return mf, ps, closure_mod.assemble_closure(ps, xs, bc)


def _m_plus_rows(ps: geometry.PointSets):
    """The M+ nodes one block of box-window rows at a time, in canonical
    order: (out, rows, mask), ``out`` locating the block in M+ order,
    ``rows`` its window rows and ``mask`` their M+ nodes over the
    window's columns.  M+ lies inside the window, which holds N+."""
    window, offset = ps.box_window
    inside = diffpot._window_of(ps.m_plus, window, offset)
    start = 0
    for lo in range(0, window.nx, geometry._ROW_BLOCK):
        mask = inside[lo : lo + geometry._ROW_BLOCK]
        count = np.count_nonzero(mask)
        yield slice(start, start + count), slice(lo, lo + len(mask)), mask
        start += count


def _pack_m_plus(ps: geometry.PointSets, window: np.ndarray) -> int:
    """Move the M+ values of a box-window array, in canonical order, to
    its front, one block of window rows at a time; returns their count.
    A block's M+ values are read before they are written, and land no
    further on than the block itself, so no value is overwritten before
    it is read."""
    flat = window.reshape(-1)
    for out, rows, mask in _m_plus_rows(ps):
        flat[out] = window[rows][mask]
    return out.stop  # the window has rows, so the loop ran


def solve_problem(cfg: ExperimentConfig, n: Optional[int] = None) -> SolutionField:
    """Run the full pipeline for one grid size."""
    n = cfg.single_n() if n is None else n
    form = solver.formulation_from_tag(cfg.formulation)
    if _double_on_exterior(cfg, form.kernel):
        raise DoubleLayerInapplicableError(
            "the double-layer matrix D- is singular for the unbounded exterior "
            "domain; use a single-layer formulation"
        )
    mf, ps, cm = _discretize(cfg, n)
    # The box solve's window-sized transients come before the kernel blocks
    # are held, not on top of them.  Laplace data has no particular part.
    u_p = None
    if mf.f is not None:
        u_p = diffpot.particular_solution(mf.f, ps)
        cm = replace(cm, rhs=diffpot.correct_boundary_rhs(cm, u_p))
    result = solver.solve_system(form, cm, ps, compute_cond=cfg.compute_cond)
    u_h = diffpot.difference_potential(result.trace, ps, result.edge)
    # gamma~+ lies in M+, where the difference potential is the layer
    # potential K q, so the closure rows read it there.
    residual = float(np.abs(cm.c_plus @ u_h.at(cm.gamma_tilde_plus)
                            + cm.c_minus @ result.trace_minus - cm.rhs).max())
    if u_p is not None:
        u_h.values += u_p.values  # both box solves ran on the window of ps
    # The window array becomes the values: its M+ values are packed to its
    # front and the rest is cut off, so it owns exactly its |M+| doubles.
    values = u_h.values
    del u_h, u_p  # u_p's window array is freed; no field sees values resized
    # No view of the window array outlives _pack_m_plus, so the resize
    # skips numpy's reference check, which counts the references that a
    # profiler or debugger holds to the locals of this frame and refuses.
    values.resize((_pack_m_plus(ps, values),), refcheck=False)
    return SolutionField(ps=ps, values=values, u=mf.u, result=result, residual=residual)


def solve_with_row(cfg: ExperimentConfig, n: Optional[int] = None):
    """Solve one grid size; the SolutionField and its timed CSV row."""
    n = cfg.single_n() if n is None else n
    start = time.perf_counter()
    sol = solve_problem(cfg, n)
    elapsed = time.perf_counter() - start
    row = ResultRow(
        n=n,
        h=sol.grid.h,
        geometry=build_shape(cfg).label,
        bc=cfg.bc,
        formulation=cfg.formulation,
        max_error=sol.max_error,
        cond=sol.result.system_cond,
        wall_time=elapsed,
    )
    return sol, row


def run_solve(cfg: ExperimentConfig, n: Optional[int] = None) -> ResultRow:
    return solve_with_row(cfg, n)[1]


@dataclass
class ConvergenceReport:
    rows: list
    order: Optional[float]
    failures: list = field(default_factory=list)


def run_convergence(cfg: ExperimentConfig) -> ConvergenceReport:
    """Solve the ladder and fit the error order in h."""
    rows = []
    failures = []
    for n in cfg.ladder():
        try:
            rows.append(run_solve(cfg, n))
        except LatticeBaeError as exc:  # keep the partial table
            failures.append(f"n={n}: {type(exc).__name__}: {exc}")
    order = None
    good = [r for r in rows if r.max_error is not None and r.max_error > 0.0]
    if len(good) >= 2:
        hs = np.log([r.h for r in good])
        errs = np.log([r.max_error for r in good])
        order = float(np.polyfit(hs, errs, 1)[0])
    return ConvergenceReport(rows=rows, order=order, failures=failures)


@dataclass
class ConditioningReport:
    rows: list
    notes: list = field(default_factory=list)


def run_conditioning(cfg: ExperimentConfig) -> ConditioningReport:
    """Condition numbers of all six study matrices per ladder rung."""
    shape_label = build_shape(cfg).label
    rows = []
    notes = []
    for n in cfg.ladder():
        _, ps, cm = _discretize(cfg, n)
        conds = {}
        for kernel, minus_label, suffix in ((potentials.LayerKind.SINGLE, "S-", "s"),
                                            (potentials.LayerKind.DOUBLE, "D-", "d")):
            if _double_on_exterior(cfg, kernel):
                notes.append(
                    f"n={n}: double-layer family skipped (singular on unbounded domain)"
                )
                continue
            conds[minus_label], conds["A_" + suffix], conds["M_" + suffix] = (
                solver.condition_numbers(kernel, cm, ps)
            )
        for label in CONDITIONING_LABELS:
            rows.append(
                ResultRow(
                    n=n,
                    h=ps.grid.h,
                    geometry=shape_label,
                    bc=cfg.bc,
                    formulation=label,
                    max_error=None,
                    cond=conds.get(label),
                )
            )
    return ConditioningReport(rows=rows, notes=notes)


def _field_str(value) -> str:
    return "" if value is None else f"{value:.17g}"


def emit_csv(rows, path, include_timing: bool = False, metadata=()) -> None:
    """Deterministic CSV; wall_time stays empty unless timing is requested."""
    with open(path, "w", encoding="ascii") as fh:
        for line in metadata:
            fh.write(f"# {line}\n")
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            wall = _field_str(r.wall_time) if include_timing else ""
            fh.write(
                f"{r.n},{r.h:.17g},{r.geometry},{r.bc},{r.formulation},"
                f"{_field_str(r.max_error)},{_field_str(r.cond)},{wall}\n"
            )


def csv_metadata(cfg: ExperimentConfig):
    if cfg.unbounded:
        return ("max_error measured over the box-restricted interior node set",)
    return ()


def dump_solution_csv(sol: SolutionField, path) -> None:
    """Error-surface dump: x,y,value,exact,error over interior nodes."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,value,exact,error\n")
        for out, xs, ys, exact in sol._exact_rows():
            for x, y, v, e in zip(xs, ys, sol.values[out], exact):
                fh.write(f"{x:.17g},{y:.17g},{v:.17g},{e:.17g},{abs(v - e):.17g}\n")


_PLOT_PREAMBLE = """\
#!/usr/bin/env python3
\"\"\"Plot companion for {csv}; regenerates the figures from the CSV alone.\"\"\"
import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = Path(__file__).resolve().parent
ROWS = [row for row in csv.DictReader(
    (line for line in open(HERE / "{csv}") if not line.startswith("#"))
)]
"""

_CONVERGENCE_BODY = """\
fig, ax = plt.subplots(figsize=(5, 4))
by_label = {}
for row in ROWS:
    if not row["max_error"]:
        continue
    label = f'{row["geometry"]} {row["bc"]} {row["formulation"]}'
    by_label.setdefault(label, []).append((float(row["h"]), float(row["max_error"])))
for label, pts in sorted(by_label.items()):
    pts.sort()
    ax.loglog([p[0] for p in pts], [p[1] for p in pts], "o-", label=label)
hs = sorted({float(row["h"]) for row in ROWS if row["max_error"]})
if hs:
    anchor = max(
        float(row["max_error"]) for row in ROWS if row["max_error"]
    )
    ax.loglog(hs, [anchor * (h / hs[-1]) ** 2 for h in hs], "k--", label="order 2")
ax.set_xlabel("h")
ax.set_ylabel("max error")
ax.legend(fontsize=7)
fig.tight_layout()
fig.savefig(HERE / "convergence.png", dpi=150)
print("wrote", HERE / "convergence.png")
"""

_CONDITIONING_BODY = """\
fig, ax = plt.subplots(figsize=(5, 4))
by_label = {}
for row in ROWS:
    if not row["cond"]:
        continue
    by_label.setdefault(row["formulation"], []).append(
        (int(row["n"]), float(row["cond"]))
    )
for label, pts in sorted(by_label.items()):
    pts.sort()
    ax.semilogy([p[0] for p in pts], [p[1] for p in pts], "o-", label=label)
ax.set_xlabel("N")
ax.set_ylabel("condition number")
ax.legend(fontsize=7)
fig.tight_layout()
fig.savefig(HERE / "conditioning.png", dpi=150)
print("wrote", HERE / "conditioning.png")
"""


def write_plot_script(csv_path, script_path, kind: str) -> None:
    """Companion script reading the CSV by relative path."""
    import os

    if kind not in ("convergence", "conditioning"):
        raise ConfigError(f"unknown plot kind {kind!r}")
    rel = os.path.basename(str(csv_path))
    body = _CONVERGENCE_BODY if kind == "convergence" else _CONDITIONING_BODY
    with open(script_path, "w", encoding="ascii") as fh:
        fh.write(_PLOT_PREAMBLE.format(csv=rel))
        fh.write(body)
