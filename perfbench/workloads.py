"""Workload catalogue, pass runner and correctness checks.

A workload is a list of cases; a case names one public entry point of
``latticebae.harness`` (``solve_problem``, ``run_convergence`` or
``run_conditioning``) and the keyword arguments of the
``ExperimentConfig`` it receives.  Cases are plain dicts so that they can
be generated before ``latticebae`` is imported (the set-up time includes
that import) and handed to a fresh process as JSON.

This module imports nothing from ``latticebae`` or numpy at load time.
"""

from __future__ import annotations

import math
import random
import resource
import sys
import time
from pathlib import Path

#: The checkout holding ``src/latticebae``; the benchmark runs the sources
#: found there and nothing installed elsewhere.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Second-order check ``max_error <= C_BC[bc] * h**2``.  Each constant is
#: about twice the largest ``max_error / h**2`` that the first benchmarked
#: version of latticebae gives on the workloads' cases under seeds 0-9 and
#: on the coverage matrix: dirichlet 0.24 (circle-exterior, n=512), robin
#: 0.34 (circle-exterior in the coverage matrix; 0.043 on the workloads),
#: neumann 0.66 (circle-exterior, n=512).  A bug that loses an order of
#: accuracy, or returns an O(1) answer, overshoots these by orders of
#: magnitude.
C_BC = {"dirichlet": 0.5, "robin": 0.8, "neumann": 1.5}

#: Relative perturbation of the shape parameters, and absolute
#: perturbation of the box margin ``ell`` (up to 1.3h at n=1024, so the cut
#: cells move by whole and fractional cells).  Kept small so that problem
#: sizes, and with them the timings, change little from seed to seed.
SHAPE_REL = 0.003
ELL_ABS = 0.003


def _draw(rng: random.Random) -> dict:
    """One set of perturbed shape parameters, shared by a workload's cases.

    Sharing keeps each workload's structure (which cases use the same
    lattice, so the same kernel-table radii) identical across seeds.
    """
    def rel(value):
        return value * (1.0 + rng.uniform(-SHAPE_REL, SHAPE_REL))

    return {
        "aspect": rel(2.0),
        "r1": rel(0.9),
        "r2": rel(0.5),
        "radius": rel(1.0),
        "ell": 0.15 + rng.uniform(-ELL_ABS, ELL_ABS),
    }


def _case(entry: str, p: dict, geometry: str, bc: str, formulation: str, **extra) -> dict:
    config = {"geometry": geometry, "bc": bc, "formulation": formulation}
    if geometry == "ellipse":
        config["aspect"] = p["aspect"]
    elif geometry == "diamond":
        config.update(r1=p["r1"], r2=p["r2"])
    else:
        config["radius"] = p["radius"]
    if geometry != "circle-exterior":
        config["ell"] = p["ell"]
    config.update(extra)
    return {"entry": entry, "config": config}


def interior_1024(rng: random.Random) -> list:
    p = _draw(rng)
    return [
        _case("solve_problem", p, "ellipse", "dirichlet", "single-direct", n=1024),
        _case("solve_problem", p, "ellipse", "robin", "double-direct", n=1024),
        _case("solve_problem", p, "diamond", "dirichlet", "double-schur", n=1024),
        _case("solve_problem", p, "ellipse", "robin", "single-schur", n=512),
    ]


def exterior_512(rng: random.Random) -> list:
    p = _draw(rng)
    return [
        _case("solve_problem", p, "circle-exterior", "dirichlet", "single-direct", n=512),
        _case("solve_problem", p, "circle-exterior", "neumann", "single-schur", n=512),
    ]


def study_ladders(rng: random.Random) -> list:
    p = _draw(rng)
    return [
        _case("run_convergence", p, "ellipse", "robin", "single-direct",
              n_list=[64, 128, 256, 512]),
        _case("run_convergence", p, "diamond", "dirichlet", "double-direct",
              n_list=[64, 128, 256, 512]),
        _case("run_convergence", p, "circle-exterior", "dirichlet", "single-direct",
              n_list=[32, 64, 128]),
        _case("run_conditioning", p, "ellipse", "robin", "single-direct",
              n_list=[128, 256, 512]),
    ]


WORKLOADS = {
    "interior-1024": interior_1024,
    "exterior-512": exterior_512,
    "study-ladders": study_ladders,
}


def require_sources() -> None:
    if not (SRC / "latticebae" / "__init__.py").is_file():
        raise SystemExit(f"error: no latticebae sources under {SRC}")


def import_latticebae():
    """Import the checkout's ``latticebae``; returns (harness, errors)."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import latticebae
    from latticebae import errors, harness

    if Path(latticebae.__file__).resolve().parent != SRC / "latticebae":
        raise SystemExit(f"error: imported latticebae from {latticebae.__file__}, not {SRC}")
    return harness, errors


def cold_pass(cases: list, tally: "Tally"):
    """Set-up sample: import plus the first pass; returns (seconds, harness).

    Only meaningful as the first import of ``latticebae`` in a fresh process.
    """
    start = time.perf_counter()
    harness, _ = import_latticebae()
    run_pass(harness, cases, tally)
    return time.perf_counter() - start, harness


def peak_rss_mb() -> float:
    """High-water resident memory of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_cases(catalogue: dict, workload: str, seed: int) -> list:
    return catalogue[workload](random.Random(seed))


def make_config(harness, config: dict):
    kwargs = dict(config)
    if "n_list" in kwargs:
        kwargs["n_list"] = tuple(kwargs["n_list"])
    return harness.ExperimentConfig(**kwargs)


def second_order_ok(bc: str, max_error, h: float) -> bool:
    """The pass criterion of one solve; NaN and None fail."""
    return max_error is not None and max_error <= C_BC[bc] * h * h


class Tally:
    """Attempted and failed solves, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def merge(self, attempted: int, failed: int, messages=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages)


def _label(config: dict, n=None) -> str:
    n = config.get("n") if n is None else n
    return f"{config['geometry']} {config['bc']} {config['formulation']} n={n}"


def run_pass(harness, cases: list, tally: Tally) -> None:
    """One pass over the cases through the public harness entry points.

    Every solve is checked; a raise or a broken check counts as a failed
    solve and the pass goes on.  Entry points are looked up on the module
    at call time, so a traced run sees its wrappers.
    """
    for case in cases:
        entry, config = case["entry"], case["config"]
        try:
            cfg = make_config(harness, config)
            if entry == "solve_problem":
                sol = harness.solve_problem(cfg)
                err = sol.max_error
                tally.record(second_order_ok(cfg.bc, err, sol.grid.h),
                             f"{_label(config)}: max_error {err:.3e}")
            elif entry == "run_convergence":
                report = harness.run_convergence(cfg)
                for row in report.rows:
                    tally.record(second_order_ok(cfg.bc, row.max_error, row.h),
                                 f"{_label(config, row.n)}: max_error {row.max_error}")
                for failure in report.failures:
                    tally.record(False, f"{_label(config, '?')}: {failure}")
            elif entry == "run_conditioning":
                report = harness.run_conditioning(cfg)
                by_n = {}
                for row in report.rows:
                    by_n.setdefault(row.n, []).append(row.cond)
                for n in cfg.ladder():
                    conds = by_n.get(n, [])
                    ok = len(conds) == 6 and all(
                        c is not None and math.isfinite(c) and c >= 1.0 for c in conds
                    )
                    tally.record(ok, f"conditioning {_label(config, n)}: {conds}")
            else:
                raise ValueError(f"unknown entry point {entry!r}")
        except Exception as exc:  # a failed solve is counted, never skipped
            tally.record(False, f"{_label(config)}: {type(exc).__name__}: {exc}")


#: The combinations the command line accepts, each solved once at n=128 with
#: the command-line defaults, to count how each one ends.
COVERAGE_GEOMETRIES = ("ellipse", "diamond", "circle-exterior")
COVERAGE_BCS = ("dirichlet", "robin", "neumann")
COVERAGE_FORMULATIONS = ("single-direct", "single-schur", "double-direct", "double-schur")
COVERAGE_OUTCOMES = ("ok", "by_design", "typed_error", "untyped_error", "silent_wrong")


def coverage(harness, errors) -> dict:
    """Outcome counts over geometry x bc x formulation at n=128.

    ``by_design``: the double layer refused on the unbounded exterior;
    ``typed_error``: any other library error; ``silent_wrong``: a returned
    solution that breaks the second-order check.
    """
    counts = dict.fromkeys(COVERAGE_OUTCOMES, 0)
    for geometry in COVERAGE_GEOMETRIES:
        for bc in COVERAGE_BCS:
            for formulation in COVERAGE_FORMULATIONS:
                try:
                    cfg = harness.ExperimentConfig(geometry, bc, formulation, n=128)
                    sol = harness.solve_problem(cfg)
                    ok = second_order_ok(bc, sol.max_error, sol.grid.h)
                    outcome = "ok" if ok else "silent_wrong"
                except errors.DoubleLayerInapplicableError:
                    outcome = "by_design"
                except errors.LatticeBaeError:
                    outcome = "typed_error"
                except Exception:  # an untyped failure is itself a finding
                    outcome = "untyped_error"
                counts[outcome] += 1
    return counts
