"""Small-n smoke test of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads


def tiny(rng: random.Random) -> list:
    """Every entry point and both recovery paths, at small n."""
    p = workloads._draw(rng)
    return [
        workloads._case("solve_problem", p, "ellipse", "robin", "single-schur", n=64),
        workloads._case("solve_problem", p, "circle-exterior", "dirichlet", "single-direct", n=64),
        workloads._case("run_convergence", p, "diamond", "dirichlet", "double-direct",
                        n_list=[64, 128, 256]),
        workloads._case("run_conditioning", p, "ellipse", "robin", "single-direct",
                        n_list=[64, 128, 256]),
    ]


def _run(capsys, trace: int):
    code = run.main(["--workload", "tiny", "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)], catalogue={"tiny": tiny})
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, expected", [(0, run.END_TO_END), (1, tracing.METRICS)])
def test_every_metric_printed_with_unit(capsys, trace, expected):
    lines, result = _run(capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in expected
    }
    for name, unit in expected:
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("fail_frac: 0.0000") for line in lines)
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["trace.absent_layers"] == 0
        assert metrics["potentials.evaluate_potential.self_s"] > 0.0
        outcomes = [metrics[f"harness.matrix.{o}"] for o in workloads.COVERAGE_OUTCOMES]
        assert sum(outcomes) == 3 * 3 * 4
        assert metrics["harness.matrix.by_design"] == 6  # exterior double layer


def test_run_module_loads_no_numpy_before_its_setup_sample():
    here = Path(__file__).resolve().parent
    code = "import sys, run; print(sorted({'numpy', 'scipy', 'latticebae'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], cwd=here, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_check_trips_on_wrong_answer(monkeypatch):
    harness, _ = workloads.import_latticebae()
    solve = harness.solve_problem

    def off_by_h(cfg, n=None):
        sol = solve(cfg, n)
        sol.values = sol.values + sol.grid.h
        return sol

    monkeypatch.setattr(harness, "solve_problem", off_by_h)
    tally = workloads.Tally()
    workloads.run_pass(harness, tiny(random.Random(5)), tally)
    solves = 1 + 1 + 3  # two solves and a three-rung ladder go through solve_problem
    assert tally.failed == solves
    assert tally.attempted == solves + 3
    assert not workloads.second_order_ok("dirichlet", float("nan"), 0.1)
    assert not workloads.second_order_ok("dirichlet", None, 0.1)


def test_missing_function_is_an_absent_layer(monkeypatch):
    harness, _ = workloads.import_latticebae()
    solve = harness.solve_problem
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (
        ("latticebae.solver", "no_such_function", "solver.no_such_function"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.solve_problem is not solve
    finally:
        tracer.uninstall()
    assert tracer.absent == ["solver.no_such_function"]
    assert harness.solve_problem is solve
