"""Solve benchmark for latticebae, measured from outside the library.

    python3 perfbench/run.py --workload interior-1024 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with tracing off: set-up (import plus the
first, cold pass) and its peak memory in three fresh processes, then warm
passes for ``--seconds`` seconds (at least three).  ``--trace 1`` instead wraps each
layer's public functions and reports per-layer self times and counts from
one traced warm pass, the tracing overhead, and the outcome counts of the
geometry x bc x formulation coverage matrix.  Human-readable lines come
first; the last line of stdout is one JSON object.  ``--workload all``
runs every workload in its own process and prints a table.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent

#: Fresh processes that each add one set-up sample; the workload process
#: itself gives one more, so set-up time and memory are medians of three.
SETUP_CHILDREN = 2
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _child_setup(cases: list, tally: workloads.Tally) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py")],
        input=json.dumps(cases), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up process failed:\n{proc.stderr.strip()}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.merge(sample["attempted"], sample["failed"], sample["messages"])
    return sample["setup_s"], sample["peak_rss_mb"]


def _timed_pass(harness, cases: list, tally: workloads.Tally) -> float:
    start = time.perf_counter()
    workloads.run_pass(harness, cases, tally)
    return time.perf_counter() - start


def timed_run(cases: list, seconds: float, tally: workloads.Tally) -> dict:
    samples = [_child_setup(cases, tally) for _ in range(SETUP_CHILDREN)]
    cold, harness = workloads.cold_pass(cases, tally)
    samples.append((cold, workloads.peak_rss_mb()))
    setup, rss = zip(*samples)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(_timed_pass(harness, cases, tally))
    q1, _, q3 = statistics.quantiles(passes, n=4)
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")
    print(f"peak_rss_mb samples after the cold pass: {' '.join(f'{m:.1f}' for m in rss)}; "
          f"after the warm passes too: {workloads.peak_rss_mb():.1f}")
    print(f"pass_s: {len(passes)} passes, median {statistics.median(passes):.4f} s, "
          f"quartiles {q1:.4f} / {q3:.4f} s ({' '.join(f'{p:.4f}' for p in passes)})")
    return {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(passes),
        "peak_rss_mb": statistics.median(rss),
    }


def traced_run(cases: list, tally: workloads.Tally) -> dict:
    harness, errors = workloads.import_latticebae()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.run_pass(harness, cases, tally)  # cold: fills the LGF memo
        cold_quadratures = tracer.counts["lgf.lgf_quadrature.calls"]
        tracer.reset()
        traced_s = _timed_pass(harness, cases, tally)
    finally:
        tracer.uninstall()
    untraced_s = _timed_pass(harness, cases, tally)

    metrics = dict.fromkeys((name for name, _ in tracing.METRICS), 0.0)
    for name, value in tracer.counts.items():
        metrics[name] = value
    for span, value in tracer.self_times().items():
        key = f"{span}.self_s"
        if key in metrics:
            metrics[key] = value
    calls = metrics["lgf.lgf_grid.calls"]
    if calls:
        metrics["lgf.lgf_grid.hit_ratio"] = 1.0 - metrics["lgf.lgf_grid.misses"] / calls
    # A warm pass makes no quadrature calls; the cold pass shows that work.
    metrics["lgf.lgf_quadrature.calls"] += cold_quadratures
    try:
        lgf_module = importlib.import_module("latticebae.lgf")
        metrics["lgf.memo.entries"] = len(lgf_module.default_table().values)
    except (ImportError, AttributeError):
        tracer.absent.append("lgf.memo")
    for outcome, count in workloads.coverage(harness, errors).items():
        metrics[f"harness.matrix.{outcome}"] = count
    threads = tracing.blas_threads()
    metrics.update({
        "trace.pass_s": traced_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.accounted_frac": tracer.root_time() / traced_s,
        "trace.absent_layers": len(tracer.absent),
        "blas.threads": max(threads.values(), default=0),
    })
    print(f"absent layers: {', '.join(tracer.absent) or 'none'}")
    print(f"blas threads: {threads or 'no OpenBLAS found'}")
    return metrics


def _result_line(metrics: dict, units: dict, tally: workloads.Tally) -> str:
    def number(value, unit):
        return int(value) if unit == "count" and float(value).is_integer() else value

    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": number(metrics[name], unit), "unit": unit}
                    for name, unit in units.items()},
    })


def run_all(args) -> int:
    """Each workload in its own process; prints one table of every metric."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"{name}: failed\n{proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows = [(metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
        rows.append(("fail_frac", result["failed"] / result["attempted"], "share"))
        for metric, value, unit in rows:
            print(f"{name:15s} {metric:42s} {value:>14.6g} {unit}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None, catalogue=workloads.WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*catalogue, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.require_sources()
    if args.workload == "all":
        return run_all(args)

    cases = workloads.make_cases(catalogue, args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: "
          + "; ".join(f"{c['entry']} {c['config']}" for c in cases))
    tally = workloads.Tally()
    if args.trace:
        metrics = traced_run(cases, tally)
        units = dict(tracing.METRICS)
    else:
        metrics = timed_run(cases, args.seconds, tally)
        units = dict(END_TO_END)
    for message in tally.messages:
        print(f"FAILED {message}")
    print(f"fail_frac: {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} solves)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(_result_line(metrics, units, tally))
    return 0


if __name__ == "__main__":
    sys.exit(main())
