"""Parity manifest: one sha1 and one max |value| per named output of a checkout.

A manifest names each artifact below and records the sha1 of its bytes
(every array with its dtype and shape, every file as written), the sha1
of each of its parts, and the largest modulus among its numbers.  Two
manifests, of two checkouts, say which outputs moved between them, in
which parts, and roughly by how much:

- ``intersections/*`` and ``closure/*``: the ``Intersections`` record and
  every array of the ``ClosureMatrices`` (the data, indices and indptr of
  its five sparse blocks; rhs, gamma~+, gamma- and eta) of seven
  discretizations, and ``Intersections`` alone on four more shapes: two
  with snapped crossings and two without a gradient;
- ``solve/*``: the six solve cases of the benchmark at their unperturbed
  parameters, each with its condition number: values, cond, residual and
  max_error;
- ``cli/*``: the CSV of ``latticebae solve --cond`` in all four
  formulations (ellipse a=2 Robin, n=128), the CSVs of the benchmark's
  three convergence ladders and of its ellipse a=2 Robin conditioning
  study, a diamond ``--dump-solution`` and one ``lgf`` value.

A case that raises records its error message in place of its arrays.
The artifacts are computed in a child process at one BLAS thread: the
bytes depend on the BLAS build and its thread count, which is also why
no manifest is committed.

    python3 tools/parity.py [--src DIR] [--case NAME ...] [--out FILE]
    python3 tools/parity.py --compare A.json B.json

``--src`` is the checkout whose ``src/latticebae`` is run (default: this
one), for example a second checkout of a parent commit; ``--case``
restricts the manifest to the named artifacts.  ``--compare`` prints each
artifact whose sha1 differs, with the change of its max |value| and, where
both manifests hash each part, the parts that moved (``in: cond``), and
each artifact that only one manifest has; it exits 1 if it printed any, 0
otherwise.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Set in the child, before numpy loads its BLAS.
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}

#: ``solve/*``: the benchmark's solve cases, as ExperimentConfig fields.
SOLVES = {
    "ellipse-dirichlet-single-direct-1024": dict(geometry="ellipse", bc="dirichlet",
                                                 formulation="single-direct", n=1024),
    "ellipse-robin-double-direct-1024": dict(geometry="ellipse", bc="robin",
                                             formulation="double-direct", n=1024),
    "diamond-dirichlet-double-schur-1024": dict(geometry="diamond", bc="dirichlet",
                                                formulation="double-schur", n=1024),
    "ellipse-robin-single-schur-512": dict(geometry="ellipse", bc="robin",
                                           formulation="single-schur", n=512),
    "exterior-dirichlet-single-direct-512": dict(geometry="circle-exterior", bc="dirichlet",
                                                 formulation="single-direct", n=512),
    "exterior-neumann-single-schur-512": dict(geometry="circle-exterior", bc="neumann",
                                              formulation="single-schur", n=512),
}

#: ``closure/*`` and ``intersections/*`` of the same discretizations.
DISCRETIZATIONS = {
    "ellipse-a2-dirichlet-128": dict(geometry="ellipse", bc="dirichlet", n=128),
    "ellipse-a2-robin-128": dict(geometry="ellipse", bc="robin", n=128),
    "ellipse-a2-neumann-512": dict(geometry="ellipse", bc="neumann", n=512),
    "ellipse-a1-robin-64": dict(geometry="ellipse", bc="robin", n=64, aspect=1.0),
    "diamond-dirichlet-256": dict(geometry="diamond", bc="dirichlet", n=256),
    "exterior-dirichlet-64": dict(geometry="circle-exterior", bc="dirichlet", n=64),
    "exterior-neumann-128": dict(geometry="circle-exterior", bc="neumann", n=128),
}

#: The shape parameters that the benchmark perturbs, unperturbed.
SHAPE = dict(aspect=2.0, r1=0.9, r2=0.5, radius=1.0, ell=0.15)

#: ``cli/*``: command lines whose output file, or standard output, is the artifact.
ELLIPSE_ROBIN = ["--geometry", "ellipse", "--aspect", "2", "--bc", "robin"]
COMMANDS = {
    **{f"solve-cond-{tag}": ["solve", *ELLIPSE_ROBIN, "--n", "128", "--formulation", tag,
                             "--cond", "--out"]
       for tag in ("single-direct", "single-schur", "double-direct", "double-schur")},
    "convergence-ellipse-robin-single-direct": [
        "convergence", *ELLIPSE_ROBIN, "--formulation", "single-direct",
        "--n-list", "64,128,256,512", "--out"],
    "convergence-diamond-dirichlet-double-direct": [
        "convergence", "--geometry", "diamond", "--bc", "dirichlet",
        "--formulation", "double-direct", "--n-list", "64,128,256,512", "--out"],
    "convergence-exterior-dirichlet-single-direct": [
        "convergence", "--geometry", "circle-exterior", "--bc", "dirichlet",
        "--formulation", "single-direct", "--n-list", "32,64,128", "--out"],
    "conditioning-ellipse-robin": ["conditioning", *ELLIPSE_ROBIN,
                                   "--n-list", "128,256,512", "--out"],
    "dump-diamond-dirichlet-128": ["solve", "--geometry", "diamond", "--bc", "dirichlet",
                                   "--n", "128", "--dump-solution"],
    "lgf-5-3": ["lgf", "--m1", "5", "--m2", "3"],
}


def _star(x, y):
    """A five-pointed star, r = 0.6 + 0.25 cos(5 theta), given without a gradient."""
    return np.hypot(x, y) - 0.6 - 0.25 * np.cos(5.0 * np.arctan2(y, x))


def _ellipse(x, y):
    """The ellipse a=2, given without a gradient."""
    return x * x + 4.0 * (y * y) - 1.0


def _shapes(lb):
    """``intersections/*`` alone: name -> (shape, grid)."""
    square = lb.geometry.Grid.from_box
    return {
        "circle-snapped-64": (lb.geometry.ellipse(1.0), square((-2.0, 2.0), (-2.0, 2.0), 64)),
        "diamond-snapped-64": (lb.geometry.diamond(1.0, 0.5),
                               square((-2.0, 2.0), (-2.0, 2.0), 64)),
        "custom-ellipse-128": (lb.geometry.custom(_ellipse),
                               square((-1.15, 1.15), (-1.15, 1.15), 128)),
        "custom-star-256": (lb.geometry.custom(_star), square((-1.15, 1.15), (-1.15, 1.15), 256)),
    }


def _arrays(record) -> dict:
    """Every array of a dataclass record, sparse blocks as their three arrays."""
    parts = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if hasattr(value, "indptr"):
            for name in ("data", "indices", "indptr"):
                parts[f"{field.name}.{name}"] = getattr(value, name)
        else:
            parts[field.name] = value
    return parts


def _discretization(lb, name):
    h = lb.harness
    cfg = h.ExperimentConfig(**{**SHAPE, **DISCRETIZATIONS[name]})
    shape = h.build_shape(cfg)
    ps = lb.geometry.classify(h.build_grid(cfg, cfg.n), shape)
    xs = lb.geometry.select_intersections(ps, shape)
    bc = h.make_boundary_condition(cfg, shape, h.manufactured_solution(cfg), ps.grid.h)
    return xs, lb.closure.assemble_closure(ps, xs, bc)


def _solve(lb, name):
    cfg = lb.harness.ExperimentConfig(**{**SHAPE, **SOLVES[name]}, compute_cond=True)
    sol = lb.harness.solve_problem(cfg)
    return {"values": sol.values, "cond": np.float64(sol.cond),
            "residual": np.float64(sol.residual), "max_error": np.float64(sol.max_error)}


def _command(lb, name):
    argv = COMMANDS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lb.cli.main(argv + [path] if argv[-1].startswith("--") else argv)
        text = Path(path).read_bytes() if os.path.exists(path) else out.getvalue().encode()
    return {"exit": np.int64(code), "output": text}


def cases(lb) -> dict:
    """Artifact name -> a function that gives its parts (name -> array or bytes)."""
    table = {}
    for name in DISCRETIZATIONS:
        table[f"intersections/{name}"] = lambda name=name: _arrays(_discretization(lb, name)[0])
        table[f"closure/{name}"] = lambda name=name: _arrays(_discretization(lb, name)[1])
    for name, (shape, grid) in _shapes(lb).items():
        table[f"intersections/{name}"] = lambda shape=shape, grid=grid: _arrays(
            lb.geometry.select_intersections(lb.geometry.classify(grid, shape), shape))
    for name in SOLVES:
        table[f"solve/{name}"] = lambda name=name: _solve(lb, name)
    for name in COMMANDS:
        table[f"cli/{name}"] = lambda name=name: _command(lb, name)
    return table


def _numbers(text: str) -> np.ndarray:
    """The fields of a text that read as numbers, comment lines skipped."""
    values = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        for token in re.split(r"[,\s=]+", line):
            try:
                values.append(float(token))
            except ValueError:
                pass
    return np.array(values, dtype=float)


def record(parts: dict) -> dict:
    """The sha1 of ``parts``, one sha1 per part, and the largest modulus
    among their floats (the numbers of a text count as floats, index
    arrays not at all): 0 if there are none, NaN ignored, and NaN if
    every float is NaN."""
    digest = hashlib.sha1()
    hashes = {}
    biggest = []
    for key, value in parts.items():
        if isinstance(value, bytes):
            data, numbers, kind = value, _numbers(value.decode("ascii")), "bytes"
        else:
            array = np.ascontiguousarray(value)
            data, numbers, kind = array.tobytes(), array, f"{array.dtype.str}{array.shape}"
        part = hashlib.sha1()
        for chunk in (f"{key}:{kind}:{len(data)}\n".encode(), data):
            digest.update(chunk)
            part.update(chunk)
        hashes[key] = part.hexdigest()
        if np.issubdtype(numbers.dtype, np.floating) and numbers.size:
            biggest.append(np.abs(numbers).reshape(-1))
    moduli = np.concatenate(biggest) if biggest else np.zeros(1)
    peak = float(np.nanmax(moduli)) if not np.isnan(moduli).all() else float("nan")
    return {"sha1": digest.hexdigest(), "max_abs": peak, "parts": hashes}


def load(src: Path):
    """The modules of ``src/latticebae`` under checkout ``src``."""
    package = (Path(src) / "src").resolve()
    if str(package) not in sys.path:
        sys.path.insert(0, str(package))
    modules = {name: importlib.import_module(f"latticebae.{name}")
               for name in ("cli", "closure", "geometry", "harness")}
    found = Path(modules["harness"].__file__).resolve().parent
    if found != package / "latticebae":
        raise SystemExit(f"error: imported latticebae from {found}, not {package}")
    return types.SimpleNamespace(**modules)


def _child(src: Path, names) -> dict:
    table = cases(load(src))
    unknown = [name for name in names if name not in table]
    if unknown:
        raise SystemExit(f"error: no artifact {', '.join(unknown)}; the artifacts are\n  "
                         + "\n  ".join(table))
    artifacts = {}
    for name in names or table:
        try:
            parts = table[name]()
        except Exception as exc:  # an error is an outcome to compare, not a stop
            parts = {"error": f"{type(exc).__name__}: {exc}".encode("ascii", "replace")}
        artifacts[name] = record(parts)
    return artifacts


def manifest(src: Path = ROOT, names=()) -> dict:
    """The manifest of checkout ``src``, computed in a child process at one
    BLAS thread; ``names`` restricts it to those artifacts."""
    argv = [sys.executable, __file__, "--child", "--src", str(src)]
    for name in names:
        argv += ["--case", name]
    proc = subprocess.run(argv, env={**os.environ, **ONE_THREAD}, capture_output=True,
                          text=True)
    if proc.returncode:
        raise SystemExit(proc.stderr.strip() or f"error: child exited {proc.returncode}")
    return json.loads(proc.stdout)


def _moved(a: dict, b: dict) -> str:
    """``  in: `` and the parts whose sha1 differs or that one record
    lacks, where both records hash their parts; otherwise nothing."""
    if "parts" not in a or "parts" not in b:
        return ""
    x, y = a["parts"], b["parts"]
    names = list(x) + [name for name in y if name not in x]
    return "  in: " + ", ".join(name for name in names if x.get(name) != y.get(name))


def compare(a: dict, b: dict) -> list:
    """One line per artifact whose sha1 differs, ending with the parts
    that moved, or that one manifest lacks."""
    lines = []
    for name in list(a) + [name for name in b if name not in a]:
        if name not in b or name not in a:
            lines.append(f"only in {'A' if name in a else 'B'}  {name}")
        elif a[name]["sha1"] != b[name]["sha1"]:
            x, y = a[name]["max_abs"], b[name]["max_abs"]
            change = abs(y - x)
            relative = change / abs(x) if x else float(change != 0.0)
            lines.append(f"differs  {name}  max|value| {x:.17g} -> {y:.17g}  "
                         f"(change {change:.3g}, relative {relative:.3g})"
                         + _moved(a[name], b[name]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/latticebae is run (default: this one)")
    parser.add_argument("--case", action="append", default=[],
                        help="only this artifact (repeatable)")
    parser.add_argument("--out", help="write the manifest here instead of to stdout")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the artifacts that differ between two manifests")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text()) for path in args.compare)
        lines = compare(a, b)
        print("\n".join(lines + [f"{len(lines)} of {len(set(a) | set(b))} artifacts differ"]))
        return 1 if lines else 0
    if args.child:
        with contextlib.redirect_stdout(io.StringIO()):
            artifacts = _child(args.src, args.case)
        print(json.dumps(artifacts, indent=1))
        return 0
    text = json.dumps(manifest(args.src, args.case), indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
