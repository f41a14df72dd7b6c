"""Command-line front end.

Exit codes: 0 on success, 2 for configuration mistakes (bad flags,
inconsistent selections, an output path that cannot be written, two
output flags naming one file), 3 when a formulation is structurally
inapplicable to the requested problem (for example the double layer on
the unbounded domain, refused before a solve or a ladder's first rung),
4 for any other failure raised by the library.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import harness
from .lgf import lgf
from .errors import (
    ConfigError,
    DoubleLayerInapplicableError,
    FormulationSingularError,
    LatticeBaeError,
)


def _add_problem_flags(parser: argparse.ArgumentParser, solves: bool = True) -> None:
    """The problem's flags; ``--formulation`` and ``--timing`` only for a
    command that ``solves``, since the conditioning study reads every
    formulation and times nothing."""
    defaults = harness.ExperimentConfig
    parser.add_argument("--geometry", required=True, choices=harness.GEOMETRIES)
    parser.add_argument("--aspect", type=float, default=defaults.aspect,
                        help="ellipse aspect ratio (default %(default)s)")
    parser.add_argument("--r1", type=float, default=defaults.r1,
                        help="diamond horizontal half-width (default %(default)s)")
    parser.add_argument("--r2", type=float, default=defaults.r2,
                        help="diamond vertical half-width (default %(default)s)")
    parser.add_argument("--radius", type=float, default=defaults.radius,
                        help="excluded-circle radius for circle-exterior")
    parser.add_argument("--bc", required=True, choices=harness.BCS)
    parser.add_argument("--ell", type=float, default=defaults.ell,
                        help="computational box margin beyond the unit geometry; "
                             "bounded geometries only (circle-exterior uses [-3, 3]^2)")
    parser.add_argument("--out", default=None, help="CSV output path")
    if solves:
        parser.add_argument("--formulation", default=defaults.formulation,
                            choices=harness.FORMULATIONS)
        parser.add_argument("--timing", action="store_true",
                            help="include wall times in the CSV output")


def _config_from_args(args, **given) -> harness.ExperimentConfig:
    """The config of the parsed flags whose ``dest`` names one of its
    fields, with ``given`` in place of any of them."""
    names = {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    flags = {name: value for name, value in vars(args).items() if name in names}
    return harness.ExperimentConfig(**{**flags, **given})


def _parse_n_list(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"bad n-list {text!r}; expected comma-separated integers")


def _check_outputs(args) -> None:
    """ConfigError, before any solve, for an output selection that cannot
    be written: a plot script without its CSV, a path whose directory is
    missing or that is itself a directory, or two flags naming one file."""
    if getattr(args, "plot_script", None) and not args.out:
        raise ConfigError("--plot-script needs --out, the CSV it will read")
    flags = {}
    for name in ("out", "dump_solution", "plot_script"):
        path = getattr(args, name, None)
        if not path:
            continue
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ConfigError(f"cannot write {path}: no directory {directory}")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
        flag = "--" + name.replace("_", "-")
        other = flags.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ConfigError(f"{other} and {flag} both name the file {path}")


def _write(path, write, *args, **kwargs) -> None:
    """``write(*args, **kwargs)``, which writes ``path``; an OSError, such
    as a directory without write permission, becomes a ConfigError."""
    try:
        write(*args, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    print(f"wrote {path}")


def _emit(rows, cfg, args) -> None:
    if args.out:
        _write(args.out, harness.emit_csv, rows, args.out,
               include_timing=getattr(args, "timing", False),
               metadata=harness.csv_metadata(cfg))


def _emit_study(rows, cfg, args) -> None:
    """The CSV, then the plot script of the study named by the subcommand."""
    _emit(rows, cfg, args)
    if args.plot_script:
        _write(args.plot_script, harness.write_plot_script, args.out, args.plot_script,
               args.command)


def _cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    sol, row = harness.solve_with_row(cfg)
    cond = "" if row.cond is None else f"  cond={row.cond:.6g}"
    print(f"n={row.n}  h={row.h:.6g}  {row.geometry}  {row.bc}  "
          f"{row.formulation}  max_error={row.max_error:.6e}{cond}")
    _emit([row], cfg, args)
    if args.dump_solution:
        _write(args.dump_solution, harness.dump_solution_csv, sol, args.dump_solution)
    return 0


def _cmd_convergence(args) -> int:
    cfg = _config_from_args(args, n_list=_parse_n_list(args.n_list))
    report = harness.run_convergence(cfg)
    for row in report.rows:
        print(f"n={row.n:5d}  h={row.h:.6g}  max_error={row.max_error:.6e}")
    for note in report.failures:
        print(f"failed: {note}", file=sys.stderr)
    if report.order is not None:
        print(f"fitted order: {report.order:.3f}")
    _emit_study(report.rows, cfg, args)
    return 0


def _cmd_conditioning(args) -> int:
    cfg = _config_from_args(args, n_list=_parse_n_list(args.n_list))
    report = harness.run_conditioning(cfg)
    for row in report.rows:
        cond = "n/a" if row.cond is None else f"{row.cond:.6g}"
        print(f"n={row.n:5d}  {row.formulation:4s}  cond={cond}")
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    _emit_study(report.rows, cfg, args)
    return 0


def _cmd_lgf(args) -> int:
    value = lgf((args.m1, args.m2))
    print(f"{value:.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticebae",
        description="Lattice-Green's-function boundary solver for the "
                    "five-point Laplacian on level-set geometries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem instance")
    _add_problem_flags(p_solve)
    p_solve.add_argument("--n", type=int, required=True,
                         help="cells per box side (power of two in [32, 2048])")
    p_solve.add_argument("--cond", action="store_true", dest="compute_cond",
                         help="also report the system condition number")
    p_solve.add_argument("--dump-solution", default=None,
                         help="write x,y,value,exact,error CSV here")
    p_solve.set_defaults(func=_cmd_solve)

    for name, help_text, func in (
        ("convergence", "error ladder over grid sizes", _cmd_convergence),
        ("conditioning", "condition numbers of the six study matrices", _cmd_conditioning),
    ):
        p_study = sub.add_parser(name, help=help_text)
        _add_problem_flags(p_study, solves=func is _cmd_convergence)
        p_study.add_argument("--n-list", default="64,128,256,512")
        p_study.add_argument("--plot-script", default=None)
        p_study.set_defaults(func=func)

    p_lgf = sub.add_parser("lgf", help="print one lattice Green's function value")
    p_lgf.add_argument("--m1", type=int, required=True)
    p_lgf.add_argument("--m2", type=int, required=True)
    p_lgf.set_defaults(func=_cmd_lgf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormulationSingularError, DoubleLayerInapplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LatticeBaeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
