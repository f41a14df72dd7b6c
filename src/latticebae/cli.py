"""Command-line front end.

Exit codes: 0 on success, 2 for configuration mistakes (bad flags,
inconsistent selections), 3 when a formulation is structurally
inapplicable to the requested problem (for example the double layer on
the unbounded domain), 4 for any other failure raised by the library.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .lgf import LatticeIndex, lgf
from .errors import (
    ConfigError,
    DoubleLayerInapplicableError,
    FormulationSingularError,
    LatticeBaeError,
)


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
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
    parser.add_argument("--formulation", default=defaults.formulation,
                        choices=harness.FORMULATIONS)
    parser.add_argument("--ell", type=float, default=defaults.ell,
                        help="computational box margin beyond the unit geometry; "
                             "bounded geometries only (circle-exterior uses [-3, 3]^2)")
    parser.add_argument("--timing", action="store_true",
                        help="include wall times in the CSV output")
    parser.add_argument("--out", default=None, help="CSV output path")


def _config_from_args(args, n=None, n_list=()) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        geometry=args.geometry,
        bc=args.bc,
        formulation=args.formulation,
        n=n,
        n_list=tuple(n_list),
        aspect=args.aspect,
        r1=args.r1,
        r2=args.r2,
        radius=args.radius,
        ell=args.ell,
        compute_cond=getattr(args, "cond", False),
    )


def _parse_n_list(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"bad n-list {text!r}; expected comma-separated integers")


def _emit(rows, cfg, args) -> None:
    if args.out:
        harness.emit_csv(rows, args.out, include_timing=args.timing,
                         metadata=harness.csv_metadata(cfg))
        print(f"wrote {args.out}")


def _emit_study(rows, cfg, args) -> None:
    """The CSV, then the plot script of the study named by the subcommand."""
    _emit(rows, cfg, args)
    if args.plot_script:
        if not args.out:
            raise ConfigError("--plot-script needs --out, the CSV it will read")
        harness.write_plot_script(args.out, args.plot_script, args.command)
        print(f"wrote {args.plot_script}")


def _cmd_solve(args) -> int:
    cfg = _config_from_args(args, n=args.n)
    sol, row = harness.solve_with_row(cfg)
    cond = "" if row.cond is None else f"  cond={row.cond:.6g}"
    print(f"n={row.n}  h={row.h:.6g}  {row.geometry}  {row.bc}  "
          f"{row.formulation}  max_error={row.max_error:.6e}{cond}")
    _emit([row], cfg, args)
    if args.dump_solution:
        harness.dump_solution_csv(sol, args.dump_solution)
        print(f"wrote {args.dump_solution}")
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
    value = lgf(LatticeIndex(args.m1, args.m2))
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
    p_solve.add_argument("--cond", action="store_true",
                         help="also report the system condition number")
    p_solve.add_argument("--dump-solution", default=None,
                         help="write x,y,value,exact,error CSV here")
    p_solve.set_defaults(func=_cmd_solve)

    for name, help_text, func in (
        ("convergence", "error ladder over grid sizes", _cmd_convergence),
        ("conditioning", "condition numbers of the six study matrices", _cmd_conditioning),
    ):
        p_study = sub.add_parser(name, help=help_text)
        _add_problem_flags(p_study)
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
