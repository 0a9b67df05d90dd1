"""Command-line interface: gen, solve, sweep, bench.

Exit codes: 0 success, 2 invalid arguments, 3 numerical failure during a
solve.  All commands are batch operations on problem archives and CSV
files; nothing is interactive.
"""

import argparse
import os
import sys

from . import __version__
from .bounds import measure_bound_inputs
from .dense import _check_system
from .errors import DimensionMismatch, SketchLsqError
from .harness import BENCH_COLUMNS, CSV_COLUMNS, SweepConfig, rho_grid
from .harness import run_benchmark, run_sweep, write_csv
from .mmio import read_matrix
from .probgen import generate_problem, load_problem, save_problem
from .sketch import TRANSFORMS
from .solvers import METHODS as METHOD_TABLE
from .solvers import algorithm1_pipeline, solve_notnormal

METHODS = (*METHOD_TABLE, "nne")
PRECISIONS = ("auto", "half", "single", "double")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sketchlsq",
        description="Sketch-preconditioned dense least squares")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a problem archive")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--kappa", type=float, default=1e6)
    gen.add_argument("--rho", type=float, default=1e-6)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, metavar="DIR")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve an archived problem")
    solve.add_argument("--problem", required=True, metavar="DIR")
    solve.add_argument("--method", choices=METHODS, default="pne")
    solve.add_argument("--precision", choices=PRECISIONS, default="auto")
    solve.add_argument("--d-factor", type=float, default=3.0)
    solve.add_argument("--transform", choices=TRANSFORMS, default="dct2")
    solve.add_argument("--seed", type=int, default=0,
                       help="sketch seed (pne/hpne only)")
    solve.add_argument("--b-matrix", metavar="PATH",
                       help="Matrix Market file holding B for method nne "
                            "(or a problem archive whose A supplies B); "
                            "B must share A's column space for the result "
                            "to solve the least-squares problem")
    solve.set_defaults(func=_cmd_solve)

    sweep = sub.add_parser("sweep", help="residual sweep to CSV")
    sweep.add_argument("--m", type=int, default=2000)
    sweep.add_argument("--n", type=int, default=50)
    sweep.add_argument("--kappa", type=float, default=1e6)
    sweep.add_argument("--rho-min", type=float, default=1e-12)
    sweep.add_argument("--rho-max", type=float, default=1e-2)
    sweep.add_argument("--rho-points", type=int, default=11)
    sweep.add_argument("--methods", default="qr,pne,hpne",
                       help="comma-separated subset of "
                            + ",".join(METHOD_TABLE))
    sweep.add_argument("--precision", choices=PRECISIONS, default="double")
    sweep.add_argument("--d-factor", type=float, default=3.0)
    sweep.add_argument("--transform", choices=TRANSFORMS, default="dct2")
    sweep.add_argument("--trials", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--csv", required=True, metavar="PATH")
    sweep.set_defaults(func=_cmd_sweep)

    bench = sub.add_parser("bench", help="timing benchmark to CSV/stdout")
    bench.add_argument("--m", type=int, default=2000)
    bench.add_argument("--n-list", default="25,50,100",
                       help="comma-separated column counts")
    bench.add_argument("--kappa", type=float, default=1e6)
    bench.add_argument("--rho", type=float, default=1e-6)
    bench.add_argument("--trials", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--csv", metavar="PATH")
    bench.set_defaults(func=_cmd_bench)
    return parser


def _cmd_gen(args):
    problem = generate_problem(args.m, args.n, args.kappa, args.rho, args.seed)
    save_problem(problem, args.out)
    print(f"wrote {args.out}: m={problem.m} n={problem.n} "
          f"kappa={problem.kappa:g} rho={problem.rho:g} seed={problem.seed}")
    return 0


def _cmd_solve(args):
    problem = load_problem(args.problem)
    system = _check_system(problem.a, problem.b, problem.x_star)
    spec = METHOD_TABLE.get(args.method)
    if spec is None:  # nne, the one method outside the table
        if not args.b_matrix:
            print("method nne requires --b-matrix", file=sys.stderr)
            return 2
        if os.path.isdir(args.b_matrix):
            b_matrix = load_problem(args.b_matrix).a
        else:
            b_matrix = read_matrix(args.b_matrix)
        report = solve_notnormal(system, b_matrix, system.b, system.x_star)
    elif spec.preconditioned:
        report = algorithm1_pipeline(
            system, system.b, args.method, args.precision,
            args.d_factor, args.transform, args.seed, system.x_star)
    else:
        report = spec.solve(system, None)
    print(f"method            {report.method}")
    print(f"shape             {problem.m} x {problem.n}")
    if report.precision_decision is not None:
        dec = report.precision_decision
        print(f"kappa0 estimate   {dec.kappa0:.3f} "
              f"(overflowed={dec.overflowed})")
    if report.preconditioner is not None:
        pre = report.preconditioner
        inputs = measure_bound_inputs(system, report)
        print(f"precision         {pre.computed_in.name}")
        if report.escalated_from is not None:
            print(f"escalated from    {report.escalated_from.name}")
        print(f"kappa(R_s)        {inputs.kappa_rs:.6g}")
        print(f"kappa(A_p)        {inputs.kappa_ap:.6g}")
    if report.lu_fallback:
        print("gram solve        LU (Cholesky failed)")
    print(f"residual norm     {report.residual_norm:.6e}")
    print(f"rel residual      {report.relative_residual:.6e}")
    if report.relative_error is not None:
        print(f"rel error vs x*   {report.relative_error:.6e}")
    if report.preconditioner is not None:
        print(f"bound (old form)  {spec.bound(inputs, 'old'):.6e}")
        print(f"bound (new form)  {spec.bound(inputs, 'new'):.6e}")
    print(f"wall ms           {report.wall_ms:.2f}")
    return 0


def _cmd_sweep(args):
    methods = tuple(s.strip() for s in args.methods.split(",") if s.strip())
    config = SweepConfig(
        m=args.m, n=args.n, kappa=args.kappa,
        rho_grid=rho_grid(args.rho_min, args.rho_max, args.rho_points),
        methods=methods, precision=args.precision, d_factor=args.d_factor,
        transform=args.transform, trials_per_point=args.trials,
        seed=args.seed)
    rows = run_sweep(config)
    write_csv(args.csv, rows, CSV_COLUMNS)
    failures = sum(1 for row in rows if row["error"])
    print(f"wrote {args.csv}: {len(rows)} rows, {failures} failed solves")
    return 0


def _cmd_bench(args):
    n_list = tuple(int(s) for s in args.n_list.split(",") if s.strip())
    rows = run_benchmark(m=args.m, n_list=n_list, kappa=args.kappa,
                         rho=args.rho, trials=args.trials, seed=args.seed)
    header = f"{'method':<12}{'n':>6}{'median_ms':>12}{'rel_error':>14}{'speedup':>10}"
    print(header)
    for row in rows:
        print(f"{row['method']:<12}{row['n']:>6}"
              f"{row['median_wall_ms']:>12.2f}"
              f"{row['rel_error']:>14.3e}"
              f"{row['speedup_vs_qr']:>10.2f}")
    if args.csv:
        write_csv(args.csv, rows, BENCH_COLUMNS)
        print(f"wrote {args.csv}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DimensionMismatch) as exc:
        # a shape misuse is an interface error, not a numerical failure
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except SketchLsqError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
