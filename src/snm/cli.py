"""Command-line front end: inversion, method comparison, osculating curves.

Grammar::

    snm invert  (gamma|beta|elliptic) --p P [--a A] [--b B] [--m M]
                [--method snm|halley|newton] [--trace]
                [--format table|csv|json] [--tol T] [--max-iter N]
    snm compare (gamma|beta|elliptic) ... [--methods snm,halley,newton]
                [--x0 X0] [--format ...]
    snm osculate (gamma|beta|elliptic|tan) --x0 X0 --range LO:HI
                --samples N [--curves function,snm,halley,newton]
                [--format ...]

Exit status: 0 on convergence, 1 on solver failure, 2 on usage errors.
Numbers are printed with 12 significant digits in table mode and 17
(lossless round-trip) in csv/json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .beta import BetaQuantileQuery, beta_plan, invert_beta
from .core import (
    RESIDUAL_NOISE_FLOOR,
    Method,
    OsculatingModel,
    PoleError,
    Problem,
    SolveOptions,
    SolveReport,
    osculating_eval,
    osculating_fit,
    solve,
    tan_problem,
)
from .elliptic import EllipticProblem, EllipticQuery, elliptic_plan, invert_ellip_e
from .gamma import GammaQuantileQuery, GammaVariable, gamma_problem, gamma_start, invert_gamma
from .special import bisect_root, ellip_e_inc, reg_beta, reg_gamma_p

TABLE_DIGITS = 12
CSV_DIGITS = 17


def _fmt(v: float, digits: int) -> str:
    return f"{v:.{digits}g}"


def _build_options(args: argparse.Namespace) -> SolveOptions:
    return SolveOptions(
        abs_tol=args.tol,
        residual_tol=RESIDUAL_NOISE_FLOOR,
        max_iter=args.max_iter,
        method=Method(args.method),
    )


def _require(parser: argparse.ArgumentParser, args: argparse.Namespace,
             names: Sequence[str]) -> None:
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"{args.problem} requires --{name}")


def _validated_query(parser, args):
    try:
        if args.problem == "gamma":
            _require(parser, args, ["a", "p"])
            return GammaQuantileQuery(args.a, args.p)
        if args.problem == "beta":
            _require(parser, args, ["a", "b", "p"])
            return BetaQuantileQuery(args.a, args.b, args.p)
        _require(parser, args, ["m", "p"])
        return EllipticQuery(args.m, args.p)
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------- invert

def _trace_rows(report: SolveReport) -> list[dict]:
    return [
        {"n": r.n, "x": r.x, "f": r.f, "h": r.h, "omega": r.omega,
         "step": r.step, "fallback_used": r.fallback_used}
        for r in report.trace
    ]


def cmd_invert(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    query = _validated_query(parser, args)
    opts = _build_options(args)
    if args.problem == "gamma":
        report = invert_gamma(query, opts)
    elif args.problem == "beta":
        report = invert_beta(query, opts)
    else:
        report = invert_ellip_e(query, opts)

    rows = _trace_rows(report) if args.trace else []
    if args.format == "json":
        payload = {
            "root": report.root,
            "iterations": report.iterations,
            "converged": report.converged,
            "reason": report.reason.value,
            "trace": rows,
        }
        print(json.dumps(payload))
    elif args.format == "csv":
        if args.trace:
            print("n,x,f,h,omega,step,fallback_used")
            for r in rows:
                cells = [str(r["n"])] + [
                    _fmt(r[k], CSV_DIGITS) for k in ("x", "f", "h", "omega", "step")
                ] + [str(r["fallback_used"]).lower()]
                print(",".join(cells))
        else:
            print("root,iterations,converged,reason")
            print(f"{_fmt(report.root, CSV_DIGITS)},{report.iterations},"
                  f"{str(report.converged).lower()},{report.reason.value}")
    else:
        print(f"root        {_fmt(report.root, TABLE_DIGITS)}")
        print(f"iterations  {report.iterations}")
        print(f"converged   {str(report.converged).lower()}")
        print(f"reason      {report.reason.value}")
        if report.notes:
            print(f"notes       {' '.join(report.notes)}")
        if args.trace:
            header = f"{'n':>3} {'x':>19} {'f':>19} {'h':>19} {'omega':>19} {'step':>19} fb"
            print(header)
            for r in rows:
                print(f"{r['n']:>3} {_fmt(r['x'], TABLE_DIGITS):>19} "
                      f"{_fmt(r['f'], TABLE_DIGITS):>19} {_fmt(r['h'], TABLE_DIGITS):>19} "
                      f"{_fmt(r['omega'], TABLE_DIGITS):>19} "
                      f"{_fmt(r['step'], TABLE_DIGITS):>19} "
                      f"{'*' if r['fallback_used'] else '-'}")

    if not report.converged:
        print(f"solver failed: {report.reason.value}", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------- compare

@dataclass(frozen=True)
class CompareRow:
    """One method's result: iteration count, final residual, error decay."""

    method: str
    iterations: int
    final_residual: float
    errors: tuple[float, ...]


def _compare_setup(query) -> tuple:
    """The solver's plan, residual(x) and the oracle's bracket in x."""
    if isinstance(query, GammaQuantileQuery):
        plan = gamma_start(query)
        residual = lambda x: reg_gamma_p(query.a, x) - query.p
        return plan, residual, (1e-150, max(4.0 * query.a + 100.0, 4.0 * plan.to_x(plan.x0)))
    if isinstance(query, BetaQuantileQuery):
        residual = lambda x: reg_beta(x, query.a, query.b) - query.p
        return beta_plan(query), residual, (1e-12, 1.0 - 1e-12)
    plan = elliptic_plan(query)
    residual = lambda x: ellip_e_inc(x, query.m) - query.p * plan.problem.complete
    return plan, residual, (0.0, math.pi / 2)


def cmd_compare(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    query = _validated_query(parser, args)
    if args.problem == "elliptic" and (args.m == 0.0 or args.m == 1.0):
        parser.error("compare requires 0 < m < 1 (the endpoints invert in closed form)")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for name in methods:
        if name not in ("snm", "halley", "newton"):
            parser.error(f"unknown method {name!r} (choose from snm, halley, newton)")

    plan, residual, bracket = _compare_setup(query)
    # --x0 is in x; each plan maps it to its own solver variable.
    x0 = plan.x0 if args.x0 is None else plan.from_x(args.x0)
    oracle = bisect_root(residual, bracket[0], bracket[1], tol=1e-15)

    rows = []
    failed = False
    for name in methods:
        opts = SolveOptions(abs_tol=args.tol, residual_tol=RESIDUAL_NOISE_FLOOR,
                            max_iter=args.max_iter, method=Method(name))
        report = solve(plan.problem, x0, opts)
        failed = failed or not report.converged
        iterates = [plan.to_x(r.x + r.step) for r in report.trace]
        rows.append(CompareRow(
            method=name,
            iterations=report.iterations,
            final_residual=abs(residual(plan.to_x(report.root))),
            errors=tuple(abs(x - oracle) for x in iterates),
        ))

    if args.format == "json":
        payload: dict = {"rows": [
            {"method": r.method, "iterations": r.iterations,
             "final_residual": r.final_residual, "errors": list(r.errors)}
            for r in rows
        ]}
        if args.oracle:
            payload["oracle_root"] = oracle
        print(json.dumps(payload))
    elif args.format == "csv":
        if args.oracle:
            print(f"# oracle_root,{_fmt(oracle, CSV_DIGITS)}")
        print("method,iterations,final_residual,iter_errors")
        for row in rows:
            errs = ";".join(_fmt(e, CSV_DIGITS) for e in row.errors)
            print(f"{row.method},{row.iterations},"
                  f"{_fmt(row.final_residual, CSV_DIGITS)},{errs}")
    else:
        if args.oracle:
            print(f"oracle_root {_fmt(oracle, TABLE_DIGITS)}")
        print(f"{'method':<8} {'iters':>5} {'final_residual':>16}  per-iteration error")
        for row in rows:
            errs = " ".join(_fmt(e, 3) for e in row.errors)
            print(f"{row.method:<8} {row.iterations:>5} "
                  f"{_fmt(row.final_residual, TABLE_DIGITS):>16}  {errs}")

    return 1 if failed else 0


# -------------------------------------------------------------- osculate

def _osculate_problem(parser, args) -> tuple[Problem, float]:
    """Problem in the x variable plus the additive shift to plotting scale."""
    if args.problem == "tan":
        return tan_problem(), 0.0
    query = _validated_query(parser, args)
    if args.problem == "gamma":
        return gamma_problem(query, GammaVariable.DIRECT), query.p
    if args.problem == "beta":
        from .beta import BetaDirectProblem
        return BetaDirectProblem(query), query.p
    try:
        problem = EllipticProblem(query)
    except ValueError as exc:
        parser.error(str(exc))
    return problem, query.p * problem.complete


def cmd_osculate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    curves = [c.strip() for c in args.curves.split(",") if c.strip()]
    for c in curves:
        if c not in ("function", "snm", "halley", "newton"):
            parser.error(f"unknown curve {c!r}")
    if args.samples < 2:
        parser.error("--samples must be >= 2")
    try:
        lo_s, hi_s = args.range.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        parser.error("--range must look like LO:HI")
    if not lo < hi:
        parser.error("--range requires LO < HI")

    problem, shift = _osculate_problem(parser, args)
    if not problem.domain().contains(args.x0):
        parser.error(f"--x0 {args.x0} outside the problem domain")
    e0 = problem.evaluate(args.x0)
    snm_model = osculating_fit(e0)
    halley_model = OsculatingModel(x_anchor=snm_model.x_anchor, lam=0.0,
                                   a=snm_model.a, b=snm_model.b,
                                   c=snm_model.c, d=snm_model.d)

    def cell(name: str, x: float) -> Optional[float]:
        try:
            if name == "function":
                return problem.evaluate(x).f + shift if problem.domain().contains(x) else None
            if name == "snm":
                return osculating_eval(snm_model, x) + shift
            if name == "halley":
                return osculating_eval(halley_model, x) + shift
            return e0.f + e0.fp * (x - e0.x) + shift
        except (PoleError, ValueError, ArithmeticError, OverflowError):
            return None

    columns = ["x"] + curves
    rows = []
    for i in range(args.samples):
        x = lo + (hi - lo) * i / (args.samples - 1)
        rows.append([x] + [cell(c, x) for c in curves])

    if args.format == "json":
        print(json.dumps({"columns": columns, "rows": rows}))
    elif args.format == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join("" if v is None else _fmt(v, CSV_DIGITS) for v in row))
    else:
        print(" ".join(f"{c:>19}" for c in columns))
        for row in rows:
            print(" ".join(
                f"{'' if v is None else _fmt(v, TABLE_DIGITS):>19}" for v in row))
    return 0


# ------------------------------------------------------------------ main

def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--a", type=float, default=None, help="shape a (gamma/beta)")
    sub.add_argument("--b", type=float, default=None, help="shape b (beta)")
    sub.add_argument("--m", type=float, default=None, help="modulus m (elliptic)")
    sub.add_argument("--p", type=float, default=None, help="probability / fraction")
    sub.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sub.add_argument("--tol", type=float, default=1e-15,
                     help="absolute step tolerance (default 1e-15)")
    sub.add_argument("--max-iter", type=int, default=30, dest="max_iter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snm",
        description="Fourth-order root finding: quantiles and inverse elliptic integrals.")
    subs = parser.add_subparsers(dest="command", required=True)

    inv = subs.add_parser("invert", help="invert a distribution / integral")
    inv.add_argument("problem", choices=("gamma", "beta", "elliptic"))
    _add_common_flags(inv)
    inv.add_argument("--method", choices=("snm", "halley", "newton"), default="snm")
    inv.add_argument("--trace", action="store_true", help="emit the iteration trace")

    cmp_ = subs.add_parser("compare", help="compare methods on one problem")
    cmp_.add_argument("problem", choices=("gamma", "beta", "elliptic"))
    _add_common_flags(cmp_)
    cmp_.add_argument("--methods", default="snm,halley",
                      help="comma list from snm,halley,newton")
    cmp_.add_argument("--x0", type=float, default=None,
                      help="common starting point (default: module policy)")
    cmp_.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)

    osc = subs.add_parser("osculate", help="emit osculating-curve samples")
    osc.add_argument("problem", choices=("gamma", "beta", "elliptic", "tan"))
    _add_common_flags(osc)
    osc.add_argument("--x0", type=float, required=True, help="anchor point")
    osc.add_argument("--range", required=True,
                     help="sample range LO:HI (use --range=LO:HI for negative LO)")
    osc.add_argument("--samples", type=int, default=100)
    osc.add_argument("--curves", default="function,snm,halley,newton")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "invert":
        return cmd_invert(parser, args)
    if args.command == "compare":
        return cmd_compare(parser, args)
    return cmd_osculate(parser, args)


if __name__ == "__main__":
    sys.exit(main())
