"""Command-line front end: inversion, method comparison, osculating curves.

Grammar::

    snm invert  (gamma|beta|elliptic) --p P [--q Q] [--a A] [--b B] [--m M]
                [--method snm|halley|newton] [--trace]
                [--format table|csv|json] [--max-iter N]
    snm invert  (gamma|beta) --q Q ...
    snm compare (gamma|beta|elliptic) ... [--methods snm,halley,newton]
                [--x0 X0] [--format ...] [--max-iter N]
    snm osculate (gamma|beta|elliptic|tan) --x0 X0 --range LO:HI
                --samples N [--curves function,snm,halley,newton]
                [--format ...]

``--q`` is the upper tail of gamma and beta: given alone it sets
p = 1 - q, which may round to 1.0 (q = 1e-20), as the query classes
allow; given with ``--p`` the pair must sum to 1.

Exit status: 0 on convergence, 1 on solver failure, 2 on usage errors.
A typed solver or kernel error (``SnmError``) is a solver failure: one
line on stderr, exit 1.
Numbers are printed with 12 significant digits in table mode and 17
(lossless round-trip) in csv/json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import Callable, NamedTuple, Optional, Sequence

from .beta import BetaDirectProblem, BetaQuantileQuery, beta_plan, invert_beta
from .core import (
    PoleError,
    SnmError,
    SolveOptions,
    _sigmoid,
    osculating_eval,
    osculating_fit,
    solve,
    tan_problem,
)
from .elliptic import EllipticProblem, EllipticQuery, elliptic_plan, invert_ellip_e
from .gamma import GammaDirectProblem, GammaQuantileQuery, gamma_start, invert_gamma
from .special import (_beta_exponent, _reg_beta, bisect_root, carlson_rd, carlson_rf,
                      ellip_e_complete, ellip_e_inc, ln_beta, reg_gamma_p, reg_gamma_q)

TABLE_DIGITS = 12
CSV_DIGITS = 17
# The report fields of ``invert --format json``, in output order.
JSON_KEYS = ("root", "iterations", "evaluations", "converged", "reason",
             "variable", "start", "root_underflow", "predicted_error")


def _fmt(v: float, digits: int) -> str:
    return f"{v:.{digits}g}"


# --------------------------------------------------------------- oracles

def _gamma_residual(a: float, p: float, q: float) -> Callable[[float], float]:
    """The smaller tail's residual at x: P(a, x) - p for p <= 1/2, else q - Q(a, x)."""
    if p <= 0.5:
        return lambda x: reg_gamma_p(a, x) - p
    return lambda x: q - reg_gamma_q(a, x)


def _beta_residual(a: float, b: float, p: float, q: float) -> Callable[..., float]:
    """The smaller tail's residual at x, I - p for p <= 1/2, else q - J, from
    the kernel's pair (I, J) at (x, y), as the solvers form it; y defaults to
    1 - x.  A solver root in logit x may round to x = 1, where the kernel
    cannot take log y: there (I, J) = (1, 0)."""
    ln_b = ln_beta(a, b)

    def residual(x: float, y: Optional[float] = None) -> float:
        y = 1.0 - x if y is None else y
        if y == 0.0:
            i, j = 1.0, 0.0
        else:
            i, j = _reg_beta(x, y, a, b, math.exp(_beta_exponent(a, b, x, y, ln_b)))
        return i - p if p <= 0.5 else q - j
    return residual


def _elliptic_residual(m: float, p: float) -> Callable[[float], float]:
    """E(sin x, m) - p E(1, m) at the amplitude x."""
    target = p * ellip_e_complete(m)
    return lambda x: ellip_e_inc(x, m) - target


# The oracles bisect the smaller tail's residual down to adjacent doubles
# (``bisect_root`` with tol 0), in a variable where the bracket reaches
# every root a double can hold and the residual does not cancel.  No
# double brackets the root (it underflows, say): ValueError, "no sign
# change".  The tests share them.

def gamma_bisection_root(a: float, p: float, q: float) -> float:
    """The x of P(a, x) = p (Q(a, x) = q for p > 1/2), bisected in log x
    over all positive doubles, so it is relative at any root size."""
    residual = _gamma_residual(a, p, q)
    return math.exp(bisect_root(lambda z: residual(math.exp(z)), math.log(5e-324),
                                math.log(sys.float_info.max), tol=0.0))


def beta_bisection_root(a: float, b: float, p: float, q: float) -> float:
    """The x of I_x(a, b) = p (1 - I_x(a, b) = q for p > 1/2), bisected in
    z = logit x on [-745, 745], which reaches every double x in (0, 1), from
    the kernel's pair at (sigma(z), sigma(-z)): 1 - x is held exactly, and
    log x could not reach a root where x rounds to 1."""
    residual = _beta_residual(a, b, p, q)
    return _sigmoid(bisect_root(lambda z: residual(_sigmoid(z), _sigmoid(-z)),
                                -745.0, 745.0, tol=0.0))


def elliptic_bisection_root(m: float, p: float) -> float:
    """The amplitude x of E(sin x, m) = p E(1, m), for 0 < m < 1.

    For p <= 1/2 bisection in x on [T/2, min(pi/2, 2T/k')], T = p E(1, m),
    k'^2 = 1 - m^2, which holds the root as k' <= dE(sin x, m)/dx <= 1: its
    ends are a fixed ratio apart, so the halvings reach adjacent doubles at
    any root size.  For p > 1/2 bisection in
    psi = pi/2 - x of C(psi) - (1 - p) E(1, m), with
    C(psi) = int_0^psi sqrt(k'^2 + m^2 sin^2 u) du = E(1, m) - E(sin x, m):
    in Carlson's form, with c = cos psi, s = sin psi and w = k'^2 + m^2 s^2,
    C = k'^2 (s R_F(k'^2 c^2, w, k'^2) + (m^2/3) s^3 R_D(k'^2 c^2, w, k'^2)).
    Neither side cancels near the root, so the root is resolved to its
    rounding in x even where k' and 1 - p are tiny, unlike a bisection of
    E(sin x, m) - p E(1, m), which cancels two values near 1 there.
    """
    g2 = (1.0 - m) * (1.0 + m)
    if p <= 0.5:
        t = p * ellip_e_complete(m)
        return bisect_root(_elliptic_residual(m, p), 0.5 * t,
                           min(math.pi / 2, 2.0 * t / math.sqrt(g2)), tol=0.0)
    target = (1.0 - p) * ellip_e_complete(m)

    def residual(psi: float) -> float:
        s, c = math.sin(psi), math.cos(psi)
        w = g2 + m * m * s * s
        return g2 * (s * carlson_rf(g2 * c * c, w, g2) + m * m / 3.0 * s ** 3
                     * carlson_rd(g2 * c * c, w, g2)) - target
    return math.pi / 2 - bisect_root(residual, 0.0, math.pi / 2, tol=0.0)


# -------------------------------------------------------------- problems

class _Kind(NamedTuple):
    """What the commands need to know about one problem name."""

    flags: tuple[str, ...]  # required, in the order the query takes them
    query: Callable  # builds the query from the flag values
    direct: Callable  # query -> the problem in the x variable
    shift: Callable  # direct problem -> offset back to the function's scale
    invert: Optional[Callable] = None  # None: osculate only
    plan: Optional[Callable] = None
    # compare's, from the query's floats (flags, then q where it has one):
    oracle: Optional[Callable] = None  # -> the bisection root in x
    residual: Optional[Callable] = None  # -> the smaller tail's residual at x


PROBLEMS = {
    "gamma": _Kind(("a", "p"), GammaQuantileQuery, GammaDirectProblem,
                   lambda problem: problem.query.p, invert_gamma, gamma_start,
                   gamma_bisection_root, _gamma_residual),
    "beta": _Kind(("a", "b", "p"), BetaQuantileQuery, BetaDirectProblem,
                  lambda problem: problem.query.p, invert_beta, beta_plan,
                  beta_bisection_root, _beta_residual),
    "elliptic": _Kind(("m", "p"), EllipticQuery, EllipticProblem,
                      lambda problem: problem.target, invert_ellip_e, elliptic_plan,
                      elliptic_bisection_root, _elliptic_residual),
    "tan": _Kind((), lambda: None, lambda query: tan_problem(), lambda problem: 0.0),
}
SOLVED = tuple(name for name, kind in PROBLEMS.items() if kind.invert)
# The problems whose queries take the upper tail q as well as p.
TWO_TAILED = ("gamma", "beta")


def _validated_query(parser, args):
    kind = PROBLEMS[args.problem]
    q = getattr(args, "q", None)  # osculate takes no --q
    if q is not None:
        if args.problem not in TWO_TAILED:
            parser.error(f"--q applies to gamma and beta, not {args.problem}")
        if args.p is None:
            args.p = 1.0 - q
    for name in kind.flags:
        if getattr(args, name) is None:
            takes_q = hasattr(args, "q") and args.problem in TWO_TAILED
            either = " or --q" if name == "p" and takes_q else ""
            parser.error(f"{args.problem} requires --{name}{either}")
    tails = {} if q is None else {"q": q}
    try:
        return kind.query(*(getattr(args, name) for name in kind.flags), **tails)
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------- invert

def cmd_invert(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    query = _validated_query(parser, args)
    report = PROBLEMS[args.problem].invert(query, SolveOptions(args.max_iter, args.method))

    rows = [r._asdict() for r in report.trace] if args.trace else []
    if args.format == "json":
        # The str enums (reason, variable) encode as their values.
        payload = {k: getattr(report, k) for k in JSON_KEYS}
        print(json.dumps({**payload, "trace": rows}))
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
        print(f"variable    {report.variable.value}")
        print(f"start       {report.start}")
        print(f"underflow   {str(report.root_underflow).lower()}")
        print(f"predicted   {_fmt(report.predicted_error, TABLE_DIGITS)}")
        if args.trace:
            print(f"{'n':>3} {'x':>19} {'f':>19} {'h':>19} {'omega':>19} {'step':>19} fb")
            for r in rows:
                cells = [f"{_fmt(r[k], TABLE_DIGITS):>19}" for k in ("x", "f", "h", "omega", "step")]
                print(f"{r['n']:>3} {' '.join(cells)} {'*' if r['fallback_used'] else '-'}")

    if not report.converged:
        print(f"solver failed: {report.reason.value}", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------- compare

def cmd_compare(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    kind = PROBLEMS[args.problem]
    query = _validated_query(parser, args)
    try:
        plan = kind.plan(query)
    except ValueError as exc:  # EllipticProblem refuses m = 0 and m = 1
        parser.error(str(exc))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        parser.error("--methods names no method")
    for name in methods:
        if name not in ("snm", "halley", "newton"):
            parser.error(f"unknown method {name!r} (choose from snm, halley, newton)")

    floats = [getattr(query, name) for name in kind.flags]
    if args.problem in TWO_TAILED:
        floats.append(query.q)
    x0 = plan.x0
    if args.x0 is not None:
        # --x0 is in x; each plan maps it to its own solver variable.
        try:
            x0 = plan.from_x(args.x0)
        except (ValueError, ZeroDivisionError):
            x0 = math.nan  # log or logit of an x outside the domain
        if not plan.problem.domain().contains(x0):
            parser.error(f"--x0 {args.x0} outside the problem domain")
    try:
        oracle = kind.oracle(*floats)
    except ValueError as exc:
        print(f"compare: no oracle root: {exc}", file=sys.stderr)
        return 1

    residual = kind.residual(*floats)
    # One row per method: its iteration count, the residual at its root and
    # the error of each iterate, as ``--format json`` prints them.
    rows = []
    failed = False
    for name in methods:
        report = solve(plan.problem, x0, SolveOptions(args.max_iter, name))
        failed = failed or not report.converged
        rows.append({"method": name, "iterations": report.iterations,
                     "final_residual": abs(residual(plan.to_x(report.root))),
                     "errors": [abs(plan.to_x(r.x + r.step) - oracle) for r in report.trace]})

    if args.format == "json":
        payload: dict = {"rows": rows}
        if args.oracle:
            payload["oracle_root"] = oracle
        print(json.dumps(payload))
    elif args.format == "csv":
        if args.oracle:
            print(f"# oracle_root,{_fmt(oracle, CSV_DIGITS)}")
        print("method,iterations,final_residual,iter_errors")
        for row in rows:
            errs = ";".join(_fmt(e, CSV_DIGITS) for e in row["errors"])
            print(f"{row['method']},{row['iterations']},"
                  f"{_fmt(row['final_residual'], CSV_DIGITS)},{errs}")
    else:
        if args.oracle:
            print(f"oracle_root {_fmt(oracle, TABLE_DIGITS)}")
        print(f"{'method':<8} {'iters':>5} {'final_residual':>16}  per-iteration error")
        for row in rows:
            errs = " ".join(_fmt(e, 3) for e in row["errors"])
            print(f"{row['method']:<8} {row['iterations']:>5} "
                  f"{_fmt(row['final_residual'], TABLE_DIGITS):>16}  {errs}")

    return 1 if failed else 0


# -------------------------------------------------------------- osculate

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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        parser.error("--range requires finite LO and HI")
    if not lo < hi:
        parser.error("--range requires LO < HI")

    # The problem in x, and the shift back to the function's own scale.
    kind = PROBLEMS[args.problem]
    try:
        problem = kind.direct(_validated_query(parser, args))
    except ValueError as exc:  # EllipticProblem refuses m = 0 and m = 1
        parser.error(str(exc))
    shift = kind.shift(problem)
    if not problem.domain().contains(args.x0):
        parser.error(f"--x0 {args.x0} outside the problem domain")
    e0 = problem.evaluate(args.x0)
    snm_model = osculating_fit(e0)
    halley_model = replace(snm_model, lam=0.0)

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snm",
        description="Fourth-order root finding: quantiles and inverse elliptic integrals.")
    subs = parser.add_subparsers(dest="command", required=True)

    inv = subs.add_parser("invert", help="invert a distribution / integral")
    inv.add_argument("problem", choices=SOLVED)
    _add_common_flags(inv)
    inv.add_argument("--method", choices=("snm", "halley", "newton"), default="snm")
    inv.add_argument("--trace", action="store_true", help="emit the iteration trace")

    cmp_ = subs.add_parser("compare", help="compare methods on one problem")
    cmp_.add_argument("problem", choices=SOLVED)
    _add_common_flags(cmp_)
    cmp_.add_argument("--methods", default="snm,halley",
                      help="comma list from snm,halley,newton")
    cmp_.add_argument("--x0", type=float, default=None,
                      help="common starting point (default: module policy)")
    cmp_.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    for sub in (inv, cmp_):  # osculate runs no solve
        sub.add_argument("--max-iter", type=int, default=30, dest="max_iter")
        sub.add_argument("--q", type=float, default=None,
                         help="upper tail 1 - p (gamma/beta); alone, p = 1 - q")

    osc = subs.add_parser("osculate", help="emit osculating-curve samples")
    osc.add_argument("problem", choices=tuple(PROBLEMS))
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
    if getattr(args, "max_iter", 1) < 1:  # osculate runs no solve
        parser.error("--max-iter: max_iter must be >= 1")
    try:
        if args.command == "invert":
            return cmd_invert(parser, args)
        if args.command == "compare":
            return cmd_compare(parser, args)
        return cmd_osculate(parser, args)
    except SnmError as exc:
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
