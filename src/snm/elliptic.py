"""Inversion of the incomplete elliptic integral of the second kind.

Solves E(sin x, m) = p E(1, m) for the amplitude x in [0, pi/2], where
E(sin x, m) = int_0^x sqrt(1 - m^2 sin^2 t) dt and m is the modulus.

Unlike the gamma/beta problems, Omega changes sign here: negative below
a critical abscissa x_c(m) and positive above it, so a single iteration
crosses between the hyperbolic and circular branches of the generalized
arctangent.  For m <= 2/sqrt(7), Omega is increasing on (0, pi/2) and the
one-step-from-pi/2 value g(pi/2) gives monotone convergence; for larger
m, Omega dips to an interior minimum at x_e and the better of the two
endpoint values g(0), g(pi/2) is chosen heuristically, with one retry
from the alternate start and a bisection re-seed as last resort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .core import (
    RESIDUAL_NOISE_FLOOR,
    Interval,
    IterationRecord,
    Problem,
    ProblemEvaluation,
    SolveOptions,
    SolveReport,
    StepUndefinedError,
    StopReason,
    solve,
)
from .special import _ellip_e, bisect_root, ellip_e_complete, ellip_e_inc

# Below this modulus, Omega has no interior extremum on (0, pi/2).
MONOTONE_OMEGA_MODULUS = 2.0 / math.sqrt(7.0)


@dataclass(frozen=True)
class EllipticQuery:
    """Modulus m in [0, 1] and target fraction p in (0, 1)."""

    m: float
    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.m <= 1.0:
            raise ValueError(f"modulus must lie in [0, 1], got {self.m}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"fraction must lie in (0, 1), got {self.p}")


def ellip_omega(m: float, x: float) -> float:
    """Half the Schwarzian derivative of the elliptic residual.

    (m^2/4) (m^2 cos^4 x + (m^2-4) cos^2 x + 2(1-m^2)) / (1-m^2 sin^2 x)^2.
    Negative for x < x_c(m), positive beyond; singular at (m=1, x=pi/2).
    """
    if not 0.0 <= x <= math.pi / 2:
        raise ValueError(f"ellip_omega requires x in [0, pi/2], got {x}")
    s = math.sin(x)
    c = math.cos(x)
    return _ellip_omega(m, c * c, 1.0 - (m * s) * (m * s))


def _ellip_omega(m: float, c2: float, w: float) -> float:
    """ellip_omega from c2 = cos^2 x and w = 1 - m^2 sin^2 x."""
    if w == 0.0:
        raise ValueError("ellip_omega singular at m=1, x=pi/2")
    m2 = m * m
    return 0.25 * m2 * (m2 * c2 * c2 + (m2 - 4.0) * c2 + 2.0 * (1.0 - m2)) / (w * w)


def ellip_xc(m: float) -> float:
    """Sign-change abscissa of Omega; increasing from pi/4 at m=0 to pi/2 at m=1.

    The closed form arccos(sqrt((4 - m^2 - sqrt(9 m^4 + 16(1-m^2)))/(2 m^2)))
    is 0/0 as m -> 0 and cancels catastrophically below m ~ 1e-3; it is
    evaluated in the algebraically identical rationalized form
    cos^2 x_c = 4(1-m^2) / (4 - m^2 + sqrt(9 m^4 + 16(1-m^2))), with the
    limit pi/4 returned below m = 1e-8.
    """
    if not 0.0 < m <= 1.0:
        if m == 0.0:
            return math.pi / 4
        raise ValueError(f"ellip_xc requires m in (0, 1], got {m}")
    if m < 1e-8:
        return math.pi / 4
    m2 = m * m
    inner = 4.0 * (1.0 - m2) / (4.0 - m2 + math.sqrt(9.0 * m2 * m2 + 16.0 * (1.0 - m2)))
    inner = min(1.0, max(0.0, inner))
    return math.acos(math.sqrt(inner))


def ellip_xe(m: float) -> float:
    """Interior minimum of Omega, defined for m > 2/sqrt(7); x_e < x_c."""
    if not m > MONOTONE_OMEGA_MODULUS:
        raise ValueError(
            f"ellip_xe requires m > 2/sqrt(7) = {MONOTONE_OMEGA_MODULUS}, got {m}")
    m2 = m * m
    cos2 = 1.0 - (7.0 * m2 - 4.0) / (3.0 * m2 * (2.0 - m2))
    cos2 = min(1.0, max(0.0, cos2))
    return math.acos(math.sqrt(cos2))


def ellip_start_low(m: float, p: float) -> float:
    """One SNM step from x = 0: (sqrt(2)/m) arctanh(m p E(1,m)/sqrt(2)).

    Raises:
        StepUndefinedError: the arctanh argument reaches 1 (callers use
            the high start instead).
    """
    return _start_low(m, p, ellip_e_complete(m))


def ellip_start_high(m: float, p: float) -> float:
    """One SNM step from x = pi/2; always lands inside (0, pi/2)."""
    return _start_high(m, p, ellip_e_complete(m))


def _start_low(m: float, p: float, complete: float) -> float:
    """ellip_start_low given complete = E(1, m)."""
    if not (0.0 < m < 1.0 and 0.0 < p < 1.0):
        raise ValueError("ellip_start_low requires m, p in (0, 1)")
    arg = m * p * complete / math.sqrt(2.0)
    if arg >= 1.0:
        raise StepUndefinedError(f"arctanh argument {arg} >= 1 in low start")
    return math.sqrt(2.0) / m * math.atanh(arg)


def _start_high(m: float, p: float, complete: float) -> float:
    """ellip_start_high given complete = E(1, m)."""
    if not (0.0 < m < 1.0 and 0.0 < p < 1.0):
        raise ValueError("ellip_start_high requires m, p in (0, 1)")
    w = 1.0 - m * m
    t = m * complete * (1.0 - p) / (math.sqrt(2.0) * w)
    return math.pi / 2 - math.sqrt(2.0 * w) / m * math.atan(t)


class EllipticProblem(Problem):
    """f(x) = E(sin x, m) - p E(1, m) on the closed interval [0, pi/2]."""

    def __init__(self, query: EllipticQuery) -> None:
        if not 0.0 < query.m < 1.0:
            raise ValueError("EllipticProblem requires 0 < m < 1; the m = 0 "
                             "and m = 1 endpoints invert in closed form")
        self.query = query
        self.complete = ellip_e_complete(query.m)
        # Omega increases across (0, pi/2) exactly below the x_e threshold.
        self.omega_monotone_hint = (
            "increasing-right-of-root"
            if query.m <= MONOTONE_OMEGA_MODULUS else "unknown")

    def evaluate(self, x: float) -> ProblemEvaluation:
        if not 0.0 <= x <= math.pi / 2:
            raise ValueError(f"EllipticProblem requires x in [0, pi/2], got {x}")
        m = self.query.m
        s = math.sin(x)
        c = math.cos(x)
        c2 = c * c
        w = 1.0 - (m * s) * (m * s)
        return ProblemEvaluation.build(
            x=x,
            f=_ellip_e(m, s, c2, w) - self.query.p * self.complete,
            fp=math.sqrt(w),
            big_b=m * m * s * c / w,
            omega=_ellip_omega(m, c2, w),
        )

    def domain(self) -> Interval:
        return Interval(0.0, math.pi / 2, lo_open=False, hi_open=False)


def choose_start(query: EllipticQuery,
                 complete: Optional[float] = None) -> tuple[float, str]:
    """Starting value and its label per the selection heuristics.

    m > 0.95 uses arcsin(p E(1,m)) from the degenerate relation
    E(sin x, 1) = sin x; otherwise the low start wins when it is below
    the high start and p < 0.8, since Omega varies slowly near 0.
    ``complete`` is E(1, m), computed here unless the caller has it.
    """
    m, p = query.m, query.p
    if complete is None:
        complete = ellip_e_complete(m)
    if m > 0.95:
        arg = min(1.0, max(0.0, p * complete))
        return math.asin(arg), "arcsin-guess"
    try:
        low = _start_low(m, p, complete)
    except StepUndefinedError:
        return _start_high(m, p, complete), "high"
    high = _start_high(m, p, complete)
    if low < high and p < 0.8:
        return low, "low"
    return high, "high"


class EllipticPlan(NamedTuple):
    """Prepared problem (it holds E(1, m)), start x0 and the start's label.

    The solver variable is x itself, so ``to_x`` and ``from_x`` are identities.
    """

    problem: EllipticProblem
    x0: float
    start: str

    def to_x(self, v: float) -> float:
        return v

    from_x = to_x


def elliptic_plan(query: EllipticQuery) -> EllipticPlan:
    """Problem and heuristic start (``choose_start``) for 0 < m < 1."""
    problem = EllipticProblem(query)
    x0, label = choose_start(query, problem.complete)
    return EllipticPlan(problem, x0, label)


def _steps_monotone(trace: tuple[IterationRecord, ...], slack: float) -> bool:
    signs = [1 if r.step > 0 else -1 for r in trace if abs(r.step) > slack]
    return all(s == signs[0] for s in signs) if signs else True


def _closed_form_report(root: float, note: str) -> SolveReport:
    return SolveReport(root=root, iterations=0, trace=(), converged=True,
                       reason=StopReason.RESIDUAL_TOL, notes=(note,))


def invert_ellip_e(query: EllipticQuery,
                   opts: Optional[SolveOptions] = None) -> SolveReport:
    """Solve E(sin x, m) = p E(1, m) for the amplitude x.

    m = 0 (f linear) and m = 1 (f = sin x - p) invert in closed form.
    Otherwise the SNM runs from the heuristic start; a start that fails
    to converge monotonically (step sign flip, fallback, or domain exit)
    is retried once from the alternate endpoint start, then from a
    10-step bisection seed.  The notes record which start was used.
    """
    m, p = query.m, query.p
    if m == 0.0:
        return _closed_form_report(p * math.pi / 2, "closed-form=linear")
    if m == 1.0:
        return _closed_form_report(math.asin(p), "closed-form=arcsin")

    plan = elliptic_plan(query)
    problem, label = plan.problem, plan.start
    if opts is None:
        opts = SolveOptions(residual_tol=RESIDUAL_NOISE_FLOOR)
    slack = 100.0 * opts.abs_tol

    report = solve(problem, plan.x0, opts)
    ok = (report.converged and _steps_monotone(report.trace, slack)
          and not any(r.fallback_used for r in report.trace))
    if ok:
        return report.with_root(report.root, f"start={label}")

    alt_label = "high" if label != "high" else "low"
    try:
        alt = (_start_high(m, p, problem.complete) if alt_label == "high"
               else _start_low(m, p, problem.complete))
    except StepUndefinedError:
        alt = None
    if alt is not None:
        retry = solve(problem, alt, opts)
        if retry.converged:
            return retry.with_root(retry.root, f"start={alt_label}", "retry=alternate")

    target = p * problem.complete
    seed = bisect_root(lambda x: ellip_e_inc(x, m) - target,
                       0.0, math.pi / 2, tol=1e-3, max_iter=10)
    final = solve(problem, seed, opts)
    return final.with_root(final.root, f"start={label}", "retry=bisection-seed")
