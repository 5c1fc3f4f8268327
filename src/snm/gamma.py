"""Gamma-distribution quantiles by the Schwarzian-Newton iteration.

Inverts P(a, x) = p (lower tail) or Q(a, x) = q (upper tail).  For
a >= 1 the iteration runs in x directly, where Omega is negative on
(0, inf) with a single maximum at x = a + 1.  It starts at the
Wilson-Hilferty approximation of the quantile, raised where needed to
the lower bound of the root that P(a, x) <= x^a / Gamma(a+1) gives, so
a start far out in the lower tail cannot land where f is flat.  For
a < 1 the problem is transformed to z = log x, where Omega stays
negative for every a > 0 and is strictly decreasing, and the start is
that same lower bound of the root.  Each query runs one solve from its
start; the report's ``variable`` is DIRECT or LOG and its ``start`` is
"asymptotic" or "lower-bound".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    DEEP_TAIL_Z,
    RESIDUAL_NOISE_FLOOR,
    DerivativeVanishedError,
    Interval,
    Plan,
    Problem,
    ProblemEvaluation,
    SolveOptions,
    SolveReport,
    Variable,
    check_shape,
    check_tails,
    solve,
)
from .special import _gamma_density, _normal_quantile, _reg_gamma, ln_gamma

_POSITIVE_AXIS = Interval(0.0, math.inf, lo_open=True, hi_open=True)
_REAL_LINE = Interval(-math.inf, math.inf)


@dataclass(frozen=True)
class GammaQuantileQuery:
    """Shape a > 0 and both tail probabilities p, q; q = 1 - p by default."""

    a: float
    p: float
    q: Optional[float] = None

    def __post_init__(self) -> None:
        check_shape("GammaQuantileQuery", self.a)
        object.__setattr__(self, "q", check_tails(self.p, self.q))


def gamma_b(a: float, x: float) -> float:
    """B(x) = 1 + (1 - a)/x for the gamma residual."""
    check_shape("gamma_b", a)
    if not (x > 0.0):
        raise ValueError(f"gamma_b requires x > 0, got {x}")
    return _gamma_b(a, x)


def _gamma_b(a: float, x: float) -> float:
    """gamma_b without the domain check."""
    return 1.0 + (1.0 - a) / x


def gamma_omega(a: float, x: float) -> float:
    """Half the Schwarzian derivative of the gamma residual in x.

    -(1/4) (1 + 2(1-a)/x + (a^2-1)/x^2); for a >= 1 this is negative on
    (0, inf) with its maximum -1/(2(1+a)) at x = a + 1.
    """
    check_shape("gamma_omega", a)
    if not (x > 0.0):
        raise ValueError(f"gamma_omega requires x > 0, got {x}")
    return _gamma_omega(a, x)


def _gamma_omega(a: float, x: float) -> float:
    """gamma_omega without the domain check."""
    return -0.25 * (1.0 + 2.0 * (1.0 - a) / x + (a * a - 1.0) / (x * x))


def gamma_omega_log(a: float, z: float) -> float:
    """Half the Schwarzian derivative in the log variable z = log x.

    With x = e^z: -(1/4) (x^2 - 2(a-1)x + a^2).  Negative for all x > 0
    whenever a > 0; maximum at z = log(a-1) for a > 1, strictly
    decreasing on the whole real line for a < 1.  -inf once e^z
    overflows; a NaN z raises ValueError.
    """
    check_shape("gamma_omega_log", a)
    if math.isnan(z):
        raise ValueError("gamma_omega_log requires a number z, got nan")
    try:
        x = math.exp(z)
    except OverflowError:
        return -math.inf
    return _gamma_omega_log_x(a, x)


def _gamma_omega_log_x(a: float, x: float) -> float:
    """gamma_omega_log from x = e^z."""
    return -0.25 * (x * x - 2.0 * (a - 1.0) * x + a * a)


def _residual(query: GammaQuantileQuery, x: float,
              ln_gamma_a: float) -> tuple[float, float]:
    """(residual, kernel exponent) at x > 0; the exponent also gives f'(x)."""
    big_p, big_q, arg = _reg_gamma(query.a, x, ln_gamma_a)
    # Invert P - p for p <= 1/2 and q - Q otherwise; same derivatives.
    return (big_p - query.p if query.p <= 0.5 else query.q - big_q), arg


class GammaDirectProblem(Problem):
    """f(x) = P(a,x) - p (or q - Q(a,x)) on (0, inf)."""

    residual_tol = RESIDUAL_NOISE_FLOOR

    def __init__(self, query: GammaQuantileQuery) -> None:
        self.query = query
        self.ln_gamma_a = ln_gamma(query.a)

    def evaluate(self, x: float) -> ProblemEvaluation:
        a = self.query.a
        f, arg = _residual(self.query, x, self.ln_gamma_a)
        return ProblemEvaluation.build(
            x, f, _gamma_density(arg, x), _gamma_b(a, x), _gamma_omega(a, x))

    def domain(self) -> Interval:
        return _POSITIVE_AXIS


class GammaLogProblem(Problem):
    """Same residual in z = log x; B and Omega transformed accordingly."""

    residual_tol = RESIDUAL_NOISE_FLOOR

    def __init__(self, query: GammaQuantileQuery) -> None:
        self.query = query
        self.ln_gamma_a = ln_gamma(query.a)
        self.ln_gamma_a1 = ln_gamma(query.a + 1.0)

    def evaluate(self, z: float) -> ProblemEvaluation:
        q = self.query
        a = q.a
        if z > 700.0:
            # e^z overflows and the derivative e^(az - x) has long
            # underflowed; report the vanished derivative instead.
            raise DerivativeVanishedError(f"gamma log-variable derivative 0 at z={z}")
        x = math.exp(z)
        # Chain rule: B_z = x B(x) - 1 = x - a, f_z' = x f'(x) = x^a e^-x
        # / Gamma(a), formed from z directly so deep-tail z stays finite
        # even where x itself under/overflows.
        fp = math.exp(a * z - x - self.ln_gamma_a)
        if z < DEEP_TAIL_Z:
            # Deep tail: P(a, x) = x^a / Gamma(a+1) to full precision
            # (the next series term is below x ~ 1e-290).  Also dodges
            # the precision loss of log on a subnormal x inside the
            # kernel once x drops past 1e-308.
            f = math.exp(a * z - self.ln_gamma_a1) - q.p
        else:
            f = _residual(q, x, self.ln_gamma_a)[0]
        return ProblemEvaluation.build(z, f, fp, x - a, _gamma_omega_log_x(a, x))

    def domain(self) -> Interval:
        return _REAL_LINE


def _wilson_hilferty_start(query: GammaQuantileQuery, ln_gamma_a: float) -> float:
    """Wilson-Hilferty quantile (A&S 26.4.17), never below the root's lower bound.

    P(a, x) <= x^a / Gamma(a+1) puts the root at or above
    (p Gamma(a+1))^(1/a); the cube root of the normal approximation can
    fall far below it (or below 0) in the lower tail at small a.
    """
    a = query.a
    y = _normal_quantile(query.p, query.q)
    c = 1.0 - 1.0 / (9.0 * a) + y / (3.0 * math.sqrt(a))
    lower = math.exp((math.log(query.p) + ln_gamma_a + math.log(a)) / a)
    return max(a * c * c * c, lower)


def gamma_start(query: GammaQuantileQuery) -> Plan:
    """Standard plan: (DIRECT, "asymptotic") for a >= 1, else (LOG, "lower-bound").

    For a >= 1 the start is ``_wilson_hilferty_start``: close to the root
    across both tails, so the direct iteration needs about two steps.
    For a < 1, z0 = (log p + log Gamma(a+1)) / a comes from the bound
    P(a, x) <= x^a / Gamma(a+1), so e^z0 never exceeds the root and the
    iterates increase monotonically toward it.  The problem holds
    ln Gamma(a), and ln Gamma(a+1) in the log variable.
    """
    if query.a >= 1.0:
        problem = GammaDirectProblem(query)
        x0 = _wilson_hilferty_start(query, problem.ln_gamma_a)
        return Plan(problem, x0, Variable.DIRECT, "asymptotic")
    problem = GammaLogProblem(query)
    z0 = (math.log(query.p) + problem.ln_gamma_a1) / query.a
    return Plan(problem, z0, Variable.LOG, "lower-bound")


def invert_gamma(query: GammaQuantileQuery,
                 opts: Optional[SolveOptions] = None) -> SolveReport:
    """Solve P(a, x) = p for x: one solve from the ``gamma_start`` plan.

    Roots found in the log variable are mapped back with x = e^z before
    reporting; the trace stays in the solver variable.  A root e^z below
    the smallest normal double is reported with ``root_underflow``.
    """
    plan = gamma_start(query)
    return solve(plan.problem, plan.x0, opts).with_plan(plan)
