"""Gamma-distribution quantiles by the Schwarzian-Newton iteration.

Inverts P(a, x) = p (lower tail) or Q(a, x) = q (upper tail).  For
a >= 1 the iteration runs in x directly: Omega is negative on (0, inf)
with a single maximum at x = a + 1, so starting there gives monotone
convergence.  For a < 1 the problem is transformed to z = log x, where
Omega stays negative for every a > 0 and is strictly decreasing, and the
start is a guaranteed lower bound of the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

from .core import (
    RESIDUAL_NOISE_FLOOR,
    DerivativeVanishedError,
    Interval,
    Problem,
    ProblemEvaluation,
    SolveOptions,
    SolveReport,
    solve,
)
from .special import _gamma_density, _reg_gamma, ln_gamma


class GammaVariable(Enum):
    DIRECT = "direct"
    LOG = "log"


@dataclass(frozen=True)
class GammaQuantileQuery:
    """Shape a > 0 with both tail probabilities carried explicitly."""

    a: float
    p: float
    q: float

    def __init__(self, a: float, p: float, q: Optional[float] = None) -> None:
        if not (a > 0.0 and math.isfinite(a)):
            raise ValueError(f"shape must be positive and finite, got {a}")
        if q is None:
            q = 1.0 - p
        if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
            raise ValueError(f"p, q must lie in (0, 1), got p={p}, q={q}")
        if abs(p + q - 1.0) > 1e-15:
            raise ValueError(f"p + q must equal 1, got {p + q}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def gamma_b(a: float, x: float) -> float:
    """B(x) = 1 + (1 - a)/x for the gamma residual."""
    if not (x > 0.0):
        raise ValueError(f"gamma_b requires x > 0, got {x}")
    return 1.0 + (1.0 - a) / x


def gamma_omega(a: float, x: float) -> float:
    """Half the Schwarzian derivative of the gamma residual in x.

    -(1/4) (1 + 2(1-a)/x + (a^2-1)/x^2); for a >= 1 this is negative on
    (0, inf) with its maximum -1/(2(1+a)) at x = a + 1.
    """
    if not (x > 0.0):
        raise ValueError(f"gamma_omega requires x > 0, got {x}")
    return -0.25 * (1.0 + 2.0 * (1.0 - a) / x + (a * a - 1.0) / (x * x))


def gamma_omega_log(a: float, z: float) -> float:
    """Half the Schwarzian derivative in the log variable z = log x.

    With x = e^z: -(1/4) (x^2 - 2(a-1)x + a^2).  Negative for all x > 0
    whenever a > 0; maximum at z = log(a-1) for a > 1, strictly
    decreasing on the whole real line for a < 1.
    """
    x = math.exp(z)
    return -0.25 * (x * x - 2.0 * (a - 1.0) * x + a * a)


def _residual(query: GammaQuantileQuery, x: float,
              ln_gamma_a: float) -> tuple[float, float]:
    """(residual, kernel exponent) at x > 0; the exponent also gives f'(x)."""
    big_p, big_q, arg = _reg_gamma(query.a, x, ln_gamma_a)
    # Invert P - p for p <= 1/2 and q - Q otherwise; same derivatives.
    return (big_p - query.p if query.p <= 0.5 else query.q - big_q), arg


class GammaDirectProblem(Problem):
    """f(x) = P(a,x) - p (or q - Q(a,x)) on (0, inf)."""

    def __init__(self, query: GammaQuantileQuery) -> None:
        self.query = query
        self.ln_gamma_a = ln_gamma(query.a)
        # Omega peaks at a+1, so no one-sided monotonicity holds globally.
        self.omega_monotone_hint = "unknown"

    def evaluate(self, x: float) -> ProblemEvaluation:
        q = self.query
        f, arg = _residual(q, x, self.ln_gamma_a)
        return ProblemEvaluation.build(
            x=x,
            f=f,
            fp=_gamma_density(arg, x),
            big_b=gamma_b(q.a, x),
            omega=gamma_omega(q.a, x),
        )

    def domain(self) -> Interval:
        return Interval(0.0, math.inf, lo_open=True, hi_open=True)


class GammaLogProblem(Problem):
    """Same residual in z = log x; B and Omega transformed accordingly."""

    def __init__(self, query: GammaQuantileQuery) -> None:
        self.query = query
        self.ln_gamma_a = ln_gamma(query.a)
        self.ln_gamma_a1 = ln_gamma(query.a + 1.0)
        # Omega(z) is strictly decreasing on all of R exactly when a <= 1.
        self.omega_monotone_hint = (
            "decreasing-left-of-root" if query.a <= 1.0 else "unknown")

    def evaluate(self, z: float) -> ProblemEvaluation:
        q = self.query
        if z > 700.0:
            # e^z overflows and the derivative e^(az - x) has long
            # underflowed; report the vanished derivative instead.
            raise DerivativeVanishedError(f"gamma log-variable derivative 0 at z={z}")
        x = math.exp(z)
        # Chain rule: B_z = x B(x) - 1 = x - a, f_z' = x f'(x) = x^a e^-x
        # / Gamma(a), formed from z directly so deep-tail z stays finite
        # even where x itself under/overflows.
        fp = math.exp(q.a * z - x - self.ln_gamma_a)
        if z < -667.0:
            # Deep tail: P(a, x) = x^a / Gamma(a+1) to full precision
            # (the next series term is below x ~ 1e-290).  Also dodges
            # the precision loss of log on a subnormal x inside the
            # kernel once x drops past 1e-308.
            f = math.exp(q.a * z - self.ln_gamma_a1) - q.p
        else:
            f = _residual(q, x, self.ln_gamma_a)[0]
        return ProblemEvaluation.build(
            x=z,
            f=f,
            fp=fp,
            big_b=x - q.a,
            omega=gamma_omega_log(q.a, z),
        )

    def domain(self) -> Interval:
        return Interval(-math.inf, math.inf)


def gamma_problem(query: GammaQuantileQuery,
                  variable: GammaVariable = GammaVariable.DIRECT) -> Problem:
    """Build the inversion problem in the requested variable."""
    if variable is GammaVariable.DIRECT:
        return GammaDirectProblem(query)
    return GammaLogProblem(query)


class GammaPlan(NamedTuple):
    """Prepared problem, its variable and the start x0 in that variable.

    The problem holds ln Gamma(a), and ln Gamma(a+1) in the log variable.
    """

    problem: Problem
    variable: GammaVariable
    x0: float

    def to_x(self, v: float) -> float:
        return math.exp(v) if self.variable is GammaVariable.LOG else v

    def from_x(self, x: float) -> float:
        return math.log(x) if self.variable is GammaVariable.LOG else x


def gamma_start(query: GammaQuantileQuery) -> GammaPlan:
    """Standard plan: (Direct, a+1) for a >= 1, else (Log, z0).

    a + 1 is the maximum of Omega, from which convergence is monotone.
    For a < 1, z0 = (log p + log Gamma(a+1)) / a comes from the bound
    P(a, x) <= x^a / Gamma(a+1), so e^z0 never exceeds the root and the
    iterates increase monotonically toward it.
    """
    if query.a >= 1.0:
        return GammaPlan(GammaDirectProblem(query), GammaVariable.DIRECT, query.a + 1.0)
    problem = GammaLogProblem(query)
    z0 = (math.log(query.p) + problem.ln_gamma_a1) / query.a
    return GammaPlan(problem, GammaVariable.LOG, z0)


def invert_gamma(query: GammaQuantileQuery,
                 opts: Optional[SolveOptions] = None,
                 start: Union[str, float] = "auto") -> SolveReport:
    """Solve P(a, x) = p for x.

    ``start`` may be "auto" (standard policy above), "inflection" (x0 =
    a - 1, only meaningful for a > 1), or a number interpreted in the x
    variable.  Roots found in the log variable are mapped back with
    x = e^z before reporting; the trace stays in the solver variable.
    """
    plan = gamma_start(query)
    x0 = plan.x0
    if start == "inflection":
        if not query.a > 1.0:
            raise ValueError("inflection start requires a > 1")
        x0 = query.a - 1.0  # a > 1, so the plan is in the direct variable
    elif start != "auto":
        x_user = float(start)
        if not x_user > 0.0:
            raise ValueError(f"start must be positive, got {x_user}")
        x0 = plan.from_x(x_user)

    if opts is None:
        opts = SolveOptions(residual_tol=RESIDUAL_NOISE_FLOOR)
    report = solve(plan.problem, x0, opts)
    root = plan.to_x(report.root)
    if plan.variable is GammaVariable.LOG:
        if root == 0.0:
            return report.with_root(root, "variable=log", "root-underflow")
        return report.with_root(root, "variable=log")
    return report.with_root(root, "variable=direct")
