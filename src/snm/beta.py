"""Beta-distribution quantiles by the Schwarzian-Newton iteration.

Inverts I_x(a, b) = p.  For a, b > 1 the iteration runs in x directly,
where Omega is negative on (0, 1) with a single interior maximum (the
unique (0,1)-root of a cubic, ``beta_xm``).  After the symmetry flip
that makes p <= 1/2, it starts at the asymptotic quantile of
Abramowitz & Stegun 26.5.22, raised where needed to the lower bound of
the root that I_x(a, b) <= x^a / (a B(a, b)) gives for b >= 1.
Otherwise the problem moves to the logit variable z = log(x/(1-x)),
where Omega is negative for all shapes; the solver starts on the
monotone side of Omega, applying the symmetry
I_x(a,b) = 1 - I_(1-x)(b,a) first when that puts Omega in its
decreasing configuration (or when p > 1/2).  Each query runs one solve
from that start; the report's ``variable`` (DIRECT or LOGIT),
``flipped`` and ``start`` ("asymptotic" or "lower-bound") record the
plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    RESIDUAL_NOISE_FLOOR,
    DerivativeVanishedError,
    Interval,
    Plan,
    Problem,
    ProblemEvaluation,
    SolveOptions,
    SolveReport,
    StopReason,
    Variable,
    _logit,
    _sigmoid,
    solve,
)
from .special import _normal_quantile, _reg_beta, ln_beta

_UNIT_INTERVAL = Interval(0.0, 1.0, lo_open=True, hi_open=True)
_REAL_LINE = Interval(-math.inf, math.inf)
# The smallest positive double and the largest double below 1.
_X_MIN = 5e-324
_X_MAX = 1.0 - 2.0 ** -53


@dataclass(frozen=True)
class BetaQuantileQuery:
    """Shapes a, b > 0 with both tail probabilities carried explicitly."""

    a: float
    b: float
    p: float
    q: float

    def __init__(self, a: float, b: float, p: float,
                 q: Optional[float] = None) -> None:
        if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"shapes must be positive and finite, got a={a}, b={b}")
        if q is None:
            q = 1.0 - p
        if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
            raise ValueError(f"p, q must lie in (0, 1), got p={p}, q={q}")
        if abs(p + q - 1.0) > 1e-15:
            raise ValueError(f"p + q must equal 1, got {p + q}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def beta_b(a: float, b: float, x: float) -> float:
    """B(x) = -(a-1)/x + (b-1)/(1-x) for the beta residual."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"beta_b requires x in (0, 1), got {x}")
    return _beta_b(a, b, x)


def _beta_b(a: float, b: float, x: float) -> float:
    """beta_b without the domain check."""
    return -(a - 1.0) / x + (b - 1.0) / (1.0 - x)


def beta_omega(a: float, b: float, x: float) -> float:
    """Half the Schwarzian derivative of the beta residual in x.

    (a-1)(b-1)/(2x(1-x)) - (a^2-1)/(4x^2) - (b^2-1)/(4(1-x)^2); negative
    on all of (0, 1) when a > 1 and b > 1.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"beta_omega requires x in (0, 1), got {x}")
    return _beta_omega(a, b, x)


def _beta_omega(a: float, b: float, x: float) -> float:
    """beta_omega without the domain check."""
    y = 1.0 - x
    return ((a - 1.0) * (b - 1.0) / (2.0 * x * y)
            - 0.25 * (a * a - 1.0) / (x * x)
            - 0.25 * (b * b - 1.0) / (y * y))


def beta_xm_coefficients(a: float, b: float) -> tuple[float, float, float, float]:
    """Cubic coefficients (G, H, I, J) whose (0,1)-root locates max Omega."""
    al = a - 1.0
    be = b - 1.0
    g = (al + be) * (al + be + 2.0)
    h = -3.0 * (al * al + al * be + 2.0 * al)
    i = 3.0 * al * al + al * be + 6.0 * al
    j = -al * (al + 2.0)
    return g, h, i, j


def beta_xm(a: float, b: float) -> float:
    """Abscissa of the maximum of Omega on (0, 1), for a > 1, b > 1.

    The cubic G x^3 + H x^2 + I x + J has exactly one real root, bracketed
    by Q(0) = -(a-1)(a+1) < 0 < Q(1) = (b-1)(b+1); solved by safeguarded
    Newton iteration rather than the closed-form cubic formulas.
    """
    if not (a > 1.0 and b > 1.0):
        raise ValueError(f"beta_xm requires a > 1 and b > 1, got a={a}, b={b}")
    g, h, i, j = beta_xm_coefficients(a, b)

    def cubic(x: float) -> float:
        return ((g * x + h) * x + i) * x + j

    def cubic_prime(x: float) -> float:
        return (3.0 * g * x + 2.0 * h) * x + i

    lo, hi = 0.0, 1.0
    x = 0.5
    for _ in range(100):
        qx = cubic(x)
        if qx > 0.0:
            hi = x
        elif qx < 0.0:
            lo = x
        else:
            return x
        dq = cubic_prime(x)
        x_new = x - qx / dq if dq != 0.0 else 0.5 * (lo + hi)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 4.0 * 2.220446049250313e-16 * abs(x):
            return x_new
        x = x_new
    return x


def beta_omega_logit(a: float, b: float, z: float) -> float:
    """Half the Schwarzian derivative in the logit variable.

    With x = 1/(1 + e^-z):
    (1/4) (-(a+b)(a+b-2) x^2 + 2(a+b)(a-1) x - a^2).  Always negative;
    tends to -a^2/4 as z -> -inf and to -b^2/4 as z -> +inf.
    """
    return _beta_omega_logit_x(a, b, _sigmoid(z))


def _beta_omega_logit_x(a: float, b: float, x: float) -> float:
    """beta_omega_logit from x = 1/(1 + e^-z)."""
    s = a + b
    return 0.25 * (-(s * (s - 2.0)) * x * x + 2.0 * s * (a - 1.0) * x - a * a)


class BetaDirectProblem(Problem):
    """f(x) = I_x(a,b) - p on (0, 1).

    ``ln_b`` is ln B(a, b); it is computed here when the caller passes none.
    """

    residual_tol = RESIDUAL_NOISE_FLOOR

    def __init__(self, query: BetaQuantileQuery, ln_b: Optional[float] = None) -> None:
        self.query = query
        self.ln_b = ln_beta(query.a, query.b) if ln_b is None else ln_b

    def evaluate(self, x: float) -> ProblemEvaluation:
        q = self.query
        a, b, ln_b = q.a, q.b, self.ln_b
        fp = math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - ln_b)
        return ProblemEvaluation.build(
            x, _reg_beta(x, a, b, ln_b) - q.p, fp, _beta_b(a, b, x), _beta_omega(a, b, x))

    def domain(self) -> Interval:
        return _UNIT_INTERVAL


class BetaLogitProblem(Problem):
    """Same residual in z = log(x/(1-x)); B and Omega transformed; ``ln_b`` as above."""

    residual_tol = RESIDUAL_NOISE_FLOOR

    def __init__(self, query: BetaQuantileQuery, ln_b: Optional[float] = None) -> None:
        self.query = query
        self.ln_b = ln_beta(query.a, query.b) if ln_b is None else ln_b

    def evaluate(self, z: float) -> ProblemEvaluation:
        q = self.query
        x = _sigmoid(z)
        if x <= 0.0 or x >= 1.0:
            # The sigmoid saturates in double arithmetic around |z| ~ 37;
            # the chain-rule derivative x^a (1-x)^b has underflowed there.
            raise DerivativeVanishedError(f"beta logit derivative 0 at z={z}")
        # Chain rule with dx/dz = x(1-x): f_z' = x^a (1-x)^b / B(a,b),
        # B_z = (a+b) x - a.
        a, b, ln_b = q.a, q.b, self.ln_b
        fp = math.exp(a * math.log(x) + b * math.log1p(-x) - ln_b)
        return ProblemEvaluation.build(
            z, _reg_beta(x, a, b, ln_b) - q.p, fp, (a + b) * x - a,
            _beta_omega_logit_x(a, b, x))

    def domain(self) -> Interval:
        return _REAL_LINE


def _log_lower_bound(query: BetaQuantileQuery, ln_b: float) -> float:
    """log x of the root of x^a / (a B(a, b)) = p.

    That power bounds I_x(a, b) from above for b >= 1, so this x never
    exceeds the root; for b < 1 it is only a heuristic start.
    """
    return (math.log(query.p) + math.log(query.a) + ln_b) / query.a


def _logit_lower_bound_start(query: BetaQuantileQuery, ln_b: float) -> float:
    # Capped at x = 1/2 for b < 1, where the bound is only a heuristic.
    log_x = _log_lower_bound(query, ln_b)
    x = math.exp(min(log_x, 0.0))
    if x == 0.0:
        # x underflows; its logit is log x to double precision.
        return log_x
    return _logit(min(0.5, x))


def _asymptotic_start(query: BetaQuantileQuery, ln_b: float) -> float:
    """A&S 26.5.22 quantile for a, b > 1, never below the root's lower bound.

    Deep in the lower tail the normal approximation can fall far below
    the root, where f is flat; the bound of ``_log_lower_bound`` is then
    the better start.  A start that rounds to 1 (a huge, b small) is
    clamped to the largest double below 1, inside the open domain.
    """
    a, b = query.a, query.b
    y = _normal_quantile(query.q, query.p)  # upper-tail quantile: Q(y) = p
    lam = (y * y - 3.0) / 6.0
    ra = 1.0 / (2.0 * a - 1.0)
    rb = 1.0 / (2.0 * b - 1.0)
    h = 2.0 / (ra + rb)
    w = y * math.sqrt(h + lam) / h - (rb - ra) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
    x = a / (a + b * math.exp(min(2.0 * w, 700.0)))
    return min(max(x, math.exp(_log_lower_bound(query, ln_b))), _X_MAX)


def beta_plan(query: BetaQuantileQuery) -> Plan:
    """Choose variable, symmetry flip and starting point for a query.

    a, b > 1 solve in x from ``_asymptotic_start``; every other shape
    solves in the logit variable from the lower bound of the root.
    Flip rules: a, b > 1 and p > 1/2 flips for residual accuracy (the
    direct path is kept); a > 1 >= b flips so the logit Omega becomes
    decreasing; both shapes <= 1 flip only to keep p <= 1/2.  The
    configuration a <= 1 <= b is never flipped, since that would trade a
    decreasing Omega for an increasing one.  The problem holds ln B(a, b)
    and the working (possibly flipped) query.
    """
    a, b, p, q = query.a, query.b, query.p, query.q
    # ln_beta is symmetric, so one value serves the flipped query too.
    ln_b = ln_beta(a, b)

    direct_ok = a > 1.0 and b > 1.0
    if direct_ok:
        flipped = p > 0.5
    elif a > 1.0 and b <= 1.0:
        flipped = True
    elif a <= 1.0 and b <= 1.0:
        # Keep the root in the left half: near x = 1 the quantile is
        # quantized by ulp(1) (z steps of ulp(1)/(1-x) in the logit
        # variable), while the left tail resolves down to e^-745.
        flipped = _reg_beta(0.5, a, b, ln_b) < p
    else:  # a <= 1 <= b: already the decreasing configuration
        flipped = False
    if flipped:
        # The values were validated with the query; skip its __init__.
        work = object.__new__(BetaQuantileQuery)
        vars(work).update(a=b, b=a, p=q, q=p)
    else:
        work = query

    if direct_ok:
        return Plan(BetaDirectProblem(work, ln_b), _asymptotic_start(work, ln_b),
                    Variable.DIRECT, "asymptotic", flipped)
    return Plan(BetaLogitProblem(work, ln_b), _logit_lower_bound_start(work, ln_b),
                Variable.LOGIT, "lower-bound", flipped)


def invert_beta(query: BetaQuantileQuery,
                opts: Optional[SolveOptions] = None) -> SolveReport:
    """Solve I_x(a, b) = p for x in (0, 1): one solve from the ``beta_plan``.

    The report records the plan's variable, flip and start.  A root below
    the smallest positive double (tiny shapes) is reported as converged
    at 0, or at 1 after a symmetry flip, with ``root_underflow`` set.
    """
    plan = beta_plan(query)
    work = plan.query
    if (plan.variable is Variable.LOGIT and _sigmoid(plan.x0) == 0.0
            and _reg_beta(_X_MIN, work.a, work.b, plan.problem.ln_b) >= work.p):
        # The start's x underflows, and I_x reaches p already at the
        # smallest double, so the root lies below it as well.
        return SolveReport(plan.x0, 0, (), True, StopReason.RESIDUAL_TOL).with_plan(
            plan, root_underflow=True)
    report = solve(plan.problem, plan.x0, opts)
    return report.with_plan(plan)
