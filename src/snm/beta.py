"""Beta-distribution quantiles by the Schwarzian-Newton iteration.

Inverts I_x(a, b) = p.  For a, b > 1 the iteration runs in x directly:
Omega is negative on (0, 1) and has a single interior maximum, located at
the unique (0,1)-root of a cubic, which serves as the starting value.
Otherwise the problem moves to the logit variable z = log(x/(1-x)),
where Omega is negative for all shapes; the solver starts on the
monotone side of Omega, applying the symmetry
I_x(a,b) = 1 - I_(1-x)(b,a) first when that puts Omega in its
decreasing configuration (or when p > 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

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
from .special import _reg_beta, ln_beta


class BetaVariable(Enum):
    DIRECT = "direct"
    LOGIT = "logit"
    AUTO = "auto"


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
    return -(a - 1.0) / x + (b - 1.0) / (1.0 - x)


def beta_omega(a: float, b: float, x: float) -> float:
    """Half the Schwarzian derivative of the beta residual in x.

    (a-1)(b-1)/(2x(1-x)) - (a^2-1)/(4x^2) - (b^2-1)/(4(1-x)^2); negative
    on all of (0, 1) when a > 1 and b > 1.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"beta_omega requires x in (0, 1), got {x}")
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
    x = _sigmoid(z)
    s = a + b
    return 0.25 * (-(s * (s - 2.0)) * x * x + 2.0 * s * (a - 1.0) * x - a * a)


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    t = math.exp(z)
    return t / (1.0 + t)


def _logit(x: float) -> float:
    return math.log(x / (1.0 - x))


class BetaDirectProblem(Problem):
    """f(x) = I_x(a,b) - p on (0, 1).

    ``ln_b`` is ln B(a, b); it is computed here when the caller passes none.
    """

    def __init__(self, query: BetaQuantileQuery, ln_b: Optional[float] = None) -> None:
        self.query = query
        self.ln_b = ln_beta(query.a, query.b) if ln_b is None else ln_b

    def evaluate(self, x: float) -> ProblemEvaluation:
        q = self.query
        fp = math.exp((q.a - 1.0) * math.log(x) + (q.b - 1.0) * math.log1p(-x)
                      - self.ln_b)
        return ProblemEvaluation.build(
            x=x,
            f=_reg_beta(x, q.a, q.b, self.ln_b) - q.p,
            fp=fp,
            big_b=beta_b(q.a, q.b, x),
            omega=beta_omega(q.a, q.b, x),
        )

    def domain(self) -> Interval:
        return Interval(0.0, 1.0, lo_open=True, hi_open=True)


class BetaLogitProblem(Problem):
    """Same residual in z = log(x/(1-x)); B and Omega transformed; ``ln_b`` as above."""

    def __init__(self, query: BetaQuantileQuery, ln_b: Optional[float] = None) -> None:
        self.query = query
        self.ln_b = ln_beta(query.a, query.b) if ln_b is None else ln_b
        # Omega(z) is monotone decreasing exactly for a <= 1 <= b.
        self.omega_monotone_hint = (
            "decreasing-left-of-root"
            if query.a <= 1.0 <= query.b else "unknown")

    def evaluate(self, z: float) -> ProblemEvaluation:
        q = self.query
        x = _sigmoid(z)
        if x <= 0.0 or x >= 1.0:
            # The sigmoid saturates in double arithmetic around |z| ~ 37;
            # the chain-rule derivative x^a (1-x)^b has underflowed there.
            raise DerivativeVanishedError(f"beta logit derivative 0 at z={z}")
        # Chain rule with dx/dz = x(1-x): f_z' = x^a (1-x)^b / B(a,b),
        # B_z = (a+b) x - a.
        fp = math.exp(q.a * math.log(x) + q.b * math.log1p(-x) - self.ln_b)
        return ProblemEvaluation.build(
            x=z,
            f=_reg_beta(x, q.a, q.b, self.ln_b) - q.p,
            fp=fp,
            big_b=(q.a + q.b) * x - q.a,
            omega=beta_omega_logit(q.a, q.b, z),
        )

    def domain(self) -> Interval:
        return Interval(-math.inf, math.inf)


class BetaPlan(NamedTuple):
    """Prepared problem, start and bookkeeping for one inversion.

    The problem holds ln B(a, b); ``query`` is the working (possibly
    flipped) query and ``x0`` is in the solver variable.
    """

    problem: BetaDirectProblem | BetaLogitProblem
    x0: float
    variable: BetaVariable
    flipped: bool
    query: BetaQuantileQuery
    notes: tuple[str, ...]

    def to_x(self, v: float) -> float:
        """Map a solver-variable value back to the x of the original query."""
        x = _sigmoid(v) if self.variable is BetaVariable.LOGIT else v
        return 1.0 - x if self.flipped else x

    def from_x(self, x: float) -> float:
        """Map an x of the original query to the solver variable."""
        x = 1.0 - x if self.flipped else x
        return _logit(x) if self.variable is BetaVariable.LOGIT else x


def _logit_lower_bound_start(query: BetaQuantileQuery, ln_b: float) -> float:
    # x^a/(a B(a,b)) bounds I_x from above for b >= 1, so this x never
    # exceeds the root; heuristic (but capped at 1/2) when b < 1.
    log_x = (math.log(query.p) + math.log(query.a) + ln_b) / query.a
    return _logit(min(0.5, math.exp(min(log_x, 0.0))))


def beta_plan(query: BetaQuantileQuery,
              variable: BetaVariable = BetaVariable.AUTO) -> BetaPlan:
    """Choose variable, symmetry flip and starting point for a query.

    Flip rules: a, b > 1 and p > 1/2 flips for residual accuracy (the
    direct path is kept); a > 1 >= b flips so the logit Omega becomes
    decreasing; both shapes <= 1 flip only to keep p <= 1/2.  The
    configuration a <= 1 <= b is never flipped, since that would trade a
    decreasing Omega for an increasing one.
    """
    a, b, p, q = query.a, query.b, query.p, query.q
    notes: list[str] = []
    # ln_beta is symmetric, so one value serves the flipped query too.
    ln_b = ln_beta(a, b)

    direct_ok = a > 1.0 and b > 1.0
    if direct_ok:
        flipped = p > 0.5
    elif a > 1.0 and b <= 1.0:
        flipped = True
        notes.append("flip=omega-monotonicity")
    elif a <= 1.0 and b <= 1.0:
        # Keep the root in the left half: near x = 1 the quantile is
        # quantized by ulp(1) (z steps of ulp(1)/(1-x) in the logit
        # variable), while the left tail resolves down to e^-745.
        flipped = _reg_beta(0.5, a, b, ln_b) < p
    else:  # a <= 1 <= b: already the decreasing configuration
        flipped = False
    if flipped:
        a, b, p, q = b, a, q, p
        work = BetaQuantileQuery(a, b, p, q)
        notes.append("flip=symmetry")
    else:
        work = query

    if variable is BetaVariable.AUTO:
        variable = BetaVariable.DIRECT if direct_ok else BetaVariable.LOGIT

    if variable is BetaVariable.DIRECT:
        if not (a > 1.0 and b > 1.0):
            raise ValueError("direct variable requires a > 1 and b > 1")
        x0 = beta_xm(a, b)
        notes.append("start=omega-max")
        return BetaPlan(BetaDirectProblem(work, ln_b), x0, variable, flipped, work,
                        tuple(notes))

    if a > 1.0 and b > 1.0:
        # Logit requested explicitly: Omega has its max at (a-1)/(a+b-2).
        x0 = _logit((a - 1.0) / (a + b - 2.0))
        notes.append("start=omega-max")
    else:
        x0 = _logit_lower_bound_start(work, ln_b)
        notes.append("start=lower-bound")
        if a <= 1.0 and b <= 1.0 and not (a == 1.0 and b == 1.0):
            notes.append("path=heuristic(a<=1,b<=1)")
    return BetaPlan(BetaLogitProblem(work, ln_b), x0, variable, flipped, work,
                    tuple(notes))


def _logit_bisect_seed(query: BetaQuantileQuery, ln_b: float,
                       tol_z: float = 1e-6) -> float:
    """Bisection seed in the logit variable with an expanding bracket.

    Works for arbitrarily small shapes, whose quantiles sit at |z| of
    order 1/min(a, b); the residual saturates to -p / q at the caps, so
    the bracket is always valid.
    """
    a, b, p = query.a, query.b, query.p

    def g(z: float) -> float:
        x = _sigmoid(z)
        if x <= 0.0:
            return -p
        if x >= 1.0:
            return query.q
        return _reg_beta(x, a, b, ln_b) - p

    zlo, zhi = -2.0, 2.0
    while g(zlo) >= 0.0 and zlo > -800.0:
        zlo *= 2.0
    while g(zhi) <= 0.0 and zhi < 800.0:
        zhi *= 2.0
    while zhi - zlo > tol_z:
        mid = 0.5 * (zlo + zhi)
        if g(mid) > 0.0:
            zhi = mid
        else:
            zlo = mid
    return 0.5 * (zlo + zhi)


def invert_beta(query: BetaQuantileQuery,
                opts: Optional[SolveOptions] = None,
                variable: BetaVariable = BetaVariable.AUTO) -> SolveReport:
    """Solve I_x(a, b) = p for x in (0, 1).

    Falls back to a bisection-seeded retry if the planned start fails to
    converge; the report notes record flip, start and path.
    """
    if opts is None:
        opts = SolveOptions(residual_tol=RESIDUAL_NOISE_FLOOR)
    plan = beta_plan(query, variable)
    report = solve(plan.problem, plan.x0, opts)
    notes = plan.notes

    if not report.converged:
        # Re-seed from a logit-space bisection (expanding bracket copes
        # with quantiles at extreme |z| for tiny shapes), then retry.
        z_seed = _logit_bisect_seed(plan.query, plan.problem.ln_b)
        x0 = z_seed if plan.variable is BetaVariable.LOGIT else _sigmoid(z_seed)
        retry = solve(plan.problem, x0, opts)
        if retry.converged:
            report = retry
            notes = notes + ("retry=bisection-seed",)

    return report.with_root(plan.to_x(report.root), *notes)
