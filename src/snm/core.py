"""Schwarzian-Newton root finding: step formulas, osculating curves, driver.

The Schwarzian-Newton method (SNM) is the fixed-point iteration

    x_{n+1} = x_n - arctan(Omega(x_n), h(x_n))

where Omega is half the Schwarzian derivative of the target function f,
h = f / ((B/2) f + f') with B = -f''/f', and arctan(lam, u) is the inverse
of the generalized tangent ``gtan`` (circular for lam > 0, identity for
lam = 0, hyperbolic for lam < 0).  One step is exact for any function with
constant Schwarzian derivative; in general the method has convergence
order four.  Halley's method is the lam -> 0 member of the same family,
and Newton's method is kept as a baseline.

Geometrically each SNM step fits the curve

    y(x) = (gtan(lam, x - x_n) + A) / (B gtan(lam, x - x_n) + C)

matching f and its first three derivatives at x_n, then solves y = 0.
``osculating_fit`` / ``osculating_root`` expose this construction; it is
algebraically equivalent to the arctan step formula.

Problems supply f, f', B and Omega in closed form through the
:class:`Problem` contract, which also sets the residual stop; ``solve``
runs the iteration with step/residual stopping tests, an automatic Halley
fallback where the hyperbolic branch is undefined, and a domain safeguard.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

MACHINE_EPSILON = sys.float_info.epsilon

# |lam * u^2| below this uses the odd power series in gtan/gatan; keeps
# relative truncation error under 1e-18, below double rounding.
SERIES_THRESHOLD = 1e-6

# The gamma and beta problems' residual stop (the elliptic problem scales
# it by its target): tens of ulps of a CDF value, under which the kernels
# cannot distinguish the residual from rounding noise (long
# continued-fraction chains carry a few 1e-15 of it), while staying an
# order of magnitude below the 1e-13 round-trip contracts.
RESIDUAL_NOISE_FLOOR = 1e-14

# Relative part of the step stop |step| <= abs_tol + STEP_REL_TOL * |x|.
STEP_REL_TOL = 4 * MACHINE_EPSILON

HALF_PI = math.pi / 2

# Builds a NamedTuple from all of its fields without the Python frame of
# its generated __new__; the solve loop makes one evaluation per
# iteration and one record per step.
_tuple_new = tuple.__new__


class SnmError(Exception):
    """Base class for solver errors."""


class DerivativeVanishedError(SnmError):
    """f' is zero (or not finite) at an evaluation point."""


class StepUndefinedError(SnmError):
    """The hyperbolic-branch inverse needs |u|*sqrt(-lam) < 1.

    Raised by ``gatan`` (and so by ``snm_step``) when the argument leaves
    the arctanh range; callers fall back to a Halley step.
    """


class DegenerateStepError(SnmError):
    """The Halley/SNM denominator (B/2) f + f' vanished, or D = 0."""


class PoleError(SnmError):
    """An osculating curve was evaluated at one of its poles."""


class Method(str, Enum):
    SNM = "snm"
    HALLEY = "halley"
    NEWTON = "newton"


class Variable(str, Enum):
    """The variable a solve runs in: x itself, z = log x or z = logit x."""

    DIRECT = "direct"
    LOG = "log"
    LOGIT = "logit"


class StopReason(str, Enum):
    STEP_TOL = "StepTol"
    RESIDUAL_TOL = "ResidualTol"
    MAX_ITER = "MaxIter"
    DERIVATIVE_VANISHED = "DerivativeVanished"
    DOMAIN_EXIT = "DomainExit"


@dataclass(frozen=True)
class Interval:
    """Solver domain with open/closed endpoint semantics.

    Endpoints may be infinite; ``lo < hi`` is required.
    """

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty interval: lo={self.lo} >= hi={self.hi}")

    def contains(self, x: float) -> bool:
        if math.isnan(x):
            return False
        if self.lo_open:
            if x <= self.lo:
                return False
        elif x < self.lo:
            return False
        if self.hi_open:
            if x >= self.hi:
                return False
        elif x > self.hi:
            return False
        return True


class ProblemEvaluation(NamedTuple):
    """Everything one SNM/Halley/Newton step needs at a point.

    Attributes:
        x: abscissa.
        f: residual value f(x).
        fp: first derivative f'(x); nonzero and finite.
        big_b: B = -f''/f'.
        omega: half the Schwarzian derivative of f at x.
        h: the Halley correction f / ((B/2) f + f').  Set to a signed
            infinity when the denominator vanishes; the step formulas
            raise :class:`DegenerateStepError` in that case.
    """

    x: float
    f: float
    fp: float
    big_b: float
    omega: float
    h: float

    @classmethod
    def build(cls, x: float, f: float, fp: float, big_b: float,
              omega: float) -> "ProblemEvaluation":
        """Construct an evaluation, deriving h from f, fp and big_b."""
        if fp == 0.0 or not math.isfinite(fp):
            raise DerivativeVanishedError(f"f'({x}) = {fp}")
        if not math.isfinite(omega):
            raise ValueError(f"omega not finite at x={x}: {omega}")
        denom = 0.5 * big_b * f + fp
        if denom == 0.0:
            h = math.copysign(math.inf, f) if f != 0.0 else 0.0
        else:
            h = f / denom
        return _tuple_new(cls, (x, f, fp, big_b, omega, h))

    @classmethod
    def from_derivatives(cls, x: float, f: float, fp: float, fpp: float,
                         fppp: float) -> "ProblemEvaluation":
        """Construct an evaluation from raw derivatives f', f'', f'''."""
        if fp == 0.0 or not math.isfinite(fp):
            raise DerivativeVanishedError(f"f'({x}) = {fp}")
        # B = -r and Omega as in ``schwarzian_omega``, sharing r = f''/f'.
        r = fpp / fp
        return cls.build(x, f, fp, -r, 0.5 * (fppp / fp - 1.5 * r * r))


class Problem(ABC):
    """Behavioral contract for an invertible scalar problem.

    Implementations must be deterministic and read-only after
    construction (safe for concurrent use).  ``evaluate`` is only
    required for points strictly inside ``domain()`` unless the concrete
    problem supports endpoint evaluation.

    ``solve`` stops once |f| <= ``residual_tol``, which the application
    problems set at their kernels' noise floor (at 0, only an exact zero).
    """

    residual_tol: float = 0.0

    @abstractmethod
    def evaluate(self, x: float) -> ProblemEvaluation:
        ...

    @abstractmethod
    def domain(self) -> Interval:
        ...


class FunctionProblem(Problem):
    """Problem built from callables for f and its first three derivatives."""

    def __init__(self, f: Callable[[float], float],
                 fp: Callable[[float], float],
                 fpp: Callable[[float], float],
                 fppp: Callable[[float], float],
                 domain: Interval) -> None:
        self._f = f
        self._fp = fp
        self._fpp = fpp
        self._fppp = fppp
        self._domain = domain

    def evaluate(self, x: float) -> ProblemEvaluation:
        return ProblemEvaluation.from_derivatives(
            x, self._f(x), self._fp(x), self._fpp(x), self._fppp(x))

    def domain(self) -> Interval:
        return self._domain


def tan_problem() -> FunctionProblem:
    """f(x) = tan x on (-pi/2, pi/2): the canonical constant-Schwarzian demo.

    Omega is identically 1, so a single SNM step from any interior point
    lands on the root at 0, while Halley steps x - tan x can leave the
    interval near the endpoints.
    """
    sec2 = lambda x: 1.0 + math.tan(x) ** 2
    return FunctionProblem(
        f=math.tan,
        fp=sec2,
        fpp=lambda x: 2.0 * math.tan(x) * sec2(x),
        fppp=lambda x: 2.0 * sec2(x) * (1.0 + 3.0 * math.tan(x) ** 2),
        domain=Interval(-HALF_PI, HALF_PI, lo_open=True, hi_open=True),
    )


@dataclass(frozen=True)
class SolveOptions:
    """Driver configuration.

    The stopping rule is |step| <= abs_tol + STEP_REL_TOL * |x|, or
    |f| <= problem.residual_tol, or max_iter.  ``method`` may also be
    given by name ("snm", "halley" or "newton"); an unknown name raises
    ValueError.
    """

    abs_tol: float = 1e-15
    max_iter: int = 30
    method: Method = Method.SNM

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", Method(self.method))
        if not 0 < self.abs_tol < math.inf:  # also refuses NaN
            raise ValueError("abs_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


class IterationRecord(NamedTuple):
    """One applied step of the driver.

    ``x`` is the iterate the step was taken from and ``step`` the applied
    increment, so ``x + step`` is the next iterate bit-for-bit.
    ``fallback_used`` is set when the raw formula was replaced (Halley
    fallback on an undefined hyperbolic branch, or domain safeguard).
    """

    n: int
    x: float
    f: float
    h: float
    omega: float
    step: float
    fallback_used: bool


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    t = math.exp(z)
    return t / (1.0 + t)


def _logit(x: float) -> float:
    return math.log(x / (1.0 - x))


class Plan(NamedTuple):
    """One prepared inversion: the problem, its start and how to read it.

    ``x0`` is in the solver ``variable`` and ``start`` names its rule.
    ``flipped`` marks the symmetry x -> 1 - x; ``query`` is the problem's
    working query, the flipped one when ``flipped`` is set.
    """

    problem: Problem
    x0: float
    variable: Variable
    start: str
    flipped: bool = False

    @property
    def query(self):
        return self.problem.query

    def to_x(self, v: float) -> float:
        """Map a solver-variable value back to the x of the original query."""
        if self.variable is Variable.DIRECT:
            x = v
        elif self.variable is Variable.LOG:
            x = math.exp(v)
        else:
            x = _sigmoid(v)
        return 1.0 - x if self.flipped else x

    def from_x(self, x: float) -> float:
        """Map an x of the original query to the solver variable."""
        if self.flipped:
            x = 1.0 - x
        if self.variable is Variable.LOG:
            return math.log(x)
        if self.variable is Variable.LOGIT:
            return _logit(x)
        return x


class SolveReport(NamedTuple):
    """Result of a solve call; converged iff reason is a tolerance stop.

    ``evaluations`` counts the ``Problem.evaluate`` calls made.  The
    ``invert_*`` solvers copy the last four fields from their ``Plan``;
    ``root_underflow`` marks a root below the smallest positive double,
    reported as 0 (1 after a flip).
    """

    root: float
    iterations: int
    trace: tuple[IterationRecord, ...]
    converged: bool
    reason: StopReason
    evaluations: int = 0
    variable: Variable = Variable.DIRECT
    flipped: bool = False
    start: str = ""
    root_underflow: bool = False

    def with_plan(self, plan: Plan, root_underflow: bool = False) -> "SolveReport":
        """A copy with the root mapped to x and the plan's fields; the trace is shared."""
        return SolveReport(plan.to_x(self.root), self.iterations, self.trace,
                           self.converged, self.reason, self.evaluations,
                           plan.variable, plan.flipped, plan.start, root_underflow)


_DEFAULT_OPTIONS = SolveOptions()


def gtan(lam: float, x: float) -> float:
    """Generalized tangent: tan for lam > 0, identity at 0, tanh for lam < 0.

    Returns tan(sqrt(lam) x)/sqrt(lam), x, or tanh(sqrt(-lam) x)/sqrt(-lam).
    Continuous in lam at 0; for |lam x^2| below ``SERIES_THRESHOLD`` the
    odd series x (1 + w/3 + 2 w^2/15), w = lam x^2, is used.

    Raises:
        ValueError: lam > 0 and |x| sqrt(lam) >= pi/2 (outside the
            principal branch).
    """
    w = lam * x * x
    if abs(w) < SERIES_THRESHOLD:
        return x * (1.0 + w / 3.0 + 2.0 / 15.0 * w * w)
    if lam > 0.0:
        s = math.sqrt(lam)
        if abs(x) * s >= HALF_PI:
            raise ValueError(
                f"gtan outside principal branch: |x|*sqrt(lam) = {abs(x) * s}")
        return math.tan(s * x) / s
    s = math.sqrt(-lam)
    return math.tanh(s * x) / s


def gatan(lam: float, u: float) -> float:
    """Inverse of ``gtan``: arctan / identity / arctanh by the sign of lam.

    For |lam u^2| below ``SERIES_THRESHOLD`` the odd series
    u (1 - w/3 + w^2/5), w = lam u^2, avoids cancellation.

    Raises:
        StepUndefinedError: lam < 0 and |u| sqrt(-lam) >= 1.  This is the
            signal that an SNM step is undefined at the point; the caller
            applies a Halley fallback.
    """
    w = lam * u * u
    if abs(w) < SERIES_THRESHOLD:
        return u * (1.0 - w / 3.0 + 0.2 * w * w)
    if lam > 0.0:
        s = math.sqrt(lam)
        return math.atan(s * u) / s
    s = math.sqrt(-lam)
    t = s * u
    if abs(t) >= 1.0:
        raise StepUndefinedError(f"|u|*sqrt(-lam) = {abs(t)} >= 1")
    return math.atanh(t) / s


def schwarzian_omega(fp: float, fpp: float, fppp: float) -> float:
    """Half the Schwarzian derivative from raw derivatives.

    Returns (1/2) (f'''/f' - (3/2) (f''/f')^2).
    """
    if fp == 0.0:
        raise ValueError("Schwarzian derivative undefined where f' = 0")
    r = fpp / fp
    return 0.5 * (fppp / fp - 1.5 * r * r)


def newton_step(e: ProblemEvaluation) -> float:
    """Newton's method: x - f/f'."""
    return e.x - e.f / e.fp


def halley_step(e: ProblemEvaluation) -> float:
    """Halley's method: x - f/(f' - f'' f/(2 f')), i.e. x - h."""
    if not math.isfinite(e.h):
        raise DegenerateStepError(f"(B/2) f + f' = 0 at x={e.x}")
    return e.x - e.h


def snm_step(e: ProblemEvaluation) -> float:
    """One Schwarzian-Newton step: x - arctan(Omega, h).

    Reduces to ``halley_step`` bit-for-bit when Omega = 0, and is exact
    (lands on the root) for functions with constant Schwarzian derivative.

    Raises:
        StepUndefinedError: Omega < 0 and |h| sqrt(-Omega) >= 1.
        DegenerateStepError: the h denominator vanished.
    """
    if not math.isfinite(e.h):
        raise DegenerateStepError(f"(B/2) f + f' = 0 at x={e.x}")
    return e.x - gatan(e.omega, e.h)


@dataclass(frozen=True)
class OsculatingModel:
    """Constants of the tangent curve (gtan(lam,u) + a)/(b gtan(lam,u) + c).

    Anchored at ``x_anchor`` (u = x - x_anchor); matches the source
    function's value and first three derivatives there.
    """

    x_anchor: float
    lam: float
    a: float
    b: float
    c: float


def osculating_fit(e: ProblemEvaluation) -> OsculatingModel:
    """Fit the four-constant tangent curve to an evaluation.

    lam = Omega(x), a = 2 f f'/D, b = -f''/D, c = 2 f'/D with
    D = 2 f'^2 - f f''; f'' is recovered as -B f'.
    """
    fpp = -e.big_b * e.fp
    d = 2.0 * e.fp * e.fp - e.f * fpp
    if d == 0.0:
        raise DegenerateStepError(f"D = 2 f'^2 - f f'' = 0 at x={e.x}")
    return OsculatingModel(
        x_anchor=e.x,
        lam=e.omega,
        a=2.0 * e.f * e.fp / d,
        b=-fpp / d,
        c=2.0 * e.fp / d,
    )


def osculating_root(m: OsculatingModel) -> float:
    """Root of the osculating curve: x_anchor - gatan(lam, a).

    Agrees with ``snm_step`` on the generating evaluation (the two
    constructions are algebraically identical).
    """
    return m.x_anchor - gatan(m.lam, m.a)


def osculating_eval(m: OsculatingModel, x: float) -> float:
    """Value of the osculating curve at x.

    Raises:
        PoleError: at a zero of the denominator.
        ValueError: gtan outside its principal branch (lam > 0).
    """
    u = gtan(m.lam, x - m.x_anchor)
    den = m.b * u + m.c
    if den == 0.0:
        raise PoleError(f"osculating curve pole at x={x}")
    return (u + m.a) / den


def _report(root: float, trace: list[IterationRecord], converged: bool,
            reason: StopReason, evaluations: int) -> SolveReport:
    return SolveReport(root, len(trace), tuple(trace), converged, reason, evaluations)


def solve(problem: Problem, x0: float,
          opts: Optional[SolveOptions] = None) -> SolveReport:
    """Iterate the selected method from x0 until a stopping test fires.

    Counting rule: ``iterations`` (= len(trace)) is the number of applied
    steps larger than the step tolerance.  When a proposed step falls
    within tolerance it is applied to refine the root but not counted, so
    an exact method shows 1 iteration, not 2.

    An undefined SNM step (hyperbolic branch out of range) is replaced by
    one Halley step and flagged in the trace.  A step leaving the domain
    is clamped to the midpoint between the current iterate and the
    violated endpoint; a step to NaN, or past an infinite endpoint, ends
    the solve with ``DOMAIN_EXIT``.
    ``evaluations`` counts every ``problem.evaluate`` call, so a converged
    solve reports at least ``iterations + 1``.
    """
    if opts is None:
        opts = _DEFAULT_OPTIONS
    dom = problem.domain()
    if not dom.contains(x0):
        raise ValueError(f"x0 = {x0} outside problem domain")

    # Look the step functions up at call time, not import time, so that a
    # rebound module attribute (a tracer's wrapper, say) is the one used.
    halley = halley_step
    if opts.method is Method.NEWTON:
        step_fn = newton_step
    elif opts.method is Method.HALLEY:
        step_fn = halley
    else:
        step_fn = snm_step
    evaluate = problem.evaluate
    contains = dom.contains
    abs_tol = opts.abs_tol
    max_iter = opts.max_iter
    residual_tol = problem.residual_tol
    x = x0
    trace: list[IterationRecord] = []
    evaluations = 0

    while True:
        evaluations += 1
        try:
            e = evaluate(x)
        except DerivativeVanishedError:
            return _report(x, trace, False, StopReason.DERIVATIVE_VANISHED, evaluations)

        if abs(e.f) <= residual_tol:
            return _report(x, trace, True, StopReason.RESIDUAL_TOL, evaluations)

        fallback = False
        try:
            try:
                raw = step_fn(e)
            except StepUndefinedError:
                raw = halley(e)
                fallback = True
        except DegenerateStepError:
            return _report(x, trace, False, StopReason.DERIVATIVE_VANISHED, evaluations)

        step = raw - x
        x_next = x + step

        if not (math.isfinite(x_next) and contains(x_next)):
            endpoint = dom.hi if x_next > x else dom.lo
            if math.isnan(x_next) or not math.isfinite(endpoint):
                return _report(x, trace, False, StopReason.DOMAIN_EXIT, evaluations)
            x_next = 0.5 * (x + endpoint)
            step = x_next - x
            x_next = x + step
            fallback = True

        if abs(step) <= abs_tol + STEP_REL_TOL * abs(x):
            return _report(x_next, trace, True, StopReason.STEP_TOL, evaluations)

        trace.append(_tuple_new(IterationRecord, (len(trace) + 1, x, e.f, e.h,
                                                  e.omega, step, fallback)))
        x = x_next
        if len(trace) >= max_iter:
            return _report(x, trace, False, StopReason.MAX_ITER, evaluations)
