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
:class:`Problem` contract, which also sets the residual stop and may give
Omega and a length scale without an evaluation; ``solve`` runs the
iteration with step, residual, noise and predicted-error stops, an
automatic Halley fallback where the hyperbolic branch is undefined, and a
domain safeguard.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from collections import namedtuple
from enum import Enum
from typing import Callable, NamedTuple, Optional

MACHINE_EPSILON = sys.float_info.epsilon
# The smallest normal double; below it a double keeps fewer significant bits.
MIN_NORMAL = sys.float_info.min

# Below this z the gamma log residual is its leading power term; the beta
# logit one runs its kernel at every z, with Stirling's prefactor for
# |z| <= max(-DEEP_TAIL_Z, ln((a+b)/eps)).
DEEP_TAIL_Z = -667.0

# |lam * u^2| below this uses the odd power series in gtan/gatan; keeps
# relative truncation error under 1e-18, below double rounding.
SERIES_THRESHOLD = 1e-6

# The gamma and beta problems' residual stop, times the inverted tail
# min(p, q) (the elliptic problem scales it by its target): tens of ulps
# of that tail, under which the kernels cannot distinguish the residual
# from rounding noise (long continued-fraction chains carry a few 1e-15
# of it), while staying an order of magnitude below the 1e-13 round-trip
# contracts.
RESIDUAL_NOISE_FLOOR = 1e-14

# The step stop |step| <= STEP_REL_TOL * |x|, relative as the solvers'
# contract is; a root at exactly 0 ends on the residual stop instead.
STEP_REL_TOL = 4 * MACHINE_EPSILON

# The noise stop: a step that reverses the last one without being shorter
# ends the solve when it is at most this many step tolerances long.  Far
# from a root (a Halley bounce) steps are longer.
NOISE_STEPS = 16.0

HALF_PI = math.pi / 2

# Builds a NamedTuple from all of its fields without the Python frame of
# its generated __new__; the solve loop makes one evaluation per
# iteration and one record per step.
_tuple_new = tuple.__new__


class _Checked:
    """Mixin for a namedtuple whose ``__new__`` checks its fields.

    A checked record is ``class R(_Checked, namedtuple("R", "a b"))``
    with its own ``__new__``; the namedtuple base only carries the fields.

    ``_make`` (and so ``_replace``), pickle and copy all build through
    ``__new__``, so none of them can make an unchecked record.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


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


class OmegaNotFiniteError(SnmError, ValueError):
    """Omega is not finite at an evaluation point, so no step is defined."""


def check_shape(where: str, a: float) -> None:
    """The one shape rule: refuse a shape that is not finite and > 0, NaN included."""
    if not 0.0 < a < math.inf:
        raise ValueError(f"{where} requires a finite shape > 0, got {a}")


def check_tails(p: float, q: Optional[float] = None) -> float:
    """The one tail rule: q (1 - p unless given) and p in (0, 1], p + q = 1 to 1e-15.

    A tail given alone may be 1: p = 1e-20 has q = 1.0, and q = 1e-300 is given
    with p = 1.0.  The p + q check refuses p = q = 1.
    """
    if q is None:
        q = 1.0 - p
    if not (0.0 < p <= 1.0 and 0.0 < q <= 1.0):
        raise ValueError(f"p, q must lie in (0, 1], got p={p}, q={q}")
    if abs(p + q - 1.0) > 1e-15:
        raise ValueError(f"p + q must equal 1, got {p + q}")
    return q


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
    NOISE_FLOOR = "NoiseFloor"
    PREDICTED = "Predicted"
    MAX_ITER = "MaxIter"
    DERIVATIVE_VANISHED = "DerivativeVanished"
    DOMAIN_EXIT = "DomainExit"


# The members, bound once: on CPython 3.11 reading ``StopReason.PREDICTED``
# is a descriptor call (~0.15 us) and a module constant a dict lookup, and
# a quantile query's solve, report and plan read six or seven of them.
_HALLEY, _NEWTON = Method.HALLEY, Method.NEWTON
_DIRECT, _LOG, _LOGIT = Variable.DIRECT, Variable.LOG, Variable.LOGIT
_STEP_TOL, _RESIDUAL_TOL, _NOISE_FLOOR, _PREDICTED = (
    StopReason.STEP_TOL, StopReason.RESIDUAL_TOL, StopReason.NOISE_FLOOR, StopReason.PREDICTED)
_MAX_ITER, _DERIVATIVE_VANISHED, _DOMAIN_EXIT = (
    StopReason.MAX_ITER, StopReason.DERIVATIVE_VANISHED, StopReason.DOMAIN_EXIT)


class Interval(_Checked, namedtuple("Interval", "lo hi lo_open hi_open")):
    """Solver domain with open/closed endpoint semantics.

    Endpoints may be infinite; ``lo < hi`` is required.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, lo_open: bool = True,
                hi_open: bool = True) -> Interval:
        if not lo < hi:
            raise ValueError(f"empty interval: lo={lo} >= hi={hi}")
        return _tuple_new(cls, (lo, hi, lo_open, hi_open))

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


_REAL_LINE = Interval(-math.inf, math.inf)  # the log and logit variables' domain


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
            raise OmegaNotFiniteError(f"omega not finite at x={x}: {omega}")
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

    ``omega``, where a problem defines it, is Omega(x) in closed form,
    bit-equal to ``evaluate(x).omega`` and without the kernel evaluation;
    it never raises at a point of the domain, but returns an infinity or
    NaN where Omega is not finite there.  With it an SNM solve may stop on
    its predicted error, which is measured against ``scale(x)``, the
    problem's length scale at x.
    """

    residual_tol: float = 0.0
    omega: Optional[Callable[[float], float]] = None

    @abstractmethod
    def evaluate(self, x: float) -> ProblemEvaluation:
        ...

    @abstractmethod
    def domain(self) -> Interval:
        ...

    def scale(self, x: float) -> float:
        """The length against which a predicted error is relative: |x|."""
        return abs(x)


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


class SolveOptions(_Checked, namedtuple("SolveOptions", "max_iter method")):
    """Driver configuration.

    The stops are the solver's and the problem's (see ``solve``).
    ``method`` may also be given by name ("snm", "halley" or "newton");
    an unknown name raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, max_iter: int = 30, method: Method = Method.SNM) -> SolveOptions:
        method = Method(method)
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        return _tuple_new(cls, (max_iter, method))


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
    """

    problem: Problem
    x0: float
    variable: Variable
    start: str

    def to_x(self, v: float) -> float:
        """Map a solver-variable value back to x."""
        if self.variable is _DIRECT:
            return v
        if self.variable is _LOG:
            return math.exp(v)
        return _sigmoid(v)

    def from_x(self, x: float) -> float:
        """Map an x to the solver variable."""
        if self.variable is _LOG:
            return math.log(x)
        if self.variable is _LOGIT:
            return _logit(x)
        return x


class SolveReport(NamedTuple):
    """Result of a solve call; converged iff reason is a tolerance stop.

    ``evaluations`` counts the ``Problem.evaluate`` calls made.  The
    ``invert_*`` solvers copy ``variable`` and ``start`` from their
    ``Plan``; ``root_underflow`` marks a root x below the smallest normal
    double (0 included), which has lost relative precision.
    ``predicted_error`` is Traub's model of the SNM truncation error of a
    ``PREDICTED`` stop, relative to the problem's scale (0.0 after any
    other stop); blind to the kernel's rounding, it certifies nothing.
    """

    root: float
    iterations: int
    trace: tuple[IterationRecord, ...]
    converged: bool
    reason: StopReason
    evaluations: int = 0
    variable: Variable = Variable.DIRECT
    start: str = ""
    root_underflow: bool = False
    predicted_error: float = 0.0

    def with_plan(self, plan: Plan) -> "SolveReport":
        """A copy with the root mapped to x and the plan's fields, sharing the trace."""
        return _planned_report(plan, self.root, self.iterations, self.trace, self.converged,
                               self.reason, self.evaluations, self.predicted_error)


def _planned_report(plan: Plan, v: float, iterations: int, trace: tuple,
                    converged: bool, reason: StopReason, evaluations: int,
                    predicted_error: float) -> SolveReport:
    """The report of a solve from ``plan`` ending at v in the solver variable:
    the root mapped to x, the plan's fields, and the one ``root_underflow``
    rule, x < ``MIN_NORMAL``."""
    x = plan.to_x(v)
    return _tuple_new(SolveReport, (x, iterations, trace, converged, reason, evaluations,
                                    plan.variable, plan.start, x < MIN_NORMAL,
                                    predicted_error))


# solve's defaults as scalars: on CPython 3.11 a namedtuple field read is
# an unspecialised descriptor call (~15 ns), and most solves pass no options.
_DEFAULT_MAX_ITER, _DEFAULT_METHOD = SolveOptions()


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


class OsculatingModel(NamedTuple):
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
            reason: StopReason, evaluations: int, plan: Optional[Plan],
            predicted_error: float = 0.0) -> SolveReport:
    if plan is None:
        return _tuple_new(SolveReport, (root, len(trace), tuple(trace), converged, reason,
                                        evaluations, _DIRECT, "", False, predicted_error))
    return _planned_report(plan, root, len(trace), tuple(trace), converged, reason,
                           evaluations, predicted_error)


def solve(problem: Problem, x0: float, opts: Optional[SolveOptions] = None,
          plan: Optional[Plan] = None) -> SolveReport:
    """Iterate the selected method from x0 until a stopping test fires.

    With a ``plan`` (the one that gave ``problem`` and x0), the report is
    ``with_plan(plan)`` of the plain one, built once: the root mapped to x
    and the plan's ``variable``, ``start`` and ``root_underflow``.

    Counting rule: ``iterations`` (= len(trace)) is the number of steps
    recorded in the trace.  A final step that a stop accepts without
    evaluating its end point (a step within tolerance, or a predicted one)
    is applied to refine the root but not recorded, so a converged solve
    reports ``evaluations == iterations + 1``.

    The predicted stop (SNM only, and only where the problem has an
    ``omega`` hook): after a step s from x that was neither a fallback nor
    clamped, the paper's error constant Omega'/12 for the fourth-order
    step, with Omega' from the two iterates, predicts the next step's
    size K s^4, K = |Omega(x + s) - Omega(x)| / (12 |s|) (Traub's error
    model for a method of order 4).  If K s^4 <= STEP_REL_TOL *
    problem.scale(x + s), the solve applies s and stops converged with
    ``PREDICTED`` and ``predicted_error`` = K s^4 / scale, without
    evaluating x + s.  Where Omega is constant K is 0, so an exact SNM
    solve reports 0 iterations and 1 evaluation.  An infinite or NaN
    Omega(x + s) never stops the solve.

    The step stop is relative, |step| <= STEP_REL_TOL * |x|, so no step
    long against a tiny root is accepted unevaluated.  Besides it and the
    residual stop |f| <= ``problem.residual_tol``, a noise stop ends the
    solve, converged with ``NOISE_FLOOR``, when a step reverses the
    previous one, is no shorter than it, and is at most ``NOISE_STEPS``
    step tolerances long: the iterates then bounce on the residual's
    rounding noise, as Halley and Newton quantile solves can near their
    root (SNM ones reach another stop first).  The root is the one of the
    two iterates with the smaller |f|.

    An undefined SNM step (hyperbolic branch out of range) is replaced by
    one Halley step and flagged in the trace.  A step leaving the domain
    is clamped to the midpoint between the current iterate and the
    violated endpoint; a step to NaN, or past an infinite endpoint, ends
    the solve with ``DOMAIN_EXIT``.
    ``evaluations`` counts every ``problem.evaluate`` call.
    """
    if opts is None:
        max_iter, method = _DEFAULT_MAX_ITER, _DEFAULT_METHOD
    else:
        max_iter, method = opts.max_iter, opts.method
    dom = problem.domain()
    # lo < x < hi holds inside any interval and fails for NaN and the
    # infinities; only at an endpoint is ``contains`` asked.
    lo, hi = dom.lo, dom.hi
    if not (lo < x0 < hi or dom.contains(x0)):
        raise ValueError(f"x0 = {x0} outside problem domain")

    # Look the step functions up at call time, not import time, so that a
    # rebound module attribute (a tracer's wrapper, say) is the one used.
    halley = halley_step
    predict = None
    if method is _NEWTON:
        step_fn = newton_step
    elif method is _HALLEY:
        step_fn = halley
    else:
        step_fn = snm_step
        predict = problem.omega
    evaluate = problem.evaluate
    contains = dom.contains
    residual_tol = problem.residual_tol
    x = x0
    trace: list[IterationRecord] = []
    evaluations = 0
    last_step = 0.0

    while True:
        evaluations += 1
        try:
            e = evaluate(x)
        except DerivativeVanishedError:
            return _report(x, trace, False, _DERIVATIVE_VANISHED, evaluations, plan)

        if abs(e.f) <= residual_tol:
            return _report(x, trace, True, _RESIDUAL_TOL, evaluations, plan)

        fallback = False
        try:
            try:
                raw = step_fn(e)
            except StepUndefinedError:
                raw = halley(e)
                fallback = True
        except DegenerateStepError:
            return _report(x, trace, False, _DERIVATIVE_VANISHED, evaluations, plan)

        step = raw - x
        x_next = x + step

        if not (lo < x_next < hi or (math.isfinite(x_next) and contains(x_next))):
            endpoint = hi if x_next > x else lo
            if math.isnan(x_next) or not math.isfinite(endpoint):
                return _report(x, trace, False, _DOMAIN_EXIT, evaluations, plan)
            x_next = 0.5 * (x + endpoint)
            step = x_next - x
            x_next = x + step
            fallback = True

        size = abs(step)
        step_tol = STEP_REL_TOL * abs(x)
        if size <= step_tol:
            return _report(x_next, trace, True, _STEP_TOL, evaluations, plan)
        if step * last_step < 0.0 and abs(last_step) <= size <= NOISE_STEPS * step_tol:
            # Back where the last step came from, no closer: the residual's
            # rounding noise sets the steps.  Keep the better iterate.
            last = trace[-1]
            root = x if abs(e.f) <= abs(last.f) else last.x
            return _report(root, trace, True, _NOISE_FLOOR, evaluations, plan)
        if predict is not None and not fallback:
            # K s^4 = |Omega(x + s) - Omega(x)| |s|^3 / 12; products, as
            # |s|**3 raises OverflowError where the product is inf.
            bound = abs(predict(x_next) - e.omega) * size * size * size / 12.0
            scale = problem.scale(x_next)
            if bound <= STEP_REL_TOL * scale:
                return _report(x_next, trace, True, _PREDICTED, evaluations, plan,
                               bound / scale if bound else 0.0)

        trace.append(_tuple_new(IterationRecord, (len(trace) + 1, x, e.f, e.h,
                                                  e.omega, step, fallback)))
        last_step = step
        x = x_next
        if len(trace) >= max_iter:
            return _report(x, trace, False, _MAX_ITER, evaluations, plan)
