"""Inversion of the incomplete elliptic integral of the second kind.

Solves E(sin x, m) = p E(1, m) for the amplitude x in [0, pi/2], where
E(sin x, m) = int_0^x sqrt(1 - m^2 sin^2 t) dt and m is the modulus.

Unlike the gamma/beta problems, Omega changes sign here: negative below
a critical abscissa x_c(m) and positive above it, so a single iteration
crosses between the hyperbolic and circular branches of the generalized
arctangent.  For m <= 2/sqrt(7), Omega is increasing on (0, pi/2); for
larger m it dips to an interior minimum at x_e.  The start rule
(``choose_start``) does not read that bound.  For m > 0.95 and p > 1/2 it
solves a closed-form model of the complementary amplitude pi/2 - x (the
"complementary" start, ``_start_complementary``), whose equation does not
cancel as p -> 1; beyond that model's range, and for p <= 1/2, it takes
the arcsin guess arcsin(p E(1, m)).  For m <= 0.95 it takes the
one-SNM-step value from x = 0 (the "low" start) when p < 0.8 and that
lies below the one-step value from x = pi/2 (the "high" start), or the
high start is not positive; else the high start.  On the ``bulk`` bench
sets of seeds 1-3 (1,500 queries) this rule takes 1.248 evaluations per
query, against 1.665 for the high start wherever m <= 0.95 (with the
predicted stop of ``core.solve``); on the ``tails`` sets of seeds 1, 2, 3
and 7, 1.006-1.016, where the arcsin guess for every m > 0.95 took
1.210-1.264.
The residual is strictly increasing on [0, pi/2], so its root is unique
and any converged solve has found it: each query runs one solve.  The
report's ``start`` names the start used ("low", "high", "arcsin-guess" or
"complementary"), or "closed-form" for m = 0 and m = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    RESIDUAL_NOISE_FLOOR,
    Interval,
    Plan,
    Problem,
    ProblemEvaluation,
    SolveOptions,
    SolveReport,
    _DIRECT,
    _RESIDUAL_TOL,
    _tuple_new,
    solve,
)
from .special import _ellip_e, ellip_e_complete

# Below this modulus, Omega has no interior extremum on (0, pi/2).
MONOTONE_OMEGA_MODULUS = 2.0 / math.sqrt(7.0)

_AMPLITUDE_RANGE = Interval(0.0, math.pi / 2, lo_open=False, hi_open=False)


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
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"ellip_omega requires m in [0, 1], got {m}")
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

    For m, p in (0, 1) the arctanh argument is below 0.75 (its maximum,
    0.7459, is near m = 0.909), so the step is finite; for p near 1 it
    may pass pi/2.

    Raises:
        ValueError: m or p outside (0, 1).
    """
    return _start_low(m, p, _checked_complete(EllipticQuery(m, p)))


def ellip_start_high(m: float, p: float) -> float:
    """One SNM step from x = pi/2, for m, p in (0, 1); lands inside (0, pi/2)."""
    return _start_high(m, p, _checked_complete(EllipticQuery(m, p)))


def _checked_complete(query: EllipticQuery) -> float:
    """E(1, m) for the SNM problem and starts, which require 0 < m < 1."""
    if not 0.0 < query.m < 1.0:
        raise ValueError("EllipticProblem requires 0 < m < 1; the m = 0 "
                         "and m = 1 endpoints invert in closed form")
    return ellip_e_complete(query.m)


def _start_low(m: float, p: float, complete: float) -> float:
    """ellip_start_low given complete = E(1, m); m, p unchecked.  Its arctanh
    argument is below 0.833 for m, p < 1, as E(1, m) <= (pi/2)(1 - m^2/4)."""
    return math.sqrt(2.0) / m * math.atanh(m * p * complete / math.sqrt(2.0))


def _start_high(m: float, p: float, complete: float) -> float:
    """ellip_start_high given complete = E(1, m); m, p unchecked."""
    w = 1.0 - m * m
    t = m * complete * (1.0 - p) / (math.sqrt(2.0) * w)
    return math.pi / 2 - math.sqrt(2.0 * w) / m * math.atan(t)


# The complementary start's model of 1/sqrt(1 - v^2) drops the terms from
# 5 v^6/16 on.  Its root is used up to s0 = 0.4 (below ~0.44 its starts
# end on the predicted stop after one evaluation, above it they take two).
_COMPLEMENT_S_MAX = 0.4


def _start_complementary(m: float, p: float, complete: float) -> Optional[float]:
    """A start for m near 1 and p > 1/2 from the complementary amplitude, or None.

    With psi = pi/2 - x the equation is C(psi) = int_0^psi sqrt(k'^2 +
    m^2 sin^2 u) du = (1 - p) E(1, m), which does not cancel as p -> 1.
    In s = sin psi, b = k'/m and T = (1 - p) E(1, m)/m, C/m is
    int_0^s sqrt(v^2 + b^2) / sqrt(1 - v^2) dv.  With 1/sqrt(1 - v^2) taken
    to its v^4 term, each I_n = int_0^s v^(2n) sqrt(v^2 + b^2) dv has a
    closed form from its reduction formula,
        I_0 = (s r + b^2 asinh(s/b))/2,  r = sqrt(s^2 + b^2),
        I_1 = (s r^3 - b^2 I_0)/4,  I_2 = s^3 r^3/6 - b^2 I_1/2,
    so the model F = I_0 + I_1/2 + 3 I_2/8 = alpha I_0 + s r^3 (beta + s^2/16),
    beta = 1/8 - 3 b^2/64, alpha = 1 - b^2 beta, with F' = r (1 + s^2/2 +
    3 s^4/8).  Two Newton steps solve F = T from s0 = sqrt(2T) where T > b^2,
    else T/b: F >= I_0 >= s0^2/2 (or b s0) = T there, and F is increasing
    and convex, so the steps fall monotonically toward the model's root.
    None where s0 exceeds ``_COMPLEMENT_S_MAX``, beyond which the model is
    not used.
    """
    b2 = (1.0 - m) * (1.0 + m) / (m * m)
    b = math.sqrt(b2)
    t = (1.0 - p) * complete / m
    s = math.sqrt(2.0 * t) if t > b2 else t / b
    if not s <= _COMPLEMENT_S_MAX:
        return None
    beta = 0.125 - 0.046875 * b2
    alpha = 1.0 - b2 * beta
    for _ in range(2):
        s2 = s * s
        r2 = s2 + b2
        r = math.sqrt(r2)
        f = 0.5 * alpha * (s * r + b2 * math.asinh(s / b)) + s * r * r2 * (beta + 0.0625 * s2)
        s -= (f - t) / (r * (1.0 + s2 * (0.5 + 0.375 * s2)))
    return math.pi / 2 - math.asin(s)


class EllipticProblem(Problem):
    """f(x) = E(sin x, m) - p E(1, m) on the closed interval [0, pi/2].

    ``residual_tol`` is RESIDUAL_NOISE_FLOOR times the target p E(1, m),
    so the stop is relative to the target: an absolute one would accept
    x ~ p E(1, m) unrefined once the target itself is below the floor
    (m near 1, small p).
    """

    def __init__(self, query: EllipticQuery) -> None:
        self.query = query
        self.complete = _checked_complete(query)
        self.target = query.p * self.complete
        self.residual_tol = RESIDUAL_NOISE_FLOOR * self.target

    def evaluate(self, x: float) -> ProblemEvaluation:
        if not 0.0 <= x <= math.pi / 2:
            raise ValueError(f"EllipticProblem requires x in [0, pi/2], got {x}")
        m = self.query.m
        s = math.sin(x)
        c = math.cos(x)
        c2 = c * c
        w = 1.0 - (m * s) * (m * s)
        return ProblemEvaluation.build(x, _ellip_e(m, s, c2, w) - self.target, math.sqrt(w),
                                       m * m * s * c / w, _ellip_omega(m, c2, w))

    def omega(self, x: float) -> float:
        m, s, c = self.query.m, math.sin(x), math.cos(x)
        return _ellip_omega(m, c * c, 1.0 - (m * s) * (m * s))

    def scale(self, x: float) -> float:
        """The distance to the nearer end of [0, pi/2]."""
        return min(x, math.pi / 2 - x)

    def domain(self) -> Interval:
        return _AMPLITUDE_RANGE


def choose_start(query: EllipticQuery,
                 complete: Optional[float] = None) -> tuple[float, str]:
    """Starting value and its label per the selection heuristics.

    For m > 0.95 and p > 1/2, the complementary start
    (``_start_complementary``): two Newton steps on a closed-form model of
    the integral from x to pi/2, where s0 <= 0.4.  On the ``tails`` bench
    sets of seeds 1, 2, 3 and 7 it ends 97-99% of its solves after one
    evaluation (1.012-1.032 per query), where the arcsin guess ended
    58-65% (1.42-1.53).  Otherwise m > 0.95 uses arcsin(p E(1,m)) from
    the degenerate relation E(sin x, 1) = sin x.  For m <= 0.95 the low
    start wins when it is below the high start and p < 0.8, since Omega
    varies slowly near 0, and where the high start is not positive (for p
    < 0.8).  ``complete`` is E(1, m), computed here unless the caller has
    it.
    """
    m, p = query.m, query.p
    if complete is None:
        complete = ellip_e_complete(m)
    if m > 0.95:
        if p > 0.5 and m < 1.0:
            x0 = _start_complementary(m, p, complete)
            if x0 is not None:
                return x0, "complementary"
        arg = min(1.0, max(0.0, p * complete))
        return math.asin(arg), "arcsin-guess"
    if m == 0.0:
        raise ValueError("choose_start requires m > 0; m = 0 inverts in closed form")
    low = _start_low(m, p, complete)
    high = _start_high(m, p, complete)
    # Below m ~ 2e-8 the high start cancels to 0 or below for a small p,
    # where the low start is p E(1, m) to within rounding.
    if p < 0.8 and (low < high or not high > 0.0):
        return low, "low"
    return high, "high"


def elliptic_plan(query: EllipticQuery) -> Plan:
    """Problem (it holds E(1, m)) and heuristic start (``choose_start``)
    for 0 < m < 1; the solver variable is x itself."""
    problem = EllipticProblem(query)
    x0, label = choose_start(query, problem.complete)
    return _tuple_new(Plan, (problem, x0, _DIRECT, label))


def invert_ellip_e(query: EllipticQuery,
                   opts: Optional[SolveOptions] = None) -> SolveReport:
    """Solve E(sin x, m) = p E(1, m) for the amplitude x.

    m = 0 (f linear) and m = 1 (f = sin x - p) invert in closed form.
    Otherwise the SNM runs once from the heuristic start of
    ``elliptic_plan``; the report's ``start`` records which start was used.
    """
    m, p = query.m, query.p
    if m == 0.0 or m == 1.0:
        root = p * math.pi / 2 if m == 0.0 else math.asin(p)
        # No solve; with_plan gives the report its fields and root_underflow rule.
        closed = Plan(None, root, _DIRECT, "closed-form")
        return SolveReport(root, 0, (), True, _RESIDUAL_TOL).with_plan(closed)
    plan = elliptic_plan(query)
    return solve(plan.problem, plan.x0, opts).with_plan(plan)
