"""Shared test helpers: the constant-Schwarzian curve family as an oracle.

Members y(x) = (gtan(lam, x) + A) / (B gtan(lam, x) + C) have Schwarzian
derivative 2 lam everywhere, a closed-form root, and closed-form
derivatives, so they provide independent expected values for the step
formulas and the osculating-curve construction.

``step_only`` turns a problem's residual stop off, for tests whose
iteration counts and traces describe the step test alone.  (A beta
residual within its kernel's noise is 0 and still stops the solve.)

``beta_bisection_root`` is an oracle for beta quantiles that shares only
the kernel with the solver: plain bisection in the logit variable.
``gamma_bisection_root`` is its gamma twin, in the log variable.
``elliptic_bisection_root`` bisects the complementary amplitude of the
elliptic inversion, whose residual does not cancel as p -> 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import pytest

from snm.core import Problem, ProblemEvaluation, _sigmoid, gtan
from snm.special import (_beta_exponent, _reg_beta, carlson_rd, carlson_rf, ellip_e_complete,
                         ln_beta, reg_gamma_p, reg_gamma_q)


@dataclass(frozen=True)
class FamilyMember:
    lam: float
    a: float
    b: float
    c: float
    root: float
    x0: float


def step_only(problem: Problem) -> Problem:
    """The problem with residual_tol 0: solve stops on the step test only."""
    problem.residual_tol = 0.0
    return problem


def beta_bisection_root(a: float, b: float, p: float, q: float) -> float:
    """The x of I_x(a, b) = p by bisection in z = logit x on [-700, 700].

    The residual is the inverted tail's, I - p for p <= 1/2 and q - J
    otherwise, from the kernel's pair at (sigma(z), sigma(-z)); bisection
    runs until the midpoint is an end, so z is resolved to one ulp.
    """
    ln_b = ln_beta(a, b)

    def residual(z: float) -> float:
        x, y = _sigmoid(z), _sigmoid(-z)
        i, j = _reg_beta(x, y, a, b, math.exp(_beta_exponent(a, b, x, y, ln_b)))
        return i - p if p <= 0.5 else q - j

    lo, hi = -700.0, 700.0
    assert residual(lo) < 0.0 < residual(hi), (a, b, p, q)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return _sigmoid(mid)
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def gamma_bisection_root(a: float, p: float, q: float) -> float:
    """The x of P(a, x) = p by bisection in z = log x on [-745, ln(4a + 1000)].

    The residual is the inverted tail's, P - p for p <= 1/2 and q - Q
    otherwise, from the public kernels; bisection runs until the midpoint
    is an end, so z is resolved to one ulp.
    """
    def residual(z: float) -> float:
        x = math.exp(z)
        return reg_gamma_p(a, x) - p if p <= 0.5 else q - reg_gamma_q(a, x)

    lo, hi = -745.0, math.log(4.0 * a + 1000.0)
    assert residual(lo) < 0.0 < residual(hi), (a, p, q)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return math.exp(mid)
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def elliptic_bisection_root(m: float, p: float) -> float:
    """The amplitude x of E(sin x, m) = p E(1, m), for 0 < m < 1 and p > 1/2.

    Bisection in psi = pi/2 - x of C(psi) - (1 - p) E(1, m), with
    C(psi) = int_0^psi sqrt(k'^2 + m^2 sin^2 u) du = E(1, m) - E(sin x, m):
    in Carlson's form, with c = cos psi, s = sin psi and w = k'^2 + m^2 s^2,
    C = k'^2 (s R_F(k'^2 c^2, w, k'^2) + (m^2/3) s^3 R_D(k'^2 c^2, w, k'^2)).
    Neither side cancels near the root, so the root is resolved to its
    rounding in x even where k' and 1 - p are tiny, unlike a bisection of
    E(sin x, m) - p E(1, m), which cancels two values near 1 there.
    """
    g2 = (1.0 - m) * (1.0 + m)
    target = (1.0 - p) * ellip_e_complete(m)

    def residual(psi: float) -> float:
        s, c = math.sin(psi), math.cos(psi)
        w = g2 + m * m * s * s
        return g2 * (s * carlson_rf(g2 * c * c, w, g2) + m * m / 3.0 * s ** 3
                     * carlson_rd(g2 * c * c, w, g2)) - target

    lo, hi = 0.0, math.pi / 2
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return math.pi / 2 - mid
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def family_root(lam: float, a: float) -> float:
    """Closed-form root: gtan(lam, x) = -a, inverted with math functions."""
    if lam > 0.0:
        s = math.sqrt(lam)
        return math.atan(-a * s) / s
    if lam == 0.0:
        return -a
    s = math.sqrt(-lam)
    return math.atanh(-a * s) / s


def family_derivatives(lam: float, a: float, b: float, c: float,
                       x: float) -> tuple[float, float, float, float]:
    """(y, y', y'', y''') of the family member at x, by direct calculus."""
    t = gtan(lam, x)
    tp = 1.0 + lam * t * t
    tpp = 2.0 * lam * t * tp
    tppp = 2.0 * lam * (tp * tp + 2.0 * lam * t * t * tp)
    w = b * t + c
    s = c - a * b
    y = (t + a) / w
    y1 = s * tp / (w * w)
    y2 = s * (tpp * w - 2.0 * b * tp * tp) / (w ** 3)
    y3 = s * (tppp * w * w - 6.0 * b * tp * tpp * w + 6.0 * b * b * tp ** 3) / (w ** 4)
    return y, y1, y2, y3


def family_evaluation(m: FamilyMember, x: float) -> ProblemEvaluation:
    y, y1, y2, y3 = family_derivatives(m.lam, m.a, m.b, m.c, x)
    return ProblemEvaluation.from_derivatives(x, y, y1, y2, y3)


def sample_family(rng: random.Random, max_tries: int = 200) -> FamilyMember:
    """Random valid member plus a start x0 in the root's branch."""
    for _ in range(max_tries):
        lam = rng.uniform(-4.0, 4.0)
        if abs(lam) < 1e-3:
            lam = 0.0
        b = rng.uniform(-2.0, 2.0)
        c = rng.uniform(-2.0, 2.0)
        if lam > 0.0:
            # Keep the start within the root's branch: the members are
            # pi/sqrt(lam)-periodic, so exactness means "lands on the
            # branch's root", requiring |x0 - root| sqrt(lam) < pi/2.
            s = math.sqrt(lam)
            theta_root = rng.uniform(-0.85, 0.85) * (math.pi / 2)
            a = -math.tan(theta_root) / s
            root = theta_root / s
            hi = 0.93 * (math.pi / 2)
            theta0 = min(hi, max(-hi, theta_root + rng.uniform(-hi, hi)))
            x0 = theta0 / s
        else:
            bound = 0.9 / math.sqrt(-lam) if lam < 0.0 else 1.5
            a = rng.uniform(-bound, bound)
            root = family_root(lam, a)
            x0 = root + rng.uniform(-0.4, 0.4)
        if abs(c - a * b) < 0.05 or abs(x0 - root) < 1e-3:
            continue
        # No pole of the member between x0 and the root, and a safely
        # nonzero denominator at x0.
        w_x0 = b * gtan(lam, x0) + c
        if abs(w_x0) < 0.02 or (w_x0 > 0) != (c - a * b > 0):
            continue
        y, y1, y2, _ = family_derivatives(lam, a, b, c, x0)
        if abs(y1 - 0.5 * (y2 / y1) * y) < 1e-6:
            continue
        return FamilyMember(lam=lam, a=a, b=b, c=c, root=root, x0=x0)
    raise RuntimeError("could not sample a valid family member")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
