"""Shared test helpers: the constant-Schwarzian curve family as an oracle.

Members y(x) = (gtan(lam, x) + A) / (B gtan(lam, x) + C) have Schwarzian
derivative 2 lam everywhere, a closed-form root, and closed-form
derivatives, so they provide independent expected values for the step
formulas and the osculating-curve construction.

``step_only`` turns a problem's residual stop off, for tests whose
iteration counts and traces describe the step test alone.  (A beta
residual within its kernel's noise is 0 and still stops the solve.)

``log_uniform`` draws the seeded fuzzes' log-uniform values, and
``cube_problem`` is x^3 - 2, a problem whose Schwarzian is not constant.

``DEEP_TAIL_Z`` = -667 (x = e^z about 1e-290) bounds the deep-tail input
region the tests pin: the gamma log and beta logit problems once
evaluated only their residual's leading power term beyond it, and now run
their kernels there as everywhere.

``gamma_bisection_root``, ``beta_bisection_root`` and
``elliptic_bisection_root`` are the root oracles of ``snm compare``,
imported here for the tests.  Each shares only the kernels with its
solver: ``snm.special.bisect_root`` of the smaller tail's residual down to
adjacent doubles, in x from a bracket a fixed ratio wide (gamma), in logit
x (beta), and in x from a bracket a fixed ratio wide, or for p > 1/2 in
the complementary amplitude pi/2 - x, whose residual does not cancel as
p -> 1 (elliptic).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import pytest

from snm.cli import beta_bisection_root, elliptic_bisection_root, gamma_bisection_root  # noqa: F401
from snm.core import FunctionProblem, Interval, Problem, ProblemEvaluation, gtan

DEEP_TAIL_Z = -667.0


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


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def cube_problem() -> FunctionProblem:
    """f(x) = x^3 - 2 on (0, inf): non-constant Schwarzian, root 2^(1/3)."""
    return FunctionProblem(lambda x: x ** 3 - 2.0, lambda x: 3.0 * x * x,
                           lambda x: 6.0 * x, lambda x: 6.0, Interval(0.0, math.inf))


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
