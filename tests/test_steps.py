"""Newton/Halley/SNM step formulas: hand values, exactness, ordering."""

import math

import pytest

from snm.core import (
    DegenerateStepError,
    ProblemEvaluation,
    SnmError,
    halley_step,
    newton_step,
    snm_step,
    tan_problem,
)
from snm.gamma import GammaDirectProblem, GammaQuantileQuery

from conftest import family_evaluation, sample_family


def _eval_square_minus_one_at_two() -> ProblemEvaluation:
    # f = x^2 - 1 at x = 2: f=3, f'=4, f''=2, f'''=0.
    return ProblemEvaluation.from_derivatives(2.0, 3.0, 4.0, 2.0, 0.0)


def test_newton_step_hand_value():
    assert newton_step(_eval_square_minus_one_at_two()) == 1.25


def test_newton_step_fixed_at_root():
    e = ProblemEvaluation.from_derivatives(1.0, 0.0, 2.0, 2.0, 0.0)
    assert newton_step(e) == 1.0


def test_newton_step_exact_for_linear():
    e = ProblemEvaluation.from_derivatives(5.0, 5.0, 1.0, 0.0, 0.0)
    assert newton_step(e) == 0.0


def test_halley_step_hand_value():
    # x - f/(f' - f'' f/(2 f')) = 2 - 3/3.25
    assert halley_step(_eval_square_minus_one_at_two()) == pytest.approx(
        1.0769230769230769, abs=1e-16)


def test_halley_step_fixed_at_root():
    e = ProblemEvaluation.from_derivatives(1.0, 0.0, 2.0, 2.0, 0.0)
    assert halley_step(e) == 1.0


def test_halley_exact_on_moebius(rng):
    # One Halley step lands on the root -a of (x+a)/(bx+c).
    from conftest import FamilyMember
    hits = 0
    for _ in range(300):
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-2.0, 2.0)
        c = rng.uniform(-2.0, 2.0)
        if abs(c - a * b) < 0.1:
            continue
        x0 = -a + rng.uniform(-0.5, 0.5)
        if abs(x0 + a) < 1e-3 or abs(b * x0 + c) < 0.05:
            continue
        if (b * x0 + c > 0) != (c - a * b > 0):
            continue
        m = FamilyMember(lam=0.0, a=a, b=b, c=c, root=-a, x0=x0)
        e = family_evaluation(m, m.x0)
        if not math.isfinite(e.h):
            continue
        assert abs(halley_step(e) - (-a)) <= 1e-12 * max(1.0, abs(a))
        hits += 1
    assert hits > 100


def test_halley_degenerate_denominator():
    e = ProblemEvaluation.build(0.0, f=1.0, fp=1.0, big_b=-2.0, omega=0.0)
    with pytest.raises(DegenerateStepError):
        halley_step(e)
    with pytest.raises(DegenerateStepError):
        snm_step(e)


def test_snm_exact_on_tan():
    problem = tan_problem()
    for x0 in (-1.4, -0.5, 0.3, 1.0, 1.5):
        assert abs(snm_step(problem.evaluate(x0))) <= 1e-12


def test_snm_exact_on_shifted_tanh():
    # f = tanh(x - 0.3): B = 2 tanh(x - 0.3), constant Omega = -1, root 0.3.
    def eval_at(x):
        t = math.tanh(x - 0.3)
        return ProblemEvaluation.build(x, f=t, fp=1.0 - t * t, big_b=2.0 * t,
                                       omega=-1.0)

    assert abs(snm_step(eval_at(1.0)) - 0.3) <= 1e-12
    assert abs(snm_step(eval_at(-0.7)) - 0.3) <= 1e-12


def test_snm_reduces_to_halley_at_zero_omega(rng):
    for _ in range(200):
        x = rng.uniform(-2, 2)
        f = rng.uniform(-1, 1)
        fp = rng.uniform(0.2, 3.0)
        bb = rng.uniform(-2, 2)
        e = ProblemEvaluation.build(x, f=f, fp=fp, big_b=bb, omega=0.0)
        if not math.isfinite(e.h):
            continue
        assert snm_step(e) == halley_step(e)  # bit-for-bit


def test_step_comparison_sign_and_magnitude(rng):
    # Theorem: both steps share a sign; SNM's is the larger in magnitude
    # where Omega < 0 and the smaller where Omega > 0.
    checked_neg = checked_pos = 0
    for _ in range(500):
        m = sample_family(rng)
        e = family_evaluation(m, m.x0)
        try:
            s_snm = snm_step(e) - m.x0
            s_hal = halley_step(e) - m.x0
        except SnmError:
            continue
        if s_hal == 0.0:
            continue
        assert s_snm * s_hal >= 0.0
        if e.omega < 0:
            assert abs(s_snm) >= abs(s_hal) * (1 - 1e-12)
            checked_neg += 1
        elif e.omega > 0:
            assert abs(s_snm) <= abs(s_hal) * (1 + 1e-12)
            checked_pos += 1
    assert checked_neg > 50 and checked_pos > 50


def test_fourth_order_error_constant():
    # One step from alpha + 1e-2 shrinks the error to (Omega'(alpha)/12) eps^4.
    from snm.special import bisect_root, reg_gamma_p
    from snm.gamma import gamma_omega

    a, p = 5.0, 0.5
    alpha = bisect_root(lambda x: reg_gamma_p(a, x) - p, 1.0, 20.0)
    problem = GammaDirectProblem(GammaQuantileQuery(a, p))
    h = 1e-5
    omega_prime = (gamma_omega(a, alpha + h) - gamma_omega(a, alpha - h)) / (2 * h)
    for eps1 in (1e-2, -1e-2):
        x1 = alpha + eps1
        eps2 = snm_step(problem.evaluate(x1)) - alpha
        predicted = omega_prime / 12.0 * eps1 ** 4
        assert eps2 == pytest.approx(predicted, rel=0.25)
