"""Beta quantile module: formulas, cubic start, logit path, round trips."""

import itertools
import math
import random

import pytest

from snm.beta import (
    BetaDirectProblem,
    BetaQuantileQuery,
    BetaVariable,
    beta_b,
    beta_omega,
    beta_omega_logit,
    beta_plan,
    beta_xm,
    beta_xm_coefficients,
    invert_beta,
    _sigmoid,
)
from snm.core import Method, RESIDUAL_NOISE_FLOOR, SolveOptions, solve
from snm.special import ln_beta, reg_beta

AB_GRID = (0.3, 0.5, 1.5, 2.0, 5.0, 30.0)
P_GRID = (0.01, 0.2, 0.5, 0.8, 0.99)


def test_query_validation():
    with pytest.raises(ValueError):
        BetaQuantileQuery(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        BetaQuantileQuery(1.0, 1.0, 1.0)
    q = BetaQuantileQuery(2.0, 3.0, 0.25)
    assert q.q == 0.75


def test_beta_b_values():
    for x in (0.1, 0.5, 0.9):
        assert beta_b(1.0, 1.0, x) == 0.0
    assert beta_b(2.0, 2.0, 0.5) == 0.0
    assert beta_b(2.0, 3.0, 0.25) == pytest.approx(-4.0 + 8.0 / 3.0, rel=1e-15)
    with pytest.raises(ValueError):
        beta_b(2.0, 2.0, 0.0)


def test_beta_omega_values():
    for x in (0.2, 0.5, 0.8):
        assert beta_omega(1.0, 1.0, x) == 0.0
    assert beta_omega(2.0, 2.0, 0.5) == pytest.approx(-4.0, abs=1e-15)


def test_beta_omega_negative_for_shapes_above_one():
    # Discriminant -2 alpha beta (alpha + beta + 2) < 0: no real roots.
    for a, b in ((3.0, 1.5), (2.0, 2.0), (10.0, 4.0)):
        for i in range(1, 60):
            x = i / 60.0
            assert beta_omega(a, b, x) < 0.0


def test_beta_omega_discriminant_positive_numerator():
    # -4 x^2 (1-x)^2 Omega > 0 on (0,1) for a, b > 1.
    for a, b in ((1.5, 7.0), (4.0, 4.0)):
        for i in range(1, 40):
            x = i / 40.0
            val = -4.0 * x * x * (1 - x) ** 2 * beta_omega(a, b, x)
            assert val > 0.0


def test_beta_xm_symmetric_is_half():
    for ab in (1.5, 2.0, 6.0, 30.0):
        assert beta_xm(ab, ab) == pytest.approx(0.5, abs=1e-14)


def test_beta_xm_coefficients_2_2():
    assert beta_xm_coefficients(2.0, 2.0) == (8.0, -12.0, 10.0, -3.0)


def test_beta_xm_is_omega_maximum():
    a, b = 5.0, 2.0
    xm = beta_xm(a, b)
    h = 1e-6
    d = (beta_omega(a, b, xm + h) - beta_omega(a, b, xm - h)) / (2 * h)
    assert abs(d) <= 1e-8 * max(1.0, abs(beta_omega(a, b, xm)))
    grid_max = max(beta_omega(a, b, i / 200.0) for i in range(1, 200))
    assert beta_omega(a, b, xm) >= grid_max - 1e-10


def test_beta_xm_cubic_residual_random():
    rng = random.Random(7)
    for _ in range(50):
        a = rng.uniform(1.0 + 1e-6, 30.0)
        b = rng.uniform(1.0 + 1e-6, 30.0)
        g, h, i, j = beta_xm_coefficients(a, b)
        x = beta_xm(a, b)
        q = ((g * x + h) * x + i) * x + j
        assert abs(q) <= 1e-12 * max(abs(g), abs(h), abs(i), abs(j))


def test_beta_xm_domain():
    with pytest.raises(ValueError):
        beta_xm(1.0, 2.0)
    with pytest.raises(ValueError):
        beta_xm(2.0, 0.5)


def test_beta_omega_logit_values():
    for z in (-5.0, 0.0, 2.0):
        assert beta_omega_logit(1.0, 1.0, z) == pytest.approx(-0.25, abs=1e-16)
    assert beta_omega_logit(2.0, 2.0, 0.0) == pytest.approx(-0.5, abs=1e-16)


def test_beta_omega_logit_maximum_at_symmetric_center():
    h = 1e-5
    d = (beta_omega_logit(2.0, 2.0, h) - beta_omega_logit(2.0, 2.0, -h)) / (2 * h)
    assert abs(d) <= 1e-8


def test_beta_omega_logit_always_negative():
    for a in (0.3, 0.9, 1.0, 2.0, 10.0):
        for b in (0.4, 1.0, 5.0):
            for i in range(41):
                z = -40.0 + 2.0 * i
                assert beta_omega_logit(a, b, z) < 0.0


def test_beta_omega_logit_limits():
    # -a^2/4 as z -> -inf and -b^2/4 as z -> +inf.
    assert beta_omega_logit(3.0, 7.0, -40.0) == pytest.approx(-9.0 / 4.0, rel=1e-12)
    assert beta_omega_logit(3.0, 7.0, 40.0) == pytest.approx(-49.0 / 4.0, rel=1e-12)


def test_invert_beta_uniform():
    report = invert_beta(BetaQuantileQuery(1.0, 1.0, 0.37))
    assert report.converged
    assert report.root == pytest.approx(0.37, abs=1e-15)


def test_invert_beta_symmetric_median():
    report = invert_beta(BetaQuantileQuery(2.0, 2.0, 0.5))
    assert report.converged
    assert report.root == pytest.approx(0.5, abs=1e-13)


def test_invert_beta_known_value():
    report = invert_beta(BetaQuantileQuery(2.0, 3.0, 0.3))
    assert report.converged
    assert report.root == pytest.approx(0.27238394207510536, rel=1e-13)
    assert abs(reg_beta(report.root, 2.0, 3.0) - 0.3) <= 1e-13
    # direct path, monotone iterates from the Omega maximum
    plan = beta_plan(BetaQuantileQuery(2.0, 3.0, 0.3))
    rep = solve(plan.problem, plan.x0)
    steps = [r.step for r in rep.trace]
    assert all(s <= 0 for s in steps) or all(s >= 0 for s in steps)


def _work_residual(query: BetaQuantileQuery) -> float:
    """Round-trip residual measured on the solver's working problem.

    For flipped tail queries the mapped root 1 - x cannot carry the
    quantile below density * ulp(1), so accuracy is asserted where the
    solver actually worked (the q-form residual).
    """
    plan = beta_plan(query)
    report = solve(plan.problem, plan.x0,
                   SolveOptions(residual_tol=RESIDUAL_NOISE_FLOOR))
    if not report.converged:
        report = invert_beta(query)  # exercises the bisection retry
        x_work = 1.0 - report.root if plan.flipped else report.root
    else:
        x_work = (_sigmoid(report.root)
                  if plan.variable is BetaVariable.LOGIT else report.root)
    w = plan.query
    return abs(reg_beta(x_work, w.a, w.b) - w.p)


def test_invert_beta_round_trip_grid():
    for a, b in itertools.product(AB_GRID, repeat=2):
        for p in P_GRID:
            query = BetaQuantileQuery(a, b, p)
            report = invert_beta(query)
            assert report.converged, (a, b, p, report.reason)
            assert 0.0 < report.root < 1.0
            assert _work_residual(query) <= 1e-13, (a, b, p)


def test_invert_beta_mapped_residual_within_representation_bound():
    # The user-facing root's residual is within kernel accuracy plus the
    # density * half-ulp representation limit of the root itself.
    for a, b in itertools.product(AB_GRID, repeat=2):
        for p in P_GRID:
            report = invert_beta(BetaQuantileQuery(a, b, p))
            x = report.root
            density = math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
                               - ln_beta(a, b))
            bound = 1e-13 + density * 1.2e-16 * max(1.0, abs(x))
            assert abs(reg_beta(x, a, b) - p) <= bound, (a, b, p)


def test_invert_beta_symmetry():
    for a, b in ((2.0, 5.0), (0.5, 3.0), (0.4, 0.7), (30.0, 1.5)):
        for p in (0.2, 0.5, 0.9):
            r1 = invert_beta(BetaQuantileQuery(a, b, p)).root
            r2 = invert_beta(BetaQuantileQuery(b, a, 1.0 - p)).root
            assert r1 + r2 == pytest.approx(1.0, abs=1e-12)


def test_snm_beats_halley_for_shapes_above_one():
    for a, b in ((2.0, 2.0), (5.0, 2.0), (30.0, 7.0)):
        for p in (0.1, 0.4):
            plan = beta_plan(BetaQuantileQuery(a, b, p))
            n_snm = solve(plan.problem, plan.x0, SolveOptions(
                method=Method.SNM, residual_tol=RESIDUAL_NOISE_FLOOR)).iterations
            n_hal = solve(plan.problem, plan.x0, SolveOptions(
                method=Method.HALLEY, residual_tol=RESIDUAL_NOISE_FLOOR)).iterations
            assert n_snm <= n_hal, (a, b, p, n_snm, n_hal)


def test_logit_path_notes_and_flags():
    heur = invert_beta(BetaQuantileQuery(0.3, 0.6, 0.4))
    assert "path=heuristic(a<=1,b<=1)" in heur.notes


def test_logit_omega_monotone_between_start_and_root():
    # The convergence hypothesis of the logit path for a <= 1 <= b: Omega
    # is non-increasing in z on the whole segment from the start to the root.
    for a, b in itertools.product((0.05, 0.3, 0.5, 1.0), (1.5, 3.0, 30.0)):
        for p in P_GRID:
            plan = beta_plan(BetaQuantileQuery(a, b, p))
            assert plan.variable is BetaVariable.LOGIT and not plan.flipped
            report = invert_beta(BetaQuantileQuery(a, b, p))
            assert report.converged, (a, b, p)
            lo, hi = sorted((plan.x0, plan.from_x(report.root)))
            vals = [beta_omega_logit(a, b, lo + (hi - lo) * k / 16) for k in range(17)]
            assert all(v1 >= v2 for v1, v2 in zip(vals, vals[1:])), (a, b, p)


def test_flip_rules():
    # a <= 1 <= b keeps the decreasing configuration even for p > 1/2.
    plan = beta_plan(BetaQuantileQuery(0.5, 3.0, 0.8))
    assert not plan.flipped
    # b <= 1 <= a always flips.
    plan = beta_plan(BetaQuantileQuery(3.0, 0.5, 0.2))
    assert plan.flipped
    # both > 1 flips only on p.
    assert not beta_plan(BetaQuantileQuery(2.0, 3.0, 0.4)).flipped
    assert beta_plan(BetaQuantileQuery(2.0, 3.0, 0.6)).flipped


def test_explicit_logit_variable_for_large_shapes():
    report = invert_beta(BetaQuantileQuery(3.0, 4.0, 0.3),
                         variable=BetaVariable.LOGIT)
    assert report.converged
    assert abs(reg_beta(report.root, 3.0, 4.0) - 0.3) <= 1e-13
    with pytest.raises(ValueError):
        beta_plan(BetaQuantileQuery(0.5, 4.0, 0.3), BetaVariable.DIRECT)


def test_logit_saturation_reports_vanished_derivative():
    from snm.beta import BetaLogitProblem
    from snm.core import StopReason
    for z0 in (50.0, -800.0):
        report = solve(BetaLogitProblem(BetaQuantileQuery(0.5, 0.5, 0.2)), z0)
        assert not report.converged
        assert report.reason is StopReason.DERIVATIVE_VANISHED


def test_quantile_monotone_in_p():
    for a, b in ((0.4, 2.0), (2.0, 3.0)):
        roots = [invert_beta(BetaQuantileQuery(a, b, p)).root
                 for p in (0.05, 0.25, 0.5, 0.75, 0.95)]
        assert all(r1 < r2 for r1, r2 in zip(roots, roots[1:]))
