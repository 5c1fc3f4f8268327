"""Gamma quantile module: closed forms, starts, round trips, monotonicity."""

import dataclasses
import math

import pytest

from snm.core import Method, SnmError, SolveOptions, Variable, solve
from snm.gamma import (
    GammaDirectProblem,
    GammaLogProblem,
    GammaQuantileQuery,
    gamma_b,
    gamma_omega,
    gamma_omega_log,
    gamma_start,
    invert_gamma,
)
from snm.special import ln_gamma, reg_gamma_p

from conftest import step_only

A_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 30.0, 100.0)
P_GRID = (0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999)


def test_query_validation():
    with pytest.raises(ValueError):
        GammaQuantileQuery(-1.0, 0.5)
    with pytest.raises(ValueError):
        GammaQuantileQuery(2.0, 0.0)
    with pytest.raises(ValueError):
        GammaQuantileQuery(2.0, 0.4, q=0.7)
    q = GammaQuantileQuery(2.0, 0.25)
    assert q.q == 0.75
    for a in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            GammaQuantileQuery(a, 0.5)


def test_query_is_a_frozen_dataclass():
    # Fields, order, equality, hash and repr as the hand-written class had.
    query = GammaQuantileQuery(2.0, 0.25)
    assert [f.name for f in dataclasses.fields(query)] == ["a", "p", "q"]
    assert query == GammaQuantileQuery(a=2.0, p=0.25, q=0.75)
    assert hash(query) == hash(GammaQuantileQuery(2.0, 0.25, 0.75))
    assert repr(query) == "GammaQuantileQuery(a=2.0, p=0.25, q=0.75)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        query.p = 0.5


def test_gamma_b_values():
    for x in (0.5, 1.0, 7.0):
        assert gamma_b(1.0, x) == 1.0
    assert gamma_b(3.0, 2.0) == 0.0
    assert gamma_b(0.5, 1.0) == 1.5
    with pytest.raises(ValueError):
        gamma_b(2.0, 0.0)


def test_gamma_omega_constant_at_one():
    for x in (0.2, 1.0, 9.0):
        assert gamma_omega(1.0, x) == -0.25


def test_gamma_omega_direct_values():
    # Displayed formula: a=3, x=4 gives -(1/4)(1 - 1 + 1/2) = -1/8.
    assert gamma_omega(3.0, 4.0) == pytest.approx(-0.125, abs=1e-16)
    assert gamma_omega(2.0, 1.0) == pytest.approx(-0.5, abs=1e-16)


def test_gamma_omega_peak():
    # Maximum at x = a+1 with value -1/(2(1+a)); derivative vanishes there.
    for a in (1.0, 3.0, 10.0):
        xm = a + 1.0
        assert gamma_omega(a, xm) == pytest.approx(-1.0 / (2.0 * (1.0 + a)), rel=1e-15)
        h = 1e-4 * xm
        d = (gamma_omega(a, xm + h) - gamma_omega(a, xm - h)) / (2 * h)
        assert abs(d) <= 1e-8
        if a > 1.0:  # Omega is constant at a = 1
            assert gamma_omega(a, xm - 0.5) < gamma_omega(a, xm)
            assert gamma_omega(a, xm + 0.5) < gamma_omega(a, xm)


def test_gamma_omega_negative_for_a_ge_one():
    for a in (1.0, 2.0, 10.0, 100.0):
        for i in range(40):
            x = 10.0 ** (-2 + 4 * i / 39)
            assert gamma_omega(a, x) < 0.0


def test_gamma_omega_log_values():
    assert gamma_omega_log(1.0, 0.0) == pytest.approx(-0.5, abs=1e-16)
    # a=2: maximum at z = log(a-1) = 0.
    h = 1e-5
    d = (gamma_omega_log(2.0, h) - gamma_omega_log(2.0, -h)) / (2 * h)
    assert abs(d) <= 1e-8
    # a=0.5: strictly decreasing.
    zs = [-3.0, -1.0, 0.0, 1.0, 2.0]
    vals = [gamma_omega_log(0.5, z) for z in zs]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
    # negative for all x > 0 when a > 0
    for a in (0.1, 0.5, 1.0, 4.0):
        for z in (-30.0, -2.0, 0.0, 2.0, 5.0):
            assert gamma_omega_log(a, z) < 0.0


def test_gamma_omega_log_beyond_overflow():
    # e^z overflows past z ~ 709.78; Omega tends to -inf there.
    assert gamma_omega_log(1.0, 800.0) == -math.inf
    assert gamma_omega_log(0.5, math.inf) == -math.inf
    assert gamma_omega_log(2.0, 709.0) == -math.inf  # x * x overflows
    with pytest.raises(ValueError):
        gamma_omega_log(1.0, math.nan)


@pytest.mark.parametrize("fn", [gamma_b, gamma_omega, gamma_omega_log])
def test_public_b_and_omega_refuse_bad_shapes(fn):
    # The public forms check a as the query does; a point inside the domain.
    for a in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            fn(a, 1.0)


def test_problem_residual_at_known_median():
    problem = GammaDirectProblem(GammaQuantileQuery(2.0, 0.5))
    assert abs(problem.evaluate(1.6783469900166605).f) <= 1e-14


def test_problem_exponential_case_one_step():
    query = GammaQuantileQuery(1.0, 0.3)
    report = invert_gamma(query)
    assert report.iterations == 1
    assert report.root == pytest.approx(-math.log(0.7), rel=1e-14)


def test_log_problem_same_residual_as_direct():
    query = GammaQuantileQuery(0.5, 0.2)
    direct = GammaDirectProblem(query)
    logp = GammaLogProblem(query)
    for x in (0.05, 0.3, 1.0, 4.0):
        assert logp.evaluate(math.log(x)).f == direct.evaluate(x).f


def test_gamma_start_policy():
    # a >= 1: direct variable, started at the Wilson-Hilferty quantile, never
    # below the lower bound (p Gamma(a+1))^(1/a) of the root, and below the
    # Omega maximum a + 1 across the lower tail.
    for a in (1.0, 1.5, 2.0, 6.582065866777457, 30.0, 1e4):
        for p in (1e-15, 1e-6, 0.1, 0.3, 0.5, 0.9, 1.0 - 1e-12):
            plan = gamma_start(GammaQuantileQuery(a, p))
            assert (plan.variable, plan.start) == (Variable.DIRECT, "asymptotic")
            assert isinstance(plan.problem, GammaDirectProblem)
            ln_gamma_a1 = plan.problem.ln_gamma_a + math.log(a)
            assert plan.x0 >= math.exp((math.log(p) + ln_gamma_a1) / a), (a, p)
            if p <= 0.5:
                assert plan.x0 <= a + 1.0, (a, p)
    # Near the median the start is within a few parts in 1e4 of the root.
    for a in (1.0, 2.0, 30.0):
        plan = gamma_start(GammaQuantileQuery(a, 0.5))
        root = invert_gamma(GammaQuantileQuery(a, 0.5)).root
        assert abs(plan.x0 - root) <= 2e-2 * root, a
    # Where the normal approximation falls far below the root the start is
    # the bound itself, which f does not meet with a flat residual.
    a, p = 6.582065866777457, 2.6020706234195834e-14
    plan = gamma_start(GammaQuantileQuery(a, p))
    assert plan.x0 == math.exp((math.log(p) + plan.problem.ln_gamma_a + math.log(a)) / a)
    report = invert_gamma(GammaQuantileQuery(a, p))
    assert report.converged and not any(r.fallback_used for r in report.trace)
    # a < 1: log variable, start below the root.
    a, p = 0.5, 0.1
    plan = gamma_start(GammaQuantileQuery(a, p))
    assert (plan.variable, plan.start) == (Variable.LOG, "lower-bound")
    assert isinstance(plan.problem, GammaLogProblem)
    z0 = plan.x0
    assert z0 == pytest.approx((math.log(p) + ln_gamma(a + 1.0)) / a, rel=1e-15)
    assert reg_gamma_p(a, math.exp(z0)) <= p


def test_invert_gamma_round_trip():
    for a in A_GRID:
        for p in P_GRID:
            report = invert_gamma(GammaQuantileQuery(a, p))
            assert report.converged, (a, p, report.reason)
            assert abs(reg_gamma_p(a, report.root) - p) <= 1e-13, (a, p)


def test_invert_gamma_known_values():
    assert invert_gamma(GammaQuantileQuery(2.0, 0.5)).root == pytest.approx(
        1.6783469900166605, rel=1e-14)
    assert invert_gamma(GammaQuantileQuery(1.0, 0.5)).root == pytest.approx(
        math.log(2.0), rel=1e-14)


def test_monotone_iterates_from_peak_start():
    for a in (1.0, 2.0, 5.0, 30.0, 100.0):
        for p in (0.1, 0.5, 0.9):
            problem = step_only(GammaDirectProblem(GammaQuantileQuery(a, p)))
            report = solve(problem, a + 1.0)
            steps = [r.step for r in report.trace]
            assert all(s <= 0 for s in steps) or all(s >= 0 for s in steps), (a, p)


def test_snm_iterations_never_exceed_halley():
    # Identical options for both methods; the problem's residual floor
    # keeps the count free of noise-level final steps (a landing a few
    # ulps off the root would otherwise flip a coin against the step
    # tolerance).
    for a in (1.0, 2.0, 5.0, 30.0, 100.0):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            problem = GammaDirectProblem(GammaQuantileQuery(a, p))
            n_snm = solve(problem, a + 1.0, SolveOptions(method=Method.SNM)).iterations
            n_hal = solve(problem, a + 1.0, SolveOptions(method=Method.HALLEY)).iterations
            assert n_snm <= n_hal, (a, p, n_snm, n_hal)


def test_exactness_counts_one_iteration_at_a_one():
    for p in P_GRID:
        assert invert_gamma(GammaQuantileQuery(1.0, p)).iterations == 1


def test_quantile_monotone_in_p():
    for a in (0.3, 1.0, 7.0):
        roots = [invert_gamma(GammaQuantileQuery(a, p)).root
                 for p in (0.05, 0.2, 0.5, 0.8, 0.95)]
        assert all(r1 < r2 for r1, r2 in zip(roots, roots[1:]))


def test_numeric_start_override():
    # A caller's own start runs through the plan's problem and its x map.
    plan = gamma_start(GammaQuantileQuery(2.0, 0.5))
    report = solve(plan.problem, plan.from_x(4.0), SolveOptions())
    assert report.converged
    assert report.root == pytest.approx(1.6783469900166605, rel=1e-13)


def test_extreme_ranges_converge():
    # Post-condition corners: a in [1e-2, 1e4], p in [1e-10, 1-1e-10].
    for a in (1e-2, 1e4):
        for p in (1e-10, 0.5, 1.0 - 1e-10):
            report = invert_gamma(GammaQuantileQuery(a, p))
            assert report.converged, (a, p, report.reason)
            if report.root > 0.0:
                assert abs(reg_gamma_p(a, report.root) - p) <= 1e-11, (a, p)
            else:
                # Quantile below the smallest positive double.
                assert report.root_underflow


def test_kernel_budget_exhaustion_is_typed():
    # The continued fraction's term cap covers a up to about 1e7; beyond
    # it the query must still end in a typed SnmError.
    with pytest.raises(SnmError):
        invert_gamma(GammaQuantileQuery(1e8, 0.3))


def test_log_variable_extreme_z_reports_vanished_derivative():
    # Wild points fail loudly-but-gracefully instead of overflowing.
    from snm.core import StopReason
    report = solve(GammaLogProblem(GammaQuantileQuery(0.5, 0.2)), 705.0)
    assert not report.converged
    assert report.reason is StopReason.DERIVATIVE_VANISHED


def test_log_variable_trace_mapped_root():
    report = invert_gamma(GammaQuantileQuery(0.5, 0.2))
    assert report.variable is Variable.LOG and not report.root_underflow
    assert report.root > 0.0
    assert abs(reg_gamma_p(0.5, report.root) - 0.2) <= 1e-13
