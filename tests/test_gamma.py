"""Gamma quantile module: closed forms, starts, round trips, monotonicity."""

import math
import random
from fractions import Fraction

import pytest

from snm.core import MIN_NORMAL, Method, SnmError, SolveOptions, StopReason, Variable, solve
from snm.gamma import (
    GammaDirectProblem,
    GammaLogProblem,
    GammaQuantileQuery,
    SERIES_REACH,
    _series_start,
    _upper_bound,
    gamma_b,
    gamma_omega,
    gamma_omega_log,
    gamma_start,
    invert_gamma,
)
from snm.special import bisect_root, ln_gamma, reg_gamma_p, reg_gamma_q

from conftest import gamma_bisection_root, log_uniform, step_only

A_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 30.0, 100.0)
P_GRID = (0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999)
# (a, p, q) with a ~ 1 and p ~ 2e-14 (``tails`` queries): the roots are
# ~1e-13, where the solver's absolute step tolerance 1e-15 is a relative 1e-2.
HAZARD_TINY_ROOTS = (
    (1.0693493319136773, 2.516392053490935e-14, 0.9999999999999748),
    (1.0602933246145407, 2.052722905181949e-14, 0.9999999999999795),
    (1.024624177225431, 2.8504124359267774e-14, 0.9999999999999715),
)


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
    assert list(query._fields) == ["a", "p", "q"]
    assert query == GammaQuantileQuery(a=2.0, p=0.25, q=0.75)
    assert hash(query) == hash(GammaQuantileQuery(2.0, 0.25, 0.75))
    assert repr(query) == "GammaQuantileQuery(a=2.0, p=0.25, q=0.75)"
    with pytest.raises(AttributeError):
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


def test_gamma_omega_where_x_squared_underflows():
    # x^2 rounds to 0 below ~1.5e-162; Omega is then its limit at x -> 0,
    # -(a^2 - 1)/(4 x^2) -> -inf for a > 1, +inf for a < 1, and -1/4 at a = 1.
    assert gamma_omega(0.5, 1e-300) == math.inf
    assert gamma_omega(2.0, 1e-300) == -math.inf
    assert gamma_omega(1.0, 1e-300) == -0.25
    assert gamma_omega(0.5, 5e-324) == math.inf
    # Just above the underflow, x^2 is subnormal and the sum overflows alike.
    assert gamma_omega(0.5, 1e-160) == math.inf
    assert gamma_omega(2.0, 1e-160) == -math.inf


def test_gamma_omega_where_a_squared_overflows():
    # a^2 overflows and 2(1 - a)/x is -inf: the direct form is inf - inf.
    # Omega is its x -> 0 limit, -inf, as where x^2 underflows.
    assert gamma_omega(1e200, 1e-150) == -math.inf
    assert gamma_omega(1e300, 1e-10) == -math.inf
    assert gamma_omega(1e200, 1.0) == -math.inf


def test_gamma_tail_below_the_omega_underflow():
    # P(1, x) = 1 - e^-x, so the root of P = 1e-300 is 1e-300 to 5e-301
    # relative; its evaluation sits where x^2 underflows, at Omega = -1/4.
    report = invert_gamma(GammaQuantileQuery(1.0, 1e-300, 1 - 2**-53))
    assert report.converged and not report.root_underflow
    assert abs(report.root - 1e-300) <= 1e-12 * 1e-300


@pytest.mark.parametrize("fn", [gamma_b, gamma_omega, gamma_omega_log])
def test_public_b_and_omega_refuse_bad_shapes(fn):
    # The public forms check a as the query does; a point inside the domain.
    for a in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            fn(a, 1.0)


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
def test_omega_refuses_points_outside_the_domain(x):
    with pytest.raises(ValueError):
        gamma_omega(2.0, x)


def test_problem_residual_at_known_median():
    problem = GammaDirectProblem(GammaQuantileQuery(2.0, 0.5))
    assert abs(problem.evaluate(1.6783469900166605).f) <= 1e-14


def test_problem_exponential_case_one_step():
    # Omega is constant at a = 1 in x: the one SNM step is exact, and the
    # predicted stop applies it without the evaluation that would count it.
    # (The plan solves in log x, where Omega is not constant.)
    query = GammaQuantileQuery(1.0, 0.3)
    plan = gamma_start(query)
    report = solve(GammaDirectProblem(query), plan.to_x(plan.x0))
    assert (report.reason, report.iterations, report.evaluations) == (
        StopReason.PREDICTED, 0, 1)
    assert report.predicted_error == 0.0
    assert report.root == pytest.approx(-math.log(0.7), rel=1e-14)


def test_log_problem_same_residual_as_direct():
    query = GammaQuantileQuery(0.5, 0.2)
    direct = GammaDirectProblem(query)
    logp = GammaLogProblem(query)
    for x in (0.05, 0.3, 1.0, 4.0):
        assert logp.evaluate(math.log(x)).f == direct.evaluate(x).f


def test_gamma_start_policy():
    # a >= 1: log variable, never below the lower bound
    # x_l = (p Gamma(a+1))^(1/a) of the root, below the Omega maximum a + 1
    # of x across the lower tail.  Where x_l <= SERIES_REACH (a + 1) the
    # start is the reverted lower-tail series, elsewhere the log of Temme's
    # asymptotic inversion.  The series start, and for a >= 10 the
    # asymptotic one, are within 1e-5 of the root, close enough for the
    # solve to end after one evaluation.
    for a in (1.0, 1.5, 2.0, 6.582065866777457, 30.0, 1e4):
        for p in (1e-15, 1e-6, 0.1, 0.3, 0.5, 0.9, 1.0 - 1e-12):
            query = GammaQuantileQuery(a, p)
            plan = gamma_start(query)
            z_l = (math.log(p) + plan.problem.ln_gamma_a1) / a
            series = math.exp(z_l) <= SERIES_REACH * (a + 1.0)
            assert (plan.variable, plan.start) \
                == (Variable.LOG, "series" if series else "asymptotic"), (a, p)
            assert isinstance(plan.problem, GammaLogProblem)
            assert plan.x0 >= z_l, (a, p)
            x0 = plan.to_x(plan.x0)
            if p <= 0.5:
                assert x0 <= a + 1.0, (a, p)
            if series or a >= 10.0:
                report = invert_gamma(query)
                assert abs(x0 - report.root) <= 1e-5 * report.root, (a, p)
                assert report.evaluations == 1, (a, p)
    # Near the median the start is within a few parts in 1e3 of the root.
    for a in (1.0, 2.0, 30.0):
        plan = gamma_start(GammaQuantileQuery(a, 0.5))
        root = invert_gamma(GammaQuantileQuery(a, 0.5)).root
        assert abs(plan.to_x(plan.x0) - root) <= 1e-2 * root, a
    # At these a ~ 1, p ~ 2e-14 points the series start is the root to a
    # few ulps; from the asymptotic start each solve took 2 evaluations.
    for a, p, q in HAZARD_TINY_ROOTS:
        plan = gamma_start(GammaQuantileQuery(a, p, q))
        root = gamma_bisection_root(a, p, q)
        assert plan.start == "series"
        assert abs(plan.to_x(plan.x0) - root) <= 1e-14 * root
    # The Wilson-Hilferty start fell far below the root here; the solve
    # converges without a fallback step.
    report = invert_gamma(GammaQuantileQuery(6.582065866777457, 2.6020706234195834e-14))
    assert report.converged and not any(r.fallback_used for r in report.trace)
    # a < 1 past the series' reach: log variable, start at x_l, below the
    # root.  Inside it, the series start, above x_l.
    a, p = 0.5, 0.5
    plan = gamma_start(GammaQuantileQuery(a, p))
    assert (plan.variable, plan.start) == (Variable.LOG, "lower-bound")
    assert isinstance(plan.problem, GammaLogProblem)
    z0 = plan.x0
    assert z0 == pytest.approx((math.log(p) + ln_gamma(a + 1.0)) / a, rel=1e-15)
    assert reg_gamma_p(a, math.exp(z0)) <= p
    plan = gamma_start(GammaQuantileQuery(a, 0.1))
    assert (plan.variable, plan.start) == (Variable.LOG, "series")
    assert plan.x0 > (math.log(0.1) + ln_gamma(a + 1.0)) / a


@pytest.mark.parametrize("a, p, q", HAZARD_TINY_ROOTS)
def test_step_stop_hazard_near_a_tiny_root(a, p, q):
    report = invert_gamma(GammaQuantileQuery(a, p, q))
    root = gamma_bisection_root(a, p, q)
    assert report.converged
    assert abs(report.root - root) <= 1e-12 * root


@pytest.mark.parametrize("a, p, q", HAZARD_TINY_ROOTS)
@pytest.mark.parametrize("offset", [1e-2, -1e-2, 1e-4, -1e-4, 3.0])
def test_a_solve_from_near_a_tiny_root_meets_the_contract(a, p, q, offset):
    # Near a root of ~6e-14 the step stop must be relative: an absolute
    # 1e-15 accepted unevaluated steps that are long against the root, and
    # ended three of these solves up to 2.1e-11 off.
    root = gamma_bisection_root(a, p, q)
    report = solve(GammaDirectProblem(GammaQuantileQuery(a, p, q)), root * (1.0 + offset))
    assert report.converged, report.reason
    assert abs(report.root - root) <= 1e-12 * root


def test_constant_omega_upper_tail_meets_the_contract():
    # Q(1, x) = e^-x: the root is ln(1e20).  A start at 62.86 (the
    # Wilson-Hilferty one) ended Predicted 1.4e-11 off.
    report = invert_gamma(GammaQuantileQuery(1.0, 1.0 - 2.0 ** -53, 1e-20))
    assert report.converged
    assert abs(report.root - math.log(1e20)) <= 1e-12 * math.log(1e20)


@pytest.mark.xfail(strict=True, reason="a predicted stop on a constant Omega: K = 0 from an "
                                       "ill-conditioned step reports predicted_error 0")
def test_a_predicted_stop_on_a_constant_omega_meets_the_contract():
    # At a = 1 Omega is -1/4 everywhere, so the error model predicts no
    # error after any step; from x0 = 62.86, where h = 1.9999998, the atanh
    # step itself is 1.4e-11 off.
    query = GammaQuantileQuery(1.0, 1.0 - 2.0 ** -53, 1e-20)
    report = solve(GammaDirectProblem(query), 62.86473575633391)
    assert abs(report.root - math.log(1e20)) <= 1e-12 * math.log(1e20)


def test_a_tail_may_be_given_alone():
    # p and q lie in (0, 1]: a tail below ~1.1e-16 given alone has a
    # complement that rounds to 1.  0, NaN and p = q = 1 stay refused.
    assert GammaQuantileQuery(2.0, 1e-20).q == 1.0
    assert GammaQuantileQuery(2.0, 1.0, 1e-300).q == 1e-300
    for p, q in ((1.0, None), (1.0, 1.0), (math.nan, None), (1e-20, 0.0), (0.0, 1.0)):
        with pytest.raises(ValueError):
            GammaQuantileQuery(2.0, p, q)


@pytest.mark.parametrize("a", [0.5, 2.0, 30.0])
@pytest.mark.parametrize("tail", [1e-20, 1e-100, 1e-300])
@pytest.mark.parametrize("upper", [False, True], ids=["p", "q"])
def test_a_tail_given_alone_meets_the_contract(a, tail, upper):
    # p given alone (q rounds to 1), or q with p = 1.0: the root is within
    # 1e-12 of the bisection root.  Deep in the lower tail
    # P = x^a / Gamma(a+1) to O(x) relative, and the root in z = log x is
    # that term's to rounding; where it underflows, the report says so.
    query = GammaQuantileQuery(a, 1.0, tail) if upper else GammaQuantileQuery(a, tail)
    report = invert_gamma(query)
    assert report.converged, report.reason
    z_lead = (math.log(tail) + ln_gamma(a + 1.0)) / a
    if not upper and z_lead < -40.0:
        plan = gamma_start(query)
        assert abs(solve(plan.problem, plan.x0).root - z_lead) <= 1e-12
    if not upper and z_lead < math.log(MIN_NORMAL) - 1.0:
        assert report.root_underflow
        return
    exact = gamma_bisection_root(a, query.p, query.q)
    assert abs(report.root - exact) <= 1e-12 * exact, (report.root, exact)


@pytest.mark.parametrize("a", [1e6, 1e7])
def test_large_shape_roots_match_the_bisection_root(a):
    # The log problem forms its prefactor with Stirling's shifted exponent at
    # a >= 16; from z directly, its ~eps a error put a = 1e7 1.0e-12 off.
    report = invert_gamma(GammaQuantileQuery(a, 0.3))
    exact = gamma_bisection_root(a, 0.3, 0.7)
    assert report.converged, report.reason
    assert abs(report.root - exact) <= 1e-14 * exact, (report.root, exact)


@pytest.mark.parametrize("a", [1.0, 1.5, 2.572002440782614, 4.6, 30.0, 1e3])
@pytest.mark.parametrize("q", [1e-20, 1e-100, 1e-300])
def test_deep_upper_tail(a, q):
    # An explicit q far below 2^-53 with p = 1 - 2^-53: each query converges
    # within 1e-12 of the bisection root.
    p = 1.0 - 2.0 ** -53
    report = invert_gamma(GammaQuantileQuery(a, p, q))
    root = gamma_bisection_root(a, p, q)
    assert report.converged, report.reason
    assert abs(report.root - root) <= 1e-12 * root


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
    # In x, from x0 = 1: one exact step, applied uncounted by the predicted
    # stop, 0 iterations and 1 evaluation.  (The plan's series start at
    # p = 0.001 is so close that the residual stop ends the solve first.)
    # The plan's own solve in log x, where Omega is not constant, takes at
    # most 2 evaluations.
    for p in P_GRID:
        query = GammaQuantileQuery(1.0, p)
        report = solve(GammaDirectProblem(query), 1.0)
        assert (report.reason, report.iterations, report.evaluations) == (
            StopReason.PREDICTED, 0, 1), p
        assert invert_gamma(query).evaluations <= 2, p


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
    assert plan.to_x(report.root) == pytest.approx(1.6783469900166605, rel=1e-13)


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
    report = solve(GammaLogProblem(GammaQuantileQuery(0.5, 0.2)), 705.0)
    assert not report.converged
    assert report.reason is StopReason.DERIVATIVE_VANISHED


def test_log_variable_trace_mapped_root():
    report = invert_gamma(GammaQuantileQuery(0.5, 0.2))
    assert report.variable is Variable.LOG and not report.root_underflow
    assert report.root > 0.0
    assert abs(reg_gamma_p(0.5, report.root) - 0.2) <= 1e-13


# ------------------------------------------------ the relative contract

REL_TOL = 1e-12  # the contract: relative error in x


def _tail_query(a, tail, upper):
    """The query whose smaller tail is ``tail``, in the upper or lower tail."""
    if upper:
        return GammaQuantileQuery(a, 1.0 - tail, tail)
    return GammaQuantileQuery(a, tail, 1.0 - tail)


def _within_contract(root, query):
    """Whether root is within the 1e-12 contract of the query's bisection root."""
    exact = gamma_bisection_root(query.a, query.p, query.q)
    return abs(root - exact) <= REL_TOL * exact


CONTRACT_SHAPES = (0.05, 0.3, 0.9, 1.0, 2.5, 20.0, 200.0)
CONTRACT_TAILS = (1e-6, 1e-10, 1e-15)
CONTRACT_GRID = [(a, tail, upper) for a in CONTRACT_SHAPES
                 for tail in CONTRACT_TAILS for upper in (False, True)]


@pytest.mark.parametrize("a, tail, upper", CONTRACT_GRID)
def test_tail_roots_meet_the_relative_contract(a, tail, upper):
    # The absolute 1e-14 stop accepted roots that miss 1e-12 in x at tails
    # below ~1e-2; the stop is now relative to the inverted tail.
    query = _tail_query(a, tail, upper)
    report = invert_gamma(query)
    assert report.converged, report.reason
    assert _within_contract(report.root, query)


@pytest.mark.parametrize("a, tail, upper", CONTRACT_GRID)
def test_tail_roots_meet_the_relative_contract_against_mpmath(a, tail, upper):
    mpmath = pytest.importorskip("mpmath")
    query = _tail_query(a, tail, upper)
    x = invert_gamma(query).root
    with mpmath.workdps(40):
        am = mpmath.mpf(a)
        if upper:
            qm = mpmath.mpf(query.q)
            residual = lambda t: qm - mpmath.gammainc(am, t, mpmath.inf, regularized=True)
        else:
            pm = mpmath.mpf(query.p)
            residual = lambda t: mpmath.gammainc(am, 0, t, regularized=True) - pm
        # The residual is increasing: the true root lies within REL_TOL of x
        # iff it changes sign across that interval.
        xm, d = mpmath.mpf(x), mpmath.mpf(REL_TOL)
        assert residual(xm / (1 + d)) <= 0 <= residual(xm / (1 - d))


def test_class_fuzz_converges_within_the_contract_in_few_iterations():
    # The four classes: a < 1 or a >= 1, lower or upper tail.  Central and
    # tail probabilities; a down to 0.01, where an a < 1 upper tail's Q
    # comes from its small-a form on the series side.
    rng = random.Random("gamma-classes")
    seen = {}
    for k in range(400):
        small = k % 2 == 0
        a = log_uniform(rng, 0.01, 1.0) if small else log_uniform(rng, 1.0, 500.0)
        tail = (rng.uniform(1e-3, 0.5) if rng.random() < 0.5
                else log_uniform(rng, 1e-15, 1e-3))
        upper = rng.random() < 0.5
        query = _tail_query(a, tail, upper)
        report = invert_gamma(query)
        seen[small, upper] = seen.get((small, upper), 0) + 1
        assert report.converged and report.iterations <= 4, (query, report.iterations)
        if tail <= 1e-6:
            assert report.iterations <= 3, (query, report.iterations)
        if report.root_underflow:
            assert report.root < MIN_NORMAL and small and not upper
        else:
            assert _within_contract(report.root, query), query
    assert len(seen) == 4 and min(seen.values()) >= 80, seen


def test_small_shape_fuzz_meets_the_contract():
    # Shapes log-uniform in [1e-3, 10^-1.5], below the class fuzz's 0.01,
    # where the residual stop bounds the error in log x only by ~1e-14/a.
    # Every query converges; every root that does not underflow is within
    # 1e-12 of the bisection root.
    rng = random.Random("gamma-small-shape")
    checked = 0
    for _ in range(400):
        a = log_uniform(rng, 1e-3, 10.0 ** -1.5)
        tail = (rng.uniform(1e-3, 0.5) if rng.random() < 0.5
                else log_uniform(rng, 1e-15, 1e-3))
        upper = rng.random() < 0.5
        query = _tail_query(a, tail, upper)
        report = invert_gamma(query)
        assert report.converged, (query, report.reason)
        if report.root_underflow:
            assert report.root < MIN_NORMAL and not upper, query
        else:
            checked += 1
            assert _within_contract(report.root, query), query
    assert checked >= 250, checked


def _q_bound_root(a, q):
    """The exact root of (a - 1) ln x - x = ln q + ln Gamma(a), by bisection in s = ln x.

    The upper end of the adjacent doubles that bracket it: the first s where
    e^s + (1 - a) s - t >= 0.  An exact 0 counts as above the root, so the
    halvings run on to that end.
    """
    t = -(math.log(q) + ln_gamma(a))
    h = lambda s: math.exp(s) + (1.0 - a) * s - t or 5e-324
    s = bisect_root(h, -1e6, math.log(max(t, 1.0)) + 1.0)
    return math.exp(s if h(s) > 0.0 else math.nextafter(s, math.inf))


def test_a_below_one_bounds_bracket_the_root():
    # P(a, x) <= x^a / Gamma(a+1) and, for a < 1, Q(a, x) <= x^(a-1) e^-x
    # / Gamma(a) put the root between the lower-bound start and the root
    # of the Q bound's equation; Newton's steps from above stay above it.
    # The slack covers rounding where a bound is tight (deep tails).
    rng = random.Random("gamma-bounds")
    checked = 0
    for _ in range(300):
        a = log_uniform(rng, 0.01, 1.0)
        tail = log_uniform(rng, 1e-15, 0.5)
        query = _tail_query(a, tail, rng.random() < 0.5)
        if query.p <= 0.5 and reg_gamma_p(a, 1e-307) >= query.p:
            continue  # the root lies below the normal doubles
        checked += 1
        root = gamma_bisection_root(a, query.p, query.q)
        ln_gamma_a1 = ln_gamma(a + 1.0)
        lower = math.exp((math.log(query.p) + ln_gamma_a1) / a)
        assert lower <= root * (1.0 + 1e-13), query
        exact_upper = _q_bound_root(a, query.q)
        assert exact_upper >= root * (1.0 - 1e-13), query
        x_u, _ = _upper_bound(a, math.log(query.q), ln_gamma(a))
        assert x_u >= exact_upper * (1.0 - 1e-15)
    assert checked >= 200, checked


def _reverted_series(a, terms):
    """Exact c_1..c_terms of x = r (1 + c_1 r + c_2 r^2 + ...), r^a = x^a S(x).

    S(x) = sum_k a (-x)^k / (k! (a + k)) = P(a, x) Gamma(a+1) / x^a; T =
    S^(1/a) by J. C. P. Miller's power recurrence, then r = x T(x) reverted
    by fixed-point substitution x <- r - sum_k t_k x^(k+1), all in Fractions.
    """
    n = terms + 1
    s = [Fraction((-1) ** k) * a / (math.factorial(k) * (a + k)) for k in range(n + 1)]
    t = [Fraction(1)]
    for m in range(1, n + 1):
        t.append(sum(((1 / a + 1) * k - m) * s[k] * t[m - k] for k in range(1, m + 1)) / m)

    def times(u, v):
        out = [Fraction(0)] * (n + 1)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v[:n + 1 - i]):
                out[i + j] += ui * vj
        return out

    x = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(n):
        new, power = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 1), times(x, x)
        for k in range(1, n):
            new = [c - t[k] * v for c, v in zip(new, power)]
            power = times(power, x)
        x = new
    return x[2:terms + 2]


@pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(1), Fraction(17, 4)])
def test_series_start_coefficients_are_the_reverted_series(a):
    # The closed forms of c1..c4 in ``_series_start`` against an exact
    # reversion of P(a, x) Gamma(a+1) = x^a S(x) at a rational a.
    c = _reverted_series(a, 4)
    assert c == [1 / (a + 1),
                 (3 * a + 5) / (2 * (a + 1) ** 2 * (a + 2)),
                 (8 * a ** 2 + 33 * a + 31) / (3 * (a + 1) ** 3 * (a + 2) * (a + 3)),
                 (125 * a ** 4 + 1179 * a ** 3 + 3971 * a ** 2 + 5661 * a + 2888)
                 / (24 * (a + 1) ** 4 * (a + 2) ** 2 * (a + 3) * (a + 4))]
    # The library's start is ln r + log1p(r (c1 + r (c2 + r (c3 + r c4)))).
    for r in (Fraction(1, 1000), Fraction(1, 20)):
        u = r / (a + 1)
        expected = math.log(r) + math.log1p(float(r * (c[0] + r * (c[1] + r * (c[2] + r * c[3])))))
        got = _series_start(float(a), math.log(r), float(u))
        assert got == pytest.approx(expected, rel=4e-16, abs=4e-16), (a, r)


def test_tails_shaped_gamma_classes_end_after_one_evaluation():
    # Seeded draws shaped like the bench's tails: shapes log-uniform in
    # [0.05, 200], the smaller tail log-uniform in [1e-15, 1e-6], either
    # side.  The a < 1 upper tail (asymptotic step on the Q bound, 1.989
    # evaluations before it) averages at most 1.02 evaluations and every
    # series start 1; every root is within 1e-12 of the bisection root.
    rng = random.Random("gamma-tails-classes")
    evaluations = {"a<1 upper": [], "series": []}
    for _ in range(600):
        a = log_uniform(rng, 0.05, 200.0)
        tail = log_uniform(rng, 1e-15, 1e-6)
        upper = rng.random() < 0.5
        query = _tail_query(a, tail, upper)
        report = invert_gamma(query)
        exact = gamma_bisection_root(a, query.p, query.q)
        assert report.converged and abs(report.root - exact) <= 1e-12 * exact, query
        if a < 1.0 and upper:
            evaluations["a<1 upper"].append(report.evaluations)
        if report.start == "series":
            evaluations["series"].append(report.evaluations)
    upper, series = evaluations["a<1 upper"], evaluations["series"]
    assert len(upper) >= 50 and len(series) >= 150, (len(upper), len(series))
    assert sum(upper) <= 1.02 * len(upper), sum(upper) / len(upper)
    assert set(series) == {1}


@pytest.mark.parametrize("p", [1e-100, 1e-200, 1e-300])
def test_the_bisection_root_is_exact_at_a_one(p):
    # P(1, x) = 1 - e^-x: the root is -log1p(-p).  Bisected in x from a
    # bracket a fixed ratio wide, it is resolved to adjacent doubles; in
    # log x it stopped up to 9.0e-14 off at p = 1e-300.
    exact = -math.log1p(-p)
    assert abs(gamma_bisection_root(1.0, p, 1.0 - p) - exact) <= math.ulp(exact)


def test_a_below_one_start_takes_the_closer_bound():
    # Deep in the upper tail the Q bound is the tighter one, and the start
    # is its asymptotic step, one evaluation from the root; elsewhere the
    # lower bound, from which the log-variable iterates rise monotonically,
    # or deep in the lower tail the series start.  The fifth query's Q bound
    # is x_u = 0.54, (1 - a)/x_u = 1.2: a Q-bound root stopped short of
    # convergence (3.07) would claim the upper start and take 5 iterations
    # from it.
    for a, p, q, start in ((0.3, 1.0 - 1e-10, 1e-10, "upper-bound"),
                           (0.9, 1.0 - 1e-6, 1e-6, "upper-bound"),
                           (0.3, 0.7, 0.3, "lower-bound"),
                           (0.3, 1e-10, 1.0 - 1e-10, "series"),
                           (0.34184033815281933, 0.6812225391807587,
                            0.3187774608192413, "lower-bound")):
        query = GammaQuantileQuery(a, p, q)
        plan = gamma_start(query)
        report = invert_gamma(query)
        assert (plan.variable, plan.start, report.start) == (Variable.LOG, start, start)
        if start == "upper-bound":
            x_u, _ = _upper_bound(a, math.log(q), ln_gamma(a))
            assert x_u >= report.root
            assert abs(math.exp(plan.x0) - report.root) <= 1e-6 * report.root
            assert report.evaluations == 1
        elif start == "series":
            assert abs(math.exp(plan.x0) - report.root) <= 1e-6 * report.root
            assert report.evaluations == 1
        else:
            assert math.exp(plan.x0) <= report.root


def test_small_a_upper_tail_q_keeps_relative_accuracy():
    # On the series side (x < a + 1) Q comes from its small-a form, not
    # 1 - P; a relative stop there needs it.  These queries took up to 30
    # iterations (MaxIter) with Q = 1 - P.
    for a, p, q in ((0.013726018741068364, 0.9474961943776498, 0.052503805622350234),
                    (0.015179535748938384, 0.9935262217484349, 0.0064737782515651415),
                    (0.08630137185513322, 0.9808617705865, 0.01913822941349997)):
        report = invert_gamma(GammaQuantileQuery(a, p, q))
        assert report.converged and report.iterations <= 3, (a, report.iterations)
        assert report.root < a + 1.0


def test_small_a_q_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random("gamma-small-a-q")
    for _ in range(200):
        a = log_uniform(rng, 1e-3, 1.0)
        x = log_uniform(rng, 1e-6, a + 1.0) * (1.0 - 1e-12)
        with mpmath.workdps(40):
            exact = mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x), mpmath.inf,
                                    regularized=True)
        assert abs(reg_gamma_q(a, x) - exact) <= 1e-14 * exact, (a, x)
