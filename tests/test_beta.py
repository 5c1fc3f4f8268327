"""Beta quantile module: formulas, cubic start, logit path, round trips."""

import itertools
import math
import random
from statistics import NormalDist

import pytest

import snm.beta
import snm.core
from snm.beta import (
    BetaDirectProblem,
    BetaLogitProblem,
    BetaQuantileQuery,
    beta_b,
    beta_omega,
    beta_omega_logit,
    beta_plan,
    beta_xm,
    beta_xm_coefficients,
    invert_beta,
    _logit,
    _logit_of,
    _sigmoid,
)
from snm.core import (
    MIN_NORMAL,
    RESIDUAL_NOISE_FLOOR,
    Interval,
    Method,
    SnmError,
    SolveOptions,
    StopReason,
    Variable,
    solve,
)
from snm.gamma import GammaQuantileQuery, invert_gamma
from snm.special import _beta_exponent, _reg_beta, bisect_root, ln_beta, reg_beta

from conftest import DEEP_TAIL_Z, beta_bisection_root, log_uniform, step_only

AB_GRID = (0.3, 0.5, 1.5, 2.0, 5.0, 30.0)
P_GRID = (0.01, 0.2, 0.5, 0.8, 0.99)


def test_query_validation():
    with pytest.raises(ValueError):
        BetaQuantileQuery(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        BetaQuantileQuery(1.0, 1.0, 1.0)
    q = BetaQuantileQuery(2.0, 3.0, 0.25)
    assert q.q == 0.75
    for a, b in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -2.0)):
        with pytest.raises(ValueError):
            BetaQuantileQuery(a, b, 0.5)


def test_query_is_a_frozen_dataclass():
    # Fields, order, equality, hash and repr as the hand-written class had.
    query = BetaQuantileQuery(2.0, 3.0, 0.25)
    assert list(query._fields) == ["a", "b", "p", "q"]
    assert query == BetaQuantileQuery(a=2.0, b=3.0, p=0.25, q=0.75)
    assert hash(query) == hash(BetaQuantileQuery(2.0, 3.0, 0.25, 0.75))
    assert repr(query) == "BetaQuantileQuery(a=2.0, b=3.0, p=0.25, q=0.75)"
    with pytest.raises(AttributeError):
        query.q = 0.5


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


def test_beta_omega_where_x_squared_underflows():
    # Below ~1.5e-162 x^2 rounds to 0 and y = 1 - x to 1; Omega is its
    # limit at x -> 0: a signed infinity, or -(b^2 - 1)/4 at a = 1.
    assert beta_omega(2.0, 3.0, 1e-300) == -math.inf
    assert beta_omega(0.5, 3.0, 1e-300) == math.inf
    assert beta_omega(1.0, 3.0, 1e-300) == -2.0
    assert beta_omega(1.0, 3.0, 1e-300) == beta_omega(1.0, 3.0, 1e-100)
    assert beta_omega(2.0, 3.0, 1e-160) == -math.inf


def test_beta_omega_where_a_shape_squared_overflows():
    # a^2 and (a - 1)(b - 1)/(2 x y) overflow together: the direct form is
    # inf - inf.  Regrouped, Omega is its x -> 0 limit at a small x, and
    # the finite -4(a - 1) where a = b and x = 1/2.
    assert beta_omega(1e200, 2.0, 1e-150) == -math.inf
    assert beta_omega(2.0, 1e200, 0.5) == -math.inf
    assert beta_omega(1e200, 1e200, 0.5) == pytest.approx(-4e200, rel=1e-15)


def test_beta_tails_where_omega_in_x_is_not_finite_converge():
    # Solved in x, the first three roots lie where Omega(x) is -inf (x^2
    # underflows or (a^2 - 1)/x^2 overflows) and raised OmegaNotFiniteError;
    # (30, 1e4) and its mirror crept down from a start 80x off and ended
    # MaxIter.  In the logit variable Omega is finite and every one
    # converges.  A subnormal p = 1e-315 holds only ~8 digits, and the
    # residual is flat to them, so that root is checked to 1e-8.
    for a, b, p, q in ((1.5, 3.0, 1e-300, 1 - 2**-53), (1.5, 3.0, 1e-315, 1 - 2**-53),
                       (2.0, 5.0, 1e-310, 1 - 2**-53), (30.0, 1e4, 1e-300, 1 - 2**-53),
                       (1e4, 30.0, 1 - 2**-53, 1e-300)):
        report = invert_beta(BetaQuantileQuery(a, b, p, q))
        assert report.converged, (a, b, p, report.reason)
        exact = beta_bisection_root(a, b, p, q)
        tol = 1e-12 if min(p, q) >= MIN_NORMAL else 1e-8
        assert abs(report.root - exact) <= tol * exact, (a, b, p, report.root, exact)


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
        assert beta_xm(ab, ab) == 0.5


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
        assert abs(q) <= 1e-15 * max(abs(g), abs(h), abs(i), abs(j))


def test_beta_xm_domain():
    with pytest.raises(ValueError):
        beta_xm(1.0, 2.0)
    with pytest.raises(ValueError):
        beta_xm(2.0, 0.5)
    for a, b in ((math.inf, 2.0), (2.0, math.inf), (math.nan, 2.0)):
        with pytest.raises(ValueError):
            beta_xm(a, b)


@pytest.mark.parametrize("fn", [beta_b, beta_omega, beta_omega_logit])
def test_public_b_and_omega_refuse_bad_shapes(fn):
    # The public forms check a and b as the query does; 0.5 is a valid x and z.
    for a, b in ((math.nan, 2.0), (2.0, math.nan), (math.inf, 2.0), (2.0, math.inf),
                 (0.0, 2.0), (2.0, -1.0)):
        with pytest.raises(ValueError):
            fn(a, b, 0.5)


@pytest.mark.parametrize("x", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_omega_refuses_points_outside_the_domain(x):
    with pytest.raises(ValueError):
        beta_omega(2.0, 3.0, x)


def test_beta_omega_logit_refuses_nan_z():
    with pytest.raises(ValueError):
        beta_omega_logit(2.0, 3.0, math.nan)


def test_problem_domains():
    query = BetaQuantileQuery(2.0, 3.0, 0.3)
    direct = BetaDirectProblem(query).domain()
    assert direct == Interval(0.0, 1.0, lo_open=True, hi_open=True)
    assert not direct.contains(0.0) and not direct.contains(1.0) and direct.contains(0.5)
    assert BetaLogitProblem(query).domain() == Interval(-math.inf, math.inf)


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
    rep = solve(step_only(plan.problem), plan.x0)
    steps = [r.step for r in rep.trace]
    assert all(s <= 0 for s in steps) or all(s >= 0 for s in steps)


def _work_residual(query: BetaQuantileQuery) -> float:
    """Round-trip residual on the side the double resolves.

    A root near 1 cannot carry the quantile below density * ulp(1), so
    the residual is read in the variable the solver holds exactly:
    |I_x(a, b) - p| at x = sigma(z) <= 1/2, else |I_y(b, a) - q| at
    y = sigma(-z) (the direct solve holds x, and y = 1 - x).
    """
    plan = beta_plan(query)
    report = solve(plan.problem, plan.x0, SolveOptions())
    assert report.converged, (query, report.reason)
    if plan.variable is Variable.LOGIT:
        x, y = _sigmoid(report.root), _sigmoid(-report.root)
    else:
        x, y = report.root, 1.0 - report.root
    if x <= 0.5:
        return abs(reg_beta(x, query.a, query.b) - query.p)
    return abs(reg_beta(y, query.b, query.a) - query.q)


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
            n_snm = solve(plan.problem, plan.x0, SolveOptions(method=Method.SNM)).iterations
            n_hal = solve(plan.problem, plan.x0, SolveOptions(method=Method.HALLEY)).iterations
            assert n_snm <= n_hal, (a, b, p, n_snm, n_hal)


def test_logit_path_fields_and_flags():
    # Both shapes <= 1: the logit path from the series where a power bound
    # within its reach names the half of (0, 1) that holds the root, else
    # from 1/2 clamped into the bounds' bracket [x_q, x_p]; in these three
    # the bound names the half, so the start lies in it.
    for query, start, below in ((BetaQuantileQuery(0.3, 0.6, 0.4), "series", True),
                                (BetaQuantileQuery(0.3, 0.7, 0.9), "series", False),
                                (BetaQuantileQuery(0.5, 0.5, 0.45), "bracket", True),
                                (BetaQuantileQuery(0.5, 0.5, 0.55), "bracket", False),
                                (BetaQuantileQuery(0.3, 0.7, 0.6), "bracket", True)):
        heur = invert_beta(query)
        assert (heur.variable, heur.start) == (Variable.LOGIT, start), query
        assert (heur.root < 0.5) == below, query
        plan = beta_plan(query)
        assert (plan.to_x(plan.x0) < 0.5) == below, query


def test_logit_omega_monotone_between_start_and_root():
    # The convergence hypothesis of the logit path for a <= 1 <= b: Omega
    # is non-increasing in z on the whole segment from the start to the
    # root.  The bound starts lie below the root; the series, where it
    # reaches, may land on either side.
    bound_starts = 0
    for a, b in itertools.product((0.05, 0.3, 0.5, 1.0), (1.5, 3.0, 30.0)):
        for p in P_GRID + (0.9, 0.95):
            plan = beta_plan(BetaQuantileQuery(a, b, p))
            assert plan.variable == Variable.LOGIT
            assert plan.start in ("lower-bound", "series"), (a, b, p, plan.start)
            report = invert_beta(BetaQuantileQuery(a, b, p))
            assert report.converged, (a, b, p)
            z = plan.from_x(report.root)
            if plan.start == "lower-bound":
                bound_starts += 1
                assert plan.x0 <= z, (a, b, p)
            lo, hi = sorted((plan.x0, z))
            vals = [beta_omega_logit(a, b, lo + (hi - lo) * k / 16) for k in range(17)]
            # To rounding: for a = 1 the start is the root itself.
            assert all(v1 >= v2 - 4e-16 * abs(v2) for v1, v2 in zip(vals, vals[1:])), (a, b, p)
    assert bound_starts >= 36, bound_starts


@pytest.mark.parametrize("a, b, p, root", [
    (1e-4, 1e-4, 0.3, 0.0),
    (1e-3, 0.5, 0.2, 0.0),
    (0.5, 1e-3, 0.9, 1.0),  # 1 - x ~ exp(-2300) rounds away
])
def test_tiny_shapes_end_in_root_underflow(a, b, p, root):
    # The root x ~ exp(-1600) or below is not representable: the solver
    # reports the nearest double, converged, as gamma's log path does, and
    # flags it.  Its mirror 1 - exp(-2300) is 1 to 1e-16 relative, not
    # flagged.
    report = invert_beta(BetaQuantileQuery(a, b, p))
    assert report.converged
    assert report.root == root
    assert report.root_underflow == (root == 0.0)
    assert report.variable is Variable.LOGIT
    # The inverted tail is reached already at the smallest positive double.
    if root == 0.0:
        assert reg_beta(5e-324, a, b) >= p
    else:
        assert reg_beta(5e-324, b, a) >= 1.0 - p


def test_side_rules():
    # a <= 1 <= b: Omega decreases in z, so the bound start lies below the
    # root, in either tail; a >= 1 >= b: Omega increases, it lies above it.
    for query, start in ((BetaQuantileQuery(0.5, 3.0, 0.8), "lower-bound"),
                         (BetaQuantileQuery(0.5, 30.0, 0.99), "lower-bound"),
                         (BetaQuantileQuery(0.9, 30.0, 0.4), "lower-bound"),
                         (BetaQuantileQuery(1.0, 2.0, 0.7), "lower-bound"),
                         (BetaQuantileQuery(3.0, 0.5, 0.2), "upper-bound"),
                         (BetaQuantileQuery(30.0, 0.5, 0.01), "upper-bound"),
                         (BetaQuantileQuery(30.0, 0.9, 0.6), "upper-bound"),
                         (BetaQuantileQuery(2.0, 1.0, 0.3), "upper-bound")):
        plan = beta_plan(query)
        assert (plan.variable, plan.start) == (Variable.LOGIT, start), query
        z = solve(plan.problem, plan.x0).root
        assert (plan.x0 <= z) if start == "lower-bound" else (plan.x0 >= z), query
    # Deep in the near tail, and for a = b = 1, the power bound is within
    # the series' reach, which starts from the bound moved toward the root.
    for query in (BetaQuantileQuery(0.5, 3.0, 1e-9), BetaQuantileQuery(3.0, 0.5, 1.0 - 1e-9),
                  BetaQuantileQuery(1.0, 1.0, 0.3)):
        plan = beta_plan(query)
        assert (plan.variable, plan.start) == (Variable.LOGIT, "series"), query
        assert solve(plan.problem, plan.x0).evaluations == 1, query
    # Both shapes > 1 solve in z too, from the asymptotic start, in either tail.
    for p in (0.4, 0.6):
        plan = beta_plan(BetaQuantileQuery(2.0, 3.0, p))
        assert (plan.variable, plan.start) == (Variable.LOGIT, "asymptotic")


def test_explicit_logit_variable_for_large_shapes():
    # The logit problem also serves a, b > 1, from the Omega maximum.
    a, b = 3.0, 4.0
    report = solve(step_only(BetaLogitProblem(BetaQuantileQuery(a, b, 0.3))),
                   _logit((a - 1.0) / (a + b - 2.0)))
    assert report.converged
    assert abs(reg_beta(_sigmoid(report.root), a, b) - 0.3) <= 1e-13


@pytest.mark.parametrize("a, b, p", [(1e17, 1.5, 0.3), (1e18, 2.0, 0.5)])
def test_start_rounding_to_one_is_clamped_inside_the_domain(a, b, p):
    # The asymptotic start rounds to x = 1 for a huge a.  Formed in z it
    # stays inside the domain, and the solve resolves 1 - x = sigma(-z)
    # where x itself is 1.0: 1 - I_x(a, b) = I_y(b, a) is the gamma limit
    # Q(b, u) at u = (a + (b - 1)/2) y, to O(y).
    query = BetaQuantileQuery(a, b, p)
    plan = beta_plan(query)
    assert (plan.variable, plan.start) == (Variable.LOGIT, "asymptotic")
    assert math.isfinite(plan.x0) and plan.to_x(plan.x0) == 1.0
    report = solve(plan.problem, plan.x0)
    assert report.converged, report.reason
    limit = invert_gamma(GammaQuantileQuery(b, query.q, query.p)).root / (a + 0.5 * (b - 1.0))
    assert _sigmoid(-report.root) == pytest.approx(limit, rel=1e-13)
    assert (invert_beta(query).root, invert_beta(query).root_underflow) == (1.0, False)


def test_logit_solves_past_the_sigmoid_saturation():
    # Beyond z ~ 37 sigma(z) rounds to 1, but 1 - x = sigma(-z) and f'
    # come from z, so a start there converges to the root.
    problem = BetaLogitProblem(BetaQuantileQuery(0.5, 0.5, 0.2))
    report = solve(problem, 50.0)
    assert report.converged, report.reason
    assert _sigmoid(report.root) == pytest.approx(
        invert_beta(BetaQuantileQuery(0.5, 0.5, 0.2)).root, rel=1e-14)
    # Far down the lower tail x = sigma(z) is 0, but the leading power
    # term e^(az) / (a B) is evaluated from z itself; far up, its mirror
    # e^(-bz) / (b B) gives 1 - I.
    e = problem.evaluate(-800.0)
    fp = math.exp(-400.0 - problem.ln_b)
    assert (e.f, e.fp, e.big_b, e.omega) == (fp / 0.5 - 0.2, fp, -0.5, -0.0625)
    e = problem.evaluate(800.0)
    fp = math.exp(-400.0 - problem.ln_b)
    assert (e.f, e.fp, e.big_b, e.omega) == ((1.0 - fp / 0.5) - 0.2, fp, 0.5, -0.0625)


# Starts in the subnormal band |z0| in (708, 745), where x = sigma(z) or
# 1 - x = sigma(-z) keeps few significant bits: through the beta kernel
# they end MaxIter.
SUBNORMAL_BAND = [
    (0.0017745513613895013, 385.5803019308725, 0.2763487602690605),
    (0.013005808178833338, 7288.7596348875795, 8.150487991816822e-05),
    (2922.470827876954, 0.014264918133826337, 0.9999697194723455),
    (0.0007583076909396173, 1.6387355736496565, 0.5768732785506532),
    (0.010316469273260893, 0.0098246503462947, 0.00023351812040685422),
    (0.001011517209297542, 1478.3663304859033, 0.4768995269578943),
    (0.0002617143550390213, 135931.2779816406, 0.8287409514211911),
]


@pytest.mark.parametrize("a, b, p", SUBNORMAL_BAND)
def test_subnormal_band_starts_solve_in_one_step(a, b, p):
    plan = beta_plan(BetaQuantileQuery(a, b, p))
    assert plan.variable is Variable.LOGIT and 708.0 < abs(plan.x0) < 745.0
    report = invert_beta(BetaQuantileQuery(a, b, p))
    # The deep tail's Omega is constant, so from a bound the one step is
    # exact and the predicted stop applies it without the evaluation that
    # would count it.  The series start, formed in z and not from the
    # subnormal x, is the root to within the residual stop.
    reason = StopReason.RESIDUAL_TOL if plan.start == "series" else StopReason.PREDICTED
    assert (report.reason, report.iterations, report.evaluations) == (reason, 0, 1)
    # Each root is subnormal and flagged, or its mirror: 1, not flagged.
    if plan.x0 > 0.0:
        assert report.root == 1.0 and not report.root_underflow
    else:
        assert 0.0 < report.root < MIN_NORMAL and report.root_underflow


@pytest.mark.parametrize("a, b, p", SUBNORMAL_BAND)
def test_subnormal_band_roots_match_mpmath(a, b, p):
    mpmath = pytest.importorskip("mpmath")
    query = BetaQuantileQuery(a, b, p)
    plan = beta_plan(query)
    z = solve(plan.problem, plan.x0).root
    # A root near 1 is the mirror of the root of I_y(b, a) = q in -z.
    sign, (wa, wb, wp) = (1, (a, b, p)) if z < 0.0 else (-1, (b, a, query.q))
    with mpmath.workdps(40):
        wa, wb, wp = mpmath.mpf(wa), mpmath.mpf(wb), mpmath.mpf(wp)
        exact = sign * mpmath.findroot(
            lambda t: mpmath.betainc(wa, wb, 0, 1 / (1 + mpmath.exp(-t)),
                                     regularized=True) - wp, mpmath.mpf(sign * z))
        assert abs((z - exact) / exact) <= 2e-15


def _power_term_switch(a, b):
    """The z below which the logit problem once evaluated only I_x's leading
    power term: DEEP_TAIL_Z, lower where the dropped terms, ~(a+b) e^z, need it."""
    return min(DEEP_TAIL_Z, math.log(2.0 ** -52) + math.log(min(a, 1.0)) - math.log(a + b))


@pytest.mark.parametrize("a, b", [(1e-4, 0.5), (1e-3, 3.0), (1e-2, 1e3), (0.3, 2.0),
                                  (0.5, 1e285), (1e-3, 1e280)])
def test_deep_tail_matches_the_kernel_at_the_switch(a, b):
    # Just below the old power-term switch the logit evaluation and the
    # kernel at x = sigma(z) agree: f where I_x is not swamped by p, f' and
    # B_z for every shape.
    p = 1e-15
    problem = BetaLogitProblem(BetaQuantileQuery(a, b, p))
    ln_b = problem.ln_b
    top = _power_term_switch(a, b)
    for z in (-700.0, top - 6.5, top - 1.25, top - 2.0 ** -40):
        e = problem.evaluate(z)
        x = _sigmoid(z)
        kernel_i = reg_beta(x, a, b)
        fp = math.exp(a * math.log(x) + b * math.log1p(-x) - ln_b)
        assert e.fp == pytest.approx(fp, rel=1e-15, abs=0.0), (z, e.fp, fp)
        assert e.big_b == pytest.approx((a + b) * x - a, rel=1e-15, abs=0.0)
        if kernel_i > 1e-9:
            assert e.f == pytest.approx(kernel_i - p, rel=1e-15, abs=0.0), (z, e.f)


DEEP_SHAPES = [(1e-4, 0.5), (1e-3, 1e280), (0.5, 1e285), (20.0, 30.0)]


@pytest.mark.parametrize("a, b", DEEP_SHAPES + [(b, a) for a, b in DEEP_SHAPES])
@pytest.mark.parametrize("p", [1e-15, 0.7])
def test_deep_tails_evaluate_to_the_power_term_bit_for_bit(a, b, p):
    # Well past the old power-term switch (below it, or above its mirror)
    # the kernel at x = sigma(z), with its prefactor from z, returns the
    # leading power term exactly: f' = e^(az) / B(a, b), I = f' / a,
    # B_z = -a and Omega = -a^2/4, or the mirror in b and 1 - I.  Where f'
    # underflows the evaluation raises (KernelError first where a shape's
    # square overflows the fraction).  Nearer the switch where a + b is
    # huge, B_z and Omega keep terms of ~(a+b) e^z that the power term drops.
    problem = BetaLogitProblem(BetaQuantileQuery(a, b, p))
    ln_b = problem.ln_b
    lo, hi = _power_term_switch(a, b), -_power_term_switch(b, a)
    for z in (lo - 30.0, lo - 300.0, -1e5, hi + 30.0, hi + 300.0, 1e5):
        if z < 0.0:
            fp = math.exp(a * z - ln_b)
            i = fp / a
            j, big_b, omega = 1.0 - i, -a, -0.25 * a * a
        else:
            fp = math.exp(-b * z - ln_b)
            j = fp / b
            i, big_b, omega = 1.0 - j, b, -0.25 * b * b
        assert problem.omega(z) == omega, z
        if fp == 0.0:
            with pytest.raises(SnmError):
                problem.evaluate(z)
            continue
        e = problem.evaluate(z)
        f = i - p if p <= 0.5 else problem.q - j
        assert (e.f, e.fp, e.big_b, e.omega) == (f, fp, big_b, omega), z


def _mp_logit_root(a, b, p, z):
    """The root in z of I_x(a, b) = p, x = sigma(z), by mpmath Newton steps from z.

    I_x = x^a (1-x)^b / (a B(a, b)) 2F1(a+b, 1; a+1; x), at 400 digits so
    that ln B(a, b) resolves for shapes up to 1e308.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(400):
        a, b, p, z = (mpmath.mpf(v) for v in (a, b, p, z))
        ln_b = mpmath.log(mpmath.beta(a, b))
        for _ in range(3):
            x = 1 / (1 + mpmath.exp(-z))
            fp = mpmath.exp(a * mpmath.log(x) + b * mpmath.log1p(-x) - ln_b)
            z -= (fp / a * mpmath.hyp2f1(a + b, 1, a + 1, x) - p) / fp
        return z


# a + b above ~1e274: the terms the leading power term drops, about
# (a+b) e^z, still count below DEEP_TAIL_Z.  (1e300, 0.5, 0.5) is the mirror of
# (0.5, 1e300, 0.5): its root 1 - 2.3e-301 rounds to 1.
HUGE_SHAPES = [
    (0.5, 1e300, 0.5), (1e300, 0.5, 0.5), (0.5, 1e280, 0.3), (0.1, 1e300, 0.2),
    (0.5, 1e300, 1e-6), (2e-3, 1e300, 0.01), (0.9, 1e305, 0.7),
]


@pytest.mark.parametrize("a, b, p", HUGE_SHAPES)
def test_huge_shape_roots_match_mpmath(a, b, p):
    query = BetaQuantileQuery(a, b, p)
    plan = beta_plan(query)
    report = invert_beta(query)
    assert report.converged, report.reason
    z = solve(plan.problem, plan.x0).root
    if z < 0.0:
        exact = _mp_logit_root(a, b, p, z)
    else:  # the mirror: I_y(b, a) = q at y = sigma(-z)
        exact = -_mp_logit_root(b, a, query.q, -z)
    assert abs((z - exact) / exact) <= 2e-15, (z, float(exact))
    assert report.root_underflow == (report.root < MIN_NORMAL)
    if (a, b, p) == (0.5, 1e300, 0.5):
        # b x = P^-1(1/2, 1/2) = 0.2275; the power term alone gives 1.96e-301.
        assert report.root == pytest.approx(2.2746821155979e-301, rel=1e-12)


def test_root_rounding_to_one_is_not_flagged():
    # 1 - x ~ 1e-21 is below 2^-54 here, so x rounds to 1: exact in x to
    # 1e-16 relative.  The solve holds 1 - x = sigma(-z) exactly.
    query = BetaQuantileQuery(5.0, 0.1, 0.99)
    report = invert_beta(query)
    assert report.converged and report.start == "series"
    assert report.root == 1.0 and not report.root_underflow
    plan = beta_plan(query)
    y = _sigmoid(-solve(plan.problem, plan.x0).root)
    assert 0.0 < y < 2.0 ** -54
    assert reg_beta(y, 0.1, 5.0) == pytest.approx(0.01, rel=1e-13)


# Past the mirrored-fraction switch (a+1)/(a+b+2) with 1 - x rounding to 1
# (b above ~1.8e16 (a+1)), where both continued fractions fail.
ONE_MINUS_X_LOST = [(0.27943915834916794, 2.925171694501003e+251), (0.05, 1e20),
                    (3.5, 3e20), (300.0, 3e20)]


@pytest.mark.parametrize("a, b", ONE_MINUS_X_LOST)
def test_reg_beta_where_one_minus_x_rounds_to_one_is_continuous(a, b):
    # On either side of the switch two independent evaluations meet: the
    # direct fraction below it, the gamma limit above it.
    switch = (a + 1.0) / (a + b + 2.0)
    below, above = math.nextafter(switch, 0.0), math.nextafter(switch, 1.0)
    assert 1.0 - above == 1.0
    assert reg_beta(above, a, b) == pytest.approx(reg_beta(below, a, b), rel=1e-14)
    values = [reg_beta(y / b, a, b) for y in (a + 2.0, a + 5.0, a + 20.0, a + 100.0, 700.0)]
    assert all(0.0 < v <= 1.0 for v in values)
    assert values == sorted(values)


@pytest.mark.parametrize("a, b", ONE_MINUS_X_LOST)
def test_reg_beta_where_one_minus_x_rounds_to_one_matches_mpmath(a, b):
    mpmath = pytest.importorskip("mpmath")
    for y in (a + 2.0, a + 5.0, a + 20.0, a + 100.0):
        x = y / b
        assert 1.0 - x == 1.0 and x > (a + 1.0) / (a + b + 2.0)
        # I_x = x^a (1-x)^b / (a B(a, b)) 2F1(a+b, 1; a+1; x); the digits
        # must cover the cancellations of size b in ln B(a, b) and 2F1.
        with mpmath.workdps(100 + int(1.2 * math.log10(b))):
            am, bm, xm = (mpmath.mpf(v) for v in (a, b, x))
            exact = (mpmath.exp(am * mpmath.log(xm) + bm * mpmath.log1p(-xm)
                                - mpmath.log(mpmath.beta(am, bm)))
                     / am * mpmath.hyp2f1(am + bm, 1, am + 1, xm))
        got = reg_beta(x, a, b)
        assert abs(got - exact) <= 1e-15 * exact, (y, got, float(exact))


def test_huge_shape_upper_query_converges():
    # (a, b) = (2.9e251, 0.279): the root's 1 - x lies above the mirrored
    # switch (b+1)/(a+b+2), where x rounds to 1, so the kernel takes the
    # gamma limit in 1 - x; it used to raise a bare ValueError.
    query = BetaQuantileQuery(2.925171694501003e+251, 0.27943915834916794,
                              0.0004406312607439148)
    report = invert_beta(query)
    assert report.converged and report.start == "upper-bound"
    assert report.root == 1.0 and not report.root_underflow
    plan = beta_plan(query)
    y = _sigmoid(-solve(plan.problem, plan.x0).root)
    # The root of the gamma limit Q(b, a y) = p, to the resolution of
    # y = e^-z at z ~ 577 (ulp(z) ~ 1.1e-13).
    limit = invert_gamma(GammaQuantileQuery(query.b, query.q, query.p)).root / query.a
    assert abs(y - limit) <= 1e-13 * limit


def test_tiny_shape_fuzz_converges_and_flags_by_the_rule():
    # One shape tiny, the other anywhere: many plans start in a deep tail,
    # |z| > 667, some in the subnormal band.
    rng = random.Random("beta-deep-tail")
    deep = band = 0
    for _ in range(2000):
        tiny, other = log_uniform(rng, 1e-4, 3e-2), log_uniform(rng, 1e-3, 1e5)
        a, b = (tiny, other) if rng.random() < 0.5 else (other, tiny)
        query = BetaQuantileQuery(a, b, rng.uniform(0.001, 0.999))
        plan = beta_plan(query)
        report = invert_beta(query)
        if abs(plan.x0) > -DEEP_TAIL_Z:
            deep += 1
            band += 708.0 < abs(plan.x0) < 745.0
            assert report.converged, (query, report.reason)
        assert report.root_underflow == (report.root < MIN_NORMAL), (query, report.root)
    assert deep >= 500 and band >= 5, (deep, band)


def test_quantile_monotone_in_p():
    for a, b in ((0.4, 2.0), (2.0, 3.0)):
        roots = [invert_beta(BetaQuantileQuery(a, b, p)).root
                 for p in (0.05, 0.25, 0.5, 0.75, 0.95)]
        assert all(r1 < r2 for r1, r2 in zip(roots, roots[1:]))


def test_mirror_roots_agree():
    # root(a, b, p, q) = 1 - root(b, a, q, p), each solved in its own tail
    # from its own plan; compared where both roots are away from 0 and 1.
    rng = random.Random("beta-mirror")
    compared = 0
    for _ in range(400):
        a, b = log_uniform(rng, 0.05, 200.0), log_uniform(rng, 0.05, 200.0)
        t = log_uniform(rng, 1e-15, 0.5)
        p, q = (t, 1.0 - t) if rng.random() < 0.5 else (1.0 - t, t)
        x = invert_beta(BetaQuantileQuery(a, b, p, q))
        y = invert_beta(BetaQuantileQuery(b, a, q, p))
        assert x.converged and y.converged, (a, b, p)
        if 1e-3 <= x.root <= 1.0 - 1e-3 and 1e-3 <= y.root <= 1.0 - 1e-3:
            compared += 1
            assert abs(x.root - (1.0 - y.root)) <= 1e-12 * x.root, (a, b, p, x.root, y.root)
    assert compared >= 100, compared


# Shape classes of the plan: direct, Omega decreasing in z (lower-bound
# start), Omega increasing (upper-bound start), both shapes < 1.
SHAPE_CLASSES = {
    "a,b>1": ((1.0, 200.0), (1.0, 200.0)),
    "a<=1<=b": ((0.05, 1.0), (1.0, 200.0)),
    "a>=1>=b": ((1.0, 200.0), (0.05, 1.0)),
    "a,b<1": ((0.05, 1.0), (0.05, 1.0)),
}


@pytest.mark.parametrize("tail", ["lower", "upper"])
@pytest.mark.parametrize("shapes", sorted(SHAPE_CLASSES))
def test_each_class_and_tail_meets_the_contract(shapes, tail):
    # The smaller tail log-uniform down to 1e-15, on the given side: each
    # root within 1e-12 (relative in x) of a logit bisection on the same
    # kernel, in at most 5 iterations.  (5 is reached only on the far side
    # of a mixed-shape class with a central tail, q or p ~ 1e-2, where both
    # power bounds are loose: 6 of 16,000 queries of a wider fuzz; the
    # bench's tails below 1e-6 take at most 3.)
    rng = random.Random(f"beta-class:{shapes}:{tail}")
    (a_lo, a_hi), (b_lo, b_hi) = SHAPE_CLASSES[shapes]
    for _ in range(60):
        a, b = log_uniform(rng, a_lo, a_hi), log_uniform(rng, b_lo, b_hi)
        t = log_uniform(rng, 1e-15, 0.5)
        p, q = (t, 1.0 - t) if tail == "lower" else (1.0 - t, t)
        report = invert_beta(BetaQuantileQuery(a, b, p, q))
        assert report.converged and report.iterations <= 5, (a, b, p, q, report.reason)
        exact = beta_bisection_root(a, b, p, q)
        assert abs(report.root - exact) <= 1e-12 * exact, (a, b, p, q, report.root, exact)


@pytest.mark.parametrize("a, b, p, q", [
    # Ended MaxIter when flipped to the working a <= 1 < b upper tail.
    (17776.964141263823, 0.37939188950473945, 0.025015937508218677, None),
    # Read I - p for p near 1, and stopped 1.3e-4 off the root.
    (0.5, 50.0, 1.0 - 1e-12, 1e-12),
])
def test_formerly_failing_queries_meet_the_contract(a, b, p, q):
    query = BetaQuantileQuery(a, b, p, q)
    report = invert_beta(query)
    assert report.converged, report.reason
    exact = beta_bisection_root(a, b, query.p, query.q)
    assert abs(report.root - exact) <= 1e-12 * exact, (report.root, exact)


def test_huge_b_upper_tail_solves_in_place():
    # Flipped for p > 1/2, the root 1 - 2.7e-19 of the working query
    # rounded to 1 and the solve ended DerivativeVanished.  Solved in place
    # from x_q = -expm1(log y_q), 1.8e-4 above the root, one step ends on
    # its predicted error; the root is b x = P^-1(30, 0.7) to O(a/b).
    report = invert_beta(BetaQuantileQuery(30.0, 1e20, 0.7))
    assert report.converged and report.evaluations <= 2, report.reason
    limit = invert_gamma(GammaQuantileQuery(30.0, 0.7)).root / 1e20
    assert report.root == pytest.approx(limit, rel=1e-14)


def test_raised_bound_start_needs_no_fallback():
    # A&S falls below the power bound x_p deep in the lower tail with
    # a >> b; x_p is 1.4e-3 below the root, where f is flat.  The raised
    # bound started within a few 1e-5 of it; Temme's start, which replaced
    # both, starts within 4e-8.  The mirror query is the same.
    for query in (BetaQuantileQuery(5657.13139006249, 2.6443060919804178, 5.825212535101873e-15),
                  BetaQuantileQuery(2.6443060919804178, 5657.13139006249,
                                    1.0 - 5.825212535101873e-15, 5.825212535101873e-15)):
        plan = beta_plan(query)
        report = solve(plan.problem, plan.x0)
        assert report.converged and report.evaluations <= 3, (query, report.evaluations)
        assert not any(r.fallback_used for r in report.trace)
        assert abs(plan.to_x(plan.x0) - plan.to_x(report.root)) <= 1e-4


def test_halley_bounce_on_the_fraction_s_noise_ends_on_the_noise_stop(monkeypatch):
    # SNM solves of the bench sets never end on the noise stop; Halley and
    # Newton ones near the fraction's switch do.  This Halley solve bounces
    # on the residual's rounding noise and, without the stop, runs out of
    # iterations.  (The query first pinned here, (3.06, 195.4, 0.885), now
    # starts close enough to end on the residual stop.)
    a, b, p, q = 13.886909099452566, 1477.159074757651, 0.3767305098234236, 0.6232694901765764
    query = BetaQuantileQuery(a, b, p, q)
    report = invert_beta(query, SolveOptions(method="halley"))
    assert report.converged and report.reason is StopReason.NOISE_FLOOR
    assert report.evaluations == 4
    assert abs(report.root - beta_bisection_root(a, b, p, q)) <= 1e-12
    monkeypatch.setattr(snm.core, "NOISE_STEPS", 0.0)
    assert invert_beta(query, SolveOptions(method="halley")).reason is StopReason.MAX_ITER


@pytest.mark.parametrize("a, b, p, q, root", [
    (1.0, 1.0, 1e-300, 1.0 - 2.0 ** -53, 1e-300),
    (1.0, 2.0, 1e-300, 1.0 - 2.0 ** -53, 5e-301),
    (2.0, 1.0, 1.0 - 2.0 ** -53, 1e-300, 1.0),
])
def test_tiny_tail_with_its_rounded_complement(a, b, p, q, root):
    # q = 1 - 2^-53 stands for 1 - 1e-300; the bound it gives on the far
    # side (1 - x_q = 1.1e-16, or its mirror) is no bound of this root,
    # so the start comes from the tiny tail's own bound.
    report = invert_beta(BetaQuantileQuery(a, b, p, q))
    assert report.converged, report.reason
    assert report.root == pytest.approx(root, rel=1e-12)


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.3, 5.0), (5.0, 0.3), (1.5, 3.0), (2.0, 5.0),
                                  (30.0, 1e4)])
@pytest.mark.parametrize("tail", [1e-20, 1e-100, 1e-300])
@pytest.mark.parametrize("upper", [False, True], ids=["p", "q"])
def test_a_tail_given_alone_meets_the_contract(a, b, tail, upper):
    # p given alone (q rounds to 1), or q with p = 1.0, for every plan
    # class: the root is within 1e-12 of the logit-space bisection root.
    # Deep in a tail I_x = x^a / (a B) (or 1 - I_x = (1-x)^b / (b B)) to
    # (a + b) e^-|z| relative, and the root in z is that term's to
    # rounding; there x may underflow (the report says so) or 1 - x fall
    # below 2^-54 (the root is 1.0), so z is checked, to 1e-12 absolute.
    query = BetaQuantileQuery(a, b, 1.0, tail) if upper else BetaQuantileQuery(a, b, tail)
    report = invert_beta(query)
    assert report.converged, report.reason
    ln_b = ln_beta(a, b)
    if upper:
        z_lead = -(math.log(tail) + math.log(b) + ln_b) / b
    else:
        z_lead = (math.log(tail) + math.log(a) + ln_b) / a
    if abs(z_lead) > 40.0:
        plan = beta_plan(query)
        assert abs(solve(plan.problem, plan.x0).root - z_lead) <= 1e-12, z_lead
    if z_lead < math.log(MIN_NORMAL) - 1.0:
        assert report.root_underflow
    elif z_lead < 690.0:
        exact = beta_bisection_root(a, b, query.p, query.q)
        assert abs(report.root - exact) <= 1e-12 * exact, (report.root, exact)


@pytest.mark.parametrize("p, q", [(1e-300, None), (1e-300, 1.0 - 2.0 ** -53), (1e-100, None)])
def test_a_deep_tail_with_a_far_below_b_ends_at_the_series_start(p, q):
    # A&S, clamped by the raised power bound, took 7, 7 and 4 evaluations
    # here; the power bound is within the series' reach, so the series
    # start takes one.
    query = BetaQuantileQuery(30.0, 1e4, p, q)
    report = invert_beta(query)
    assert report.converged, report.reason
    assert (report.start, report.evaluations) == ("series", 1)
    exact = beta_bisection_root(*query)
    assert abs(report.root - exact) <= 1e-12 * exact, (report.root, exact)


def test_the_upper_tail_given_alone_stays_past_the_series_reach():
    # y_q = 0.958 > 1/2: the series does not reach it.  The clamped A&S
    # start took 4 evaluations; Temme's takes 1.
    query = BetaQuantileQuery(30.0, 1e4, 1.0, 1e-100)
    report = invert_beta(query)
    assert report.converged, report.reason
    assert report.start == "asymptotic" and report.evaluations <= 4, report
    exact = beta_bisection_root(*query)
    assert abs(report.root - exact) <= 1e-12 * exact, (report.root, exact)


def _asymptotic_queries(n=500):
    # Shapes log-uniform in [1.5, 1e5], the smaller tail log-uniform in
    # [1e-15, 1/2] on a random side; only the queries past the series
    # start's reach, which start at Temme's inversion.
    rng = random.Random("beta-temme-start")
    out = []
    for _ in range(n):
        a, b = log_uniform(rng, 1.5, 1e5), log_uniform(rng, 1.5, 1e5)
        tail = log_uniform(rng, 1e-15, 0.5)
        p, q = (tail, 1.0 - tail) if rng.random() < 0.5 else (1.0 - tail, tail)
        query = BetaQuantileQuery(a, b, p, q)
        if beta_plan(query).start == "asymptotic":
            out.append(query)
    return out


def test_temme_starts_lie_between_the_power_bounds_and_mostly_end_at_once():
    queries = _asymptotic_queries()
    assert len(queries) >= 350, len(queries)
    evaluations = []
    for query in queries:
        z = beta_plan(query).x0
        log_x_p, log_y_q = _power_bounds(query)
        # log x and log(1 - x) of the start, from z.
        assert -math.log1p(math.exp(-z)) >= log_x_p - 1e-12 * abs(log_x_p), query
        assert -math.log1p(math.exp(z)) >= log_y_q - 1e-12 * abs(log_y_q), query
        report = invert_beta(query)
        assert report.converged, (query, report.reason)
        if query.a + query.b >= 40.0:
            evaluations.append(report.evaluations)
    assert sum(evaluations) <= 1.25 * len(evaluations), sum(evaluations) / len(evaluations)


def test_logit_of_keeps_one_minus_x_below_2_to_the_minus_53():
    # 1 - x = -expm1(log x) is taken as it is, not raised to 2^-53 (logit
    # 36.7).  A Temme start past the bound x_q < 2^-53 of this huge-b upper
    # tail is clamped to it; the capped value, z = -36.7, sent the solve to
    # a KernelError.
    assert _logit_of(-1e-200) == pytest.approx(-math.log(1e-200), rel=1e-15)
    assert _logit_of(0.0) == pytest.approx(_logit(1.0 - 2.0 ** -53), rel=1e-15)
    report = invert_beta(BetaQuantileQuery(3.338524721437965, 3.111441181250481e+234,
                                           1.0, 5.098624283202358e-25))
    assert report.converged and 0.0 < report.root < 1e-232, report


def _p_at_zeta(a, b, zeta):
    """(p, q) whose eta0 = Phi^-1(p)/sqrt(a + b) is zeta sqrt(x0 y0), x0 = a/(a + b)."""
    t = zeta * math.sqrt(a * b / (a + b))
    normal = NormalDist()
    return normal.cdf(t), normal.cdf(-t)


@pytest.mark.parametrize("a, b", [(1.5, 600.0), (600.0, 1.5), (1.2, 3.0), (30.0, 40.0),
                                  (2.0, 2e5), (1e6, 1e6), (30.0, 1e12)])
def test_temme_start_is_continuous_across_its_small_eta_series(a, b):
    # Below |eta0| = 1e-2 sqrt(x0 y0) eps1 and eps2 are their series, where
    # their closed forms cancel; the two sides meet within rounding.  At
    # p = 1/2 exactly, eta0 = 0, and the start is the series' limit.
    def start(p, q):
        plan = beta_plan(BetaQuantileQuery(a, b, p, q))
        assert plan.start == "asymptotic", (a, b, p)
        return plan.x0

    for zeta in (1e-2, -1e-2):
        inside = start(*_p_at_zeta(a, b, zeta * (1.0 - 1e-9)))
        outside = start(*_p_at_zeta(a, b, zeta * (1.0 + 1e-9)))
        assert abs(inside - outside) <= 1e-7, (zeta, inside, outside)
    half = start(0.5, 0.5)
    assert math.isfinite(half)
    for p in (0.5 - 1e-12, 0.5 + 1e-12):
        assert abs(start(p, 1.0 - p) - half) <= 1e-9, p


def test_series_starts_meet_the_contract_mostly_in_one_evaluation():
    # Shapes log-uniform in [0.05, 200], the smaller tail log-uniform in
    # [1e-15, 1/2] on a random side: every solve from a series start meets
    # the contract, or reports a root below the smallest normal double with
    # ``root_underflow``, and nine in ten end at their first evaluation.
    rng = random.Random("beta-series-start")
    series = single = 0
    for _ in range(600):
        a, b = log_uniform(rng, 0.05, 200.0), log_uniform(rng, 0.05, 200.0)
        tail = log_uniform(rng, 1e-15, 0.5)
        p, q = (tail, 1.0 - tail) if rng.random() < 0.5 else (1.0 - tail, tail)
        query = BetaQuantileQuery(a, b, p, q)
        report = invert_beta(query)
        if report.start != "series":
            continue
        series += 1
        single += report.evaluations == 1
        assert report.converged, (query, report.reason)
        if report.root_underflow:
            continue
        exact = beta_bisection_root(a, b, p, q)
        assert abs(report.root - exact) <= 1e-12 * exact, (query, report.root, exact)
    assert series >= 300 and single >= 0.9 * series, (series, single)


@pytest.mark.parametrize("a, b", [(3.0, 1.5), (1.5, 3.0), (200.0, 1.5), (2.0, 5.0), (5.0, 2.0)])
@pytest.mark.parametrize("q", [1e-100, 1e-300])
def test_deep_upper_tail_starts_in_z(a, b, q):
    # 1 - x is below 2^-53.  The A&S start, clamped by the raised upper
    # bound, is formed in z, so it need not walk out from logit(1 - 2^-53)
    # = 36.7 (14 to 20 evaluations from there, or MaxIter at (5, 2)).
    report = invert_beta(BetaQuantileQuery(a, b, 1.0, q))
    assert report.converged, report.reason
    assert report.evaluations <= 3, report.evaluations
    assert (report.root, report.variable) == (1.0, Variable.LOGIT)


@pytest.mark.parametrize("a", [1e6, 1e8])
def test_large_equal_shapes_match_the_bisection_root(a):
    # The logit problem forms its prefactor with Stirling's shifted exponent
    # at a, b >= 16; from z directly, its ~eps (a + b) error put (1e6, 1e6)
    # 6.8e-13 and (1e8, 1e8) 1.7e-11 off.
    report = invert_beta(BetaQuantileQuery(a, a, 0.3))
    exact = beta_bisection_root(a, a, 0.3, 0.7)
    assert report.converged, report.reason
    assert abs(report.root - exact) <= 1e-14 * exact, (report.root, exact)


def _a_two_root(b, q):
    """The x of 1 - I_x(2, b) = (1 - x)^b (1 + b x) = q, by bisection in x.

    The closed form shares nothing with the kernel.  Its exponent's two
    terms cancel where b x is small, so it serves p >= 0.3 only.  At x = 1
    it is 0, where log1p(-x) has no value.
    """
    def residual(x):
        return q - math.exp(b * math.log1p(-x) + math.log1p(b * x)) if x < 1.0 else q
    return bisect_root(residual, 0.0, 1.0)


@pytest.mark.parametrize("b, p", [
    *itertools.product((1e4, 1e5, 3e5, 1e6, 3e6, 1e7), (0.3, 0.5, 0.7, 0.99)),
    (3e7, 0.99),
    pytest.param(1e8, 0.99, marks=pytest.mark.xfail(
        strict=True, reason="1.1e-11 off: the fraction's rounding past its symmetry switch "
                            "grows with b; BGRAT (ROADMAP item 5)")),
])
def test_a_equal_two_roots_match_the_closed_form(b, p):
    # A wrong root reported as converged: solved in x, (2, 3e5, 0.99) was
    # 1.2e-12 and (2, 1e6, 0.99) 3.2e-12 off this closed form.  With the
    # fraction's first term formed without cancellation, (2, 1e7, 0.99) went
    # from 2.3e-11 to 2.3e-13 off and (2, 3e6, 0.99) from 9.1e-12 to 1.8e-13.
    report = invert_beta(BetaQuantileQuery(2.0, b, p))
    exact = _a_two_root(b, 1.0 - p)
    assert report.converged, report.reason
    assert abs(report.root - exact) <= 1e-12 * exact, (report.root, exact)


def _both_below_one_queries(n=300):
    # Shapes log-uniform in [0.05, 1), either tail, the smaller tail
    # log-uniform in [1e-15, 1/2].
    rng = random.Random("beta-both-below-one")
    out = []
    for _ in range(n):
        a, b = (math.exp(rng.uniform(math.log(0.05), 0.0)) for _ in range(2))
        tail = math.exp(rng.uniform(math.log(1e-15), math.log(0.5)))
        p, q = (tail, 1.0 - tail) if rng.random() < 0.5 else (1.0 - tail, tail)
        out.append(BetaQuantileQuery(a, b, p, q))
    return out


def _power_bounds(query):
    """log x_p, from x^a / (a B) = p, and log(1 - x_q), from (1 - x)^b / (b B) = q."""
    a, b, p, q = query.a, query.b, query.p, query.q
    ln_b = ln_beta(a, b)
    return ((math.log(p) + math.log(a) + ln_b) / a, (math.log(q) + math.log(b) + ln_b) / b)


def _kernel_residual(query, log_x, log_y):
    """I_x - p (q - (1 - I_x) for p > 1/2) by the kernel, at x = e^log_x, 1 - x = e^log_y."""
    a, b = query.a, query.b
    x, y = math.exp(log_x), math.exp(log_y)
    i, j = _reg_beta(x, y, a, b, math.exp(_beta_exponent(a, b, x, y, ln_beta(a, b))))
    return i - query.p if query.p <= 0.5 else query.q - j


def _half_is_below_the_root(query):
    """The kernel's side: I_(1/2) < p."""
    return _kernel_residual(query, math.log(0.5), math.log(0.5)) < 0.0


def test_both_below_one_roots_lie_in_the_power_bracket():
    # For a, b < 1, (1 - t)^(b-1) >= 1 and t^(a-1) >= 1 make I_x >= x^a / (a B)
    # and 1 - I_x >= (1 - x)^b / (b B): x_q <= root <= x_p.  Near x = 0 (or 1)
    # a bound is tight, I_x = x^a / (a B) (1 + O(x)), and meets the root to
    # rounding (1.1e-13 relative at a = 0.05), so the test allows the 1e-12
    # relative accuracy of the solvers' contract.
    for query in _both_below_one_queries():
        log_x_p, log_y_q = _power_bounds(query)
        root = beta_bisection_root(query.a, query.b, query.p, query.q)
        assert -math.expm1(log_y_q) <= root * (1.0 + 1e-12), query
        assert root <= math.exp(log_x_p) * (1.0 + 1e-12), query


def test_the_bracket_s_side_agrees_with_the_kernel_s():
    # The kernel's residual changes sign across [x_q, x_p], to within the
    # residual stop where a bound is tight, so 1/2 clamped into it is a
    # start whichever half holds the root.
    decided = 0
    for query in _both_below_one_queries():
        log_x_p, log_y_q = _power_bounds(query)
        below = query.p <= 0.5 and log_x_p <= math.log(0.5)
        above = query.q <= 0.5 and log_y_q <= math.log(0.5)
        tol = RESIDUAL_NOISE_FLOOR * min(query.p, query.q)
        if log_y_q < 0.0:
            assert _kernel_residual(query, math.log1p(-math.exp(log_y_q)), log_y_q) <= tol, query
        if log_x_p < 0.0:
            assert _kernel_residual(query, log_x_p, math.log1p(-math.exp(log_x_p))) >= -tol, query
        plan = beta_plan(query)
        if plan.start == "series":  # only from a bound that names the half
            assert (query.p > 0.5) == _half_is_below_the_root(query), query
            assert below or above, query
        else:
            z_q = -_logit_of(log_y_q) if log_y_q < 0.0 else -math.inf
            z_p = _logit_of(log_x_p) if log_x_p < 0.0 else math.inf
            assert (plan.start, plan.x0) == ("bracket", max(z_q, min(z_p, 0.0))), query
        if below or above:
            decided += 1
            assert above == _half_is_below_the_root(query), query
    assert 0 < decided < 300, decided


def test_a_tail_at_most_1e_minus_6_plans_without_the_kernel(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _reg_beta(*args)

    monkeypatch.setattr(snm.beta, "_reg_beta", counted)
    planned = 0
    for query in _both_below_one_queries():
        if min(query.p, query.q) <= 1e-6:
            beta_plan(query)
            planned += 1
    assert planned > 50 and calls[0] == 0, (planned, calls[0])
    # Nor where 1/2 lies between the bounds: the start is 1/2 itself.
    assert beta_plan(BetaQuantileQuery(0.5, 0.5, 0.48)).x0 == 0.0
    assert calls[0] == 0
