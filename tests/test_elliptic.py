"""Elliptic-integral inversion: Omega structure, starts, round trips."""

import math
import random

import pytest

from snm.core import (
    MIN_NORMAL,
    Method,
    RESIDUAL_NOISE_FLOOR,
    SnmError,
    SolveOptions,
    StepUndefinedError,
    StopReason,
    Variable,
    halley_step,
    snm_step,
    solve,
)
from snm.elliptic import (
    MONOTONE_OMEGA_MODULUS,
    EllipticProblem,
    EllipticQuery,
    choose_start,
    ellip_omega,
    ellip_start_high,
    ellip_start_low,
    ellip_xc,
    ellip_xe,
    elliptic_plan,
    invert_ellip_e,
)
from snm.special import ellip_e_complete, ellip_e_inc

from conftest import elliptic_bisection_root, log_uniform, step_only

M_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)
P_GRID = tuple(0.05 * i for i in range(1, 20))


def test_query_validation():
    with pytest.raises(ValueError):
        EllipticQuery(1.5, 0.5)
    with pytest.raises(ValueError):
        EllipticQuery(0.5, 0.0)


def test_omega_zero_modulus():
    for x in (0.0, 0.7, 1.5):
        assert ellip_omega(0.0, x) == 0.0


def test_omega_sign_change_at_xc():
    for m in (0.2, 0.5, 0.6, 0.9):
        xc = ellip_xc(m)
        assert ellip_omega(m, xc - 1e-3) < 0.0
        assert ellip_omega(m, xc + 1e-3) > 0.0
        assert abs(ellip_omega(m, xc)) <= 1e-12


def test_omega_singular_at_m_one_endpoint():
    with pytest.raises(ValueError):
        ellip_omega(1.0, math.pi / 2)
    # fine just inside
    assert ellip_omega(1.0, 1.5) < 0.0 or ellip_omega(1.0, 1.5) > 0.0


def test_omega_refuses_modulus_outside_unit_interval():
    for m in (2.0, -0.5, math.nan):
        with pytest.raises(ValueError):
            ellip_omega(m, 0.5)


def test_xc_limits_and_monotonicity():
    assert ellip_xc(1.0) == pytest.approx(math.pi / 2, abs=1e-12)
    assert ellip_xc(1e-9) == pytest.approx(math.pi / 4, abs=1e-12)
    assert ellip_xc(1e-6) == pytest.approx(math.pi / 4, abs=1e-10)
    values = [ellip_xc(m) for m in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0)]
    assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


def test_xe_threshold_and_extremum():
    with pytest.raises(ValueError):
        ellip_xe(MONOTONE_OMEGA_MODULUS)
    assert ellip_xe(MONOTONE_OMEGA_MODULUS + 1e-9) == pytest.approx(0.0, abs=1e-3)
    m = 0.9
    xe = ellip_xe(m)
    h = 1e-6
    d = (ellip_omega(m, xe + h) - ellip_omega(m, xe - h)) / (2 * h)
    assert abs(d) <= 1e-8
    assert xe < ellip_xc(m)
    # interior minimum
    assert ellip_omega(m, xe) < ellip_omega(m, xe - 0.1)
    assert ellip_omega(m, xe) < ellip_omega(m, xe + 0.1)


def test_omega_increasing_below_threshold():
    for m in (0.2, 0.5, 0.7):
        values = [ellip_omega(m, x) for x in (0.1, 0.4, 0.7, 1.0, 1.3, 1.5)]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


def test_start_values_are_one_endpoint_step():
    # The closed forms equal one SNM step from x = 0 and x = pi/2.
    for m in (0.3, 0.6, 0.9):
        for p in (0.2, 0.5, 0.8):
            problem = EllipticProblem(EllipticQuery(m, p))
            assert ellip_start_low(m, p) == pytest.approx(
                snm_step(problem.evaluate(0.0)), rel=1e-12)
            assert ellip_start_high(m, p) == pytest.approx(
                snm_step(problem.evaluate(math.pi / 2)), rel=1e-12)


def test_start_limits():
    assert ellip_start_low(0.5, 1e-12) == pytest.approx(0.0, abs=1e-11)
    assert ellip_start_high(0.5, 1.0 - 1e-12) == pytest.approx(
        math.pi / 2, abs=1e-11)


def test_start_input_checks():
    # The public starts check m and p; the private ones they call do not.
    for m, p in ((0.0, 0.5), (1.0, 0.5), (math.nan, 0.5), (1.5, 0.5),
                 (0.5, 0.0), (0.5, 1.0), (0.5, math.nan)):
        for start in (ellip_start_low, ellip_start_high):
            with pytest.raises(ValueError):
                start(m, p)
    # m = 0 inverts in closed form and has no SNM start; it is refused
    # with ValueError, not a ZeroDivisionError from the start formula.
    with pytest.raises(ValueError):
        choose_start(EllipticQuery(0.0, 0.5))


def test_starts_inside_interval_and_consistent():
    low = ellip_start_low(0.5, 0.5)
    high = ellip_start_high(0.5, 0.5)
    assert 0.0 < low < math.pi / 2
    assert 0.0 < high < math.pi / 2
    problem = step_only(EllipticProblem(EllipticQuery(0.5, 0.5)))
    r1 = solve(problem, low)
    r2 = solve(problem, high)
    assert r1.converged and r2.converged
    assert r1.root == pytest.approx(r2.root, abs=1e-13)


def test_low_start_is_defined_for_every_modulus():
    # The low start's arctanh argument m p E(1, m) / sqrt(2) peaks at 0.7459
    # near m = 0.909, so no m, p in (0, 1) reaches the pole at 1 and the
    # start needs no fallback.  p = 1 - 2^-53 is the largest p.  There the
    # step may pass pi/2 (by 4e-10 at m = 5e-5); below p = 0.8, where
    # ``choose_start`` may take it, it stays inside (0, pi/2).
    p = 1.0 - 2.0 ** -53
    for m in [i / 20000 for i in range(1, 20000)] + [1.0 - 2.0 ** -53]:
        assert m * p * ellip_e_complete(m) / math.sqrt(2.0) < 0.75, m
        assert 0.0 < ellip_start_low(m, p) < math.inf, m
        assert 0.0 < ellip_start_low(m, 0.8) < math.pi / 2, m


def test_invert_linear_case():
    report = invert_ellip_e(EllipticQuery(0.0, 0.3))
    assert report.converged
    assert report.root == 0.3 * math.pi / 2
    assert report.root == pytest.approx(0.47123889803846897, abs=1e-16)


def test_invert_degenerate_modulus_one():
    report = invert_ellip_e(EllipticQuery(1.0, 0.42))
    assert report.converged
    assert report.root == math.asin(0.42)


@pytest.mark.parametrize("m", [0.0, 1.0])
@pytest.mark.parametrize("p", [1e-320, 0.3])
def test_closed_form_reports_flag_a_subnormal_root(m, p):
    # The one root_underflow rule, x < MIN_NORMAL, holds for closed forms too.
    report = invert_ellip_e(EllipticQuery(m, p))
    assert report.root == (p * math.pi / 2 if m == 0.0 else math.asin(p))
    assert (report.converged, report.reason, report.variable, report.start,
            report.evaluations) == (True, StopReason.RESIDUAL_TOL, Variable.DIRECT,
                                    "closed-form", 0)
    assert report.root_underflow is (p < MIN_NORMAL) is (report.root < MIN_NORMAL)


def test_invert_known_value():
    report = invert_ellip_e(EllipticQuery(0.5, 0.5))
    assert report.converged
    assert report.root == pytest.approx(0.7497134652863894, rel=1e-14)


def test_invert_round_trip_grid():
    for m in M_GRID:
        for p in P_GRID:
            report = invert_ellip_e(EllipticQuery(m, p))
            assert report.converged, (m, p, report.reason)
            comp = ellip_e_complete(m)
            assert abs(ellip_e_inc(report.root, m) / comp - p) <= 1e-13, (m, p)


def test_monotone_from_high_start_below_threshold():
    for m in (0.1, 0.3, 0.5, 0.7, 0.75):
        for p in (0.05, 0.3, 0.5, 0.8, 0.95):
            problem = step_only(EllipticProblem(EllipticQuery(m, p)))
            report = solve(problem, ellip_start_high(m, p))
            assert report.converged
            steps = [r.step for r in report.trace]
            assert all(s <= 0 for s in steps) or all(s >= 0 for s in steps), (m, p)


def test_step_comparison_in_positive_omega_regime():
    # Past the Omega sign change the SNM step is the smaller one.
    for m in (0.3, 0.6, 0.9):
        problem = EllipticProblem(EllipticQuery(m, 0.9))
        xc = ellip_xc(m)
        for x in (xc + 0.05, xc + 0.2, min(xc + 0.5, 1.55)):
            e = problem.evaluate(x)
            assert e.omega > 0.0
            s_snm = snm_step(e) - x
            s_hal = halley_step(e) - x
            assert s_snm * s_hal >= 0.0
            assert abs(s_snm) <= abs(s_hal) * (1 + 1e-12)


def test_root_monotone_in_p():
    for m in (0.3, 0.8):
        roots = [invert_ellip_e(EllipticQuery(m, p)).root
                 for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(r1 < r2 for r1, r2 in zip(roots, roots[1:]))


def test_two_iterations_reach_oracle():
    for m in (0.1, 0.4, 0.8):
        for p in (0.05, 0.5, 0.95):
            x, _ = choose_start(EllipticQuery(m, p))
            problem = EllipticProblem(EllipticQuery(m, p))
            for _ in range(2):
                x = snm_step(problem.evaluate(x))
            assert abs(x - elliptic_bisection_root(m, p)) <= 1e-14, (m, p)


def test_near_one_modulus_uses_arcsin_guess():
    query = EllipticQuery(0.97, 0.6)
    x0, label = choose_start(query)
    assert label == "arcsin-guess"
    report = invert_ellip_e(query)
    assert report.converged
    comp = ellip_e_complete(0.97)
    assert abs(ellip_e_inc(report.root, 0.97) / comp - 0.6) <= 1e-13
    assert report.start == "arcsin-guess"


def test_start_selection_heuristic():
    # Low start wins when below the high start and p < 0.8.
    q = EllipticQuery(0.5, 0.3)
    x0, label = choose_start(q)
    assert label == "low"
    assert x0 == ellip_start_low(0.5, 0.3)
    q = EllipticQuery(0.5, 0.9)
    x0, label = choose_start(q)
    assert label == "high"
    # So does a high start that cancels to 0 or below (a tiny m and p).
    q = EllipticQuery(7.083934405581968e-10, 1.644471410137576e-137)
    assert ellip_start_high(q.m, q.p) <= 0.0
    assert choose_start(q) == (ellip_start_low(q.m, q.p), "low")


def test_report_records_start():
    query = EllipticQuery(0.6, 0.5)
    report = invert_ellip_e(query)
    assert report.start == choose_start(query)[1]
    assert (report.variable, report.root_underflow) == (Variable.DIRECT, False)


def _fuzz_queries() -> list[tuple[float, float]]:
    rng = random.Random("elliptic-one-solve")
    # Where m > 2/sqrt(7) puts an interior minimum in Omega and the start
    # is heuristic.
    grid = [(round(0.81 + 0.01 * i, 2), round(0.50 + 0.01 * j, 2))
            for i in range(19) for j in range(30)]
    uniform = [(rng.random(), rng.random()) for _ in range(1000)]
    near_one = []
    for _ in range(200):
        m = 1.0 - 10.0 ** rng.uniform(-12.0, -2.0)
        tail = rng.uniform(0.0, 1e-2)
        near_one.append((m, tail if rng.random() < 0.5 else 1.0 - tail))
    return grid + uniform + near_one


def test_every_query_converges_in_one_solve():
    # The residual is strictly increasing in x, so a converged solve has
    # found the unique root: no query needs a second solve.
    for m, p in _fuzz_queries():
        report = invert_ellip_e(EllipticQuery(m, p))
        assert report.converged, (m, p)
        assert report.evaluations == report.iterations + 1, (m, p)
        assert report.start in ("low", "high", "arcsin-guess", "complementary"), (m, p)
        round_trip = ellip_e_inc(report.root, m) / ellip_e_complete(m)
        assert abs(round_trip - p) <= 1e-13, (m, p)


def _tiny_modulus_queries() -> list[tuple[float, float]]:
    """A decade grid of m <= 1e-8 and small p, where the high start cancels
    to 0 or below, and a slice of a log-uniform fuzz down to 1e-300."""
    grid = [(10.0 ** k, 10.0 ** j) for k in range(-300, -7) for j in range(-300, -5, 7)]
    rng = random.Random("ellip-tiny")
    fuzz = [(log_uniform(rng, 1e-300, 0.95), log_uniform(rng, 1e-300, 0.999))
            for _ in range(2000)]
    return grid + fuzz


def test_every_start_stays_in_the_amplitude_range():
    # Where p E(1, m) < 1e-8 the root is p E(1, m) (1 + O(m^2 x^2)), so
    # p E(1, m) to the double: there it stands in for the oracle's bisection.
    for m, p in _tiny_modulus_queries():
        try:
            report = invert_ellip_e(EllipticQuery(m, p))
        except SnmError:
            continue
        assert report.converged, (m, p)
        target = p * ellip_e_complete(m)
        root = target if target < 1e-8 else elliptic_bisection_root(m, p)
        assert abs(report.root - root) <= 1e-12 * root, (m, p)


@pytest.mark.parametrize("m", [1e-9, 0.5, 0.9, 0.999999])
def test_the_oracle_reaches_a_tiny_root(m):
    # The root of E(sin x, m) = p E(1, m) is p E(1, m) to the double here.
    for k in range(30, 301, 10):
        target = 10.0 ** -k * ellip_e_complete(m)
        assert abs(elliptic_bisection_root(m, 10.0 ** -k) - target) <= 1e-15 * target, k


def test_stop_is_relative_to_the_target():
    # m near 1, small p: the target p E(1, m) ~ 3e-4 is below the absolute
    # 1e-14 residual stop's scale, which used to accept the arcsin start
    # unrefined (relative error 1.1e-11).  The stop scales with the target,
    # so the start is refined: by one step, which the predicted stop applies
    # without the evaluation that would count it.
    m, p = 0.9996858651919436, 0.000323509614793955
    report = invert_ellip_e(EllipticQuery(m, p))
    assert report.converged and report.root != elliptic_plan(EllipticQuery(m, p)).x0
    assert (report.reason, report.iterations, report.evaluations) == (
        StopReason.PREDICTED, 0, 1)
    target = p * ellip_e_complete(m)
    assert EllipticProblem(EllipticQuery(m, p)).residual_tol == RESIDUAL_NOISE_FLOOR * target
    assert abs(ellip_e_inc(report.root, m) - target) <= 1e-13 * target


def test_relative_stop_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    m, p = 0.9996858651919436, 0.000323509614793955
    root = invert_ellip_e(EllipticQuery(m, p)).root
    with mpmath.workdps(40):
        m2 = mpmath.mpf(m) ** 2
        target = mpmath.mpf(p) * mpmath.ellipe(m2)
        exact = mpmath.findroot(lambda x: mpmath.ellipe(x, m2) - target, mpmath.mpf(root))
        assert abs(root - exact) <= 1e-14 * exact


def test_ill_conditioned_corner_meets_the_contract():
    # The residual E(x) - p E(1, m) cancels two values near 1 and its
    # rounding, ~eps, moves the root by ~eps / sqrt(1 - m^2).  Once a strict
    # xfail (1.0e-10 off from the arcsin guess); the complementary start
    # lands 1.1e-13 off the root, and the residual stop accepts it there.
    mpmath = pytest.importorskip("mpmath")
    m, p = 1.0 - 1e-12, 1.0 - 1e-10
    report = invert_ellip_e(EllipticQuery(m, p))
    assert report.converged and report.start == "complementary"
    with mpmath.workdps(40):
        m2 = mpmath.mpf(m) ** 2
        target = mpmath.mpf(p) * mpmath.ellipe(m2)
        exact = mpmath.findroot(lambda x: mpmath.ellipe(x, m2) - target,
                                mpmath.mpf(report.root))
        assert abs(report.root - exact) <= 1e-12 * exact


def _corner_grid(n: int) -> list[tuple[float, float]]:
    """m = 1 - 10^U[-12, -1.3] and 1 - p = 10^U[-12, -2], seeded."""
    rng = random.Random("elliptic-corner")
    return [(1.0 - 10.0 ** rng.uniform(-12.0, -1.3), 1.0 - 10.0 ** rng.uniform(-12.0, -2.0))
            for _ in range(n)]


def test_corner_start_raises_nothing():
    # Every m in (0.95, 1) and p in (1/2, 1), the ends included as nearly as
    # doubles allow: the rule's model is bounded to s = sin(pi/2 - x) <= 0.4,
    # and beyond that the arcsin guess is kept.
    ms = (math.nextafter(0.95, 1.0), 0.95 + 1e-9, 0.96, 0.9747, 0.975, 0.99,
          1.0 - 1e-6, 1.0 - 1e-12, 1.0 - 2.0 ** -53)
    ps = (math.nextafter(0.5, 1.0), 0.6, 0.9, 0.95, 0.99, 1.0 - 1e-8, 1.0 - 2.0 ** -53)
    rng = random.Random("elliptic-corner-domain")
    points = [(m, p) for m in ms for p in ps]
    points += [(math.nextafter(0.95, 1.0) + 0.05 * rng.random(), 0.5 + 0.5 * rng.random())
               for _ in range(2000)]
    labels = set()
    for m, p in points:
        query = EllipticQuery(m, p)
        x0, label = choose_start(query)
        assert 0.0 < x0 <= math.pi / 2, (m, p)
        labels.add(label)
        assert invert_ellip_e(query).converged, (m, p)
    assert labels == {"complementary", "arcsin-guess"}
    # At m = 1 (k' = 0) the arcsin guess is the root itself.
    assert choose_start(EllipticQuery(1.0, 0.9)) == (math.asin(0.9), "arcsin-guess")


def test_corner_start_ends_after_one_evaluation():
    # The arcsin guess took 1.2-1.3 evaluations per query here; the
    # complementary start lands within the predicted stop's reach.
    evaluations = []
    for m, p in _corner_grid(2000):
        report = invert_ellip_e(EllipticQuery(m, p))
        assert report.converged and report.start == "complementary", (m, p)
        evaluations.append(report.evaluations)
    assert max(evaluations) <= 2
    assert evaluations.count(2) <= 0.05 * len(evaluations)


def _resolved_by_the_stop(m: float, p: float, root: float) -> bool:
    """Whether the residual stop, |f| <= RESIDUAL_NOISE_FLOOR p E(1, m), pins
    the root to 1e-13 relative through f' = sqrt(1 - m^2 sin^2 x)."""
    slope = math.sqrt((1.0 - m) * (1.0 + m) + (m * math.cos(root)) ** 2)
    return RESIDUAL_NOISE_FLOOR * p * ellip_e_complete(m) <= 1e-13 * root * slope


def test_corner_roots_meet_the_contract_where_the_stop_resolves_them():
    grid = _corner_grid(200)
    checked = 0
    for m, p in grid:
        root = elliptic_bisection_root(m, p)
        if _resolved_by_the_stop(m, p, root):
            checked += 1
            got = invert_ellip_e(EllipticQuery(m, p)).root
            assert abs(got - root) <= 1e-12 * root, (m, p)
    assert checked >= 0.15 * len(grid)


@pytest.mark.xfail(strict=True, reason="deeper in the corner the residual stop accepts "
                   "roots up to 8e-10 off: E(x) - p E(1, m) cancels, and f' is tiny")
def test_corner_roots_meet_the_contract():
    # 1 - m and 1 - p below ~1e-6: a residual within the stop's tolerance
    # moves the root by up to tol / f', beyond 1e-12.  A residual formed
    # from the complementary amplitude (as ``elliptic_bisection_root``'s)
    # would not cancel.
    for m, p in _corner_grid(200):
        root = elliptic_bisection_root(m, p)
        got = invert_ellip_e(EllipticQuery(m, p)).root
        assert abs(got - root) <= 1e-12 * root, (m, p)
