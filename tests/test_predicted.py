"""The predicted stop: SNM solves that end on the paper's error model.

After an SNM step s from x, the fourth-order error constant Omega'/12, with
Omega' from the two iterates, predicts the next step K s^4; ``solve`` stops
once that is within STEP_REL_TOL of the problem's scale, without evaluating
x + s.  These tests check the hooks it reads (``Problem.omega`` and
``Problem.scale``), when it fires and when it must not, and, over a seeded
fuzz of every gamma and beta plan class and of the elliptic problem, that a
predicted root is the one a bisection on the same kernel finds and that
one more evaluation and step move it no further than the bound says.
"""

import math
import random

import pytest

from snm import (
    BetaQuantileQuery,
    EllipticQuery,
    GammaQuantileQuery,
    Method,
    SolveOptions,
    StopReason,
    beta_plan,
    elliptic_plan,
    gamma_start,
    invert_beta,
    solve,
)
from snm.beta import BetaDirectProblem, BetaLogitProblem
from snm.core import (
    STEP_REL_TOL,
    FunctionProblem,
    Problem,
    StepUndefinedError,
    halley_step,
    snm_step,
    tan_problem,
)
from snm.elliptic import EllipticProblem
from snm.gamma import GammaDirectProblem, GammaLogProblem

from conftest import (DEEP_TAIL_Z, beta_bisection_root, cube_problem, elliptic_bisection_root,
                      gamma_bisection_root, log_uniform)

REL_TOL = 1e-12  # the contract: relative error in x


# ------------------------------------------------------------------ hooks

def _hook_points():
    """(problem, points in its variable), the deep tails of both included."""
    logit = BetaLogitProblem(BetaQuantileQuery(0.5, 3.0, 0.2))
    upper = BetaLogitProblem(BetaQuantileQuery(4.0, 0.3, 0.9))
    return [
        (GammaDirectProblem(GammaQuantileQuery(2.5, 0.3)), (1e-100, 1e-3, 0.7, 3.5, 40.0, 200.0)),
        (GammaDirectProblem(GammaQuantileQuery(1.0, 0.3)), (1e-200, 0.5, 2.0)),
        (GammaLogProblem(GammaQuantileQuery(0.3, 0.2)), (-800.0, -30.0, -1.0, 0.0, 2.5, 6.0)),
        (BetaDirectProblem(BetaQuantileQuery(2.0, 3.0, 0.3)), (1e-100, 1e-5, 0.3, 0.5, 0.99999)),
        (logit, (DEEP_TAIL_Z - 1.0, -40.0, -2.0, 0.0, 3.0, 40.0, 200.0)),
        (upper, (-100.0, -1.0, 1.0, 700.0)),
        (EllipticProblem(EllipticQuery(0.5, 0.3)), (0.0, 0.3, 1.0, math.pi / 2)),
        (EllipticProblem(EllipticQuery(0.999, 0.9)), (0.01, 1.2, 1.55)),
    ]


@pytest.mark.parametrize("problem, points", _hook_points())
def test_omega_hook_is_the_evaluation_s_omega(problem, points):
    # The predicted stop compares Omega at the new iterate with Omega of the
    # evaluation, so the two must agree bit for bit.
    for x in points:
        assert problem.omega(x) == problem.evaluate(x).omega, x


def test_omega_hooks_never_raise():
    # Outside the points a solve evaluates, a hook returns an infinity or
    # NaN (which never stops a solve) instead of raising.
    log_problem = GammaLogProblem(GammaQuantileQuery(0.5, 0.3))
    for z in (709.5, 710.0, 1e4, 1e300):
        assert log_problem.omega(z) == -math.inf, z
    huge = GammaDirectProblem(GammaQuantileQuery(1e200, 0.3))
    assert huge.omega(1e-150) == -math.inf
    assert BetaDirectProblem(BetaQuantileQuery(1e200, 2.0, 0.3)).omega(1e-150) == -math.inf
    logit = BetaLogitProblem(BetaQuantileQuery(1e-3, 1e5, 0.3))
    for z in (-1e300, -745.0, 745.0, 1e300):
        assert not math.isnan(logit.omega(z)), z


def test_scale_hooks():
    # |x| by default, 1 in the log and logit variables, the distance to the
    # nearer end of a bounded interval in x.
    assert tan_problem().scale(-0.25) == 0.25
    assert GammaDirectProblem(GammaQuantileQuery(2.0, 0.3)).scale(3.0) == 3.0
    assert GammaLogProblem(GammaQuantileQuery(0.5, 0.3)).scale(-40.0) == 1.0
    assert BetaLogitProblem(BetaQuantileQuery(0.5, 3.0, 0.3)).scale(-40.0) == 1.0
    direct = BetaDirectProblem(BetaQuantileQuery(2.0, 3.0, 0.3))
    assert (direct.scale(0.25), direct.scale(0.75)) == (0.25, 0.25)
    elliptic = EllipticProblem(EllipticQuery(0.5, 0.3))
    assert (elliptic.scale(0.5), elliptic.scale(math.pi / 2 - 0.25)) == (
        0.5, math.pi / 2 - (math.pi / 2 - 0.25))


# ------------------------------------------------------- when it fires

class _Hooked(Problem):
    """A problem's evaluations under another ``omega`` hook."""

    def __init__(self, inner: Problem, omega) -> None:
        self.inner = inner
        self.omega = omega
        self.residual_tol = inner.residual_tol

    def evaluate(self, x):
        return self.inner.evaluate(x)

    def domain(self):
        return self.inner.domain()

    def scale(self, x):
        return self.inner.scale(x)


def test_a_problem_without_a_hook_is_never_predicted():
    # FunctionProblem has no omega hook: its solves keep the stops they had.
    assert FunctionProblem.omega is None and Problem.omega is None
    for problem, x0 in ((tan_problem(), 1.0), (cube_problem(), 3.0)):
        report = solve(problem, x0)
        assert report.converged and report.reason is not StopReason.PREDICTED
        assert report.predicted_error == 0.0


@pytest.mark.parametrize("method", [Method.HALLEY, Method.NEWTON])
def test_halley_and_newton_are_never_predicted(method):
    plans = [gamma_start(GammaQuantileQuery(2.5, 0.3)),
             beta_plan(BetaQuantileQuery(0.5, 3.0, 0.2)),
             elliptic_plan(EllipticQuery(0.5, 0.3))]
    for plan in plans:
        report = solve(plan.problem, plan.x0, SolveOptions(method=method))
        assert report.converged and report.reason is not StopReason.PREDICTED
        assert report.evaluations == report.iterations + 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_predicted_omega_never_stops(value):
    # The same solve with no hook and with a hook returning ``value`` takes
    # the same steps to the same root; with the problem's own hook it stops
    # one evaluation earlier on the predicted error.  The start x0 = 1.4 is
    # 7% below the root 1.49995, so the solve takes more than one step.
    problem = gamma_start(GammaQuantileQuery(2.5, 0.3)).problem
    x0 = 1.4
    none = solve(_Hooked(problem, None), x0)
    bad = solve(_Hooked(problem, lambda x: value), x0)
    assert (bad.root, bad.iterations, bad.evaluations, bad.reason) == (
        none.root, none.iterations, none.evaluations, none.reason)
    assert none.reason is StopReason.RESIDUAL_TOL
    own = solve(_Hooked(problem, problem.omega), x0)
    assert own.reason is StopReason.PREDICTED
    assert own.evaluations == none.evaluations - 1


def test_a_predicted_report_is_the_step_from_its_last_evaluation():
    # The root is x + s for the SNM step s from the last evaluated iterate,
    # and predicted_error is |Omega(x + s) - Omega(x)| |s|^3 / 12 over the
    # scale at x + s; the step is applied but not counted.  The start
    # x0 = 2.8 is 8% below the root 3.03247, so the trace is not empty.
    problem = gamma_start(GammaQuantileQuery(20.0, 1e-10)).problem
    report = solve(problem, 2.8)
    assert report.reason is StopReason.PREDICTED
    assert report.evaluations == report.iterations + 1 == len(report.trace) + 1
    last = report.trace[-1]
    x = last.x + last.step
    e = problem.evaluate(x)
    s = snm_step(e) - x
    assert report.root == x + s
    size = abs(s)
    bound = abs(problem.omega(x + s) - e.omega) * size * size * size / 12.0
    assert report.predicted_error == bound / problem.scale(x + s)
    assert 0.0 < report.predicted_error <= STEP_REL_TOL


# ------------------------------------------------------------------ fuzz

def _tail_pair(rng, upper):
    t = log_uniform(rng, 1e-15, 0.5)
    return (1.0 - t, t) if upper else (t, 1.0 - t)


GAMMA_SHAPES = {"a<1": (0.05, 1.0), "a>=1": (1.0, 200.0)}
BETA_SHAPES = {
    "a,b>1": ((1.0, 200.0), (1.0, 200.0)),
    "a<=1<=b": ((0.05, 1.0), (1.0, 200.0)),
    "a>=1>=b": ((1.0, 200.0), (0.05, 1.0)),
    "a,b<1": ((0.05, 1.0), (0.05, 1.0)),
}
QUERIES_PER_CLASS = 200
# In these classes the drawn tail is the one whose power bound lies near
# the root, and the series start from it is close enough that about 19 of
# 20 solves end on the residual at their first evaluation.  They draw six
# times as many queries, so that as many predicted stops are checked.
BETA_SERIES_CLASSES = {("a,b<1", False), ("a,b<1", True), ("a<=1<=b", False),
                       ("a>=1>=b", True)}


def _lower_bound_plan(query):
    """``gamma_start``'s plan, started at the lower bound x_l = (p Gamma(a+1))^(1/a)."""
    plan = gamma_start(query)
    z_l = (math.log(query.p) + plan.problem.ln_gamma_a1) / query.a
    return plan._replace(x0=z_l, start="lower-bound")


def _gamma_class(name, upper):
    rng = random.Random(f"predicted:gamma:{name}:{upper}")
    lo, hi = GAMMA_SHAPES[name]
    # The a < 1 lower tail's plan starts on the series, where 191 of the 200
    # solves end on the residual stop at their first evaluation (test_gamma
    # pins that class); from x_l, the power bound it started at before,
    # the predicted stop is still what ends them.
    make_plan = _lower_bound_plan if name == "a<1" and not upper else gamma_start
    for _ in range(QUERIES_PER_CLASS):
        a = log_uniform(rng, lo, hi)
        p, q = _tail_pair(rng, upper)
        yield GammaQuantileQuery(a, p, q), make_plan, lambda a=a, p=p, q=q: (
            gamma_bisection_root(a, p, q))


def _beta_class(name, upper):
    rng = random.Random(f"predicted:beta:{name}:{upper}")
    (a_lo, a_hi), (b_lo, b_hi) = BETA_SHAPES[name]
    for _ in range(QUERIES_PER_CLASS * (6 if (name, upper) in BETA_SERIES_CLASSES else 1)):
        a, b = log_uniform(rng, a_lo, a_hi), log_uniform(rng, b_lo, b_hi)
        p, q = _tail_pair(rng, upper)
        yield BetaQuantileQuery(a, b, p, q), beta_plan, lambda a=a, b=b, p=p, q=q: (
            beta_bisection_root(a, b, p, q))


def _elliptic_class():
    rng = random.Random("predicted:elliptic")
    for _ in range(QUERIES_PER_CLASS):
        m, p = rng.uniform(1e-6, 1.0 - 1e-6), rng.uniform(0.001, 0.999)
        yield EllipticQuery(m, p), elliptic_plan, lambda m=m, p=p: (
            elliptic_bisection_root(m, p))


CLASSES = {
    **{f"gamma {name} {side}": (_gamma_class, (name, side == "upper"))
       for name in GAMMA_SHAPES for side in ("lower", "upper")},
    **{f"beta {name} {side}": (_beta_class, (name, side == "upper"))
       for name in BETA_SHAPES for side in ("lower", "upper")},
    "elliptic": (_elliptic_class, ()),
}


def _next_move(problem, v):
    """(move, noise): how far one more evaluation and step would move v (0
    where the residual stop would end the solve there), and the move a
    residual at that stop's own tolerance gives, |residual_tol / f'(v)|:
    the kernel cannot tell a residual that small from 0, nor its step."""
    e = problem.evaluate(v)
    noise = problem.residual_tol / abs(e.fp)
    if abs(e.f) <= problem.residual_tol:
        return 0.0, noise
    try:
        return abs(snm_step(e) - v), noise
    except StepUndefinedError:
        return abs(halley_step(e) - v), noise


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_predicted_roots_meet_the_contract_and_their_bound(name):
    make, args = CLASSES[name]
    predicted = 0
    for query, make_plan, oracle in make(*args):
        plan = make_plan(query)
        report = solve(plan.problem, plan.x0)
        assert report.converged, (query, report.reason)
        if report.reason is not StopReason.PREDICTED:
            assert report.predicted_error == 0.0
            continue
        predicted += 1
        v = report.root
        # A step tolerance and 1e-15 of absolute slack: without the slack
        # one beta query's move of 2.6e-17 passes the bound (a certificate
        # of the root is an open ROADMAP item).
        step_tol = 1e-15 + STEP_REL_TOL * abs(v)
        move, noise = _next_move(plan.problem, v)
        bound = 4.0 * report.predicted_error * plan.problem.scale(v) + step_tol
        # Of 2,600 solves one moves past the bound alone, by 0.04 noise.
        assert move <= bound + noise, (query, report.predicted_error, move, bound)
        x, exact = plan.to_x(v), oracle()
        assert abs(x - exact) <= REL_TOL * exact, (query, x, exact)
    # The stop fires on most queries of a class, and on at least a quarter
    # where the start is a power bound in the log or logit variable (its
    # first step is long, and those solves mostly end on their residual).
    assert predicted >= QUERIES_PER_CLASS // 4, predicted


# ------------------------------------------- formerly MaxIter queries

def test_huge_a_small_b_deep_upper_tail_converges_within_the_contract():
    # Ended MaxIter: the iterates bounced at ~50 step tolerances on the
    # kernel's noise.  The error model stops the solve before the bounce.
    query = BetaQuantileQuery(514130.9761941688, 0.19234911350610542, 9.741536746274114e-08)
    report = invert_beta(query)
    assert report.converged and report.reason is StopReason.PREDICTED
    exact = beta_bisection_root(query.a, query.b, query.p, query.q)
    assert abs(report.root - exact) <= REL_TOL * exact


def test_tiny_a_logit_deep_tail_converges_in_one_evaluation():
    # Ended MaxIter: ln B ~ 230 rounds to ~3e-14 of relative noise, above the
    # 5e-15 residual stop.  The deep tail's Omega is constant, so the first
    # step is exact and predicted.  x underflows, so the check is in z:
    # I = e^(az) at b = 1, whose root is z = ln(1/2) / a.
    query = BetaQuantileQuery(1e-100, 1.0, 0.5)
    plan = beta_plan(query)
    report = solve(plan.problem, plan.x0)
    assert (report.reason, report.iterations, report.evaluations) == (
        StopReason.PREDICTED, 0, 1)
    exact = math.log(0.5) / 1e-100
    assert abs(report.root - exact) <= 1e-13 * abs(exact)
    assert invert_beta(query).root_underflow


def test_small_a_huge_b_upper_tail_meets_the_contract():
    # Ended MaxIter 4.2e-13 off the true root; the predicted stop ended it
    # converged, 1.04e-12 off, as the kernel's ~eps*b bias past its switch
    # had it, until the fraction's first term was formed without
    # cancellation (now 2.1e-14 off).
    mpmath = pytest.importorskip("mpmath")
    query = BetaQuantileQuery(0.511300301849083, 116593.65680525052, 0.9760680840027153)
    report = invert_beta(query)
    assert report.converged
    with mpmath.workdps(40):
        a, b, x, d = (mpmath.mpf(v) for v in (query.a, query.b, report.root, REL_TOL))
        residual = lambda t: query.q - mpmath.betainc(b, a, 0, 1 - t, regularized=True)
        assert residual(x / (1 + d)) <= 0 <= residual(x / (1 - d))
