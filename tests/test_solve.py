"""Driver behavior: stopping reasons, trace consistency, the domain
clamp, the immutable record types and the evaluation count."""

import dataclasses
import math
import struct
import sys

import pytest

import snm.core
from snm.core import (
    MIN_NORMAL,
    RESIDUAL_NOISE_FLOOR,
    DegenerateStepError,
    FunctionProblem,
    Interval,
    IterationRecord,
    STEP_REL_TOL,
    Method,
    OmegaNotFiniteError,
    Plan,
    Problem,
    ProblemEvaluation,
    SnmError,
    SolveOptions,
    SolveReport,
    StopReason,
    Variable,
    osculating_fit,
    snm_step,
    solve,
    tan_problem,
)
from snm.gamma import GammaDirectProblem, GammaQuantileQuery

from conftest import cube_problem, step_only


def shifted_tanh_problem(root: float = 1.0) -> FunctionProblem:
    # Constant-Schwarzian sigmoid: one SNM step is exact.
    def f(x):
        return math.tanh(x - root)

    def fp(x):
        return 1.0 - math.tanh(x - root) ** 2

    def fpp(x):
        t = math.tanh(x - root)
        return -2.0 * t * (1.0 - t * t)

    def fppp(x):
        t = math.tanh(x - root)
        s = 1.0 - t * t
        return s * (4.0 * t * t - 2.0 * s)

    return FunctionProblem(f, fp, fpp, fppp,
                           Interval(-math.inf, math.inf))


def test_one_iteration_on_constant_schwarzian():
    report = solve(shifted_tanh_problem(1.0), 0.0)
    assert report.converged
    assert report.iterations == 1
    assert report.root == pytest.approx(1.0, abs=1e-12)
    assert report.reason is StopReason.STEP_TOL


def test_trace_replays_bit_for_bit():
    q = GammaQuantileQuery(2.0, 0.5)
    report = solve(step_only(GammaDirectProblem(q)), 3.0)
    assert report.converged
    assert report.iterations == len(report.trace)
    problem = GammaDirectProblem(q)
    x = 3.0
    for rec in report.trace:
        assert rec.x == x
        if not rec.fallback_used:
            raw = snm_step(problem.evaluate(x))
            # x + step reproduces the raw formula to <= 1 ulp and the
            # next iterate bit-for-bit.
            assert abs((rec.x + rec.step) - raw) <= abs(raw) * 2.3e-16
        x = rec.x + rec.step
    # iterates are monotone decreasing from the Omega maximum
    steps = [r.step for r in report.trace]
    assert all(s <= 0 for s in steps)


def test_max_iter_reported():
    q = GammaQuantileQuery(5.0, 0.01)
    report = solve(GammaDirectProblem(q), 6.0, SolveOptions(max_iter=1))
    assert not report.converged
    assert report.reason is StopReason.MAX_ITER
    assert report.iterations == 1


def test_residual_tolerance_stop():
    # The residual stop belongs to the problem; the options have none.
    with pytest.raises(TypeError):
        SolveOptions(residual_tol=1e-3)
    problem = shifted_tanh_problem(1.0)
    problem.residual_tol = 1e-3
    report = solve(problem, 1.0 + 1e-9, SolveOptions())
    assert report.converged
    assert report.reason is StopReason.RESIDUAL_TOL
    assert report.iterations == 0


def test_derivative_vanished():
    problem = FunctionProblem(lambda x: x * x - 1.0, lambda x: 2.0 * x,
                              lambda x: 2.0, lambda x: 0.0,
                              Interval(-math.inf, math.inf))
    report = solve(problem, 0.0)
    assert not report.converged
    assert report.reason is StopReason.DERIVATIVE_VANISHED
    assert report.root == 0.0


def test_a_degenerate_step_ends_derivative_vanished():
    # f = 2, f' = 1, f'' = 1: (B/2) f + f' = 0, so h is infinite and the
    # SNM and Halley steps are undefined; D = 2 f'^2 - f f'' = 0 too.
    problem = FunctionProblem(lambda x: 2.0, lambda x: 1.0, lambda x: 1.0,
                              lambda x: 0.0, Interval(-1.0, 1.0))
    for method in (Method.SNM, Method.HALLEY):
        report = solve(problem, 0.0, SolveOptions(method=method))
        assert (report.reason, report.converged, report.evaluations) \
            == (StopReason.DERIVATIVE_VANISHED, False, 1), method
    report = solve(problem, 0.0, SolveOptions(method=Method.NEWTON))
    assert (report.reason, report.converged) == (StopReason.MAX_ITER, False)
    with pytest.raises(DegenerateStepError):
        osculating_fit(problem.evaluate(0.0))


def test_domain_exit_on_overflowing_step():
    # A subnormal slope sends the Newton step to -inf; the domain has no
    # finite endpoint to clamp toward, so the solve stops where it was.
    problem = FunctionProblem(lambda x: 1e-320 * x + 1.0, lambda x: 1e-320,
                              lambda x: 0.0, lambda x: 0.0,
                              Interval(-math.inf, math.inf))
    report = solve(problem, 0.0, SolveOptions(method=Method.NEWTON))
    assert not report.converged
    assert report.reason is StopReason.DOMAIN_EXIT
    assert (report.root, report.iterations, report.evaluations) == (0.0, 0, 1)


def test_domain_clamp_recovers():
    report = solve(tan_problem(), 1.5, SolveOptions(method=Method.HALLEY))
    assert report.converged
    assert report.root == pytest.approx(0.0, abs=1e-12)
    assert report.trace[0].fallback_used


def test_snm_fallback_to_halley_flagged():
    # From the inflection start the first SNM step is undefined here
    # (arctanh argument out of range): one Halley step substitutes.
    q = GammaQuantileQuery(2.0, 0.9)
    report = solve(GammaDirectProblem(q), 1.0)
    assert report.converged
    assert report.trace[0].fallback_used
    from snm.special import reg_gamma_p
    assert abs(reg_gamma_p(2.0, report.root) - 0.9) <= 1e-13


def test_x0_outside_domain_rejected():
    with pytest.raises(ValueError):
        solve(tan_problem(), 2.0)


def test_newton_method_runs():
    report = solve(shifted_tanh_problem(0.5), 0.2,
                   SolveOptions(method=Method.NEWTON))
    assert report.converged
    assert report.root == pytest.approx(0.5, abs=1e-12)


def test_options_validation():
    # The step stop is relative and the solver's own: no tolerance option.
    with pytest.raises(TypeError):
        SolveOptions(abs_tol=1e-15)
    with pytest.raises(ValueError):
        SolveOptions(max_iter=0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("x0", [1.2, -0.7, 1e-3, 1e-200, -5e-324])
def test_a_root_at_zero_converges(method, x0):
    # The step stop |step| <= STEP_REL_TOL * |x| has no absolute floor;
    # at a root of 0 the residual stop ends each solve, at tan 0 = 0.
    report = solve(tan_problem(), x0, SolveOptions(method=method))
    assert report.converged, report.reason
    assert report.root == 0.0


def test_method_given_by_name():
    assert SolveOptions(method="newton").method is Method.NEWTON
    by_name = solve(cube_problem(), 3.0, SolveOptions(method="newton"))
    assert by_name == solve(cube_problem(), 3.0, SolveOptions(method=Method.NEWTON))
    # Newton needs more steps than the SNM here, so the name was not ignored.
    assert by_name.iterations > solve(cube_problem(), 3.0).iterations
    with pytest.raises(ValueError):
        SolveOptions(method="bogus")


def test_interval_contains_respects_openness():
    closed = Interval(0.0, 1.0, lo_open=False, hi_open=False)
    assert closed.contains(0.0) and closed.contains(1.0)
    open_ = Interval(0.0, 1.0)
    assert not open_.contains(0.0) and not open_.contains(1.0)
    assert open_.contains(0.5)
    assert not open_.contains(math.nan)


def test_evaluation_invariants():
    with pytest.raises(Exception):
        ProblemEvaluation.build(0.0, f=1.0, fp=0.0, big_b=0.0, omega=0.0)
    with pytest.raises(ValueError):
        ProblemEvaluation.build(0.0, f=1.0, fp=1.0, big_b=0.0, omega=math.inf)
    # h consistency: h * ((B/2) f + f') = f to rounding
    e = ProblemEvaluation.build(1.0, f=0.3, fp=2.0, big_b=-0.5, omega=-0.1)
    assert e.h * (0.5 * e.big_b * e.f + e.fp) == pytest.approx(e.f, abs=4e-16)


def test_non_finite_omega_is_a_typed_error():
    for omega in (math.inf, -math.inf, math.nan):
        with pytest.raises(OmegaNotFiniteError) as exc:
            ProblemEvaluation.build(1.0, f=1.0, fp=1.0, big_b=0.0, omega=omega)
        assert isinstance(exc.value, SnmError) and isinstance(exc.value, ValueError)


# ------------------------------------------------------- record contract

def _records():
    report = solve(tan_problem(), 1.0)
    return report.trace[0], report


def test_records_are_immutable():
    e = ProblemEvaluation.build(1.0, f=0.3, fp=2.0, big_b=-0.5, omega=-0.1)
    record, report = _records()
    for obj, field in ((e, "x"), (e, "h"), (record, "step"), (report, "root"),
                       (report, "evaluations")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0.0)


def test_record_field_order():
    assert ProblemEvaluation._fields == ("x", "f", "fp", "big_b", "omega", "h")
    assert IterationRecord._fields == ("n", "x", "f", "h", "omega", "step",
                                       "fallback_used")
    assert SolveReport._fields == ("root", "iterations", "trace", "converged",
                                   "reason", "evaluations", "variable",
                                   "start", "root_underflow", "predicted_error")
    assert Plan._fields == ("problem", "x0", "variable", "start")


def test_with_plan_shares_trace_and_leaves_original():
    _, report = _records()
    before = tuple(report)
    plan = Plan(tan_problem(), 1.0, Variable.LOG, "lower-bound")
    moved = report.with_plan(plan)
    assert moved is not report
    assert moved.trace is report.trace
    assert moved.root == math.exp(report.root)
    # The root of tan is 0, so x = e^0 = 1, a normal double.
    assert moved.root == 1.0
    assert (moved.variable, moved.start, moved.root_underflow) \
        == (Variable.LOG, "lower-bound", False)
    assert (moved.iterations, moved.converged, moved.reason, moved.evaluations) == (
        report.iterations, report.converged, report.reason, report.evaluations)
    assert tuple(report) == before


@pytest.mark.parametrize("variable, v, converged, underflow", [
    (Variable.DIRECT, 0.0, False, True),
    (Variable.DIRECT, MIN_NORMAL, False, False),
    (Variable.DIRECT, MIN_NORMAL / 2, False, True),  # subnormal
    (Variable.DIRECT, 0.5, False, False),
    (Variable.DIRECT, 1.0, False, False),  # exact in x to 1e-16 relative
    (Variable.DIRECT, 0.0, True, True),
    (Variable.DIRECT, 1.0, True, False),
    (Variable.LOG, -800.0, False, True),  # e^z is subnormal
    (Variable.LOG, -700.0, False, False),
    (Variable.LOGIT, -746.0, False, True),  # sigma(z) is 0
    (Variable.LOGIT, -30.0, True, False),
    (Variable.LOGIT, 40.0, True, False),  # sigma(z) rounds to 1
])
def test_with_plan_sets_root_underflow_by_one_rule(variable, v, converged, underflow):
    # The flag is set exactly when x < MIN_NORMAL, whether or not the solve
    # converged in its variable.
    report = SolveReport(v, 1, (), converged, StopReason.STEP_TOL, 2)
    moved = report.with_plan(Plan(tan_problem(), 0.0, variable, ""))
    assert moved.root_underflow is underflow, moved.root
    assert moved.converged is converged


def test_the_hot_path_reads_no_enum_member():
    # A member read (StopReason.PREDICTED) is a descriptor call; the solve,
    # its report and the map back to x compare against module constants.
    for fn in (snm.core.solve, snm.core._report, Plan.to_x, SolveReport.with_plan):
        assert not {"StopReason", "Variable", "Method"} & set(fn.__code__.co_names), fn


def test_plan_maps_invert_each_other():
    # to_x and from_x are inverses for every variable.
    for variable, v in ((Variable.DIRECT, 0.25), (Variable.LOG, -1.5),
                        (Variable.LOGIT, 2.0)):
        plan = Plan(tan_problem(), 0.0, variable, "")
        assert plan.from_x(plan.to_x(v)) == pytest.approx(v, rel=1e-15, abs=1e-15)
    assert Variable.LOGIT.value == "logit"
    assert Plan(tan_problem(), 0.0, Variable.LOGIT, "").to_x(0.0) == 0.5


def test_solve_options_frozen():
    opts = SolveOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.max_iter = 5
    # The step tolerance is a relative constant and the residual stop is
    # the problem's, so neither is an option.
    assert [f.name for f in dataclasses.fields(SolveOptions)] == ["max_iter", "method"]
    assert STEP_REL_TOL == 4 * sys.float_info.epsilon


# ------------------------------------------------------ step functions

def _count_step_calls(monkeypatch) -> dict[str, list[float]]:
    """Rebind the module's step functions to wrappers recording each x."""
    calls: dict[str, list[float]] = {}
    for name in ("snm_step", "halley_step", "newton_step"):
        original = getattr(snm.core, name)
        seen = calls[name] = []

        def wrapper(e, original=original, seen=seen):
            seen.append(e.x)
            return original(e)

        monkeypatch.setattr(snm.core, name, wrapper)
    return calls


def _steps_taken(report: SolveReport) -> int:
    # Every evaluation reaches a step except one that meets the residual stop.
    return report.evaluations - (report.reason is StopReason.RESIDUAL_TOL)


@pytest.mark.parametrize("method, name", [
    (Method.SNM, "snm_step"), (Method.HALLEY, "halley_step"),
    (Method.NEWTON, "newton_step")])
def test_solve_uses_the_step_functions_bound_at_call_time(monkeypatch, method, name):
    calls = _count_step_calls(monkeypatch)
    report = solve(cube_problem(), 3.0, SolveOptions(method=method))
    assert report.converged
    assert len(calls[name]) == _steps_taken(report) >= 2
    assert calls[name][:report.iterations] == [r.x for r in report.trace]
    assert all(not seen for other, seen in calls.items() if other != name)


def test_halley_fallback_uses_the_step_function_bound_at_call_time(monkeypatch):
    # The problem of test_snm_fallback_to_halley_flagged.
    calls = _count_step_calls(monkeypatch)
    report = solve(GammaDirectProblem(GammaQuantileQuery(2.0, 0.9)), 1.0)
    assert report.converged and report.trace[0].fallback_used
    assert len(calls["snm_step"]) == _steps_taken(report)
    assert calls["halley_step"] == [r.x for r in report.trace if r.fallback_used]
    assert not calls["newton_step"]


# ----------------------------------------------------------- evaluations

class _CountingProblem(Problem):
    def __init__(self, inner: Problem) -> None:
        self.inner = inner
        self.calls = 0

    def evaluate(self, x):
        self.calls += 1
        return self.inner.evaluate(x)

    def domain(self):
        return self.inner.domain()


def test_evaluations_count_every_evaluate_call():
    problem = _CountingProblem(tan_problem())
    report = solve(problem, 1.0)
    assert report.converged
    assert report.evaluations == report.iterations + 1 == problem.calls
    halley = solve(tan_problem(), 1.0, SolveOptions(method=Method.HALLEY))
    assert halley.converged and halley.evaluations == halley.iterations + 1


def test_residual_stop_scales_with_the_problem():
    # The residual stop is |f| <= problem.residual_tol, for any options.
    line = FunctionProblem(lambda x: x - 1.0, lambda x: 1.0, lambda x: 0.0,
                           lambda x: 0.0, Interval(-math.inf, math.inf))
    assert Problem.residual_tol == line.residual_tol == 0.0
    gamma = GammaDirectProblem(GammaQuantileQuery(2.0, 0.9))
    assert gamma.residual_tol == RESIDUAL_NOISE_FLOOR * gamma.query.q
    line.residual_tol = 1e-6
    loose = solve(line, 1.0 + 1e-9, SolveOptions())
    assert (loose.reason, loose.evaluations) == (StopReason.RESIDUAL_TOL, 1)
    line.residual_tol = 1e-12
    tight = solve(line, 1.0 + 1e-9, SolveOptions())
    assert tight.converged and tight.evaluations == 2 and tight.root == 1.0


def _noisy_expm1_problem(root: float) -> FunctionProblem:
    # f = expm1(x - root) plus a deterministic +-1e-15 taken from the last
    # mantissa bit of x: near the root every method bounces on the noise.
    def noise(x):
        return 1e-15 if struct.unpack("<q", struct.pack("<d", x))[0] & 1 else -1e-15

    g = lambda x: math.exp(x - root)
    return FunctionProblem(lambda x: math.expm1(x - root) + noise(x), g, g, g,
                           Interval(-math.inf, math.inf))


@pytest.mark.parametrize("method", ["snm", "halley", "newton"])
def test_noise_stop_ends_a_bounce_on_rounding_noise(monkeypatch, method):
    problem = _noisy_expm1_problem(0.5)
    report = solve(problem, 0.8, SolveOptions(method=method))
    assert report.converged and report.reason is StopReason.NOISE_FLOOR
    assert abs(report.root - 0.5) <= 2e-15
    # The better of the last two iterates: the one the last step came from,
    # and the one it reached.
    last = report.trace[-1]
    candidates = (last.x, last.x + last.step)
    assert report.root in candidates
    assert abs(problem.evaluate(report.root).f) == min(
        abs(problem.evaluate(x).f) for x in candidates)
    # Without the noise stop the same solve runs out of iterations.
    monkeypatch.setattr(snm.core, "NOISE_STEPS", 0.0)
    assert solve(problem, 0.8, SolveOptions(method=method)).reason is StopReason.MAX_ITER


def test_noise_stop_leaves_far_bounces_alone():
    # A Halley solve on tan(s (x - r)) from far out bounces across the root
    # with steps of order 1 before converging; the size bound keeps the
    # noise stop out of it.
    s, r = 0.27064784195844527, 0.7889669497863439
    half = math.pi / (2.0 * s)
    sec2 = lambda x: 1.0 + math.tan(s * (x - r)) ** 2
    problem = FunctionProblem(
        lambda x: math.tan(s * (x - r)), lambda x: s * sec2(x),
        lambda x: 2.0 * s * s * math.tan(s * (x - r)) * sec2(x),
        lambda x: 2.0 * s ** 3 * sec2(x) * (1.0 + 3.0 * math.tan(s * (x - r)) ** 2),
        Interval(r - half, r + half))
    report = solve(problem, 5.11795923395513, SolveOptions(method=Method.HALLEY))
    steps = [t.step for t in report.trace]
    assert any(u * v < 0.0 and abs(v) >= abs(u) for u, v in zip(steps, steps[1:]))
    assert (report.iterations, report.reason) == (6, StopReason.RESIDUAL_TOL)
    assert abs(report.root - r) <= 1e-15
