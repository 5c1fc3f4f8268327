"""Driver behavior: stopping reasons, trace consistency, the domain
clamp, the immutable record types and the evaluation count."""

import dataclasses
import math
import sys

import pytest

import snm.core
from snm.core import (
    RESIDUAL_NOISE_FLOOR,
    FunctionProblem,
    Interval,
    IterationRecord,
    STEP_REL_TOL,
    Method,
    Plan,
    Problem,
    ProblemEvaluation,
    SolveOptions,
    SolveReport,
    StopReason,
    Variable,
    snm_step,
    solve,
    tan_problem,
)
from snm.gamma import GammaDirectProblem, GammaQuantileQuery

from conftest import step_only


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
    with pytest.raises(ValueError):
        SolveOptions(abs_tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(abs_tol=math.nan)
    # An infinite tolerance would accept the first step as converged.
    with pytest.raises(ValueError):
        SolveOptions(abs_tol=math.inf)
    with pytest.raises(ValueError):
        SolveOptions(max_iter=0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def _cube_problem() -> FunctionProblem:
    return FunctionProblem(lambda x: x ** 3 - 2.0, lambda x: 3.0 * x * x,
                           lambda x: 6.0 * x, lambda x: 6.0, Interval(0.0, math.inf))


def test_method_given_by_name():
    assert SolveOptions(method="newton").method is Method.NEWTON
    by_name = solve(_cube_problem(), 3.0, SolveOptions(method="newton"))
    assert by_name == solve(_cube_problem(), 3.0, SolveOptions(method=Method.NEWTON))
    # Newton needs more steps than the SNM here, so the name was not ignored.
    assert by_name.iterations > solve(_cube_problem(), 3.0).iterations
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
                                   "reason", "evaluations", "variable", "flipped",
                                   "start", "root_underflow")
    assert Plan._fields == ("problem", "x0", "variable", "start", "flipped")


def test_with_plan_shares_trace_and_leaves_original():
    _, report = _records()
    before = tuple(report)
    plan = Plan(tan_problem(), 1.0, Variable.LOG, "lower-bound", flipped=True)
    moved = report.with_plan(plan, root_underflow=True)
    assert moved is not report
    assert moved.trace is report.trace
    assert moved.root == 1.0 - math.exp(report.root)
    assert (moved.variable, moved.flipped, moved.start, moved.root_underflow) \
        == (Variable.LOG, True, "lower-bound", True)
    assert (moved.iterations, moved.converged, moved.reason, moved.evaluations) == (
        report.iterations, report.converged, report.reason, report.evaluations)
    assert tuple(report) == before


def test_plan_maps_invert_each_other():
    # to_x and from_x are inverses for every variable, with and without the flip.
    for variable, v in ((Variable.DIRECT, 0.25), (Variable.LOG, -1.5),
                        (Variable.LOGIT, 2.0)):
        for flipped in (False, True):
            plan = Plan(tan_problem(), 0.0, variable, "", flipped)
            assert plan.from_x(plan.to_x(v)) == pytest.approx(v, rel=1e-15, abs=1e-15)
    assert Variable.LOGIT.value == "logit"
    assert Plan(tan_problem(), 0.0, Variable.LOGIT, "").to_x(0.0) == 0.5


def test_solve_options_frozen():
    opts = SolveOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.max_iter = 5
    # The relative step tolerance is a constant and the residual stop is
    # the problem's, so neither is an option.
    assert [f.name for f in dataclasses.fields(SolveOptions)] == [
        "abs_tol", "max_iter", "method"]
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
    report = solve(_cube_problem(), 3.0, SolveOptions(method=method))
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
    assert GammaDirectProblem.residual_tol == RESIDUAL_NOISE_FLOOR
    line.residual_tol = 1e-6
    loose = solve(line, 1.0 + 1e-9, SolveOptions())
    assert (loose.reason, loose.evaluations) == (StopReason.RESIDUAL_TOL, 1)
    line.residual_tol = 1e-12
    tight = solve(line, 1.0 + 1e-9, SolveOptions())
    assert tight.converged and tight.evaluations == 2 and tight.root == 1.0
