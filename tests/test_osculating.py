"""Osculating-curve construction: fit conditions, root equivalence, eval."""

import math

import pytest

from snm.core import (
    OsculatingModel,
    PoleError,
    ProblemEvaluation,
    osculating_eval,
    osculating_fit,
    osculating_root,
    snm_step,
    tan_problem,
)
from snm.gamma import GammaDirectProblem, GammaQuantileQuery
from snm.special import reg_gamma_p

from conftest import family_derivatives, family_evaluation, sample_family


def test_fit_at_a_root_anchors_the_model_root():
    e = ProblemEvaluation.from_derivatives(1.7, 0.0, 2.0, 0.5, 0.1)
    m = osculating_fit(e)
    assert m.a == 0.0
    assert osculating_root(m) == 1.7


def test_fit_reproduces_tan_exactly():
    # Valid where both tan and the model's gtan sit in their principal
    # branches: |x| < pi/2 and |x - anchor| < pi/2.
    problem = tan_problem()
    m = osculating_fit(problem.evaluate(1.2))
    for x in (-0.3, 0.0, 0.5, 0.9, 1.45):
        assert osculating_eval(m, x) == pytest.approx(math.tan(x), rel=1e-12, abs=1e-12)
    assert abs(osculating_root(m)) <= 1e-12


def test_osculation_conditions(rng):
    # Model value and first three derivatives match the source at the
    # anchor to relative 1e-9 (model derivatives by direct calculus).
    checked = 0
    for _ in range(150):
        m = sample_family(rng)
        e = family_evaluation(m, m.x0)
        model = osculating_fit(e)
        got = family_derivatives(model.lam, model.a, model.b, model.c, 0.0)
        fpp = -e.big_b * e.fp
        fppp = e.fp * (2.0 * e.omega + 1.5 * (fpp / e.fp) ** 2)
        want = (e.f, e.fp, fpp, fppp)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-12)
        checked += 1
    assert checked > 100


def test_root_equals_snm_step(rng):
    for _ in range(200):
        m = sample_family(rng)
        e = family_evaluation(m, m.x0)
        try:
            step_root = snm_step(e)
        except Exception:
            continue
        model_root = osculating_root(osculating_fit(e))
        assert model_root == pytest.approx(step_root, rel=1e-11, abs=1e-13)


def test_eval_at_anchor_is_f_over_c():
    q = GammaQuantileQuery(5.0, 0.4)
    problem = GammaDirectProblem(q)
    e = problem.evaluate(6.0)
    m = osculating_fit(e)
    assert osculating_eval(m, 6.0) == pytest.approx(e.f, rel=1e-13)
    assert m.a / m.c == pytest.approx(e.f, rel=1e-13)


def test_eval_at_model_root_is_zero():
    problem = tan_problem()
    m = osculating_fit(problem.evaluate(0.8))
    assert abs(osculating_eval(m, osculating_root(m))) <= 1e-13


def test_degenerate_line_model():
    # lam=0, b=0, c=1: y = (x - anchor) + a, Newton's tangent in disguise.
    m = OsculatingModel(x_anchor=2.0, lam=0.0, a=0.25, b=0.0, c=1.0)
    assert osculating_eval(m, 3.0) == 1.25
    assert osculating_root(m) == 1.75


def test_eval_pole_raises():
    m = OsculatingModel(x_anchor=0.0, lam=0.0, a=1.0, b=1.0, c=-2.0)
    with pytest.raises(PoleError):
        osculating_eval(m, 2.0)  # u = 2 makes b*u + c = 0


def test_gamma_figure_overlay():
    # Fitted at x = a+1 for a = 30, the curve tracks P(a, x) across the
    # whole sigmoid body, and far better than the lam = 0 (Moebius) and
    # tangent-line models.
    a, p = 30.0, 0.5
    problem = GammaDirectProblem(GammaQuantileQuery(a, p))
    e = problem.evaluate(a + 1.0)
    snm_model = osculating_fit(e)
    hal_model = snm_model._replace(lam=0.0)
    sum_snm = sum_hal = sum_newton = 0.0
    err_snm = err_snm_body = 0.0
    for i in range(71):
        x = 15.0 + 35.0 * i / 70.0
        truth = reg_gamma_p(a, x)
        d_snm = abs(osculating_eval(snm_model, x) + p - truth)
        try:
            d_hal = abs(osculating_eval(hal_model, x) + p - truth)
        except PoleError:
            d_hal = 10.0
        d_newton = abs(e.f + e.fp * (x - e.x) + p - truth)
        sum_snm += d_snm
        sum_hal += d_hal
        sum_newton += d_newton
        err_snm = max(err_snm, d_snm)
        if 22.0 <= x <= 50.0:
            err_snm_body = max(err_snm_body, d_snm)
    # The tangent-curve model tracks the CDF across the sigmoid body and
    # is far closer on average than the Moebius and tangent-line models
    # (Newton's line can cross the CDF at isolated points).
    assert err_snm_body < 0.03
    assert err_snm < 0.15
    assert sum_snm < sum_hal / 5.0
    assert sum_snm < sum_newton / 5.0
