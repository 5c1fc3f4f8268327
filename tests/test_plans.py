"""Prepared plans: fused evaluations match the public kernels bit for bit,
and per-query constants are computed once per query."""

import functools
import math
import sys

import pytest

import snm
from snm.beta import (
    BetaDirectProblem,
    BetaLogitProblem,
    BetaQuantileQuery,
    BetaVariable,
    _sigmoid,
    beta_b,
    beta_omega,
    beta_omega_logit,
    invert_beta,
)
from snm.core import RESIDUAL_NOISE_FLOOR, DerivativeVanishedError, SolveOptions
from snm.elliptic import EllipticProblem, EllipticQuery, ellip_omega, invert_ellip_e
from snm.gamma import (
    GammaDirectProblem,
    GammaLogProblem,
    GammaQuantileQuery,
    gamma_b,
    gamma_omega,
    gamma_omega_log,
    invert_gamma,
)
from snm.special import (
    ellip_e_complete,
    ellip_e_inc,
    gamma_density,
    ln_beta,
    ln_gamma,
    reg_beta,
    reg_gamma_p,
    reg_gamma_q,
)

GAMMA_SHAPES = (0.05, 0.3, 0.7, 1.0, 2.5, 15.9, 16.0, 150.0)
BETA_SHAPES = (0.3, 1.0, 2.5, 20.0, 40.0)
TAIL_P = (0.2, 0.8)  # both residual forms: P - p and q - Q


def _assert_matches(problem, point, f, fp, big_b, omega):
    """evaluate(point) is bit-equal to the reference, or raises where f' is 0."""
    if fp == 0.0:
        with pytest.raises(DerivativeVanishedError):
            problem.evaluate(point)
        return
    e = problem.evaluate(point)
    assert (e.f, e.fp, e.big_b, e.omega) == (f, fp, big_b, omega), (problem, point)


def _gamma_residual(a, p, q, x):
    return reg_gamma_p(a, x) - p if p <= 0.5 else q - reg_gamma_q(a, x)


def test_gamma_direct_evaluate_matches_public_kernels():
    for a in GAMMA_SHAPES:
        for p in TAIL_P:
            query = GammaQuantileQuery(a, p)
            problem = GammaDirectProblem(query)
            for factor in (0.01, 0.5, 1.0, 1.5, 3.0, 10.0):
                for x in (a * factor, a + 1.0):
                    _assert_matches(problem, x, _gamma_residual(a, p, query.q, x),
                                    gamma_density(a, x), gamma_b(a, x),
                                    gamma_omega(a, x))


def test_gamma_log_evaluate_matches_public_kernels():
    for a in GAMMA_SHAPES:
        for p in TAIL_P:
            query = GammaQuantileQuery(a, p)
            problem = GammaLogProblem(query)
            for z in (-700.0, math.log(a) - 3.0, math.log(a), math.log(a + 1.0),
                      math.log(a) + 1.5):
                x = math.exp(z)
                if z < -667.0:
                    f = math.exp(a * z - ln_gamma(a + 1.0)) - p
                else:
                    f = _gamma_residual(a, p, query.q, x)
                _assert_matches(problem, z, f, math.exp(a * z - x - ln_gamma(a)),
                                x - a, gamma_omega_log(a, z))


def test_beta_evaluate_matches_public_kernels():
    for a in BETA_SHAPES:
        for b in BETA_SHAPES:
            for p in TAIL_P:
                query = BetaQuantileQuery(a, b, p)
                direct = BetaDirectProblem(query)
                logit = BetaLogitProblem(query)
                for x in (0.01, 0.3, 0.5, 0.7, 0.99):
                    fp = math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
                                  - ln_beta(a, b))
                    _assert_matches(direct, x, reg_beta(x, a, b) - p, fp,
                                    beta_b(a, b, x), beta_omega(a, b, x))
                for z in (-30.0, -2.0, 0.0, 1.5, 30.0):
                    x = _sigmoid(z)
                    fp = math.exp(a * math.log(x) + b * math.log1p(-x) - ln_beta(a, b))
                    _assert_matches(logit, z, reg_beta(x, a, b) - p, fp,
                                    (a + b) * x - a, beta_omega_logit(a, b, z))


def test_elliptic_evaluate_matches_public_kernels():
    for m in (0.01, 0.3, 0.5, 0.8, 0.9, 0.999):
        for p in (0.1, 0.5, 0.9):
            problem = EllipticProblem(EllipticQuery(m, p))
            for x in (0.0, 0.1, 0.5, 0.8, 1.2, 1.5, math.pi / 2):
                s, c = math.sin(x), math.cos(x)
                w = 1.0 - (m * s) * (m * s)
                _assert_matches(problem, x, ellip_e_inc(x, m) - p * ellip_e_complete(m),
                                math.sqrt(w), m * m * s * c / w, ellip_omega(m, x))
            with pytest.raises(ValueError):
                problem.evaluate(math.pi / 2 + 1e-9)


def _count_calls(monkeypatch, name):
    """Count the outermost calls of snm.special.<name> through any snm alias."""
    original = getattr(snm.special, name)
    calls = [0]
    depth = [0]

    @functools.wraps(original)
    def counted(*args):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return original(*args)
        finally:
            depth[0] -= 1

    for key, module in list(sys.modules.items()):
        if key == "snm" or key.startswith("snm."):
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, counted)
    return calls


# Each case takes a distinct path: variable, flip, deep tail, user start, retry.
GAMMA_CASES = (
    (GammaQuantileQuery(2.5, 0.3), {}),
    (GammaQuantileQuery(150.0, 0.7), {}),
    (GammaQuantileQuery(1.0, 0.3), {}),
    (GammaQuantileQuery(0.3, 0.2), {}),
    (GammaQuantileQuery(0.7, 0.9), {}),
    (GammaQuantileQuery(0.05, 1e-15), {}),
    (GammaQuantileQuery(0.5, 0.3), {"start": 0.2}),
    (GammaQuantileQuery(5.0, 0.3), {"start": "inflection"}),
)
BETA_CASES = (
    (BetaQuantileQuery(2.0, 3.0, 0.3), {}),
    (BetaQuantileQuery(2.0, 3.0, 0.7), {}),
    (BetaQuantileQuery(40.0, 20.0, 0.4), {}),
    (BetaQuantileQuery(0.5, 3.0, 0.2), {}),
    (BetaQuantileQuery(3.0, 0.5, 0.2), {}),
    (BetaQuantileQuery(0.3, 0.6, 0.4), {}),
    (BetaQuantileQuery(0.3, 0.6, 0.95), {}),
    (BetaQuantileQuery(3.0, 4.0, 0.3), {"variable": BetaVariable.LOGIT}),
    (BetaQuantileQuery(0.5, 3.0, 0.2),
     {"opts": SolveOptions(max_iter=2, residual_tol=RESIDUAL_NOISE_FLOOR)}),
    (BetaQuantileQuery(2.0, 3.0, 0.7),
     {"opts": SolveOptions(max_iter=2, residual_tol=RESIDUAL_NOISE_FLOOR)}),
)
ELLIPTIC_CASES = (
    (EllipticQuery(0.5, 0.3), {}),
    (EllipticQuery(0.5, 0.9), {}),
    (EllipticQuery(0.97, 0.6), {}),
    (EllipticQuery(0.8356946940637837, 0.6632687675887856), {}),
    (EllipticQuery(0.5, 0.3), {"opts": SolveOptions(max_iter=1)}),
)


def test_gamma_query_computes_ln_gamma_at_most_twice(monkeypatch):
    calls = _count_calls(monkeypatch, "ln_gamma")
    for query, kwargs in GAMMA_CASES:
        calls[0] = 0
        invert_gamma(query, **kwargs)
        assert calls[0] <= 2, (query, kwargs, calls[0])


def test_beta_query_computes_ln_beta_once(monkeypatch):
    calls = _count_calls(monkeypatch, "ln_beta")
    notes = set()
    for query, kwargs in BETA_CASES:
        calls[0] = 0
        notes.update(invert_beta(query, **kwargs).notes)
        assert calls[0] == 1, (query, kwargs, calls[0])
    assert {"flip=symmetry", "retry=bisection-seed"} <= notes


def test_elliptic_query_computes_complete_integral_once(monkeypatch):
    calls = _count_calls(monkeypatch, "ellip_e_complete")
    notes = set()
    for query, kwargs in ELLIPTIC_CASES:
        calls[0] = 0
        notes.update(invert_ellip_e(query, **kwargs).notes)
        assert calls[0] == 1, (query, kwargs, calls[0])
    assert {"retry=alternate", "retry=bisection-seed"} <= notes
