"""Prepared plans: fused evaluations match the public kernels bit for bit,
per-query constants are computed once per query, each query runs the
plan's one solve, and the asymptotic starts are close enough that the
solves need no fallback."""

import collections
import functools
import json
import math
import random
import sys

import pytest

import snm
from snm.beta import (
    BetaDirectProblem,
    BetaLogitProblem,
    BetaQuantileQuery,
    _sigmoid,
    beta_b,
    beta_omega,
    beta_omega_logit,
    beta_plan,
    invert_beta,
)
from snm.cli import beta_bisection_root, main
from snm.core import (
    MACHINE_EPSILON,
    MIN_NORMAL,
    STEP_REL_TOL,
    DerivativeVanishedError,
    Method,
    SolveOptions,
    Variable,
    solve,
)
from snm.elliptic import (
    EllipticProblem,
    EllipticQuery,
    _ellip_omega,
    elliptic_plan,
    invert_ellip_e,
)
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
from snm.special import (
    _ELLIP_C_SERIES_MAX,
    _ELLIP_E_SERIES_MAX,
    _beta_constants,
    _beta_exponent,
    _ellip_c,
    _ellip_e,
    _gamma_constants,
    _gamma_prefactor,
    _ln_gamma_1p,
    _reg_beta,
    _reg_gamma,
    ellip_e_complete,
    ellip_e_inc,
    gamma_density,
    ln_gamma,
    reg_beta,
    reg_gamma_p,
    reg_gamma_q,
)

from conftest import beta_bisection_root, gamma_bisection_root, log_uniform
from test_solve_digest import _queries as digest_queries

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


# One prefactor per evaluation: each problem forms the kernel's prefactor
# once, in its own variable, passes it to the kernel and reads f' off it:
#   gamma in x      f' = x^a e^-x / Gamma(a) / x
#   gamma in log x  f' = x^a e^-x / Gamma(a), formed from z
#   beta in x       f' = x^a y^b / B(a, b) / (x y)
#   beta in logit   f' = x^a y^b / B(a, b), formed from z
# so f is the kernel's residual at that very f' (times x, or x y) bit for
# bit.  Where the prefactor is formed from x, as the public kernels form
# it, f, f' and the public forms agree bit for bit too.


def _gamma_kernel_residual(a, p, q, x, scale):
    """The residual the gamma problems read from the kernel given its
    prefactor; P - p also where x is subnormal or 0."""
    if p <= 0.5 or x < MIN_NORMAL:
        return _reg_gamma(a, x, scale)[0] - p
    return q - _reg_gamma(a, x, scale, _ln_gamma_1p(a) if a < 1.0 else None)[1]


def test_gamma_direct_evaluate_matches_public_kernels():
    for a in GAMMA_SHAPES:
        for p in TAIL_P:
            query = GammaQuantileQuery(a, p)
            problem = GammaDirectProblem(query)
            for factor in (0.01, 0.5, 1.0, 1.5, 3.0, 10.0):
                for x in (a * factor, a + 1.0):
                    scale, fp = _gamma_prefactor(a, x, *_gamma_constants(a))
                    assert fp in (scale / x, 0.0), (a, x)
                    f = _gamma_kernel_residual(a, p, query.q, x, scale)
                    assert (f, fp) == (_gamma_residual(a, p, query.q, x), gamma_density(a, x))
                    _assert_matches(problem, x, f, fp, gamma_b(a, x), gamma_omega(a, x))


def test_gamma_log_evaluate_matches_public_kernels():
    # The kernel path at every z: x normal, subnormal (z = -720) and 0
    # (z = -800).
    for a in GAMMA_SHAPES:
        for p in TAIL_P:
            query = GammaQuantileQuery(a, p)
            problem = GammaLogProblem(query)
            for z in (-800.0, -720.0, -700.0, math.log(a) - 3.0, math.log(a),
                      math.log(a + 1.0), math.log(a) + 1.5):
                x = math.exp(z)
                if a >= 16.0 and x >= MIN_NORMAL:
                    # Stirling's shifted exponent, as the public kernels form
                    # it: the residual is theirs bit for bit.
                    fp = _gamma_prefactor(a, x, *_gamma_constants(a))[0]
                    f = _gamma_residual(a, p, query.q, x)
                else:
                    fp = math.exp(a * z - x - ln_gamma(a))
                    f = _gamma_kernel_residual(a, p, query.q, x, fp)
                    # The public kernels form the prefactor from x, not z:
                    # they agree to the rounding of the exponent's terms.
                    tol = 4.0 * MACHINE_EPSILON * (abs(a * z) + x + abs(ln_gamma(a)))
                    assert f == pytest.approx(_gamma_residual(a, p, query.q, x),
                                              rel=0.0, abs=tol), (a, p, z)
                _assert_matches(problem, z, f, fp, x - a, gamma_omega_log(a, z))


def _beta_residual(a, b, p, q, x, y):
    """I_x(a, b) - p for p <= 1/2, else q - (1 - I_x(a, b)), y = 1 - x.

    The public kernel runs in the smaller of x and y, the one that is
    exact, through I_x(a, b) = 1 - I_y(b, a).
    """
    i, j = (reg_beta(x, a, b), None) if x <= y else (None, reg_beta(y, b, a))
    if p <= 0.5:
        return (1.0 - j if i is None else i) - p
    return q - (1.0 - i if j is None else j)


def test_beta_evaluate_matches_public_kernels():
    # The lower-tail direct residual and every B and Omega are the public
    # forms bit for bit.  The upper-tail residual takes 1 - I from the
    # kernel's pair, where the public mirror I_(1-x)(b, a) may run its
    # fraction on the other side, and below shape 16 the logit prefactor
    # comes from z, so those agree with the public forms to rounding.
    for a in BETA_SHAPES:
        for b in BETA_SHAPES:
            constants = _beta_constants(a, b)
            for p in TAIL_P:
                query = BetaQuantileQuery(a, b, p)
                direct = BetaDirectProblem(query)
                logit = BetaLogitProblem(query)
                for x in (0.01, 0.3, 0.5, 0.7, 0.99):
                    y = 1.0 - x
                    scale = math.exp(_beta_exponent(a, b, x, y, *constants))
                    e = direct.evaluate(x)
                    assert (e.f, e.fp, e.big_b, e.omega) == (
                        direct._residual(x, *_reg_beta(x, y, a, b, scale)), scale / (x * y),
                        beta_b(a, b, x), beta_omega(a, b, x)), (a, b, p, x)
                    if p <= 0.5:
                        assert e.f == reg_beta(x, a, b) - p, (a, b, p, x)
                    f = _beta_residual(a, b, p, query.q, x, y)
                    assert e.f == pytest.approx(f, rel=0.0, abs=4e-16), (a, b, p, x)
                for z in (-30.0, -2.0, 0.0, 1.5, 30.0):
                    x, y = _sigmoid(z), _sigmoid(-z)
                    # The public kernels' prefactor, with Stirling's terms for
                    # a, b >= 16.  The logit problem forms it from z below 16.
                    fp = math.exp(_beta_exponent(a, b, x, y, *constants))
                    if fp == 0.0:
                        with pytest.raises(DerivativeVanishedError):
                            logit.evaluate(z)
                        continue
                    e = logit.evaluate(z)
                    i, j = _reg_beta(x, y, a, b, e.fp)
                    assert (e.f, e.big_b, e.omega) == (
                        logit._residual(x, i, j),
                        b * x - a * y, beta_omega_logit(a, b, z)), (a, b, p, z)
                    if a >= 16.0 and b >= 16.0:
                        assert e.fp == fp, (a, b, z)
                    else:
                        # Both exponents round at a few eps times their terms.
                        tol = 1e-14 * max(1.0, -math.log(fp))
                        assert e.fp == pytest.approx(fp, rel=tol, abs=0.0), (a, b, z)
                    f = _beta_residual(a, b, p, query.q, x, y)
                    assert e.f == pytest.approx(f, rel=0.0, abs=4e-16), (a, b, p, z)


def test_logit_prefactor_is_stirling_s_wherever_x_and_y_are_normal():
    # For a, b >= 16 the logit f' is Stirling's exponent while x and 1 - x
    # are both normal, GammaLogProblem's rule, and is formed from z once one
    # of them is subnormal (past |z| = 708.4), where it has lost bits.  With
    # the other shape ~1e300, f' has not underflowed there.
    for a, b in ((20.0, 1e300), (1e300, 20.0)):
        problem = BetaLogitProblem(BetaQuantileQuery(a, b, 0.3))
        ln_b, stirling = _beta_constants(a, b)
        sides = set()
        for z in (700.0, 708.0, 708.39, 708.4, 709.0, 720.0):
            z = -z if a < b else z
            x, y = _sigmoid(z), _sigmoid(-z)
            normal = min(x, y) >= MIN_NORMAL
            sides.add(normal)
            if normal:
                fp = math.exp(_beta_exponent(a, b, x, y, ln_b, stirling))
            else:
                fp = math.exp((a * z if z < 0.0 else -b * z)
                              - (a + b) * math.log1p(math.exp(-abs(z))) - ln_b)
            assert 0.0 < problem.evaluate(z).fp == fp, (a, b, z)
        assert sides == {True, False}


def test_direct_f_prime_against_mpmath_at_large_shapes():
    # f' is the prefactor e^arg over x (gamma) or x (1 - x) (beta), so its
    # relative error is the absolute error of arg, which the Stirling forms
    # for shapes >= 16 keep to a few eps times (1 + |arg|).  A second
    # exponent without them was off by up to 1,000 such units at a = b = 300.
    mp = pytest.importorskip("mpmath")
    eps = MACHINE_EPSILON
    shapes = (16.0, 17.3, 40.0, 150.0, 300.0)
    with mp.workdps(40):
        for a in shapes + (1000.0,):
            problem = GammaDirectProblem(GammaQuantileQuery(a, 0.3))
            for x in (a * f for f in (0.3, 0.6, 0.9, 1.0, 1.1, 1.5, 2.5)):
                prefactor = mp.mpf(x) ** a * mp.exp(-mp.mpf(x)) / mp.gamma(a)
                err = abs(problem.evaluate(x).fp / (prefactor / x) - 1)
                assert err <= 32.0 * eps * (1.0 + abs(mp.log(prefactor))), (a, x, err)
        for a in shapes:
            for b in shapes:
                problem = BetaDirectProblem(BetaQuantileQuery(a, b, 0.3))
                mean = a / (a + b)
                sd = math.sqrt(a * b / (a + b + 1.0)) / (a + b)
                for x in (mean + k * sd for k in (-4, -2, -1, 0, 1, 2, 4)):
                    xm = mp.mpf(x)
                    prefactor = xm ** a * (1 - xm) ** b / mp.beta(a, b)
                    err = abs(problem.evaluate(x).fp / (prefactor / (xm * (1 - xm))) - 1)
                    assert err <= 32.0 * eps * (1.0 + abs(mp.log(prefactor))), (a, b, x, err)


def test_elliptic_evaluate_matches_public_kernels():
    # One path for every query: f' = sqrt(k'^2 + (m cos x)^2), and f is
    # (1 - p) E(1, m) - C(pi/2 - x) in C's class (m > 0.95, p > 1/2; here
    # m = 0.999, p = 0.9) where cos x <= 0.4 (here x = 1.2, 1.5 and pi/2),
    # elsewhere E(sin x, m) - p E(1, m) as ellip_e_inc forms it, bit for
    # bit; C and E are checked against the public Carlson integrals in
    # test_special.
    for m in (0.01, 0.3, 0.5, 0.8, 0.9, 0.999):
        g2 = (1.0 - m) * (1.0 + m)
        for p in (0.1, 0.5, 0.9):
            problem = EllipticProblem(EllipticQuery(m, p))
            for x in (0.0, 1e-3, 0.1, 0.5, 0.8, 1.2, 1.5, math.pi / 2):
                s, c = math.sin(x), math.cos(x)
                w = g2 + (m * c) * (m * c)
                if m > 0.95 and p > 0.5 and c <= _ELLIP_C_SERIES_MAX:
                    f = (1.0 - p) * ellip_e_complete(m) - _ellip_c(m, g2, c)
                else:
                    f = ellip_e_inc(x, m) - p * ellip_e_complete(m)
                omega = _ellip_omega(m, c * c, w)
                _assert_matches(problem, x, f, math.sqrt(w), m * m * s * c / w, omega)
                assert problem.omega(x) == problem.evaluate(x).omega == omega, (m, p, x)
            with pytest.raises(ValueError):
                problem.evaluate(math.pi / 2 + 1e-9)


def _count_calls(monkeypatch, name, owner=snm.special):
    """Count the outermost calls of <owner>.<name> through any snm alias;
    ``name`` may be a tuple of names, whose calls share one count, so a
    call of one inside another is not counted."""
    calls = [0]
    depth = [0]

    def wrap(original):
        @functools.wraps(original)
        def counted(*args):
            calls[0] += depth[0] == 0
            depth[0] += 1
            try:
                return original(*args)
            finally:
                depth[0] -= 1
        return counted

    for one in (name,) if isinstance(name, str) else name:
        original = getattr(owner, one)
        counted = wrap(original)
        for key, module in list(sys.modules.items()):
            if key == "snm" or key.startswith("snm."):
                for alias, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, alias, counted)
    return calls


# The 19 bench tail queries (seeds 1-3) whose Newton solves, started from
# the lower bound of a flipped or an upper-tail query, stayed on one side
# of the root for 30 steps and ended MaxIter while the residual was I - p.
NEWTON_ONE_SIDED = [BetaQuantileQuery(*args) for args in (
    (0.22527578378421423, 1.497837167475381, 0.9999999999999892, 1.0769607723293331e-14),
    (1.1167770776305879, 0.1360109261762081, 1.5862547018054867e-15, 0.9999999999999984),
    (0.37561224091523737, 2.003147750972968, 0.9999999999999977, 2.385961908137684e-15),
    (0.9733265555241337, 80.10935457938187, 0.999999999999995, 4.9437519188385975e-15),
    (4.4980439089288495, 0.5629992172898935, 3.7471547436456916e-15, 0.9999999999999962),
    (2.422571210233598, 0.45876366230286375, 1.9828500660658375e-14, 0.9999999999999801),
    (0.7099938123258794, 1.3529594375606826, 0.999999999999981, 1.896017822307528e-14),
    (0.5866308416656499, 2.608563138736971, 0.999999999999991, 8.94893516593539e-15),
    (10.02682048959469, 0.9850607366981144, 1.4262162865063518e-14, 0.9999999999999858),
    (1.4145708619054553, 0.1943186830964685, 1.5195042322609917e-15, 0.9999999999999984),
    (0.8843014310786672, 113.45804440501115, 0.9999999999999931, 6.9220785192293296e-15),
    (0.7707896848895258, 4.315917600388234, 0.9999999999999752, 2.4809355944943586e-14),
    (0.2618311840128747, 1.2670158356973076, 0.9999999999999798, 2.0201326585677905e-14),
    (0.402468312704888, 1.0530883937725941, 0.9999999999999374, 6.266562051605782e-14),
    (28.793159813931773, 0.5748093697070086, 2.112357579347369e-15, 0.9999999999999979),
    (5.259066539601758, 0.26596662292019574, 1.035773151424572e-15, 0.999999999999999),
    (3.551515309229023, 0.587390744567648, 4.9697092779517004e-14, 0.9999999999999503),
    (0.32448025564940175, 6.87706139599427, 0.9999999999999979, 2.095713486957326e-15),
    (1.2530368038308481, 0.2717691444287771, 3.674697748600955e-15, 0.9999999999999963),
)]
NEWTON_OPTIONS = SolveOptions(method=Method.NEWTON)

# Each case takes a distinct path: variable, start, deep tail, root
# underflow, an iteration cap that the solve does not meet.
GAMMA_CASES = (
    (GammaQuantileQuery(2.5, 0.3), {}),
    (GammaQuantileQuery(150.0, 0.7), {}),
    (GammaQuantileQuery(1.0, 0.3), {}),
    (GammaQuantileQuery(0.3, 0.2), {}),
    (GammaQuantileQuery(0.7, 0.9), {}),
    (GammaQuantileQuery(0.05, 1e-15), {}),
    # From the lower bound, past the series start's reach: capped below
    # the one iteration it takes, so it ends MaxIter.
    (GammaQuantileQuery(0.5, 0.5),
     {"opts": SolveOptions(max_iter=1)}),
)
BETA_CASES = (
    (BetaQuantileQuery(2.0, 3.0, 0.3), {}),
    (BetaQuantileQuery(2.0, 3.0, 0.7), {}),
    (BetaQuantileQuery(40.0, 20.0, 0.4), {}),
    (BetaQuantileQuery(0.5, 3.0, 0.2), {}),
    (BetaQuantileQuery(0.5, 3.0, 0.8), {}),
    (BetaQuantileQuery(3.0, 0.5, 0.2), {}),
    (BetaQuantileQuery(0.3, 0.6, 0.4), {}),
    (BetaQuantileQuery(0.3, 0.6, 0.95), {}),
    (BetaQuantileQuery(1e-4, 1e-4, 0.3), {}),
    (BetaQuantileQuery(0.0017745513613895013, 385.5803019308725, 0.2763487602690605), {}),
    (BetaQuantileQuery(5.0, 0.1, 0.99), {}),
    (BetaQuantileQuery(1e17, 1.5, 0.3), {}),
    # Both shapes < 1 with 1/2 between the power bounds: the start is z = 0,
    # with the root below it and above it.
    (BetaQuantileQuery(0.5, 0.5, 0.48), {}),
    (BetaQuantileQuery(0.5, 0.5, 0.52), {}),
    (NEWTON_ONE_SIDED[0], {"opts": NEWTON_OPTIONS}),
    # Capped below the one iteration each takes (the predicted stop applies
    # its second step uncounted), so they end MaxIter.
    (BetaQuantileQuery(0.5, 0.5, 0.45),
     {"opts": SolveOptions(max_iter=1)}),
    (BetaQuantileQuery(2.0, 3.0, 0.7),
     {"opts": SolveOptions(max_iter=1)}),
)
ELLIPTIC_CASES = (
    (EllipticQuery(0.5, 0.3), {}),
    (EllipticQuery(0.5, 0.9), {}),
    (EllipticQuery(0.97, 0.6), {}),
    (EllipticQuery(0.99999, 0.99), {}),  # the complementary start; C by its series
    (EllipticQuery(0.9999, 0.9999), {}),  # C by its series, below s = 4 k'/m
    (EllipticQuery(1.0 - 1e-9, 0.004), {}),  # a tiny amplitude: E by its series
    (EllipticQuery(0.8356946940637837, 0.6632687675887856), {}),
    # (0.5, 0.3) converges in 0 iterations, so no cap binds it; this query
    # takes one.
    (EllipticQuery(0.81, 0.7), {"opts": SolveOptions(max_iter=1)}),
)


def test_gamma_query_computes_ln_gamma_at_most_twice(monkeypatch):
    # The problems take ln Gamma unchecked, the query having checked a.
    calls = _count_calls(monkeypatch, "_ln_gamma")
    for query, kwargs in GAMMA_CASES:
        calls[0] = 0
        invert_gamma(query, **kwargs)
        assert calls[0] <= 2, (query, kwargs, calls[0])


def test_gamma_query_forms_its_constants_once(monkeypatch):
    # ln Gamma(a) and the Stirling constants come from one _gamma_constants
    # call for a >= 1; below, the problem forms ln Gamma(a) from
    # ln Gamma(1 + a) and has no Stirling constants.  The public kernels,
    # beta's gamma limit and the oracle (whose bisection runs the kernel
    # many times) make one call each.
    calls = _count_calls(monkeypatch, "_gamma_constants")
    for query, kwargs in GAMMA_CASES:
        calls[0] = 0
        invert_gamma(query, **kwargs)
        assert calls[0] == (query.a >= 1.0), (query, kwargs, calls[0])
    for run in (lambda: reg_gamma_p(150.0, 140.0), lambda: reg_gamma_q(0.3, 0.2),
                lambda: gamma_density(150.0, 140.0), lambda: reg_beta(1e-19, 2.0, 3e20),
                lambda: gamma_bisection_root(150.0, 0.7, 0.3)):
        calls[0] = 0
        run()
        assert calls[0] == 1, calls[0]


def test_beta_query_computes_ln_beta_once(monkeypatch):
    # ln B and the Stirling constants come from one pass, and nothing calls
    # the public ln_beta.
    calls = _count_calls(monkeypatch, "_beta_constants")
    public = _count_calls(monkeypatch, "ln_beta")
    starts = set()
    for query, kwargs in BETA_CASES:
        calls[0] = public[0] = 0
        starts.add(invert_beta(query, **kwargs).start)
        assert (calls[0], public[0]) == (1, 0), (query, kwargs, calls[0], public[0])
    assert starts == {"asymptotic", "series", "lower-bound", "upper-bound", "bracket"}
    # So do the public kernel and the oracle, whose bisection runs the
    # kernel 66 times here.
    for run in (lambda: reg_beta(0.4, 30.0, 40.0),
                lambda: beta_bisection_root(30.0, 40.0, 0.3, 0.7)):
        calls[0] = public[0] = 0
        run()
        assert (calls[0], public[0]) == (1, 0), (calls[0], public[0])


def test_solvers_do_not_recheck_the_query_s_shapes(monkeypatch):
    # The query checks its shapes; ln Gamma and ln B are then taken
    # unchecked, so no solve checks them again.
    calls = _count_calls(monkeypatch, "check_shape", snm.core)
    for invert, cases in ((invert_gamma, GAMMA_CASES), (invert_beta, BETA_CASES)):
        for query, kwargs in cases:
            calls[0] = 0
            invert(query, **kwargs)
            assert calls[0] == 0, (query, calls[0])


def test_elliptic_query_computes_complete_integral_once(monkeypatch):
    calls = _count_calls(monkeypatch, "ellip_e_complete")
    for query, kwargs in ELLIPTIC_CASES:
        calls[0] = 0
        invert_ellip_e(query, **kwargs)
        assert calls[0] == 1, (query, kwargs, calls[0])


def test_elliptic_set_up_runs_no_carlson_duplication(monkeypatch):
    # E(1, m) comes from the AGM or the k' series, so the only kernel runs
    # are the solve's own evaluations: each one E(sin x, m) by one run of
    # its kernel, or for m > 0.95 and p > 1/2 where cos x <= 0.4 one
    # C(pi/2 - x) by its series.
    calls = _count_calls(monkeypatch, ("_ellip_e", "_ellip_c", "_ellip_e_series"))
    evaluations = 0
    for query, kwargs in ELLIPTIC_CASES:
        calls[0] = 0
        elliptic_plan(query)
        assert calls[0] == 0, query
        report = invert_ellip_e(query, **kwargs)
        assert calls[0] == report.evaluations, (query, kwargs, calls[0])
        evaluations += report.evaluations
    assert evaluations > 0


def test_the_series_cases_take_the_series_branches(monkeypatch):
    # (1 - 1e-9, 0.004) evaluates E only inside the E series' reach: each
    # evaluation runs the E kernel once, which sums its series with zero
    # halvings.  (0.9999, 0.9999) evaluates C only below s = 4 k'/m: it
    # runs no E.  (0.97, 0.6) is of C's class (m > 0.95, p > 1/2), but its
    # arcsin-guess solve stays past C's series (cos x > 0.4): each of its
    # evaluations runs the E kernel once, whose halvings end in one E
    # series, and none runs C.
    e_series = _count_calls(monkeypatch, "_ellip_e_series")
    c_kernel = _count_calls(monkeypatch, "_ellip_c")
    kernel = _count_calls(monkeypatch, "_ellip_e")
    kernels = (e_series, c_kernel, kernel)
    for query, runs in ((EllipticQuery(1.0 - 1e-9, 0.004), (1, 0, 1)),
                        (EllipticQuery(0.9999, 0.9999), (0, 1, 0)),
                        (EllipticQuery(0.97, 0.6), (1, 0, 1))):
        assert (query, {}) in ELLIPTIC_CASES
        for counter in kernels:
            counter[0] = 0
        report = invert_ellip_e(query)
        assert report.converged, query
        assert tuple(counter[0] for counter in kernels) == tuple(
            n * report.evaluations for n in runs), query
        m = query.m
        if query.p < 0.5:
            assert math.sin(report.root) <= _ELLIP_E_SERIES_MAX, query
        elif runs == (0, 1, 0):
            assert math.cos(report.root) < 4.0 * math.sqrt((1.0 - m) * (1.0 + m)) / m, query
        else:
            assert report.start == "arcsin-guess", query
            assert math.cos(report.root) > _ELLIP_C_SERIES_MAX, query


def _both_below_one_queries(n=240):
    """Seeded a, b < 1 queries: central tails, and tails down to 1e-300,
    each taken as p or as q."""
    rng = random.Random("both-below-one")
    queries = []
    for k in range(n):
        a, b = 10.0 ** rng.uniform(-6.0, -1e-9), 10.0 ** rng.uniform(-6.0, -1e-9)
        t = rng.uniform(1e-3, 0.5) if k % 2 else 10.0 ** rng.uniform(-300.0, -3.0)
        queries.append(BetaQuantileQuery(a, b, t) if k % 4 < 2
                       else BetaQuantileQuery(a, b, 1.0 - t, t))
    return queries


def test_every_kernel_evaluation_is_a_counted_evaluation(monkeypatch):
    # No plan runs a kernel, and every evaluation runs one, deep tails
    # included: each kernel run of an invert_* call is one of its report's
    # evaluations.
    calls = _count_calls(monkeypatch, ("_reg_gamma", "_reg_beta", "_ellip_e", "_ellip_c",
                                       "_ellip_e_series"))
    cases = ([(invert_gamma, gamma_start, query, kwargs) for query, kwargs in GAMMA_CASES]
             + [(invert_beta, beta_plan, query, kwargs) for query, kwargs in BETA_CASES]
             + [(invert_beta, beta_plan, query, {}) for query in _both_below_one_queries()]
             + [(invert_ellip_e, elliptic_plan, query, kwargs)
                for query, kwargs in ELLIPTIC_CASES])
    for invert, make_plan, query, kwargs in cases:
        calls[0] = 0
        make_plan(query)
        assert calls[0] == 0, query
        report = invert(query, **kwargs)
        assert calls[0] == report.evaluations, (query, kwargs, calls[0], report.evaluations)


@pytest.mark.parametrize("invert, make_plan, cases", [
    (invert_gamma, gamma_start, GAMMA_CASES),
    (invert_beta, beta_plan, BETA_CASES),
    (invert_ellip_e, elliptic_plan, ELLIPTIC_CASES),
])
def test_each_query_is_the_plan_s_one_solve(monkeypatch, invert, make_plan, cases):
    calls = _count_calls(monkeypatch, "solve", snm.core)
    unconverged = 0
    for query, kwargs in cases:
        calls[0] = 0
        report = invert(query, **kwargs)
        plan = make_plan(query)
        assert calls[0] == 1, (query, kwargs, calls[0])
        own = solve(plan.problem, plan.x0, kwargs.get("opts"))
        assert report.root == plan.to_x(own.root), query
        assert (report.iterations, report.evaluations, report.reason, report.converged,
                report.predicted_error) \
            == (own.iterations, own.evaluations, own.reason, own.converged,
                own.predicted_error), query
        assert report.trace == own.trace, query
        unconverged += not report.converged
    # The capped cases end unconverged: no second solve rescues them.
    assert unconverged >= 1


def test_each_report_is_its_plan_s_solve_with_the_plan():
    # On the solve digest's grid, which reaches every plan branch of the
    # three solvers, invert_* is solve(plan.problem, plan.x0).with_plan(plan)
    # field for field, and with_plan keeps the solve's trace tuple.
    plans = {GammaQuantileQuery: (invert_gamma, gamma_start),
             BetaQuantileQuery: (invert_beta, beta_plan),
             EllipticQuery: (invert_ellip_e, elliptic_plan)}
    checked = 0
    for query in digest_queries():
        if isinstance(query, EllipticQuery) and query.m in (0.0, 1.0):
            continue  # closed form: no plan and no solve
        invert, make_plan = plans[type(query)]
        report = invert(query)
        plan = make_plan(query)
        own = solve(plan.problem, plan.x0)
        expected = own.with_plan(plan)
        assert expected.trace is own.trace, query
        assert report.root.hex() == expected.root.hex(), query
        assert report.predicted_error.hex() == expected.predicted_error.hex(), query
        assert report[1:9] == expected[1:9], query
        checked += 1
    assert checked > 450


@pytest.mark.parametrize("invert, make_plan, cases", [
    (invert_gamma, gamma_start, GAMMA_CASES),
    (invert_beta, beta_plan, BETA_CASES),
    (invert_ellip_e, elliptic_plan, ELLIPTIC_CASES),
])
def test_report_fields_are_the_plan_s_fields(invert, make_plan, cases):
    for query, kwargs in cases:
        report = invert(query, **kwargs)
        plan = make_plan(query)
        assert (report.variable, report.start) == (plan.variable, plan.start), query
        # Flagged exactly when x is below the smallest normal double.
        assert report.root_underflow == (report.root < MIN_NORMAL), query
        assert report.root != 0.0 or report.root_underflow, query


def test_invert_beta_agrees_with_compare_on_a_one_sided_newton_solve(capsys):
    # Each tail is now solved in place from the bound on the side the
    # convergence theorem names, so Newton crosses to the root: all 19
    # converge, within 1e-12 of the bisection root.
    for query in NEWTON_ONE_SIDED:
        report = invert_beta(query, NEWTON_OPTIONS)
        assert report.converged, (query, report.reason)
        assert report.iterations <= 12, (query, report.iterations)
        exact = beta_bisection_root(query.a, query.b, query.p, query.q)
        assert abs(report.root - exact) <= 1e-12 * exact, (query, report.root, exact)
    a, b, p = NEWTON_ONE_SIDED[0].a, NEWTON_ONE_SIDED[0].b, NEWTON_ONE_SIDED[0].p
    report = invert_beta(BetaQuantileQuery(a, b, p), NEWTON_OPTIONS)
    status = main(["compare", "beta", "--a", repr(a), "--b", repr(b), "--p", repr(p),
                   "--methods", "newton", "--format", "json"])
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert status == 0
    assert row["iterations"] == report.iterations


# Queries whose solves end MaxIter without the residual stop, so options a
# caller passes must keep the problem's stop.
CALLER_OPTIONS_CASES = (
    (invert_gamma, GammaQuantileQuery(0.09314440237587786, 0.9669482455993221)),
    (invert_beta, BetaQuantileQuery(13.04976233800258, 0.08092678516569501,
                                    0.0744345180978059)),
    (invert_ellip_e, EllipticQuery(0.9999999997954024, 0.9979524840189656)),
)


@pytest.mark.parametrize("invert, query", CALLER_OPTIONS_CASES)
def test_caller_options_keep_the_problem_s_residual_stop(invert, query):
    default = invert(query)
    assert default.converged, query
    assert invert(query, SolveOptions()) == default, query
    halley = invert(query, SolveOptions(method=Method.HALLEY))
    assert halley.converged, (query, halley.reason)


def _tail_pair(rng):
    """(p, q) with the smaller tail log-uniform in [1e-15, 0.5], on either side."""
    t = log_uniform(rng, 1e-15, 0.5)
    return (t, 1.0 - t) if rng.random() < 0.5 else (1.0 - t, t)


def _assert_quick_direct_solve(plan, report, query):
    # The public report is the plan's one solve, mapped back to x.
    working = solve(plan.problem, plan.x0, SolveOptions())
    assert report.root == plan.to_x(working.root), query
    assert report.evaluations == working.evaluations, query
    assert working.converged, query
    assert not any(r.fallback_used for r in working.trace), query
    assert working.evaluations <= 4, (query, working.evaluations)
    # Round trip in the inverted tail, at the working root z (log x or
    # logit x; the problem's own residual, which reads q - (1 - I) for
    # p > 1/2): 1e-13, plus f' (1e-15 + STEP_REL_TOL z).  z is signed,
    # negative for roots below x = 1 (gamma) or 1/2 (beta), so there the
    # slack is below 1e-15 f' and can be negative, a check stricter than
    # 1e-13.  Beta roots near x = 1 with a >> b (z > 0) need the slack:
    # there |f'| reaches ~1e3.
    e = plan.problem.evaluate(working.root)
    step_tol = 1e-15 + STEP_REL_TOL * working.root
    assert abs(e.f) <= 1e-13 + e.fp * step_tol, (query, e.f)


def test_direct_starts_need_few_evaluations_and_no_fallback():
    # Seeded fuzz over the classes that once solved in x (gamma a >= 1,
    # beta a, b > 1), now in log and logit x: the bound-clamped asymptotic
    # starts, and the series starts deep enough in a tail, converge in at
    # most 3 steps across both tails.
    rng = random.Random(5)
    for _ in range(1000):
        query = GammaQuantileQuery(log_uniform(rng, 1.0, 1e4), *_tail_pair(rng))
        _assert_quick_direct_solve(gamma_start(query), invert_gamma(query), query)
    starts = collections.Counter()
    for _ in range(1000):
        query = BetaQuantileQuery(log_uniform(rng, 1.0, 1e4),
                                  log_uniform(rng, 1.0, 1e4), *_tail_pair(rng))
        plan = beta_plan(query)
        assert plan.variable == Variable.LOGIT, query
        assert plan.start in ("asymptotic", "series"), (query, plan.start)
        starts[plan.start] += 1
        _assert_quick_direct_solve(plan, invert_beta(query), query)
    assert min(starts.values()) >= 200, starts
