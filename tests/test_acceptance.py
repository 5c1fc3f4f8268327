"""Acceptance gate: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import itertools
import math
import random
import time

import pytest

from snm.core import (
    Method,
    SnmError,
    SolveOptions,
    halley_step,
    osculating_fit,
    osculating_root,
    snm_step,
    solve,
    tan_problem,
)
from snm.beta import (
    BetaDirectProblem,
    BetaQuantileQuery,
    beta_plan,
    beta_xm,
    beta_xm_coefficients,
    invert_beta,
    _sigmoid,
)
from snm.elliptic import (
    EllipticProblem,
    EllipticQuery,
    choose_start,
    ellip_xc,
    invert_ellip_e,
)
from snm.gamma import (
    GammaDirectProblem,
    GammaQuantileQuery,
    gamma_omega,
    invert_gamma,
)
from snm.special import (
    bisect_root,
    ellip_e_complete,
    ellip_e_inc,
    gamma_density,
    ln_beta,
    reg_beta,
    reg_gamma_p,
    reg_gamma_q,
)

from conftest import family_evaluation, sample_family, step_only
from quadrature import integrate_adaptive


def _report(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


def test_criterion_1_exactness_on_constant_schwarzian_family():
    rng = random.Random(1001)
    start = time.perf_counter()
    defined = 0
    for _ in range(500):
        m = sample_family(rng)
        e = family_evaluation(m, m.x0)
        try:
            landed = snm_step(e)
        except SnmError:
            continue
        defined += 1
        assert abs(landed - m.root) <= 1e-10, (m, landed)
    elapsed = time.perf_counter() - start
    assert defined == 500
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s"
    _report(1, f"one-step exactness on 500 family members ({elapsed * 1e3:.0f} ms)")


def test_criterion_2_tan_counterexample():
    problem = tan_problem()
    report = solve(problem, 1.5)
    assert report.converged
    assert abs(report.root) <= 1e-12
    halley_lands = halley_step(problem.evaluate(1.5))
    assert not (-math.pi / 2 < halley_lands < math.pi / 2)
    _report(2, "SNM solves tan from 1.5; one Halley step exits the interval")


def test_criterion_3_fourth_order_error_constant():
    a, p = 5.0, 0.5
    alpha = bisect_root(lambda x: reg_gamma_p(a, x) - p, 1.0, 20.0)
    problem = GammaDirectProblem(GammaQuantileQuery(a, p))
    h = 1e-5
    omega_prime = (gamma_omega(a, alpha + h) - gamma_omega(a, alpha - h)) / (2 * h)
    eps1 = 1e-2
    eps2 = snm_step(problem.evaluate(alpha + eps1)) - alpha
    predicted = omega_prime / 12.0 * eps1 ** 4
    assert eps2 == pytest.approx(predicted, rel=0.25)
    _report(3, f"error law ratio {eps2 / predicted:.3f} within 25%")


GAMMA_BUDGET_GRID = tuple(itertools.product(
    (2.0, 5.0, 30.0, 100.0), tuple(i / 10 for i in range(1, 10))))


def test_criterion_4_gamma_iteration_budget():
    start = time.perf_counter()
    worst = 0
    for a, p in GAMMA_BUDGET_GRID:
        problem = step_only(GammaDirectProblem(GammaQuantileQuery(a, p)))
        report = solve(problem, a + 1.0, SolveOptions())
        assert report.converged, (a, p)
        assert report.iterations <= 3, (a, p, report.iterations)
        worst = max(worst, report.iterations)
        assert abs(reg_gamma_p(a, report.root) - p) <= 1e-13, (a, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s"
    _report(4, f"gamma grid converges in <= 3 iterations (worst {worst}, "
               f"{elapsed * 1e3:.0f} ms)")


def test_criterion_5_snm_iterations_at_most_halley_and_monotone():
    for a, p in GAMMA_BUDGET_GRID:
        problem = GammaDirectProblem(GammaQuantileQuery(a, p))
        r_snm = solve(problem, a + 1.0, SolveOptions(method=Method.SNM))
        r_hal = solve(problem, a + 1.0, SolveOptions(method=Method.HALLEY))
        assert r_snm.converged and r_hal.converged, (a, p)
        assert r_snm.iterations <= r_hal.iterations, (a, p)
        for rep in (r_snm, r_hal):
            steps = [r.step for r in rep.trace]
            assert all(s <= 0 for s in steps) or all(s >= 0 for s in steps), (a, p)
    _report(5, "SNM iterations <= Halley iterations, both monotone, full grid")


def test_criterion_6_step_comparison_theorem():
    rng = random.Random(1006)
    neg = pos = 0
    while neg < 500:
        a = 10.0 ** rng.uniform(0.0, 2.0)
        p = rng.uniform(0.05, 0.95)
        x = rng.uniform(0.3 * a, 2.0 * a + 3.0)
        e = GammaDirectProblem(GammaQuantileQuery(a, p)).evaluate(x)
        assert e.omega < 0.0
        try:
            s_snm = snm_step(e) - x
            s_hal = halley_step(e) - x
        except SnmError:
            continue
        assert s_snm * s_hal >= 0.0
        assert abs(s_snm) >= abs(s_hal) * (1.0 - 1e-12)
        neg += 1
    while pos < 500:
        m = rng.uniform(0.05, 0.99)
        p = rng.uniform(0.05, 0.95)
        xc = ellip_xc(m)
        x = rng.uniform(xc + 1e-3, math.pi / 2 - 1e-6)
        e = EllipticProblem(EllipticQuery(m, p)).evaluate(x)
        if e.omega <= 0.0:
            continue
        try:
            s_snm = snm_step(e) - x
            s_hal = halley_step(e) - x
        except SnmError:
            continue
        assert s_snm * s_hal >= 0.0
        assert abs(s_snm) <= abs(s_hal) * (1.0 + 1e-12)
        pos += 1
    _report(6, "sign equality and magnitude ordering on 1000 sampled steps")


def test_criterion_7_elliptic_two_iteration_accuracy():
    worst = 0.0
    for mi in range(1, 9):
        m = mi / 10.0
        for pi in range(1, 20):
            p = 0.05 * pi
            query = EllipticQuery(m, p)
            target = p * ellip_e_complete(m)
            oracle = bisect_root(lambda x: ellip_e_inc(x, m) - target, 0.0, math.pi / 2)
            x, _ = choose_start(query)
            problem = EllipticProblem(query)
            for _ in range(2):
                x = snm_step(problem.evaluate(x))
            worst = max(worst, abs(x - oracle))
            assert abs(x - oracle) <= 1e-14, (m, p)
    _report(7, f"two SNM iterations reach the oracle root (worst {worst:.2e})")


def test_criterion_8_structural_constants():
    # Gamma Omega peak: the paper's displayed formula gives -1/(2(1+a)).
    for a in (1.0, 3.0, 10.0):
        want = -1.0 / (2.0 * (1.0 + a))
        assert abs(gamma_omega(a, a + 1.0) - want) <= 1e-15 * abs(want)
    assert abs(ellip_xc(1.0) - math.pi / 2) <= 1e-12
    assert abs(ellip_xc(1e-9) - math.pi / 4) <= 1e-12
    rng = random.Random(1008)
    for _ in range(50):
        a = rng.uniform(1.0 + 1e-9, 30.0)
        b = rng.uniform(1.0 + 1e-9, 30.0)
        g, h, i, j = beta_xm_coefficients(a, b)
        x = beta_xm(a, b)
        q = ((g * x + h) * x + i) * x + j
        assert abs(q) <= 1e-12 * max(abs(g), abs(h), abs(i), abs(j))
    _report(8, "gamma peak -1/(2(1+a)), x_c limits, beta cubic residuals")


@pytest.mark.xfail(strict=True,
                   reason="documented factor-2 typo: the displayed Omega "
                          "formula gives -1/(2(1+a)) at x = a+1, not "
                          "-1/(4(1+a)); see the a=1 case where Omega = -1/4")
def test_criterion_8_spec_literal_constant_is_a_paper_typo():
    for a in (1.0, 3.0, 10.0):
        want = -1.0 / (4.0 * (1.0 + a))
        assert abs(gamma_omega(a, a + 1.0) - want) <= 1e-15 * abs(want)


def test_criterion_9_osculating_root_equals_snm_step():
    rng = random.Random(1009)
    checked = 0
    while checked < 200:
        kind = checked % 3
        try:
            if kind == 0:
                a = 10.0 ** rng.uniform(-0.5, 2.0)
                p = rng.uniform(0.05, 0.95)
                x = rng.uniform(0.5 * a, 1.5 * a + 2.0)
                e = GammaDirectProblem(GammaQuantileQuery(a, p)).evaluate(x)
            elif kind == 1:
                a = rng.uniform(0.3, 20.0)
                b = rng.uniform(0.3, 20.0)
                p = rng.uniform(0.05, 0.95)
                x = rng.uniform(0.05, 0.95)
                e = BetaDirectProblem(BetaQuantileQuery(a, b, p)).evaluate(x)
            else:
                m = rng.uniform(0.05, 0.99)
                p = rng.uniform(0.05, 0.95)
                x = rng.uniform(0.05, math.pi / 2 - 0.05)
                e = EllipticProblem(EllipticQuery(m, p)).evaluate(x)
            step_root = snm_step(e)
            model_root = osculating_root(osculating_fit(e))
        except SnmError:
            continue
        assert abs(model_root - step_root) <= 1e-11 * max(1.0, abs(step_root))
        checked += 1
    _report(9, "osculating-curve root equals the SNM step on 200 evaluations")


def test_criterion_10_kernel_oracle_agreement():
    start = time.perf_counter()
    # gamma vs quadrature
    for a in (2.0, 10.0):
        for k in (0.5, 1.0, 2.5):
            x = a * k
            quad = integrate_adaptive(lambda t: gamma_density(a, t), 0.0, x, 1e-13)
            assert abs(reg_gamma_p(a, x) - quad) <= 1e-12
    quad = integrate_adaptive(lambda u: 2.0 * u * gamma_density(0.5, u * u),
                              0.0, 1.0, 1e-13)
    assert abs(reg_gamma_p(0.5, 1.0) - quad) <= 1e-12
    # beta vs quadrature
    for a, b in ((2.0, 2.0), (2.0, 3.0), (5.0, 1.5)):
        norm = math.exp(-ln_beta(a, b))
        for x in (0.2, 0.5, 0.8):
            quad = integrate_adaptive(
                lambda t: norm * t ** (a - 1) * (1 - t) ** (b - 1), 0.0, x, 1e-13)
            assert abs(reg_beta(x, a, b) - quad) <= 1e-12
    # elliptic vs quadrature
    for m in (0.3, 0.5, 0.9):
        for phi in (0.5, 1.0, math.pi / 2):
            quad = integrate_adaptive(
                lambda t: math.sqrt(1.0 - (m * math.sin(t)) ** 2), 0.0, phi, 1e-13)
            assert abs(ellip_e_inc(phi, m) - quad) <= 1e-12
    # identities
    for a in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
        for k in (0.01, 0.5, 1.0, 2.0, 10.0):
            assert abs(reg_gamma_p(a, a * k) + reg_gamma_q(a, a * k) - 1.0) <= 2e-15
    for a in (0.3, 2.0, 30.0):
        for b in (0.4, 1.5, 5.0):
            for x in (0.05, 0.3, 0.5, 0.71, 0.95):
                assert abs(reg_beta(x, a, b) + reg_beta(1.0 - x, b, a) - 1.0) <= 2e-15
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(10, f"kernels agree with the quadrature oracle ({elapsed:.2f} s)")


def test_criterion_11_round_trip_quantiles():
    # gamma, including the a < 1 log path
    for a in (0.1, 0.5, 1.0, 2.0, 5.0, 30.0, 100.0):
        for p in (0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999):
            report = invert_gamma(GammaQuantileQuery(a, p))
            assert report.converged, (a, p)
            assert abs(reg_gamma_p(a, report.root) - p) <= 1e-13, (a, p)
    # beta, including the a or b < 1 logit path; residual read on the side
    # the double resolves: I_x(a, b) - p at x = sigma(z) <= 1/2, else
    # I_y(b, a) - q at y = sigma(-z), which a root near 1 cannot carry
    for a, b in itertools.product((0.3, 0.5, 1.5, 2.0, 5.0, 30.0), repeat=2):
        for p in (0.01, 0.2, 0.5, 0.8, 0.99):
            query = BetaQuantileQuery(a, b, p)
            report = invert_beta(query)
            assert report.converged, (a, b, p)
            plan = beta_plan(query)
            work = solve(plan.problem, plan.x0,
                         SolveOptions())
            if plan.variable.value == "logit":
                x, y = _sigmoid(work.root), _sigmoid(-work.root)
            else:
                x, y = work.root, 1.0 - work.root
            residual = (reg_beta(x, a, b) - p if x <= 0.5
                        else reg_beta(y, b, a) - query.q)
            assert abs(residual) <= 1e-13, (a, b, p)
    # elliptic
    for m in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        for p in (0.05, 0.25, 0.5, 0.75, 0.95):
            report = invert_ellip_e(EllipticQuery(m, p))
            assert report.converged, (m, p)
            comp = ellip_e_complete(m)
            assert abs(ellip_e_inc(report.root, m) / comp - p) <= 1e-13, (m, p)
    _report(11, "round-trip residuals <= 1e-13 across all three solvers")
