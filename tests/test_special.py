"""Special-function kernels against closed forms and the quadrature oracle."""

import math
import random

import pytest

from snm.special import (
    _RD_Q_SCALE,
    _RF_Q_SCALE,
    KernelError,
    _ellip_e,
    bisect_root,
    carlson_rd,
    carlson_rf,
    ellip_e_complete,
    ellip_e_inc,
    gamma_density,
    ln_beta,
    ln_gamma,
    reg_beta,
    reg_gamma_p,
    reg_gamma_q,
)

from quadrature import integrate_adaptive

GAMMA_A_GRID = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)
GAMMA_X_FACTORS = (0.01, 0.5, 1.0, 2.0, 10.0)


# ------------------------------------------------------------- ln_gamma

def test_ln_gamma_exact_values():
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(2.0) == 0.0
    assert ln_gamma(0.5) == pytest.approx(0.5723649429247001, rel=1e-15)
    assert ln_gamma(10.0) == pytest.approx(12.801827480081469, rel=1e-15)


def test_ln_gamma_relative_accuracy():
    # Against math.lgamma over the contract range, including the zeros'
    # neighborhoods; the small absolute floor covers math.lgamma's own
    # last-ulp error where ln Gamma itself is a few 1e-3.
    for i in range(901):
        a = 10.0 ** (-3 + 9 * i / 900)
        ref = math.lgamma(a)
        if ref == 0.0:
            assert ln_gamma(a) == 0.0
        else:
            assert abs(ln_gamma(a) - ref) <= max(1e-14 * abs(ref), 1.5e-15)


def test_ln_gamma_domain():
    with pytest.raises(ValueError):
        ln_gamma(0.0)
    with pytest.raises(ValueError):
        ln_gamma(-1.5)


def test_ln_gamma_factorials():
    for n in range(3, 15):
        assert ln_gamma(float(n)) == pytest.approx(
            math.log(math.factorial(n - 1)), rel=1e-14)


# ------------------------------------------------------ incomplete gamma

def test_reg_gamma_closed_forms():
    assert reg_gamma_p(1.0, 1.0) == pytest.approx(0.6321205588285577, abs=1e-15)
    assert reg_gamma_p(3.0, 0.0) == 0.0
    assert reg_gamma_q(3.0, 0.0) == 1.0
    # a = 1 is the exponential distribution.
    for x in (0.1, 1.0, 5.0):
        assert reg_gamma_p(1.0, x) == pytest.approx(-math.expm1(-x), abs=1e-15)
        assert reg_gamma_q(1.0, x) == pytest.approx(math.exp(-x), abs=1e-15)


def test_reg_gamma_median_of_two():
    assert reg_gamma_p(2.0, 1.6783469900166605) == pytest.approx(0.5, abs=5e-16)


def test_reg_gamma_domain_errors():
    with pytest.raises(ValueError):
        reg_gamma_p(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_gamma_p(1.0, -0.1)
    with pytest.raises(ValueError):
        reg_gamma_q(-2.0, 1.0)


def test_gamma_kernels_at_infinite_x():
    for a in (0.3, 2.0, 50.0):
        assert reg_gamma_p(a, math.inf) == 1.0
        assert reg_gamma_q(a, math.inf) == 0.0
        assert gamma_density(a, math.inf) == 0.0


def test_gamma_kernels_refuse_nan_x_and_infinite_shape():
    for kernel in (reg_gamma_p, reg_gamma_q, gamma_density):
        with pytest.raises(ValueError):
            kernel(2.0, math.nan)
        with pytest.raises(ValueError):
            kernel(math.inf, 1.0)
        with pytest.raises(ValueError):
            kernel(math.nan, 1.0)


def test_p_plus_q_identity():
    for a in GAMMA_A_GRID:
        for k in GAMMA_X_FACTORS:
            x = a * k
            assert abs(reg_gamma_p(a, x) + reg_gamma_q(a, x) - 1.0) <= 2e-15


def test_reg_gamma_small_x_at_large_shape():
    # For a >= 16 the exponent is formed from x/a; forming x - a first
    # rounds x away once x << a (and raised ValueError near x ~ a*eps).
    # The relative error of P = S e^arg is the absolute error of arg,
    # which is at least the rounding of arg itself, eps |ln P| / 2.
    mpmath = pytest.importorskip("mpmath")
    eps = 2.220446049250313e-16
    assert reg_gamma_p(150.0, 4e-18) == 0.0
    for a in (16.0, 20.0, 150.0):
        x = 0.49 * a
        compared = 0
        with mpmath.workdps(40):
            while x >= 1e-300:
                got = reg_gamma_p(a, x)
                true = mpmath.gammainc(a, 0, x, regularized=True)
                if true < 1e-300:
                    assert got < 1e-299, (a, x, got)
                else:
                    err = float(abs(got - true) / true)
                    bound = max(1e-13, 3.0 * eps * abs(float(mpmath.log(true))))
                    assert err <= bound, (a, x, err)
                    compared += 1
                x /= 3.0
        assert compared >= 3, a


def test_reg_gamma_monotone_in_x():
    for a in GAMMA_A_GRID:
        values = [reg_gamma_p(a, a * k) for k in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


def test_gamma_density_values():
    for x in (0.2, 1.0, 3.0):
        assert gamma_density(1.0, x) == pytest.approx(math.exp(-x), rel=1e-14)
    assert gamma_density(2.0, 1.0) == pytest.approx(0.36787944117144233, rel=1e-14)


def test_gamma_density_underflow_is_zero():
    assert gamma_density(2.0, 1e4) == 0.0


def test_gamma_density_integrates_to_one():
    total = integrate_adaptive(lambda t: gamma_density(5.0, t), 1e-12, 60.0, 1e-12)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_gamma_density_matches_cdf_derivative():
    # Centered difference of P at step 1e-5 vs the closed-form density.
    for a in (0.5, 2.0, 10.0):
        for x in (0.5 * a, a, 2.0 * a):
            h = 1e-5
            diff = (reg_gamma_p(a, x + h) - reg_gamma_p(a, x - h)) / (2 * h)
            assert diff == pytest.approx(gamma_density(a, x), rel=1e-6)


def test_gamma_kernels_against_quadrature_oracle():
    for a in (2.0, 10.0):
        for k in (0.5, 1.0, 2.5):
            x = a * k
            quad = integrate_adaptive(lambda t: gamma_density(a, t), 0.0, x, 1e-13)
            assert abs(reg_gamma_p(a, x) - quad) <= 1e-12


def test_gamma_kernel_oracle_below_one():
    # a < 1 has an integrable t^(a-1) singularity at 0; integrate in
    # u = sqrt(t) where the transformed integrand is regular.
    a = 0.5
    for x in (0.25, 0.5, 1.25):
        quad = integrate_adaptive(
            lambda u: 2.0 * u * gamma_density(a, u * u), 0.0, math.sqrt(x), 1e-13)
        assert abs(reg_gamma_p(a, x) - quad) <= 1e-12


# ------------------------------------------------------- incomplete beta

def test_reg_beta_uniform():
    for x in (0.0, 0.25, 0.37, 1.0):
        assert reg_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-15)


def test_reg_beta_symmetric_midpoint():
    # Symmetry pins the exact value; the kernel meets its 1e-14 contract.
    for ab in (2.0, 5.0, 7.5, 20.0, 100.0):
        assert reg_beta(0.5, ab, ab) == pytest.approx(0.5, abs=1e-14)


def test_reg_beta_polynomial_case():
    # I_x(2,3) = 6x^2 - 8x^3 + 3x^4; at 0.3 that is exactly 0.3483.
    assert reg_beta(0.3, 2.0, 3.0) == pytest.approx(0.3483, abs=1e-15)
    quad = integrate_adaptive(lambda t: 12.0 * t * (1 - t) ** 2, 0.0, 0.3, 1e-13)
    assert reg_beta(0.3, 2.0, 3.0) == pytest.approx(quad, abs=1e-12)


def test_reg_beta_domain_errors():
    with pytest.raises(ValueError):
        reg_beta(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        reg_beta(1.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        reg_beta(0.5, 0.0, 1.0)


def test_beta_kernels_refuse_infinite_shapes_and_nan():
    for a, b in ((math.inf, 1.0), (0.5, math.inf), (math.nan, 2.0)):
        with pytest.raises(ValueError):
            reg_beta(0.5, a, b)
        with pytest.raises(ValueError):
            ln_beta(a, b)
        with pytest.raises(ValueError):
            ln_beta(b, a)
    with pytest.raises(ValueError):
        reg_beta(math.nan, 2.0, 3.0)


def test_reg_beta_symmetry_identity():
    for a in (0.3, 1.0, 2.0, 7.5, 30.0):
        for b in (0.4, 1.5, 5.0, 30.0):
            for x in (0.05, 0.3, 0.5, 0.71, 0.95):
                assert abs(reg_beta(x, a, b) + reg_beta(1.0 - x, b, a) - 1.0) <= 2e-15


def test_reg_beta_monotone_in_x():
    xs = (0.05, 0.2, 0.4, 0.6, 0.8, 0.95)
    for a, b in ((0.5, 0.5), (2.0, 3.0), (10.0, 1.5)):
        values = [reg_beta(x, a, b) for x in xs]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


def test_reg_beta_against_quadrature_oracle():
    for a, b in ((2.0, 2.0), (2.0, 3.0), (5.0, 1.5)):
        norm = math.exp(-ln_beta(a, b))
        for x in (0.2, 0.5, 0.8):
            quad = integrate_adaptive(
                lambda t: norm * t ** (a - 1) * (1 - t) ** (b - 1), 0.0, x, 1e-13)
            assert abs(reg_beta(x, a, b) - quad) <= 1e-12


def test_ln_beta_symmetric():
    assert ln_beta(3.0, 7.0) == pytest.approx(ln_beta(7.0, 3.0), rel=1e-15)
    assert ln_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    # B(2, 3) = 1/12.
    assert ln_beta(2.0, 3.0) == pytest.approx(-math.log(12.0), rel=1e-14)


# ---------------------------------------------------- Carlson / elliptic

def test_carlson_equal_arguments():
    for t in (0.25, 1.0, 4.0, 100.0):
        assert carlson_rf(t, t, t) == pytest.approx(t ** -0.5, rel=1e-14)
        assert carlson_rd(t, t, t) == pytest.approx(t ** -1.5, rel=1e-14)


def test_carlson_rf_degenerate():
    assert carlson_rf(0.0, 1.0, 1.0) == pytest.approx(math.pi / 2, rel=1e-14)
    assert carlson_rf(0.0, 4.0, 4.0) == pytest.approx(math.pi / 4, rel=1e-14)


def test_carlson_domain_errors():
    with pytest.raises(ValueError):
        carlson_rf(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        carlson_rf(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        carlson_rd(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        carlson_rd(1.0, 1.0, 0.0)


def _fused_kernel_grid():
    """(m, phi) pairs: uniform, m -> 1, tiny m, and phi at and near both ends."""
    rng = random.Random(20260518)
    ms = ([rng.random() for _ in range(30)]
          + [1.0 - 10.0 ** -k for k in range(1, 13)]
          + [1e-300, 1e-100, 1e-20, 1e-8, 1e-4])
    phis = ([rng.uniform(0.0, math.pi / 2) for _ in range(30)]
            + [0.0, 5e-324, 1e-300, 1e-100, 1e-8, 1e-4]
            + [math.pi / 2 - d for d in (1e-4, 1e-8, 1e-12, 1e-15, 0.0)])
    return [(m, phi) for m in ms if 0.0 < m < 1.0 for phi in phis]


def _kernel_arguments(m, phi):
    s = math.sin(phi)
    c = math.cos(phi)
    return s, c * c, 1.0 - (m * s) * (m * s)


def _stop_steps(x, y, z):
    """Duplication steps after which carlson_rf and carlson_rd each stop."""
    a0f = (x + y + z) / 3.0
    a0d = (x + y + 3.0 * z) / 5.0
    qf = _RF_Q_SCALE * max(abs(a0f - x), abs(a0f - y), abs(a0f - z))
    qd = _RD_Q_SCALE * max(abs(a0d - x), abs(a0d - y), abs(a0d - z))
    af, ad, fac = a0f, a0d, 1.0
    steps = 0
    stop_f = stop_d = None
    while stop_f is None or stop_d is None:
        if stop_f is None and fac * qf < abs(af):
            stop_f = steps
        if stop_d is None and fac * qd < abs(ad):
            stop_d = steps
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        af, ad = 0.25 * (af + lam), 0.25 * (ad + lam)
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        fac *= 0.25
        steps += 1
    return stop_f, stop_d


def test_fused_ellip_e_matches_the_carlson_reference_bit_for_bit():
    for m, phi in _fused_kernel_grid():
        s, c2, w = _kernel_arguments(m, phi)
        reference = (s * carlson_rf(c2, w, 1.0)
                     - (m * m / 3.0) * (s * s * s) * carlson_rd(c2, w, 1.0))
        assert _ellip_e(m, s, c2, w) == reference, (m, phi)


def test_rf_never_stops_after_rd_on_elliptic_arguments():
    # _ellip_e evaluates R_F's series inside the loop that R_D's test ends.
    orders = set()
    for m, phi in _fused_kernel_grid():
        _, c2, w = _kernel_arguments(m, phi)
        stop_f, stop_d = _stop_steps(c2, w, 1.0)
        assert stop_f <= stop_d, (m, phi)
        orders.add(stop_f < stop_d)
    assert orders == {True, False}


def test_ellip_e_inc_limits():
    for x in (0.0, 0.4, 1.0, math.pi / 2):
        assert ellip_e_inc(x, 0.0) == pytest.approx(x, abs=1e-15)
        assert ellip_e_inc(x, 1.0) == pytest.approx(math.sin(x), abs=1e-15)


def test_ellip_e_complete_value():
    assert ellip_e_complete(0.5) == pytest.approx(1.4674622093394272, abs=1e-14)
    assert ellip_e_complete(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert ellip_e_complete(1.0) == 1.0


def test_ellip_e_inc_against_quadrature_oracle():
    for m in (0.3, 0.5, 0.9):
        for phi in (0.5, 1.0, math.pi / 2):
            quad = integrate_adaptive(
                lambda t: math.sqrt(1.0 - (m * math.sin(t)) ** 2), 0.0, phi, 1e-13)
            assert abs(ellip_e_inc(phi, m) - quad) <= 1e-12


def test_ellip_e_inc_monotone_in_phi():
    for m in (0.2, 0.8):
        values = [ellip_e_inc(phi, m) for phi in (0.1, 0.5, 0.9, 1.3, math.pi / 2)]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


def test_ellip_e_inc_domain_errors():
    with pytest.raises(ValueError):
        ellip_e_inc(-0.1, 0.5)
    with pytest.raises(ValueError):
        ellip_e_inc(2.0, 0.5)
    with pytest.raises(ValueError):
        ellip_e_inc(0.5, 1.5)


# ------------------------------------------------------------- oracles

def test_integrate_adaptive_basics():
    assert integrate_adaptive(lambda t: 1.0, 0.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-12)
    assert integrate_adaptive(math.sin, 0.0, math.pi, 1e-12) == pytest.approx(2.0, abs=1e-12)
    assert integrate_adaptive(lambda t: 1.0, 2.0, 2.0, 1e-12) == 0.0


def test_integrate_adaptive_budget_error():
    with pytest.raises(KernelError):
        integrate_adaptive(lambda t: math.sin(200.0 / (t + 1e-3)), 0.0, 1.0,
                           1e-14, max_depth=3)


def test_bisect_root_basics():
    assert bisect_root(math.cos, 0.0, 2.0, tol=1e-15) == pytest.approx(
        math.pi / 2, abs=1e-14)
    with pytest.raises(ValueError):
        bisect_root(lambda x: 1.0 + x * x, -1.0, 1.0)
