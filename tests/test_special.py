"""Special-function kernels against closed forms and the quadrature oracle."""

import math
import random
from decimal import Context, Decimal
from fractions import Fraction

import pytest

from snm.special import (
    _RD_Q_SCALE,
    _RF_Q_SCALE,
    KernelError,
    _ELLIP_C_SERIES_MAX,
    _beta_exponent,
    _LN_4,
    _carlson_fd,
    _ellip_c,
    _ln_gamma_1p,
    _reg_beta,
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
from series_reference import ellip_e_agm, ln_gamma_1p_series, ln_gamma_series

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
    # last-ulp error where ln Gamma itself is a few 1e-3.  Above 2.6
    # ln_gamma is math.lgamma, so the independent references are the
    # exact values and the mpmath bands below.
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


# Exact references to 40 digits: the decimal module's ln of an exact
# integer is correctly rounded.
_CTX40 = Context(prec=40)
_LN_PI = _CTX40.ln(Decimal("3.14159265358979323846264338327950288419716939937511"))


def _assert_relative(got: float, ref: Decimal, bound: float, where) -> None:
    assert abs(float((Decimal(got) - ref) / ref)) <= bound, where


def test_ln_gamma_factorials():
    # ln Gamma(n) = ln (n-1)! for n = 3..170, the largest n whose
    # Gamma(n) is a finite double.
    for n in range(3, 171):
        _assert_relative(ln_gamma(float(n)), _CTX40.ln(Decimal(math.factorial(n - 1))),
                         1e-15, n)


def test_ln_gamma_half_integers():
    # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!), for a = 0.5 .. 170.5.
    for n in range(171):
        ref = (_CTX40.ln(Decimal(math.factorial(2 * n)))
               - _CTX40.ln(Decimal(4 ** n * math.factorial(n))) + _LN_PI / 2)
        _assert_relative(ln_gamma(n + 0.5), ref, 1e-15, n + 0.5)


# Above 2.6: (band, log-uniform, worst absolute and relative error allowed)
# on 1,000 seeded points per band against 40-digit mpmath.  Each bound is
# below the worst error that the Lanczos sum (g = 7, n = 9) this branch
# replaced gave on the same points: 1.27e-14 and 5.5e-15, 1.18e-12 and
# 5.3e-16, 2.0e-9 and 3.8e-16; math.lgamma gives 6.6e-15 and 3.5e-15,
# 1.02e-12 and 2.9e-16, 1.83e-9 and 2.5e-16.
LN_GAMMA_BANDS = (
    ((2.6, 16.0), False, 1.2e-14, 5e-15),
    ((16.0, 1e3), True, 1.1e-12, 5e-16),
    ((1e3, 1e6), True, 1.9e-9, 3.5e-16),
)


@pytest.mark.parametrize("band, log_uniform, abs_bound, rel_bound", LN_GAMMA_BANDS,
                         ids=("2.6-16", "16-1e3", "1e3-1e6"))
def test_ln_gamma_against_mpmath_above_2_6(band, log_uniform, abs_bound, rel_bound):
    mpmath = pytest.importorskip("mpmath")
    lo, hi = band
    rng = random.Random(f"ln-gamma-band:{lo}:{hi}")
    worst_abs = worst_rel = 0.0
    with mpmath.workdps(40):
        for _ in range(1000):
            a = (math.exp(rng.uniform(math.log(lo), math.log(hi))) if log_uniform
                 else rng.uniform(lo, hi))
            ref = mpmath.loggamma(a)
            err = abs(mpmath.mpf(ln_gamma(a)) - ref)
            worst_abs = max(worst_abs, float(err))
            worst_rel = max(worst_rel, float(err / abs(ref)))
    assert worst_abs <= abs_bound and worst_rel <= rel_bound, (worst_abs, worst_rel)


def _ln_gamma_table_grid(step: float) -> list[float]:
    """(0, 2.6] every ``step``, plus each piece edge of the ln Gamma(2 + t)
    table reached as t = a - 2, a - 1 or a (ln Gamma(1 + a)), and the
    doubles either side of it."""
    points = {k * step for k in range(1, round(2.6 / step) + 1)}
    for edge in (-0.55, -0.2625, 0.025, 0.3125, 0.6):
        for a in (2.0 + edge, 1.0 + edge, edge):
            if 0.0 < a <= 2.6:
                points |= {math.nextafter(a, 0.0), a, math.nextafter(a, 3.0)}
    return sorted(a for a in points | {1.0, 2.0} if a <= 2.6)


def test_ln_gamma_table_matches_the_taylor_series():
    # The piecewise table against the 35-term Taylor series it replaced:
    # both are within 5.6e-16 relative of mpmath here, and differ by their
    # roundings, up to 5.3e-16 (ln Gamma) and 9.6e-16 (ln Gamma(1 + a),
    # whose ln Gamma(2 + a) - log1p(a) loses a bit near a = 0.58).
    eps = 2.0 ** -52
    for a in _ln_gamma_table_grid(1e-4):
        if a in (1.0, 2.0):
            assert ln_gamma(a) == 0.0
            continue
        ref = ln_gamma_series(a)
        assert abs(ln_gamma(a) - ref) <= 4.0 * eps * abs(ref), a
        if a < 1.0:
            ref = ln_gamma_1p_series(a)
            assert abs(_ln_gamma_1p(a) - ref) <= 6.0 * eps * abs(ref), a


def test_ln_gamma_table_against_mpmath():
    # No worse than the Taylor series on the same points, near the zeros
    # at a = 1 and 2 included.
    mpmath = pytest.importorskip("mpmath")
    worst_table = worst_series = 0.0
    with mpmath.workdps(40):
        for a in _ln_gamma_table_grid(1e-3):
            if a in (1.0, 2.0):
                continue
            ref = mpmath.loggamma(a)
            worst_table = max(worst_table, float(abs((ln_gamma(a) - ref) / ref)))
            worst_series = max(worst_series, float(abs((ln_gamma_series(a) - ref) / ref)))
    assert worst_table <= worst_series, (worst_table, worst_series)


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


def test_gamma_kernels_at_huge_finite_x():
    # Past x ~ 2^1022 the continued fraction's 1/b is subnormal and its
    # steps never settle; e^exponent has underflowed there, so P = 1, Q = 0.
    for a in (0.5, 2.0, 300.0):
        for x in (4e307, 9e307, 1e308, 1.2e308, 1.5e308, 1.7e308, 1.79e308):
            assert reg_gamma_p(a, x) == 1.0, (a, x)
            assert reg_gamma_q(a, x) == 0.0, (a, x)


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


@pytest.mark.parametrize("a, b, x, y", [
    (2.0, 5.0, 0.2, 0.8),
    (0.5, 0.7, 0.9, 0.1),
    (30.0, 40.0, 0.25, 0.75),
    (0.3, 200.0, 1e-3, 0.999),
    # 1 - x rounds to 1 past the switch: the gamma limit, and its mirror.
    (0.27943915834916794, 2.925171694501003e+251, 1.8e-251, 1.0),
    (2.925171694501003e+251, 0.27943915834916794, 1.0, 1.8e-251),
])
def test_pair_kernel_is_symmetric(a, b, x, y):
    # (I, 1 - I) at (x, y; a, b) is (1 - I, I) at (y, x; b, a): one side
    # rule, decided in the smaller variable, serves both orders.
    ln_b = ln_beta(a, b)
    i, j = _reg_beta(x, y, a, b, math.exp(_beta_exponent(a, b, x, y, ln_b)))
    j_m, i_m = _reg_beta(y, x, b, a, math.exp(_beta_exponent(b, a, y, x, ln_b)))
    assert i == pytest.approx(i_m, rel=1e-15, abs=0.0)
    assert j == pytest.approx(j_m, rel=1e-15, abs=0.0)
    assert 0.0 < min(i, j) and max(i, j) <= 1.0


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


@pytest.mark.parametrize("b, tol", [(1e4, 1e-13), (1e6, 1e-11), (1e8, 1e-9), (1e10, 1e-7)])
def test_the_fraction_past_its_switch_keeps_1_minus_i_at_huge_b(b, tol):
    # Past its switch the fraction runs in y = 1 - x with shapes (b, a); its
    # first denominator 1 - (a + b) y/(b + 1) cancels to ~1/b there, and
    # formed so it put 1 - I off by ~eps b (7.7e-13, 1.0e-10, 8.6e-9 and
    # 1.3e-6 at these b).  Formed as (b x + 1 - a y)/(b + 1) it does not
    # cancel; the rest of the error still grows with b (ROADMAP item 5).
    mpmath = pytest.importorskip("mpmath")
    for a in (0.5, 3.0):
        for k in range(10):
            x = (a + 1.5 + 0.5 * k) / b
            y = 1.0 - x
            j = _reg_beta(x, y, a, b, math.exp(_beta_exponent(a, b, x, y, ln_beta(a, b))))[1]
            with mpmath.workdps(40):
                exact = mpmath.betainc(a, b, x, 1, regularized=True)
            assert abs(j - exact) <= tol * exact, (a, x, j, exact)


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


def test_carlson_rf_nan_and_infinite_arguments():
    for args in ((math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)):
        with pytest.raises(ValueError):
            carlson_rf(*args)
    for args in ((math.inf, 1.0, 1.0), (0.0, 1.0, math.inf), (math.inf, math.inf, 2.0)):
        assert carlson_rf(*args) == 0.0


def test_carlson_rd_nan_and_infinite_arguments():
    for args in ((math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)):
        with pytest.raises(ValueError):
            carlson_rd(*args)
    for args in ((math.inf, 1.0, 1.0), (0.0, math.inf, 1.0), (1.0, 1.0, math.inf)):
        assert carlson_rd(*args) == 0.0


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
        assert ellip_e_inc(phi, m) == reference, (m, phi)


def test_rf_never_stops_after_rd_on_elliptic_arguments():
    # _carlson_fd evaluates R_F's series inside the loop that R_D's test ends.
    orders = set()
    for m, phi in _fused_kernel_grid():
        _, c2, w = _kernel_arguments(m, phi)
        stop_f, stop_d = _stop_steps(c2, w, 1.0)
        assert stop_f <= stop_d, (m, phi)
        orders.add(stop_f < stop_d)
    assert orders == {True, False}


def _complement_arguments(m, psi):
    """(c2, y) at which ``_ellip_c`` runs the duplication: cos^2 psi and
    1 + (m sin psi / k')^2, which exceeds 1."""
    g2 = (1.0 - m) * (1.0 + m)
    s = math.sin(psi)
    return math.cos(psi) ** 2, 1.0 + (m * s / math.sqrt(g2)) ** 2


def test_shared_duplication_matches_the_carlson_reference_on_complement_arguments():
    for m, psi in _fused_kernel_grid():
        c2, y = _complement_arguments(m, psi)
        assert _carlson_fd(c2, y) == (carlson_rf(c2, y, 1.0), carlson_rd(c2, y, 1.0)), (m, psi)


def test_rf_never_stops_after_rd_on_complement_arguments():
    for m, psi in _fused_kernel_grid():
        stop_f, stop_d = _stop_steps(*_complement_arguments(m, psi), 1.0)
        assert stop_f <= stop_d, (m, psi)


def _carlson_complement(m, s, c2):
    """C(psi) in the Carlson form that ``snm.cli.elliptic_bisection_root``
    bisects: k'^2 (s R_F(k'^2 c^2, w, k'^2) + (m^2/3) s^3 R_D(k'^2 c^2, w, k'^2))."""
    g2 = (1.0 - m) * (1.0 + m)
    w = g2 + m * m * s * s
    return g2 * (s * carlson_rf(g2 * c2, w, g2)
                 + m * m / 3.0 * s ** 3 * carlson_rd(g2 * c2, w, g2))


def _series_grid(n):
    """(m, s) with 4 k'/m <= s = sin psi <= 0.4, where ``_ellip_c`` sums its
    series: 1 - m = 10^U[-15, -2.31] (k'/m <= 0.1), s log-uniform, seeded."""
    rng = random.Random("ellip-c-series")
    out = []
    for _ in range(n):
        m = 1.0 - 10.0 ** rng.uniform(-15.0, -2.31)
        b = math.sqrt((1.0 - m) * (1.0 + m)) / m
        out.append((m, math.exp(rng.uniform(math.log(4.0 * b), math.log(_ELLIP_C_SERIES_MAX)))))
    return out


def test_complement_series_matches_the_carlson_form():
    # Worst 4.0 eps over these 400 points.
    for m, s in _series_grid(400):
        c2 = (1.0 - s) * (1.0 + s)
        got = _ellip_c(m, (1.0 - m) * (1.0 + m), s, c2)
        assert got == pytest.approx(_carlson_complement(m, s, c2), rel=8 * 2.0 ** -52, abs=0.0), (m, s)


def test_complement_series_against_mpmath():
    # C = E(1, m) - E(pi/2 - psi, m) at 50 digits; the worst is 2.5 eps (5.6e-16).
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        for m, s in _series_grid(120):
            got = _ellip_c(m, (1.0 - m) * (1.0 + m), s, (1.0 - s) * (1.0 + s))
            m2 = mpmath.mpf(m) ** 2
            ref = mpmath.ellipe(m2) - mpmath.ellipe(mpmath.pi / 2 - mpmath.asin(s), m2)
            worst = max(worst, float(abs(got / ref - 1)))
    assert worst <= 1e-15, worst


def test_complement_branches_agree_across_their_switches():
    # One ulp of s moves C by about two ulps; the series is taken from
    # s = 4 k'/m up to s = 0.4 and the duplication on either side.
    rng = random.Random("ellip-c-switch")
    for _ in range(400):
        m = 1.0 - 10.0 ** rng.uniform(-15.0, -2.31)
        g2 = (1.0 - m) * (1.0 + m)
        edge = 4.0 * (math.sqrt(g2) / m)
        for series, duplication in ((edge, math.nextafter(edge, 0.0)),
                                    (_ELLIP_C_SERIES_MAX, math.nextafter(_ELLIP_C_SERIES_MAX, 1.0))):
            a = _ellip_c(m, g2, series, (1.0 - series) * (1.0 + series))
            b = _ellip_c(m, g2, duplication, (1.0 - duplication) * (1.0 + duplication))
            assert abs(a - b) <= 8 * 2.0 ** -52 * a, (m, series)


def test_ellip_e_inc_limits():
    for x in (0.0, 0.4, 1.0, math.pi / 2):
        assert ellip_e_inc(x, 0.0) == pytest.approx(x, abs=1e-15)
        assert ellip_e_inc(x, 1.0) == pytest.approx(math.sin(x), abs=1e-15)


def test_ellip_e_complete_value():
    assert ellip_e_complete(0.5) == pytest.approx(1.4674622093394272, abs=1e-14)
    assert ellip_e_complete(0.0) == math.pi / 2
    assert ellip_e_complete(1.0) == 1.0


def _agm_moduli(name, n):
    """Seeded moduli: uniform in (0, 1), 1 - m log-uniform in [1e-15, 1e-2],
    m log-uniform in [1e-300, 1e-2], and the extremes of both ends."""
    rng = random.Random(name)
    out = [5e-324, 1e-300, 1.0 - 1e-15, 1.0 - 2.0 ** -53]
    for _ in range(n):
        out.append(rng.random())
        out.append(1.0 - math.exp(rng.uniform(math.log(1e-15), math.log(1e-2))))
        out.append(math.exp(rng.uniform(math.log(1e-300), math.log(1e-2))))
    return out


def test_ellip_e_complete_agrees_with_the_carlson_integral():
    for m in _agm_moduli("agm-carlson", 300):
        carlson = ellip_e_inc(math.pi / 2, m)
        assert ellip_e_complete(m) == pytest.approx(carlson, rel=2e-14, abs=0.0), m


@pytest.mark.parametrize("m", (math.nan, -0.1, 1.1))
def test_ellip_e_complete_domain_errors(m):
    with pytest.raises(ValueError, match="ellip_e_complete"):
        ellip_e_complete(m)


def test_ellip_e_complete_against_mpmath():
    # 2104 moduli; the AGM's worst is 2.0e-15, and ellip_e_inc(pi/2, m)
    # is off by up to 9.8e-15 on them.
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        for m in _agm_moduli("agm-mpmath", 700):
            ref = mpmath.ellipe(mpmath.mpf(m) ** 2)
            worst = max(worst, float(abs((ellip_e_complete(m) - ref) / ref)))
    assert worst <= 5e-15, worst


def _switch_moduli() -> list[float]:
    """Moduli on both sides of the k' series switch, k'^2 = 0.05, and on to 1."""
    rng = random.Random("k-prime-switch")
    edge = math.sqrt(0.95)
    out = [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0), 0.975,
           1.0 - 2.0 ** -53]
    out += [edge + rng.uniform(-0.05, 0.02) for _ in range(500)]
    out += [1.0 - math.exp(rng.uniform(math.log(1e-16), math.log(0.025))) for _ in range(500)]
    return out


def test_ellip_e_complete_is_the_agm_below_the_switch_and_near_it_above():
    # The AGM's own error near m = 1 reaches 2.0e-15; the k' series is
    # within 1.2e-16 of mpmath there.
    for m in _switch_moduli() + [k / 1000 for k in range(1000)]:
        g2 = (1.0 - m) * (1.0 + m)
        if g2 > 0.05:
            assert ellip_e_complete(m) == ellip_e_agm(m), m
        else:
            assert ellip_e_complete(m) == pytest.approx(ellip_e_agm(m), rel=2.5e-15, abs=0.0), m


def _k_prime_series_exact(g2: float, ln_term: float, terms: int = 40) -> Fraction:
    """1 + sum_n a_n g2^n (L - d_n) in exact rationals, L = ``ln_term``."""
    total, prod, partial = Fraction(1), Fraction(1), Fraction(0)
    g, power, ln = Fraction(g2), Fraction(1), Fraction(ln_term)
    for n in range(1, terms + 1):
        ratio = Fraction(2 * n - 1, 2 * n)
        step = Fraction(1, (2 * n - 1) * 2 * n)
        power *= g
        total += prod * ratio * power * (ln - partial - step)
        prod *= ratio * ratio
        partial += 2 * step
    return total


def test_ellip_e_complete_k_prime_series_matches_its_recursion():
    # The written-out coefficients a_n and a_n d_n and the 12-term cut,
    # against the defining recursion summed exactly to 40 terms with the
    # same L = ln(4/k'): within one ulp of E, which lies in [1, 1.08].
    for m in _switch_moduli():
        g2 = (1.0 - m) * (1.0 + m)
        if g2 <= 0.05:
            exact = _k_prime_series_exact(g2, _LN_4 - 0.5 * math.log(g2))
            assert abs(Fraction(ellip_e_complete(m)) - exact) <= Fraction(2.0 ** -52), m


def test_ellip_e_complete_near_one_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        for m in _switch_moduli():
            if m >= 0.975:
                ref = mpmath.ellipe(mpmath.mpf(m) ** 2)
                worst = max(worst, float(abs((ellip_e_complete(m) - ref) / ref)))
    assert worst <= 2e-16, worst


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
    # No tolerance: the halvings run to adjacent doubles.
    assert abs(bisect_root(math.cos, 0.0, 2.0) - math.pi / 2) <= math.ulp(math.pi / 2)
    with pytest.raises(ValueError):
        bisect_root(lambda x: 1.0 + x * x, -1.0, 1.0)
    # An end where f is exactly 0 is the root.
    assert bisect_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert bisect_root(lambda x: x - 3.0, 1.0, 3.0) == 3.0
    # Before the sign test: x^2 has no sign change on [0, 1].
    assert bisect_root(lambda x: x * x, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: x * x - 4.0, -3.0, 2.0) == 2.0
