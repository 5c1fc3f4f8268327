"""Special-function kernels against closed forms and the quadrature oracle."""

import importlib.util
import math
import random
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from snm.special import (
    KernelError,
    _ELLIP_C_SERIES_MAX,
    _ELLIP_E_SERIES_MAX,
    _LNGAMMA_PIECES,
    _beta_constants,
    _beta_exponent,
    _LN_4,
    _ellip_c,
    _ellip_e,
    _ellip_e_series,
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


def test_ln_gamma_table_is_what_its_fitting_script_prints():
    # tools/fit_lngamma.py fits each piece of _LNGAMMA_PIECES by mpmath at
    # 50 digits; its fit over its EDGES must give the table bit for bit, so
    # a hand-edited coefficient fails here.
    mpmath = pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location(
        "fit_lngamma", Path(__file__).resolve().parent.parent / "tools" / "fit_lngamma.py")
    fit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fit)
    with mpmath.workdps(50):
        fitted = tuple((centre, *coeffs) for centre, coeffs in
                       (fit.fit_piece(lo, hi) for lo, hi in zip(fit.EDGES, fit.EDGES[1:])))
    assert [[v.hex() for v in piece] for piece in fitted] == \
        [[v.hex() for v in piece] for piece in _LNGAMMA_PIECES]


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
    i, j = _reg_beta(x, y, a, b, math.exp(_beta_exponent(a, b, x, y, *_beta_constants(a, b))))
    j_m, i_m = _reg_beta(y, x, b, a, math.exp(_beta_exponent(b, a, y, x, *_beta_constants(b, a))))
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
            scale = math.exp(_beta_exponent(a, b, x, y, *_beta_constants(a, b)))
            j = _reg_beta(x, y, a, b, scale)[1]
            with mpmath.workdps(40):
                exact = mpmath.betainc(a, b, x, 1, regularized=True)
            assert abs(j - exact) <= tol * exact, (a, x, j, exact)


def test_ln_beta_symmetric():
    assert ln_beta(3.0, 7.0) == pytest.approx(ln_beta(7.0, 3.0), rel=1e-15)
    assert ln_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    # B(2, 3) = 1/12.
    assert ln_beta(2.0, 3.0) == pytest.approx(-math.log(12.0), rel=1e-14)


def test_ln_beta_at_shapes_whose_log_gamma_overflows():
    # For both shapes >= 16 ln B is Stirling's in lo/hi, so no ln Gamma of
    # ~lo ln lo cancels: one or two shapes per band of lo from 16 to 1e300,
    # then past 2.5e305, where ln Gamma(lo) overflows, and lo log(a + b)
    # with it.  The ln Gamma-difference form was 3.2-565 ulps off at these
    # below lo = 1e300.  References: mpmath at 50 + log10(hi) digits.
    for a, b, exact in (
        (16.0, 24.0, -27.125813309038193),
        (20.0, 100.0, -54.55080668172124),
        (75.0, 75.0, -104.86364236295366),
        (75.0, 112.5, -127.17267287662217),
        (7000.0, 14000.0, -13370.10268192894),
        (9000.0, 9000.0, -12479.9362139948),
        (700000.0, 700000.0, -970411.5166894284),
        (9000000.0, 9000000.0, -12476655.990934446),
        (2e+94, 2e+94, -2.7725887222397813e+94),
        (7.5e+98, 7.5e+98, -1.039720770839918e+99),
        (1e+243, 2e+243, -1.9095425048844385e+243),
        (3e+299, 3e+299, -4.158883083359672e+299),
        (3e305, 1e306, -7.022653851055192e+305),
        (5.395058535143388e+307, 6.637664448833635e+307, -8.276172215596813e+307),
    ):
        assert ln_beta(a, b) == ln_beta(b, a)
        assert abs(ln_beta(a, b) - exact) <= 3.0 * math.ulp(exact), (a, b)


def test_ln_beta_at_huge_shapes_against_mpmath():
    # lo = min(a, b) log-uniform in [16, 1.7e308], then hi log-uniform in
    # [lo, 1e280 lo], below 1.7e308.  ln Gamma(hi) - ln Gamma(a + b) cancels
    # to ~lo ln hi, so mpmath takes 45 + log10(hi) digits.  The worst is
    # 1.8 ulps over these 400 (366 at the ln Gamma-difference form).
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random("ln-beta-huge")
    top = math.log(1.7e308)
    worst = 0.0
    for _ in range(400):
        lo = math.exp(rng.uniform(math.log(16.0), top))
        hi = math.exp(rng.uniform(math.log(lo), min(math.log(lo) + math.log(1e280), top)))
        with mpmath.workdps(45 + int(math.log10(hi))):
            lo_m, hi_m = mpmath.mpf(lo), mpmath.mpf(hi)
            exact = mpmath.loggamma(lo_m) + mpmath.loggamma(hi_m) - mpmath.loggamma(lo_m + hi_m)
            error = abs(ln_beta(lo, hi) - exact)
        worst = max(worst, float(error) / math.ulp(float(exact)))
    assert worst <= 3.0, worst


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


def _ellip_e_grid():
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


def test_ellip_e_inc_matches_the_carlson_reference():
    # Past the series' reach, s R_F - (m^2/3) s^3 R_D from the public
    # kernels.  Both forms round to a few eps of F = s R_F, the first kind,
    # which is up to ~20 E near (m, phi) = (1, pi/2): the worst is 4.9 eps
    # of F over these points (m = 1 - 1e-9, phi = pi/2 - 1e-12, where
    # ellip_e_inc is 3.8 eps of F from 50-digit mpmath and the reference
    # 1.2), and 4.3 eps of E for m <= 0.95.
    past_series = 0
    for m, phi in _ellip_e_grid():
        s, c2, w = _kernel_arguments(m, phi)
        if s > _ELLIP_E_SERIES_MAX:
            f = s * carlson_rf(c2, w, 1.0)
            reference = f - (m * m / 3.0) * (s * s * s) * carlson_rd(c2, w, 1.0)
            assert abs(ellip_e_inc(phi, m) - reference) <= 5 * 2.0 ** -52 * f, (m, phi)
            past_series += 1
    assert past_series > 1000


def _halved(m, s):
    """``_ellip_e`` at s = sin phi, with c = sqrt(1 - s^2) and d formed from
    it as ``ellip_e_inc`` forms d from cos phi."""
    c = math.sqrt((1.0 - s) * (1.0 + s))
    g2 = (1.0 - m) * (1.0 + m)
    return _ellip_e(s, c, math.sqrt(g2 + (m * c) * (m * c)), m, g2)


def test_the_halvings_are_bounded(monkeypatch):
    # Each halving halves u = F(phi, m) <= K(m), and K(m) < 19.5 at the
    # largest double m below 1, so E(1, m) takes the most halvings: 10.
    m = math.nextafter(1.0, 0.0)
    complete = ellip_e_complete(m)
    k = carlson_rf(0.0, (1.0 - m) * (1.0 + m), 1.0)
    e = ellip_e_inc(math.pi / 2, m)
    assert abs(e - complete) <= 4 * 2.0 ** -52 * k
    monkeypatch.setattr("snm.special._ELLIP_E_MAX_HALVINGS", 10)
    assert ellip_e_inc(math.pi / 2, m) == e
    monkeypatch.setattr("snm.special._ELLIP_E_MAX_HALVINGS", 9)
    with pytest.raises(KernelError):
        ellip_e_inc(math.pi / 2, m)
    monkeypatch.undo()
    with pytest.raises(KernelError):
        _halved(0.5, math.nan)


def test_halved_e_against_mpmath():
    # E(phi, m) at 50 digits past the series' reach, by ellip_e_inc and,
    # for m > 0.95, by the kernel called as the solver calls it, with
    # dn = sqrt(k'^2 + m^2 c^2).  Doubling back magnifies the rounding of the
    # halvings by F/E, F the first kind: the worst is 3.6 eps for m <= 0.95
    # and 3.2 eps for m > 0.95 with phi < 1.16; elsewhere 3.1 eps of F and
    # up to 16 eps of E (15.4 at 1 - m < 1e-8, phi >= 1.5, where for
    # p > 1/2 C's series serves the solver).
    mpmath = pytest.importorskip("mpmath")
    eps = 2.0 ** -52
    rng = random.Random("ellip-e-halved-mpmath")
    lowest = math.nextafter(math.asin(_ELLIP_E_SERIES_MAX), math.pi)
    corner = 0
    with mpmath.workdps(50):
        for k in range(3000):
            m = rng.random() if k % 2 else 1.0 - 10.0 ** rng.uniform(-15.0, 0.0)
            phi = rng.uniform(lowest, math.pi / 2)
            s, c = math.sin(phi), math.cos(phi)
            g2 = (1.0 - m) * (1.0 + m)
            got = [ellip_e_inc(phi, m)]
            if m > 0.95:
                got.append(_ellip_e(s, c, math.sqrt(g2 + (m * c) ** 2), m, g2))
            mm = mpmath.mpf(m) ** 2
            ref = mpmath.ellipe(phi, mm)
            if m <= 0.95 or phi < 1.16:
                bound = 4 * eps * ref
            else:
                bound = 4 * eps * mpmath.ellipf(phi, mm)
                corner += 1 - m < 1e-8 and phi >= 1.5
            for e in got:
                assert abs(e - ref) <= bound, (m, phi, e)
    assert corner > 30


def _e_series_grid(name, n):
    """(m, s) with s = sin phi in the E series' reach: half with m uniform in
    [0, 1), half with 1 - m = 10^U[-15, 0]; log s uniform over
    [log 1e-12, log(1/32)]."""
    rng = random.Random(name)
    out = []
    for k in range(n):
        m = rng.random() if k % 2 else 1.0 - 10.0 ** rng.uniform(-15.0, 0.0)
        out.append((m, math.exp(rng.uniform(math.log(1e-12), math.log(_ELLIP_E_SERIES_MAX)))))
    return out


def test_e_series_matches_the_carlson_integrals():
    # s R_F - (m^2/3) s^3 R_D from the public kernels; the worst is 2.0 eps
    # over these 2,000 points, mostly the rounding of the Carlson form.
    for m, s in _e_series_grid("ellip-e-series-carlson", 2000):
        c2 = (1.0 - s) * (1.0 + s)
        w = 1.0 - (m * s) * (m * s)
        reference = (s * carlson_rf(c2, w, 1.0)
                     - (m * m / 3.0) * (s * s * s) * carlson_rd(c2, w, 1.0))
        assert _ellip_e_series(s, m) == pytest.approx(reference, rel=4 * 2.0 ** -52, abs=0.0), (m, s)


def test_e_series_against_mpmath():
    # E(asin s, m) at 50 digits; the worst is 0.48 eps (1.1e-16) over these
    # 3,000 points, where the duplication's form reads 1.73 eps.
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        for m, s in _e_series_grid("ellip-e-series-mpmath", 3000):
            ref = mpmath.ellipe(mpmath.asin(s), mpmath.mpf(m) ** 2)
            worst = max(worst, float(abs(_ellip_e_series(s, m) / ref - 1)))
    assert worst <= 2.0 ** -52, worst


def test_e_series_and_halvings_agree_across_their_switch():
    # The series is taken up to s = 1/32, the halvings past it; one ulp of s
    # moves E by about one ulp.  The worst is 2.0 eps over these 400.
    rng = random.Random("ellip-e-switch")
    series = _ELLIP_E_SERIES_MAX
    halved = math.nextafter(series, 1.0)
    for k in range(400):
        m = rng.random() if k % 2 else 1.0 - 10.0 ** rng.uniform(-15.0, 0.0)
        a = _ellip_e_series(series, m)
        assert abs(_halved(m, halved) - a) <= 4 * 2.0 ** -52 * a, m


def test_the_kernel_is_the_series_within_its_reach():
    # At s <= 1/32 the kernel halves nothing: it returns the series' own
    # value, at the switch and at the double below it.
    rng = random.Random("ellip-e-kernel-series")
    for s in (_ELLIP_E_SERIES_MAX, math.nextafter(_ELLIP_E_SERIES_MAX, 0.0)):
        for k in range(200):
            m = rng.random() if k % 2 else 1.0 - 10.0 ** rng.uniform(-15.0, 0.0)
            assert _halved(m, s) == _ellip_e_series(s, m), (m, s)


def _carlson_complement(m, s, c2):
    """C(psi) in the Carlson form that ``snm.cli.elliptic_bisection_root``
    bisects: k'^2 (s R_F(k'^2 c^2, w, k'^2) + (m^2/3) s^3 R_D(k'^2 c^2, w, k'^2))."""
    g2 = (1.0 - m) * (1.0 + m)
    w = g2 + m * m * s * s
    return g2 * (s * carlson_rf(g2 * c2, w, g2)
                 + m * m / 3.0 * s ** 3 * carlson_rd(g2 * c2, w, g2))


def _series_grid(n):
    """(m, s) with s = sin psi in [1e-12, 0.4], where ``_ellip_c`` sums its
    series: 1 - m = 10^U[-15, -2.31] (k'/m <= 0.1), s log-uniform, seeded."""
    rng = random.Random("ellip-c-series")
    out = []
    for _ in range(n):
        m = 1.0 - 10.0 ** rng.uniform(-15.0, -2.31)
        out.append((m, math.exp(rng.uniform(math.log(1e-12), math.log(_ELLIP_C_SERIES_MAX)))))
    return out


def test_complement_series_matches_the_carlson_form():
    # Worst 3.5 eps over these 400 points.
    for m, s in _series_grid(400):
        c2 = (1.0 - s) * (1.0 + s)
        got = _ellip_c(m, (1.0 - m) * (1.0 + m), s)
        assert got == pytest.approx(_carlson_complement(m, s, c2), rel=8 * 2.0 ** -52, abs=0.0), (m, s)


def test_complement_series_against_mpmath():
    # C = E(1, m) - E(pi/2 - psi, m) at 50 digits; the worst is 1.9 eps (4.1e-16).
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        for m, s in _series_grid(120):
            got = _ellip_c(m, (1.0 - m) * (1.0 + m), s)
            m2 = mpmath.mpf(m) ** 2
            ref = mpmath.ellipe(m2) - mpmath.ellipe(mpmath.pi / 2 - mpmath.asin(s), m2)
            worst = max(worst, float(abs(got / ref - 1)))
    assert worst <= 1e-15, worst


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
    # R_F(0, k'^2, 1) - (m^2/3) R_D(0, k'^2, 1), and ellip_e_inc at pi/2.
    for m in _agm_moduli("agm-carlson", 300):
        g2 = (1.0 - m) * (1.0 + m)
        carlson = carlson_rf(0.0, g2, 1.0) - m * m / 3.0 * carlson_rd(0.0, g2, 1.0)
        assert ellip_e_complete(m) == pytest.approx(carlson, rel=2e-14, abs=0.0), m
        assert ellip_e_complete(m) == pytest.approx(ellip_e_inc(math.pi / 2, m), rel=2e-14,
                                                    abs=0.0), m


@pytest.mark.parametrize("m", (math.nan, -0.1, 1.1))
def test_ellip_e_complete_domain_errors(m):
    with pytest.raises(ValueError, match="ellip_e_complete"):
        ellip_e_complete(m)


def test_ellip_e_complete_against_mpmath():
    # 2104 moduli; the AGM's worst is 2.0e-15, and ellip_e_inc(pi/2, m)
    # is off by up to 1.3e-14 on them.
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
