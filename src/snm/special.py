"""Self-contained special-function kernels.

Regularized incomplete gamma (series + continued fraction), regularized
incomplete beta (continued fraction with symmetry switch), Carlson
symmetric elliptic integrals by the duplication algorithm, and the
incomplete elliptic integral of the second kind built on them.

``bisect_root`` is plain interval bisection, the oracle of the CLI's
compare command and of the tests, not part of the quantile API.

All elliptic routines take the modulus m (the integrand is
sqrt(1 - m^2 sin^2 t)), not the parameter m^2.

Tables built once at import (the Horner coefficients of the log Gamma
Taylor series, the Lanczos pairs) hold the same doubles that the loop
computing them in place would give, and are applied in the same order,
so a kernel returns the same bits as that reference loop.

The public gamma and beta kernels refuse a NaN argument or an infinite
shape with ``ValueError``; at x = inf the gamma kernels return their
limits P = 1, Q = 0 and density 0.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import SnmError

_EPS = 2.220446049250313e-16
_MIN_NORMAL = 2.2250738585072014e-308
_TINY = 1e-300
# Worst case sits at the series/fraction split x ~ a + 1, where the
# continued fraction needs ~sqrt(a) and the series ~7.6 sqrt(a)
# iterations; these caps cover a up to ~1e7.
_MAX_CF_ITER = 3000
_MAX_SERIES_ITER = 30000

# Lanczos g=7, n=9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
# (k, c_k) for k = 1..8; the sum adds c_k / ((a - 1) + k).
_LANCZOS_TERMS = tuple((float(k), c) for k, c in enumerate(_LANCZOS) if k)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

_EULER_GAMMA = 0.5772156649015329

# zeta(k) - 1 for k = 2..36; coefficients of the log Gamma(2+t) Taylor
# series, which keeps the relative error near the zeros of log Gamma
# (a = 1, 2) at the eps level where the Lanczos form only bounds the
# absolute error.
_ZETA_M1 = (
    0.6449340668482264, 0.2020569031595943, 0.08232323371113819,
    0.03692775514336993, 0.01734306198444914, 0.008349277381922827,
    0.00407735619794434, 0.0020083928260822143, 0.0009945751278180853,
    0.0004941886041194645, 0.0002460865533080483, 0.00012271334757848915,
    6.124813505870483e-05, 3.058823630702049e-05, 1.528225940865187e-05,
    7.637197637899763e-06, 3.81729326499984e-06, 1.908212716553939e-06,
    9.539620338727962e-07, 4.769329867878064e-07, 2.38450502727733e-07,
    1.1921992596531106e-07, 5.960818905125948e-08, 2.980350351465228e-08,
    1.4901554828365043e-08, 7.45071178983543e-09, 3.725334024788457e-09,
    1.862659723513049e-09, 9.313274324196682e-10, 4.656629065033784e-10,
    2.3283118336765053e-10, 1.164155017270052e-10, 5.820772087902701e-11,
    2.9103850444971e-11, 1.4551921891041985e-11,
)
# Horner coefficients (zeta(k) - 1) / k of that series, k = 36 down to 2.
_LNGAMMA_TAYLOR = tuple(_ZETA_M1[k - 2] / k for k in range(len(_ZETA_M1) + 1, 1, -1))


class KernelError(SnmError, ArithmeticError):
    """A kernel iteration failed to converge within its budget."""


def _lngamma_near_two(t: float) -> float:
    """log Gamma(2 + t) for |t| <= 0.6 by its Taylor series."""
    mt = -t
    acc = 0.0
    for c in _LNGAMMA_TAYLOR:
        acc = acc * mt + c
    return t * ((1.0 - _EULER_GAMMA) + t * acc)


def ln_gamma(a: float) -> float:
    """log Gamma(a) for a > 0.

    Lanczos approximation for a > 2.6; the Taylor series around the zero
    at a = 2 on [0.45, 2.6] (reached through the recursion
    log Gamma(a) = log Gamma(a+1) - log(a) below 1.45); the same
    recursion for a < 0.45.  Exact at a = 1 and a = 2.
    """
    if not (a > 0.0) or not math.isfinite(a):
        raise ValueError(f"ln_gamma requires a > 0, got {a}")
    if a == 1.0 or a == 2.0:
        return 0.0
    if a < 0.45:
        return ln_gamma(a + 1.0) - math.log(a)
    if a < 1.45:
        return _lngamma_near_two(a - 1.0) - math.log(a)
    if a <= 2.6:
        return _lngamma_near_two(a - 2.0)
    am1 = a - 1.0
    acc = _LANCZOS[0]
    for k, c in _LANCZOS_TERMS:
        acc += c / (am1 + k)
    t = a + _LANCZOS_G - 0.5
    return _HALF_LOG_2PI + (a - 0.5) * math.log(t) - t + math.log(acc)


# Stirling series for ln Gamma(a) - (a - 1/2) ln a + a - ln sqrt(2 pi),
# truncated after a^-9; usable for a >= 16 (truncation < 2e-16 there).
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)


def _stirling_remainder(a: float) -> float:
    """ln Gamma(a) - (a - 1/2) ln a + a - ln sqrt(2 pi); requires a >= 16."""
    inv = 1.0 / a
    inv2 = inv * inv
    return inv * (_STIRLING[0] + inv2 * (_STIRLING[1] + inv2 * (
        _STIRLING[2] + inv2 * (_STIRLING[3] + inv2 * _STIRLING[4]))))


def _gamma_exponent(a: float, x: float, ln_gamma_a: float) -> float:
    """a log x - x - ln Gamma(a), computed without large-argument cancellation.

    ``ln_gamma_a`` is ln Gamma(a); it is read only for a < 16.  For a >= 16
    the identity
        a log x - x - ln Gamma(a)
            = a log(x/a) + (a - x) + (1/2) log(a/(2 pi)) - S(a)
    (S the Stirling remainder) keeps the absolute error near |x-a| * eps
    instead of a log(x) * eps, which matters already at a ~ 100.  log(x/a)
    is taken as log1p((x-a)/a) for x >= a/2, where x - a is exact; below
    a/2 that difference would round x away, so log(x/a) is used, or
    log x - log a once x/a would be subnormal.  Below a/2 every form has
    absolute error near a * eps.
    """
    if a < 16.0:
        return a * math.log(x) - x - ln_gamma_a
    if x >= 0.5 * a:
        log_ratio = math.log1p((x - a) / a)
    else:
        ratio = x / a
        log_ratio = math.log(ratio) if ratio >= _MIN_NORMAL else math.log(x) - math.log(a)
    return (a * log_ratio + (a - x)
            + 0.5 * math.log(a / (2.0 * math.pi)) - _stirling_remainder(a))


def _gamma_series(a: float, x: float) -> float:
    """Lower-tail power series S, P(a,x) = S e^exponent; requires 0 < x < a + 1.

    Every term is positive, so the stop test needs no ``abs``.
    """
    eps = _EPS
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_SERIES_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if term < total * eps:
            return total
    raise KernelError(f"gamma series did not converge for a={a}, x={x}")


def _gamma_cf(a: float, x: float) -> float:
    """Continued fraction h (modified Lentz), Q(a,x) = h e^exponent; x >= a + 1.

    The counter i runs as a float (exact at these sizes).  The chained
    guards ``-tiny < d < tiny`` decide as ``abs(d) < tiny`` does, NaN
    included, without the call.
    """
    tiny = _TINY
    eps = _EPS
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    i = 0.0
    for _ in range(_MAX_CF_ITER):
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if -tiny < d < tiny:
            d = tiny
        c = b + an / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -eps < delta - 1.0 < eps:
            return h
    raise KernelError(f"gamma continued fraction did not converge for a={a}, x={x}")


def _reg_gamma(a: float, x: float, ln_gamma_a: float) -> tuple[float, float, float]:
    """(P(a, x), Q(a, x), exponent) for x > 0 from one series or fraction sum.

    Power series for x < a + 1, continued fraction otherwise, so each
    representation is used where it converges fast.  The exponent also
    gives the density (``_gamma_density``).
    """
    arg = _gamma_exponent(a, x, ln_gamma_a)
    if x < a + 1.0:
        p = _gamma_series(a, x) * math.exp(arg)
        return p, 1.0 - p, arg
    q = math.exp(arg) * _gamma_cf(a, x)
    return 1.0 - q, q, arg


def _gamma_density(arg: float, x: float) -> float:
    """x^(a-1) e^(-x) / Gamma(a) from arg = _gamma_exponent(a, x); 0 on underflow."""
    if arg < -745.0:
        return 0.0
    # exp(arg)/x rather than exp(arg - log x): x^(a-1) can be huge while
    # the density itself stays representable (tiny x, small a).
    return math.exp(arg) / x


def _check_shape(name: str, a: float) -> None:
    if not (0.0 < a < math.inf):
        raise ValueError(f"{name} requires a finite a > 0, got {a}")


def reg_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) in [0, 1]; 1 at x = inf."""
    _check_shape("reg_gamma_p", a)
    if not (x >= 0.0):  # also refuses NaN
        raise ValueError(f"reg_gamma_p requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    return _reg_gamma(a, x, ln_gamma(a))[0]


def reg_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x); 0 at x = inf."""
    _check_shape("reg_gamma_q", a)
    if not (x >= 0.0):
        raise ValueError(f"reg_gamma_q requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    return _reg_gamma(a, x, ln_gamma(a))[1]


def gamma_density(a: float, x: float) -> float:
    """d/dx P(a, x) = x^(a-1) e^(-x) / Gamma(a); 0 on underflow and at x = inf."""
    _check_shape("gamma_density", a)
    if not (x > 0.0):
        raise ValueError(f"gamma_density requires x > 0, got {x}")
    if x == math.inf:
        return 0.0
    return _gamma_density(_gamma_exponent(a, x, ln_gamma(a)), x)


def ln_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b).

    For max(a, b) >= 16 the log Gamma difference is expanded through the
    Stirling remainder, avoiding the cancellation of two large log Gamma
    values.  Symmetric bit for bit: ln_beta(a, b) == ln_beta(b, a).
    Requires finite a, b > 0.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"ln_beta requires finite a, b > 0, got a={a}, b={b}")
    hi, lo = (a, b) if a >= b else (b, a)
    if hi < 16.0:
        return ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
    s = hi + lo
    # ln Gamma(s) - ln Gamma(hi), both arguments >= 16.
    diff = ((hi - 0.5) * math.log1p(lo / hi) + lo * math.log(s) - lo
            + _stirling_remainder(s) - _stirling_remainder(hi))
    return ln_gamma(lo) - diff


def _beta_exponent(a: float, b: float, x: float, ln_b: float) -> float:
    """a log x + b log(1-x) - ln B(a, b), given ln_b = ln B(a, b).

    For a, b >= 16 and x in the central bulk, the shifted form
        a log1p(y/a) + b log1p(-y/b) + (1/2) log(ab/(2 pi s)) + dS,
    y = x b - (1-x) a, s = a + b, keeps the absolute error near eps * |y|
    instead of eps * |ln B|.
    """
    if a >= 16.0 and b >= 16.0:
        s = a + b
        y = x * b - (1.0 - x) * a
        if y > -0.9 * a and -y > -0.9 * b:
            return (a * math.log1p(y / a) + b * math.log1p(-y / b)
                    + 0.5 * math.log(a * b / (2.0 * math.pi * s))
                    + _stirling_remainder(s) - _stirling_remainder(a)
                    - _stirling_remainder(b))
    return a * math.log(x) + b * math.log1p(-x) - ln_b


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz).

    Float counter, one shared a + 2m and chained guards, as in ``_gamma_cf``.
    """
    tiny = _TINY
    eps = _EPS
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -tiny < d < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    m = 0.0
    for _ in range(_MAX_CF_ITER):
        m += 1.0
        m2 = m + m
        am2 = a + m2
        aa = m * (b - m) * x / ((qam + m2) * am2)
        d = 1.0 + aa * d
        if -tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        d = 1.0 + aa * d
        if -tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -eps < delta - 1.0 < eps:
            return h
    raise KernelError(f"beta continued fraction did not converge for a={a}, b={b}, x={x}")


def reg_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) in [0, 1].

    Continued-fraction evaluation, routed through the symmetry
    I_x(a,b) = 1 - I_(1-x)(b,a) when x > (a+1)/(a+b+2) so the fraction
    always runs in its fast-convergence region.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"reg_beta requires finite a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:  # also refuses NaN
        raise ValueError(f"reg_beta requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return _reg_beta(x, a, b, ln_beta(a, b))


def _reg_beta(x: float, a: float, b: float, ln_b: float) -> float:
    """I_x(a, b) for 0 < x < 1, given ln_b = ln B(a, b) (either orientation)."""
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(_beta_exponent(a, b, x, ln_b)) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(_beta_exponent(b, a, 1.0 - x, ln_b)) * _beta_cf(b, a, 1.0 - x) / b


def _normal_quantile(p: float, q: float) -> float:
    """Standard normal quantile Phi^-1(p), q = 1 - p, to |error| < 4.5e-4.

    The rational approximation of Abramowitz & Stegun 26.2.23, taken from
    the smaller tail, so it is odd in p - 1/2 and exactly 0 at p = q.
    Only good enough to seed the quantile solvers.
    """
    if p == q:
        return 0.0
    t = math.sqrt(-2.0 * math.log(min(p, q)))
    y = t - ((2.515517 + t * (0.802853 + t * 0.010328))
             / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))))
    return -y if p < q else y


# Relative error targets for the Carlson duplication loops; the series
# truncation error scales like r, far below the 1e-13 contract.
_CARLSON_R = 1e-16
# The duplication loops stop once fac * q < a, q = scale * max |a0 - arg|.
_RF_Q_SCALE = (3.0 * _CARLSON_R) ** (-1.0 / 6.0)
_RD_Q_SCALE = (0.25 * _CARLSON_R) ** (-1.0 / 6.0)


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson symmetric integral R_F by the duplication algorithm.

    Arguments must be >= 0 with at most one of them zero.
    """
    if x < 0.0 or y < 0.0 or z < 0.0:
        raise ValueError("carlson_rf requires nonnegative arguments")
    if (x == 0.0) + (y == 0.0) + (z == 0.0) > 1:
        raise ValueError("carlson_rf allows at most one zero argument")
    a0 = (x + y + z) / 3.0
    q = _RF_Q_SCALE * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    a = a0
    xt, yt, zt = x, y, z
    fac = 1.0
    while fac * q >= abs(a):
        sx, sy, sz = math.sqrt(xt), math.sqrt(yt), math.sqrt(zt)
        lam = sx * sy + sx * sz + sy * sz
        a = 0.25 * (a + lam)
        xt = 0.25 * (xt + lam)
        yt = 0.25 * (yt + lam)
        zt = 0.25 * (zt + lam)
        fac *= 0.25
    dx = (a0 - x) * fac / a
    dy = (a0 - y) * fac / a
    dz = -(dx + dy)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
            - 3.0 * e2 * e3 / 44.0) / math.sqrt(a)


def carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson symmetric integral R_D by the duplication algorithm.

    Requires x, y >= 0 (not both zero) and z > 0.
    """
    if x < 0.0 or y < 0.0:
        raise ValueError("carlson_rd requires x, y >= 0")
    if x == 0.0 and y == 0.0:
        raise ValueError("carlson_rd requires x, y not both zero")
    if not (z > 0.0):
        raise ValueError("carlson_rd requires z > 0")
    a0 = (x + y + 3.0 * z) / 5.0
    q = _RD_Q_SCALE * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    a = a0
    xt, yt, zt = x, y, z
    fac = 1.0
    tail = 0.0
    while fac * q >= abs(a):
        sx, sy, sz = math.sqrt(xt), math.sqrt(yt), math.sqrt(zt)
        lam = sx * sy + sx * sz + sy * sz
        tail += fac / (sz * (zt + lam))
        a = 0.25 * (a + lam)
        xt = 0.25 * (xt + lam)
        yt = 0.25 * (yt + lam)
        zt = 0.25 * (zt + lam)
        fac *= 0.25
    dx = (a0 - x) * fac / a
    dy = (a0 - y) * fac / a
    dz = -(dx + dy) / 3.0
    e2 = dx * dy - 6.0 * dz * dz
    e3 = (3.0 * dx * dy - 8.0 * dz * dz) * dz
    e4 = 3.0 * (dx * dy - dz * dz) * dz * dz
    e5 = dx * dy * dz * dz * dz
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
              - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return fac * series / (a * math.sqrt(a)) + 3.0 * tail


def ellip_e_inc(phi: float, m: float) -> float:
    """Incomplete elliptic integral of the second kind, modulus m.

    Computes int_0^phi sqrt(1 - m^2 sin^2 t) dt for phi in [0, pi/2] and
    m in [0, 1] via Carlson R_F/R_D.  Note the first argument is the
    amplitude phi (upper integration limit), and m is the modulus, so the
    m = 1 case degenerates to sin(phi).
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"ellip_e_inc requires m in [0, 1], got {m}")
    if not 0.0 <= phi <= math.pi / 2:
        raise ValueError(f"ellip_e_inc requires phi in [0, pi/2], got {phi}")
    if phi == 0.0:
        return 0.0
    if m == 0.0:
        return phi
    if m == 1.0:
        return math.sin(phi)
    s = math.sin(phi)
    c = math.cos(phi)
    return _ellip_e(m, s, c * c, 1.0 - (m * s) * (m * s))


def _ellip_e(m: float, s: float, c2: float, w: float) -> float:
    """E(phi, m) from s = sin phi, c2 = cos^2 phi and w = 1 - m^2 s^2, 0 < m < 1.

    s R_F(c2, w, 1) - (m^2/3) s^3 R_D(c2, w, 1), bit for bit what
    ``carlson_rf`` and ``carlson_rd`` return, from one duplication
    sequence: both integrals share the iterates, their square roots, lam
    and fac, and keep their own running means ``af``/``ad``.  R_F's
    series is taken at the first step its own stop test passes, and the
    loop runs on until R_D's test passes.  R_D never stops first: a_D - a_F
    shrinks by 4 at each step like fac, and q_D >= 1.36 q_F for these
    arguments, so fac q_D < a_D implies fac q_F < a_F.
    """
    a0f = (c2 + w + 1.0) / 3.0
    qf = _RF_Q_SCALE * max(abs(a0f - c2), abs(a0f - w), abs(a0f - 1.0))
    a0d = (c2 + w + 3.0) / 5.0
    qd = _RD_Q_SCALE * max(abs(a0d - c2), abs(a0d - w), abs(a0d - 1.0))
    af = a0f
    ad = a0d
    xt, yt, zt = c2, w, 1.0
    fac = 1.0
    tail = 0.0
    sqrt = math.sqrt
    while fac * qf >= af:
        sx, sy, sz = sqrt(xt), sqrt(yt), sqrt(zt)
        lam = sx * sy + sx * sz + sy * sz
        tail += fac / (sz * (zt + lam))
        af = 0.25 * (af + lam)
        ad = 0.25 * (ad + lam)
        xt = 0.25 * (xt + lam)
        yt = 0.25 * (yt + lam)
        zt = 0.25 * (zt + lam)
        fac *= 0.25
    dx = (a0f - c2) * fac / af
    dy = (a0f - w) * fac / af
    dz = -(dx + dy)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
          - 3.0 * e2 * e3 / 44.0) / sqrt(af)
    while fac * qd >= ad:
        sx, sy, sz = sqrt(xt), sqrt(yt), sqrt(zt)
        lam = sx * sy + sx * sz + sy * sz
        tail += fac / (sz * (zt + lam))
        ad = 0.25 * (ad + lam)
        xt = 0.25 * (xt + lam)
        yt = 0.25 * (yt + lam)
        zt = 0.25 * (zt + lam)
        fac *= 0.25
    dx = (a0d - c2) * fac / ad
    dy = (a0d - w) * fac / ad
    dz = -(dx + dy) / 3.0
    e2 = dx * dy - 6.0 * dz * dz
    e3 = (3.0 * dx * dy - 8.0 * dz * dz) * dz
    e4 = 3.0 * (dx * dy - dz * dz) * dz * dz
    e5 = dx * dy * dz * dz * dz
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
              - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    rd = fac * series / (ad * sqrt(ad)) + 3.0 * tail
    return s * rf - (m * m / 3.0) * (s * s * s) * rd


def ellip_e_complete(m: float) -> float:
    """Complete elliptic integral of the second kind, modulus m."""
    return ellip_e_inc(math.pi / 2, m)


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                tol: float = 1e-15, max_iter: int = 200) -> float:
    """Plain bisection to |hi - lo| <= tol (test oracle).

    Requires a sign change on [lo, hi].
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fhi > 0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)
