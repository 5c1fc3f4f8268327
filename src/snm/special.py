"""Self-contained special-function kernels.

Regularized incomplete gamma (series + continued fraction, and for a < 1
a small-a form of Q on the series side), regularized incomplete beta
(the even part of its continued fraction, with symmetry switch, and its
gamma limit where 1 - x rounds to 1), Carlson symmetric elliptic
integrals by the duplication algorithm, and the incomplete elliptic
integral of the second kind.  E(phi, m) has one kernel, ``_ellip_e``,
which every caller reaches with (sin phi, cos phi, sqrt(k'^2 + m^2 cos^2 phi)),
k'^2 = (1 - m)(1 + m).  For sin phi <= 1/32 it is ``_ellip_e_series``, the
Maclaurin series, within 1.1e-16 relative of 50-digit mpmath over 3,000
seeded points with 1 - m down to 1e-15.  Past that, it halves the Jacobi
argument until sin <= 1/32, sums the series there, and doubles back by
the addition theorem for E, at ~60% of the cost of Carlson's duplication.
Over 3,000 seeded points with half of them at 1 - m = 10^U[-15, 0] it is
within 3.6 eps of 50-digit mpmath for m <= 0.95, 3.2 eps for m > 0.95
with phi < 1.16, and everywhere within 3.1 eps of the first kind
F(phi, m), which near (m, phi) = (1, pi/2) is up to ~20 E (there up to
16 eps of E).
``carlson_rf`` and ``carlson_rd`` stay public: no solver runs them, and
the elliptic root oracle of ``snm.cli`` and the tests take them as an
independent reference.
``_ellip_c`` sums the complementary integral
C(psi) = int_0^psi sqrt(k'^2 + m^2 sin^2 u) du = E(1, m) - E(cos psi, m)
for s = sin psi <= 0.4 only, within 8.6e-16 over 1,500 with s in
[1e-12, 0.4], and subtracts no two values near E(1, m); past s = 0.4 the
solver forms C's difference from E itself.
The complete one, E(1, m), has two branches:
for k'^2 = (1 - m)(1 + m) <= 0.05 (m >= 0.9747) the k' series of DLMF
19.12.2 to 12 terms, within 1.2e-16 relative of 40-digit mpmath; below,
Gauss's arithmetic-geometric mean (DLMF 19.8.6), within 2.1e-15, where
``ellip_e_inc(pi/2, m)`` is off by up to 1.4e-14.

``bisect_root`` is plain interval bisection, not part of the quantile
API, with no tolerance: it runs down to adjacent doubles.  ``beta_xm``
solves its cubic so, and the root oracles in ``snm.cli`` (one per solver,
which ``snm compare`` and the tests share) bisect each residual so.

All elliptic routines take the modulus m (the integrand is
sqrt(1 - m^2 sin^2 t)), not the parameter m^2.

ln Gamma on [0.45, 2.6], and ln Gamma(1 + a) for 0 < a < 1, come from
ln Gamma(2 + t), t in [-0.55, 0.6], as t ((1 - gamma) + t g(t)): exactly 0
at a = 1 and 2 and relative near those zeros.  g is a table of 4 pieces
of 12 polynomial coefficients (``tools/fit_lngamma.py``), which replaced
the 35-term Taylor series in zeta(k) - 1 at about a third of its cost.
Over (0, 2.6] its worst relative error against 40-digit mpmath is the
series' own, 5.5e-16.

The private gamma and beta kernels take their prefactor x^a e^-x /
Gamma(a) or x^a (1-x)^b / B(a, b) from the caller, which forms it once
per evaluation and reads the density off it, as BRCOMP of DiDonato &
Morris (ACM TOMS 18, 1992) does.  The public kernels form it from x and
refuse a NaN argument or an infinite shape with ``ValueError``; at
x = inf the gamma kernels return their limits P = 1, Q = 0 and density 0.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .core import MACHINE_EPSILON, MIN_NORMAL, SnmError, check_shape

try:  # NormalDist().inv_cdf's own function, without the ~5 ms statistics import
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # an interpreter without the C accelerator
    from statistics import _normal_dist_inv_cdf

_TINY = 1e-300
# Worst case sits at the series/fraction split x ~ a + 1, where the
# continued fraction needs ~sqrt(a) and the series ~7.6 sqrt(a)
# iterations; these caps cover a up to ~1e7.
_MAX_CF_ITER = 3000
_MAX_SERIES_ITER = 30000

_EULER_GAMMA = 0.5772156649015329

# ln Gamma(2 + t) = t ((1 - gamma) + t g(t)) on [-0.55, 0.6], which keeps
# the relative error near the zeros of ln Gamma (a = 1, 2) at the eps
# level, where ``math.lgamma`` only bounds the absolute error (to
# ~1.2e-15, a relative error of up to ~0.8).  g is piecewise polynomial:
# on each of four equal pieces, (centre c, then the coefficients of g in
# u = t - c, lowest order first), fitted by Chebyshev interpolation at
# 50 digits; tools/fit_lngamma.py regenerates the table.  The inner edges
# are -0.2625, 0.025 and 0.3125.
_LNGAMMA_PIECES = (
    (-0.40625,
     0.3538154417492933, -0.0887112542878807, 0.03352038750007426,
     -0.01503194523358552, 0.007378209139525261, -0.0038219680589899013,
     0.002050111734827722, -0.001126438932001868, 0.0006296888071522382,
     -0.00035670735539576777, 0.00020848465841510872, -0.0001203376839999829),
    (-0.11875000000000001,
     0.3307683127458759, -0.07257331061519631, 0.02347808793597655,
     -0.008945505945559862, 0.0037211253354547348, -0.0016325647442871117,
     0.0007417286769550162, -0.00034527970744636943, 0.0001635821755029011,
     -7.854707260325624e-05, 3.868826002516841e-05, -1.8931565417026068e-05),
    (0.16875,
     0.31165410432376106, -0.06098611392081126, 0.01728404393460849,
     -0.0057307782533137655, 0.002069256000688354, -0.0007873693556312016,
     0.00031021192392005365, -0.00012523962523019818, 5.14712353058074e-05,
     -2.144297153466511e-05, 9.130735304409046e-06, -3.877383708924914e-06),
    (0.45625,
     0.29542579419576737, -0.05229582706791404, 0.013207691353574077,
     -0.0038796606768257643, 0.0012380686228551034, -0.00041595883905799986,
     0.00014465982760791853, -5.1552577179871846e-05, 1.87047282561981e-05,
     -6.880291539462793e-06, 2.5807020035460994e-06, -9.678443749440842e-07),
)


class KernelError(SnmError, ArithmeticError):
    """A kernel iteration failed to converge within its budget."""


def _lngamma_near_two(t: float) -> float:
    """log Gamma(2 + t) for -0.55 <= t <= 0.6 from the table; exactly 0 at t = 0."""
    if t < 0.025:
        piece = _LNGAMMA_PIECES[0] if t < -0.2625 else _LNGAMMA_PIECES[1]
    else:
        piece = _LNGAMMA_PIECES[2] if t < 0.3125 else _LNGAMMA_PIECES[3]
    c, g0, g1, g2, g3, g4, g5, g6, g7, g8, g9, g10, g11 = piece
    u = t - c
    g = g0 + u * (g1 + u * (g2 + u * (g3 + u * (g4 + u * (g5 + u * (
        g6 + u * (g7 + u * (g8 + u * (g9 + u * (g10 + u * g11))))))))))
    return t * ((1.0 - _EULER_GAMMA) + t * g)


def _ln_gamma_1p(a: float) -> float:
    """log Gamma(1 + a) for 0 < a < 1, without rounding 1 + a.

    ``ln_gamma(a + 1.0)`` rounds its argument, an absolute error of up to
    ~6e-17 in the value, which is large beside a small Q(a, x).
    """
    if a <= 0.6:
        return _lngamma_near_two(a) - math.log1p(a)
    return _lngamma_near_two(a - 1.0)


def ln_gamma(a: float) -> float:
    """log Gamma(a) for a > 0.

    ``math.lgamma`` for a > 2.6, where ln Gamma > 0.35 keeps its absolute
    error relative; the ln Gamma(2 + t) table around the zero at a = 2 on
    [0.45, 2.6] (reached through the recursion
    log Gamma(a) = log Gamma(a+1) - log(a) below 1.45); the same
    recursion for a < 0.45.  Exact at a = 1 and a = 2.
    """
    check_shape("ln_gamma", a)
    return _ln_gamma(a)


def _ln_gamma(a: float) -> float:
    """ln_gamma without the shape check, for shapes already checked."""
    if a == 1.0 or a == 2.0:
        return 0.0
    if a < 0.45:
        return _ln_gamma(a + 1.0) - math.log(a)
    if a < 1.45:
        return _lngamma_near_two(a - 1.0) - math.log(a)
    if a <= 2.6:
        return _lngamma_near_two(a - 2.0)
    return math.lgamma(a)


# Stirling series for ln Gamma(a) - (a - 1/2) ln a + a - ln sqrt(2 pi),
# truncated after a^-9; every Stirling form serves a >= 16 (truncation < 2e-16).
_STIRLING_MIN = 16.0
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_remainder(a: float) -> float:
    """ln Gamma(a) - (a - 1/2) ln a + a - ln sqrt(2 pi); requires a >= 16."""
    inv = 1.0 / a
    inv2 = inv * inv
    return inv * (_STIRLING[0] + inv2 * (_STIRLING[1] + inv2 * (
        _STIRLING[2] + inv2 * (_STIRLING[3] + inv2 * _STIRLING[4]))))


def _gamma_constants(a: float) -> tuple[float, Optional[tuple[float, float]]]:
    """(ln Gamma(a), the constants of ``_gamma_exponent``'s Stirling form) for a checked shape.

    The constants are ((1/2) log(a/(2 pi)), S(a)) for a >= 16, else None.
    """
    if a < _STIRLING_MIN:
        return _ln_gamma(a), None
    return _ln_gamma(a), (0.5 * math.log(a / (2.0 * math.pi)), _stirling_remainder(a))


def _gamma_exponent(a: float, x: float, ln_gamma_a: float,
                    stirling: Optional[tuple[float, float]]) -> float:
    """a log x - x - ln Gamma(a), from ``_gamma_constants(a)``: ln_gamma_a =
    ln Gamma(a) and ``stirling``, the Stirling form's constants or None.

    Without the constants (a < 16) it is formed so.  With them the identity
        a log x - x - ln Gamma(a)
            = a log(x/a) + (a - x) + (1/2) log(a/(2 pi)) - S(a)
    (S the Stirling remainder) keeps the absolute error near |x-a| * eps
    instead of a log(x) * eps, which matters already at a ~ 100, and
    ln_gamma_a is not read.  log(x/a) is taken as log1p((x-a)/a) for
    x >= a/2, where x - a is exact; below a/2 that difference would round
    x away, so log(x/a) is used, or log x - log a once x/a would be
    subnormal.  Below a/2 every form has absolute error near a * eps.
    """
    if not stirling:
        return a * math.log(x) - x - ln_gamma_a
    if x >= 0.5 * a:
        log_ratio = math.log1p((x - a) / a)
    else:
        ratio = x / a
        log_ratio = math.log(ratio) if ratio >= MIN_NORMAL else math.log(x) - math.log(a)
    half_log, remainder = stirling
    return a * log_ratio + (a - x) + half_log - remainder


def _gamma_series(a: float, x: float) -> float:
    """Lower-tail power series S, P(a,x) = S times the prefactor; requires 0 < x < a + 1.

    Every term is positive, so the stop test needs no ``abs``.
    """
    eps = MACHINE_EPSILON
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


def _gamma_q_small_a(a: float, x: float, ln_gamma_1p: float) -> float:
    """Q(a, x) for a < 1 and 0 < x < a + 1, to relative accuracy.

    1 - P keeps only the absolute accuracy of P there.  With
    P = x^a / Gamma(1+a) (1 + a S), S = sum_{n>=1} (-x)^n / (n! (a+n)),
        Q = -expm1(a log x - ln Gamma(1+a) + log1p(a S)),
    whose exponent is a sum of small terms (DiDonato & Morris, ACM TOMS
    12, 1986); ``ln_gamma_1p`` is ln Gamma(1 + a).  For x < 2 the terms of
    S alternate and shrink, so every partial sum is negative.
    """
    eps = MACHINE_EPSILON
    term = -x
    total = term / (a + 1.0)
    n = 1.0
    for _ in range(_MAX_SERIES_ITER):
        n += 1.0
        term *= -x / n
        d = term / (a + n)
        total += d
        if -eps * total >= d >= eps * total:  # |d| <= eps |total|
            return -math.expm1(a * math.log(x) - ln_gamma_1p + math.log1p(a * total))
    raise KernelError(f"gamma small-a series did not converge for a={a}, x={x}")


def _gamma_cf(a: float, x: float) -> float:
    """Continued fraction h (modified Lentz), Q(a,x) = h times the prefactor; x >= a + 1.

    The counter i runs as a float (exact at these sizes).  No denominator
    needs a tiny-guard: for x >= a + 1 the n-th b is x + 1 - a + 2n >= 2n + 2,
    and over 20,000 draws (a in [1e-3, 1e7], x/(a + 1) in [1, 1e3]) |d|
    stayed above 3.5 and |c| above 4.
    """
    eps = MACHINE_EPSILON
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    i = 0.0
    for _ in range(_MAX_CF_ITER):
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if -eps < delta - 1.0 < eps:
            return h
    raise KernelError(f"gamma continued fraction did not converge for a={a}, x={x}")


def _reg_gamma(a: float, x: float, scale: float,
               ln_gamma_1p: Optional[float] = None) -> tuple[float, float]:
    """(P(a, x), Q(a, x)) for x > 0 from one series or fraction sum.

    ``scale`` is the prefactor x^a e^-x / Gamma(a), the density times x.
    Power series for x < a + 1, continued fraction otherwise, so each
    representation is used where it converges fast.  Where the prefactor
    underflows to 0 on the fraction side, Q = 0 exactly and the fraction
    is not run: once 1/b is subnormal (x above ~2^1022) its Lentz steps
    never settle.  On the series side Q is 1 - P,
    except that a caller that reads Q for a < 1 gives ``ln_gamma_1p`` =
    ln Gamma(1 + a): then Q comes from ``_gamma_q_small_a`` with its
    relative accuracy, and P is 1 - Q.
    """
    if x < a + 1.0:
        if ln_gamma_1p is not None:
            q = _gamma_q_small_a(a, x, ln_gamma_1p)
            return 1.0 - q, q
        p = _gamma_series(a, x) * scale
        return p, 1.0 - p
    if scale == 0.0:
        return 1.0, 0.0
    q = scale * _gamma_cf(a, x)
    return 1.0 - q, q


def _gamma_prefactor(a: float, x: float, ln_gamma_a: float,
                     stirling: Optional[tuple[float, float]]) -> tuple[float, float]:
    """(x^a e^-x / Gamma(a), d/dx P = that over x or 0 on underflow) for x > 0,
    from ``_gamma_constants(a)`` as ``_gamma_exponent`` takes them."""
    arg = _gamma_exponent(a, x, ln_gamma_a, stirling)
    scale = math.exp(arg)
    return scale, 0.0 if arg < -745.0 else scale / x


def reg_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) in [0, 1]; 1 at x = inf."""
    check_shape("reg_gamma_p", a)
    if not (x >= 0.0):  # also refuses NaN
        raise ValueError(f"reg_gamma_p requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    return _reg_gamma(a, x, math.exp(_gamma_exponent(a, x, *_gamma_constants(a))))[0]


def reg_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x); 0 at x = inf."""
    check_shape("reg_gamma_q", a)
    if not (x >= 0.0):
        raise ValueError(f"reg_gamma_q requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    scale = math.exp(_gamma_exponent(a, x, *_gamma_constants(a)))
    return _reg_gamma(a, x, scale, _ln_gamma_1p(a) if a < 1.0 else None)[1]


def gamma_density(a: float, x: float) -> float:
    """d/dx P(a, x) = x^(a-1) e^(-x) / Gamma(a); 0 on underflow and at x = inf."""
    check_shape("gamma_density", a)
    if not (x > 0.0):
        raise ValueError(f"gamma_density requires x > 0, got {x}")
    if x == math.inf:
        return 0.0
    return _gamma_prefactor(a, x, *_gamma_constants(a))[1]


def ln_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b).

    For max(a, b) >= 16 every log Gamma of 16 or more is Stirling's, so two
    large log Gamma values never cancel (``_beta_constants``).  Symmetric
    bit for bit: ln_beta(a, b) == ln_beta(b, a).  Requires finite a, b > 0.
    """
    check_shape("ln_beta", a)
    check_shape("ln_beta", b)
    return _beta_constants(a, b)[0]


def _beta_constants(a: float,
                    b: float) -> tuple[float, Optional[tuple[float, float, float, float]]]:
    """(ln B(a, b), the constants of ``_beta_exponent``'s shifted form) for checked shapes.

    The constants are ((1/2) log(ab/(2 pi s)), S(s), S(a), S(b)), s = a + b,
    for a, b >= 16, else None.  There every ln Gamma is Stirling's, in
    r = lo/hi (lo = min(a, b), hi = max(a, b)): ln B = (lo - 1/2)(ln r -
    log1p r) - (hi - 1/2) log1p r - (ln hi + log1p r)/2 + ln sqrt(2 pi)
    + S(lo) + S(hi) - S(s), which needs no a + b (S(inf) is 0) and no ln
    Gamma(lo) ~ lo ln lo to cancel.  For lo < 16 <= hi, ln B is ln Gamma(lo)
    minus Stirling's ln Gamma(s) - ln Gamma(hi).  S(s) and S(hi) serve both
    ln B and the constants, so each is computed once.
    """
    hi, lo = (a, b) if a >= b else (b, a)
    if hi < _STIRLING_MIN:
        return _ln_gamma(a) + _ln_gamma(b) - _ln_gamma(a + b), None
    s = hi + lo
    s_s = _stirling_remainder(s)
    s_hi = _stirling_remainder(hi)
    if lo < _STIRLING_MIN:
        return _ln_gamma(lo) - ((hi - 0.5) * math.log1p(lo / hi) + lo * math.log(s) - lo
                                + s_s - s_hi), None
    s_lo = _stirling_remainder(lo)
    r = lo / hi
    log1p_r = math.log1p(r)
    ln_b = ((lo - 0.5) * (math.log(r) - log1p_r) - (hi - 0.5) * log1p_r
            - 0.5 * (math.log(hi) + log1p_r) + _LN_SQRT_2PI + s_lo + s_hi - s_s)
    s_a, s_b = (s_hi, s_lo) if a >= b else (s_lo, s_hi)
    return ln_b, (0.5 * math.log(a * b / (2.0 * math.pi * s)), s_s, s_a, s_b)


def _beta_exponent(a: float, b: float, x: float, y: float, ln_b: float,
                   stirling: Optional[tuple[float, float, float, float]]) -> float:
    """a log x + b log y - ln B(a, b), y = 1 - x, from ``_beta_constants(a, b)``:
    ln_b = ln B(a, b) and ``stirling``, the shifted form's constants or None.

    The log is taken of the smaller of x and y, and log1p of minus it for
    the other, so neither is formed by subtraction.  For a, b >= 16 and x
    in the central bulk, the shifted form
        a log1p(t/a) + b log1p(-t/b) + (1/2) log(ab/(2 pi s)) + dS,
    t = x b - y a, s = a + b, dS = S(s) - S(a) - S(b), keeps the absolute
    error near eps * |t| instead of eps * |ln B|.
    """
    if stirling:
        t = x * b - y * a
        if t > -0.9 * a and -t > -0.9 * b:
            half_log, s_s, s_a, s_b = stirling
            return (a * math.log1p(t / a) + b * math.log1p(-t / b)
                    + half_log + s_s - s_a - s_b)
    if x <= y:
        return a * math.log(x) + b * math.log1p(-x) - ln_b
    return a * math.log1p(-y) + b * math.log(y) - ln_b


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction for the incomplete beta, x below its switch, y = 1 - x.

    The even part of I_x = x^a y^b / (a B) / (1 + d1/(1 + d2/(1 + ...))),
    d(2m) = m (b - m) x / ((a + 2m - 1)(a + 2m)) and d(2m+1) = -(a + m)
    (a + b + m) x / ((a + 2m)(a + 2m + 1)): one modified Lentz update per
    pair of terms, with a_m = -d(2m-1) d(2m) and b_m = 1 + d(2m) + d(2m+1)
    (BFRAC of DiDonato & Morris, ACM TOMS 18, 1992).  Its first
    denominator, 1 + d1, is formed as (a y + 1 - b x)/(a + 1), which does
    not cancel where it is small (b x near a + 1 with b huge).  Only that
    term keeps a tiny-guard: past it no denominator came within 2e-4 of 0
    over 20,000 fuzzed draws (shapes in [1e-3, 1e6], x below the switch),
    so an exact 0, which would divide by zero, raises ``KernelError``.
    """
    eps = MACHINE_EPSILON
    ab = a + b
    d = (a * y + 1.0 - b * x) / (a + 1.0)
    if -_TINY < d < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    c = 1.0 / _TINY
    odd = ab * x / (a + 1.0)  # -d(2m-1), here -d1
    m = 0.0
    try:
        for _ in range(_MAX_CF_ITER):
            m += 1.0
            am2 = a + m + m
            even = m * (b - m) * x / ((am2 - 1.0) * am2)
            an = odd * even
            odd = (a + m) * (ab + m) * x / (am2 * (am2 + 1.0))
            bn = 1.0 + even - odd
            d = 1.0 / (bn + an * d)
            c = bn + an / c
            delta = c * d
            h *= delta
            if -eps < delta - 1.0 < eps:
                return h
    except ZeroDivisionError:
        pass
    raise KernelError(f"beta continued fraction did not converge for a={a}, b={b}, x={x}")


def reg_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) in [0, 1].

    Continued-fraction evaluation, routed through the symmetry
    I_x(a,b) = 1 - I_(1-x)(b,a) when x > (a+1)/(a+b+2) so the fraction
    always runs in its fast-convergence region.
    """
    check_shape("reg_beta", a)
    check_shape("reg_beta", b)
    if not 0.0 <= x <= 1.0:  # also refuses NaN
        raise ValueError(f"reg_beta requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    y = 1.0 - x
    scale = math.exp(_beta_exponent(a, b, x, y, *_beta_constants(a, b)))
    return _reg_beta(x, y, a, b, scale)[0]


def _reg_beta(x: float, y: float, a: float, b: float, scale: float) -> tuple[float, float]:
    """(I_x(a, b), 1 - I_x(a, b)) for x, y = 1 - x in (0, 1).

    ``scale`` is the prefactor x^a y^b / B(a, b) that both sides share,
    the density times x y.  The continued fraction runs in x below the
    switch (a+1)/(a+b+2) and in y above it, and gives the value of its own
    side, I or 1 - I, to relative accuracy; the other value is 1 minus it.
    The side is decided in the smaller of x and y, which a caller holds exactly.

    Where the other of x and y rounds to 1 (x below 2^-54 past the switch,
    so b above ~1.8e16 (a + 1), or the mirror), both fractions fail, and
    the pair is the gamma limit (P, Q)(a, u), u = (b + (a-1)/2) x, or its
    mirror.  It drops about u x / 2 from u, below the rounding of u itself.
    """
    s = a + b + 2.0
    if (x < (a + 1.0) / s) if x <= y else (y > (b + 1.0) / s):
        if x == 1.0:
            u = (a + 0.5 * (b - 1.0)) * y
            return _reg_gamma(b, u, math.exp(_gamma_exponent(b, u, *_gamma_constants(b))))[::-1]
        i = scale * _beta_cf(a, b, x, y) / a
        return i, 1.0 - i
    if y == 1.0:
        u = (b + 0.5 * (a - 1.0)) * x
        return _reg_gamma(a, u, math.exp(_gamma_exponent(a, u, *_gamma_constants(a))))
    j = scale * _beta_cf(b, a, y, x) / b
    return 1.0 - j, j


def _normal_quantile(p: float, q: float) -> float:
    """Phi^-1(p), q = 1 - p, as ``statistics.NormalDist().inv_cdf`` of the smaller tail."""
    return _normal_dist_inv_cdf(p, 0.0, 1.0) if p <= q else -_normal_dist_inv_cdf(q, 0.0, 1.0)


# Relative error targets for the Carlson duplication loops; the series
# truncation error scales like r, far below the 1e-13 contract.
_CARLSON_R = 1e-16
# The duplication loops stop once fac * q < a, q = scale * max |a0 - arg|.
_RF_Q_SCALE = (3.0 * _CARLSON_R) ** (-1.0 / 6.0)
_RD_Q_SCALE = (0.25 * _CARLSON_R) ** (-1.0 / 6.0)


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson symmetric integral R_F by the duplication algorithm.

    Arguments must be >= 0 (not NaN) with at most one of them zero; an
    infinite argument gives the limit 0.
    """
    if not (x >= 0.0 and y >= 0.0 and z >= 0.0):  # also refuses NaN
        raise ValueError(f"carlson_rf requires nonnegative arguments, got {x}, {y}, {z}")
    if (x == 0.0) + (y == 0.0) + (z == 0.0) > 1:
        raise ValueError("carlson_rf allows at most one zero argument")
    if max(x, y, z) == math.inf:
        return 0.0
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

    Requires x, y >= 0 (not both zero) and z > 0, none NaN; an infinite
    argument gives the limit 0.
    """
    if not (x >= 0.0 and y >= 0.0):  # also refuses NaN
        raise ValueError(f"carlson_rd requires x, y >= 0, got {x}, {y}")
    if x == 0.0 and y == 0.0:
        raise ValueError("carlson_rd requires x, y not both zero")
    if not (z > 0.0):
        raise ValueError("carlson_rd requires z > 0")
    if max(x, y, z) == math.inf:
        return 0.0
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
    m in [0, 1], by ``_ellip_e``: its Maclaurin series in sin(phi) where
    sin(phi) <= 1/32, else halvings of the argument down to the series'
    reach.  Note the first
    argument is the amplitude phi (upper integration limit), and m is the
    modulus, so the m = 1 case degenerates to sin(phi).
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
    c = math.cos(phi)
    g = (1.0 - m) * (1.0 + m)
    return _ellip_e(math.sin(phi), c, math.sqrt(g + (m * c) * (m * c)), m, g)


# The E series runs for s = sin phi <= 1/32, t = s^2 <= 2^-10: every e_n is
# at most binom(2n, n)/4^n (its value at m = 0), so the first term left out,
# e_5 t^5/11, is below (63/256) 2^-50/11 = 0.09 eps of the sum's first term s.
_ELLIP_E_SERIES_MAX = 0.03125


def _ellip_e_series(s: float, m: float) -> float:
    """E(phi, m) for s = sin phi in [0, 1/32] and m in [0, 1], from its Maclaurin series.

    With t = s^2 and mu = m^2, E = int_0^s sqrt(1 - mu v^2)/sqrt(1 - v^2) dv
    = s sum e_n t^n/(2n + 1), where sqrt((1 - mu t)/(1 - t)) = sum e_n t^n:
    e_0 = 1, e_1 = (1 - mu)/2 and, from the integrand's differential
    equation 2 (1 - t)(1 - mu t) y' = (1 - mu) y,
        (n + 1) e_(n+1) = ((1 + mu) n + (1 - mu)/2) e_n - mu (n - 1) e_(n-1).
    In g = k'^2 = (1 - m)(1 + m) = 1 - mu those are e_2 = g/2 - g^2/8,
    e_3 = g/2 - g^2/4 + g^3/16 and e_4 = g/2 - 3g^2/8 + 3g^3/16 - 5g^4/128,
    taken so, each a multiple of g, so the series is s exactly at m = 1.
    Summed to e_4 t^4/9 and added to s last, it was within 0.48 eps
    (1.1e-16) relative of 50-digit mpmath over 3,000 seeded points, where
    the Carlson form s R_F - (m^2/3) s^3 R_D (``carlson_rf``/``carlson_rd``)
    reads 1.73 eps.
    """
    g = (1.0 - m) * (1.0 + m)
    t = s * s
    c2 = g * (0.1 - g * 0.025)
    c3 = g * (1.0 / 14.0 - g * (1.0 / 28.0 - g * (1.0 / 112.0)))
    c4 = g * (1.0 / 18.0 - g * (1.0 / 24.0 - g * (1.0 / 48.0 - g * (5.0 / 1152.0))))
    return s + (s * t) * (g / 6.0 + t * (c2 + t * (c3 + t * c4)))


# Each halving halves the Jacobi argument u = F(phi, m) <= K(m), and
# sn v <= v, so N halvings leave s <= K(m)/2^N; K(m) < 19.5 for every
# double m < 1 (k' >= 1.49e-8), so s <= 1/32 after at most 10.
_ELLIP_E_MAX_HALVINGS = 12


def _ellip_e(s: float, c: float, d: float, m: float, g: float) -> float:
    """E(phi, m) for s = sin phi, c = cos phi, d = sqrt(k'^2 + m^2 c^2) and
    g = k'^2 = (1 - m)(1 + m), 0 < m < 1: its series for s <= 1/32, else
    by halving the argument.

    (s, c, d) are (sn u, cn u, dn u) at u = F(phi, m); every caller forms
    d = sqrt(1 - m^2 s^2) as sqrt(k'^2 + m^2 c^2), a sum of nonnegative
    terms, which the solver also reads as its f'.
    Each pass halves u (DLMF 22.6.19-21) by quotients of sums of
    nonnegative terms, which cancel nowhere:
        sn(u/2) = s / sqrt((1 + c)(1 + d)),  cn(u/2) = sqrt((c + d)/(1 + d)),
        dn(u/2) = sqrt((k'^2 + d + m^2 c)/(1 + d)),
    until s_N = sn(u/2^N) <= 1/32, where ``_ellip_e_series`` sums
    E_N = E(asin s_N, m); for s <= 1/32 that sum is E itself (N = 0).
    Jacobi's epsilon function E(am v, m) doubles as
    E(2v) = 2 E(v) - m^2 sn^2 v sn 2v (DLMF 22.16.27), so
    E = 2^N E_N - m^2 sum_j 2^(j-1) s_j^2 s_(j-1), s_0 = s.  Both sides of
    that difference are near F(phi, m), so the rounding of the s_j lands
    as a few eps of F (see the module docstring).
    """
    if s <= _ELLIP_E_SERIES_MAX:
        return _ellip_e_series(s, m)
    m2 = m * m
    sqrt = math.sqrt
    total = 0.0
    scale = 1.0
    for _ in range(_ELLIP_E_MAX_HALVINGS):
        r = 1.0 + d
        half = s / sqrt((1.0 + c) * r)
        c, d = sqrt((c + d) / r), sqrt((g + d + m2 * c) / r)
        total += scale * (half * half) * s
        s = half
        scale *= 2.0
        if s <= _ELLIP_E_SERIES_MAX:
            return scale * _ellip_e_series(s, m) - m2 * total
    raise KernelError(f"elliptic E halvings did not reach the series for m={m}")


# The series for C(psi) runs where s <= _ELLIP_C_SERIES_MAX: there its n-th
# term is at most ~s^(2n) of the sum (it stops within 18 terms at s = 0.4).
_ELLIP_C_SERIES_MAX = 0.4
# (2n - 1, 2n + 2, alpha_n = binom(2n, n)/4^n, correctly rounded), n = 1..30.
_ELLIP_C_TERMS = tuple((2.0 * n - 1.0, 2.0 * n + 2.0, math.comb(2 * n, n) / 4 ** n)
                       for n in range(1, 31))


def _ellip_c(m: float, g2: float, s: float) -> float:
    """C(psi) = int_0^psi sqrt(k'^2 + m^2 sin^2 u) du = E(1, m) - E(sin x, m),
    x = pi/2 - psi, from s = sin psi <= 0.4 and g2 = k'^2 = (1 - m)(1 + m),
    0 < m < 1.

    With b = k'/m, C/m = int_0^s sqrt(v^2 + b^2) / sqrt(1 - v^2) dv, and
    1/sqrt(1 - v^2) = sum alpha_n v^(2n), alpha_n = binom(2n, n)/4^n, gives
    C/m = sum alpha_n I_n with I_n = int_0^s v^(2n) sqrt(v^2 + b^2) dv:
        I_0 = (s r + b^2 asinh(s/b))/2,  r = sqrt(s^2 + b^2),
        (2n + 2) I_n = s^(2n-1) r^3 - (2n - 1) b^2 I_(n-1).
    Every term is positive, and the sum runs until a term no longer moves
    it.  The recurrence passes an error in I_(n-1) on
    to I_n times (2n - 1) b^2/(2n + 2) < b^2, and so to the sum, whatever
    s is; b^2 <= 0.108 for m > 0.95, where the solver calls it.  Where
    s << b the subtraction cancels, I_n being ~b s^(2n+1)/(2n+1) against
    parts ~b^3 s^(2n-1), but its rounding, ~eps b^3 s^(2n-1), is still
    below eps b^2 s^(2n-2) of the sum ~b s.  It does not subtract two
    values near E(1, m), as E(1, m) - E(sin x, m) would; past s = 0.4,
    where C >= ~0.08, ``EllipticProblem`` takes that difference instead.
    """
    b = math.sqrt(g2) / m
    b2 = b * b
    s2 = s * s
    r2 = s2 + b2
    r = math.sqrt(r2)
    i = 0.5 * (s * r + b2 * math.asinh(s / b))
    total = i
    u = s * r2 * r  # s^(2n-1) r^3
    for k, d, alpha in _ELLIP_C_TERMS:
        i = (u - k * b2 * i) / d
        new = total + alpha * i
        if new == total:
            break
        total = new
        u *= s2
    return m * total


_LN_4 = math.log(4.0)


def ellip_e_complete(m: float) -> float:
    """Complete elliptic integral of the second kind, modulus m in [0, 1].

    Two branches, exact at m = 0 and m = 1:

    - For k'^2 = (1-m)(1+m) <= 0.05 (m >= 0.9747), the k' series (DLMF
      19.12.2), E = 1 + sum_n a_n k'^(2n) (ln(4/k') - d_n), with
      a_n = prod_{j<n} ((2j-1)/(2j))^2 (2n-1)/(2n) and
      d_n = sum_{j<n} 2/((2j-1) 2j) + 1/((2n-1) 2n), taken to n = 12 (the
      truncation is below 1e-18 relative) as two Horner sums in k'^2 whose
      coefficients a_n and a_n d_n are written out, correctly rounded.
      Within 1.2e-16 relative of 40-digit mpmath over 3,000 moduli there.
    - Elsewhere Gauss's arithmetic-geometric mean (DLMF 19.8.6):
      E = pi/(2a) (1 - sum 2^(n-1) c_n^2) over the levels a, g, c =
      (a+g)/2, sqrt(a g), (a-g)/2 from 1, k', m.  Its first term
      1 - m^2/2 is taken as (1 + k'^2)/2, free of the rounding of m^2.
      Within 2.1e-15 relative of 40-digit mpmath over 6,500 moduli; near
      m = 1, where 1 - sum cancels and it takes up to 9 levels, it reached
      1.9e-15, which the k' series replaces.
    """
    if not 0.0 <= m <= 1.0:  # also refuses NaN
        raise ValueError(f"ellip_e_complete requires m in [0, 1], got {m}")
    if m == 1.0:
        return 1.0
    g2 = (1.0 - m) * (1.0 + m)
    if g2 <= 0.05:
        series = g2 * (0.5 + g2 * (0.1875 + g2 * (0.1171875 + g2 * (0.08544921875 + g2 * (
            0.067291259765625 + g2 * (0.055515289306640625 + g2 * (
                0.047254085540771484 + g2 * (0.04113636910915375 + g2 * (
                    0.03642282681539655 + g2 * (0.032679369614925236 + g2 * (
                        0.02963424653717084 + g2 * 0.027108600525480142)))))))))))
        shift = g2 * (0.25 + g2 * (0.203125 + g2 * (0.140625 + g2 * (0.10691324869791667 + g2 * (
            0.08614349365234375 + g2 * (0.07210578918457031 + g2 * (
                0.06199338436126709 + g2 * (0.05436488067997353 + g2 * (
                    0.048406362059592666 + g2 * (0.04362405740343208 + g2 * (
                        0.03970121666819371 + g2 * 0.036425376655683704)))))))))))
        return 1.0 + ((_LN_4 - 0.5 * math.log(g2)) * series - shift)
    a, g, c = 1.0, math.sqrt(g2), m
    rest, power = 0.5 * (1.0 + g2), 0.5
    for _ in range(10):  # k'^2 > 0.05 takes at most 6 levels
        if c <= MACHINE_EPSILON * a:
            break
        a, g, c = 0.5 * (a + g), math.sqrt(a * g), 0.5 * (a - g)
        power *= 2.0
        rest -= power * c * c
    return math.pi / (2.0 * a) * rest


_BISECT_MAX_HALVINGS = 200


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Plain bisection until the midpoint is an end (adjacent doubles), or
    after 200 halvings (a root within ~2^-200 (hi - lo) of 0 needs more).

    Returns an end or a midpoint where f is exactly 0, else the final
    midpoint, one of the two ends.  Raises ValueError ("no sign change")
    unless f changes sign on [lo, hi].
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(_BISECT_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fhi > 0):
            hi, fhi = mid, fm
        else:
            lo = mid
    return 0.5 * (lo + hi)
