"""Stdlib references for the ln Gamma and E(1, m) kernels of ``snm.special``.

``ln_gamma_series`` is ln Gamma on (0, 2.6] by the Taylor series of
ln Gamma(2 + t) in zeta(k) - 1, k = 2..36, which the kernel's piecewise
table replaced; ``ln_gamma_1p_series`` is its ln Gamma(1 + a) for
0 < a < 1.  ``ellip_e_agm`` is E(1, m) by Gauss's arithmetic-geometric
mean alone, which the kernel keeps for k'^2 > 0.05 and replaced by the k'
series above that modulus.
"""

from __future__ import annotations

import math

_EULER_GAMMA = 0.5772156649015329

# zeta(k) - 1 for k = 2..36.
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


def lngamma_near_two_series(t: float) -> float:
    """ln Gamma(2 + t) for |t| <= 0.6: Horner in -t over (zeta(k) - 1)/k, k = 36..2."""
    acc = 0.0
    for k in range(len(_ZETA_M1) + 1, 1, -1):
        acc = acc * -t + _ZETA_M1[k - 2] / k
    return t * ((1.0 - _EULER_GAMMA) + t * acc)


def ln_gamma_series(a: float) -> float:
    """ln Gamma(a) for 0 < a <= 2.6, by the branches of ``special._ln_gamma``."""
    if a == 1.0 or a == 2.0:
        return 0.0
    if a < 0.45:
        return ln_gamma_series(a + 1.0) - math.log(a)
    if a < 1.45:
        return lngamma_near_two_series(a - 1.0) - math.log(a)
    return lngamma_near_two_series(a - 2.0)


def ln_gamma_1p_series(a: float) -> float:
    """ln Gamma(1 + a) for 0 < a < 1, without rounding 1 + a."""
    if a <= 0.6:
        return lngamma_near_two_series(a) - math.log1p(a)
    return lngamma_near_two_series(a - 1.0)


def ellip_e_agm(m: float) -> float:
    """E(1, m) for 0 <= m < 1 by the AGM (DLMF 19.8.6), up to 10 levels."""
    g2 = (1.0 - m) * (1.0 + m)
    a, g, c = 1.0, math.sqrt(g2), m
    rest, power = 0.5 * (1.0 + g2), 0.5
    for _ in range(10):
        if c <= 2.0 ** -52 * a:
            break
        a, g, c = 0.5 * (a + g), math.sqrt(a * g), 0.5 * (a - g)
        power *= 2.0
        rest -= power * c * c
    return math.pi / (2.0 * a) * rest
