"""Regenerate the ln Gamma(2 + t) table of ``snm.special`` with mpmath.

Usage, from the root of a source checkout (mpmath installed; offline, the
library itself never imports mpmath):

    python3 tools/fit_lngamma.py

``special._lngamma_near_two`` computes ln Gamma(2 + t) for t in
[-0.55, 0.6] as t ((1 - gamma) + t g(t)), gamma Euler's constant, so the
value is exactly 0 at t = 0 and keeps its relative accuracy near the
zeros of ln Gamma at a = 1 and a = 2.  g is taken piecewise: on each of
``PIECES`` subintervals [lo, hi], centre c, a polynomial of ``TERMS``
coefficients in u = t - c, fitted by mpmath's Chebyshev interpolation
(``chebyfit``) at 50 digits.  The script prints the table as Python
literals, lowest order first, ready to paste over ``_LNGAMMA_PIECES``,
and for each piece the worst relative error of ln Gamma(2 + t), taken in
doubles from the rounded coefficients with the library's Horner order,
against 50-digit mpmath on 2,001 points.
"""

from __future__ import annotations

import mpmath

# Piece edges on [-0.55, 0.6], equal widths; the kernel selects a piece
# by comparing t with the three inner edges.
EDGES = (-0.55, -0.2625, 0.025, 0.3125, 0.6)
TERMS = 12
EULER_GAMMA = 0.5772156649015329


def g_exact(t: mpmath.mpf) -> mpmath.mpf:
    """g(t) = (ln Gamma(2 + t) / t - (1 - gamma)) / t, its limit (zeta(2) - 1)/2 at 0."""
    if t == 0:
        return (mpmath.zeta(2) - 1) / 2
    return (mpmath.loggamma(2 + t) / t - (1 - mpmath.euler)) / t


def fit_piece(lo: float, hi: float) -> tuple[float, list[float]]:
    """(centre, coefficients of g in u = t - centre, lowest order first)."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    poly, _ = mpmath.chebyfit(lambda u: g_exact(centre + u), [-half, half], TERMS, error=True)
    return centre, [float(c) for c in reversed(poly)]


def ln_gamma_2pt(t: float, centre: float, coeffs: list[float]) -> float:
    """ln Gamma(2 + t) in doubles, with the library's Horner order."""
    u = t - centre
    g = 0.0
    for c in reversed(coeffs):
        g = g * u + c
    return t * ((1.0 - EULER_GAMMA) + t * g)


def worst_relative_error(lo: float, hi: float, centre: float, coeffs: list[float]) -> float:
    worst = 0.0
    for i in range(2001):
        t = lo + (hi - lo) * i / 2000
        if t == 0.0:
            continue
        ref = mpmath.loggamma(2 + mpmath.mpf(t))
        worst = max(worst, float(abs((ln_gamma_2pt(t, centre, coeffs) - ref) / ref)))
    return worst


def main() -> None:
    mpmath.mp.dps = 50
    rows = []
    for lo, hi in zip(EDGES, EDGES[1:]):
        centre, coeffs = fit_piece(lo, hi)
        rows.append((lo, hi, centre, coeffs))
    print("_LNGAMMA_PIECES = (")
    for _, _, centre, coeffs in rows:
        lines = [" ".join(f"{c!r}," for c in coeffs[k:k + 3]) for k in range(0, TERMS, 3)]
        print(f"    ({centre!r},\n     " + "\n     ".join(lines)[:-1] + "),")
    print(")")
    for lo, hi, centre, coeffs in rows:
        print(f"[{lo}, {hi}]: worst relative error {worst_relative_error(lo, hi, centre, coeffs):.2e}")


if __name__ == "__main__":
    main()
