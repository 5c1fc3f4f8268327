"""Inverting the incomplete elliptic integral of the second kind.

Finds the amplitude x with E(sin x, m) = p E(1, m).  Here the
half-Schwarzian Omega changes sign at x_c(m), so the iteration crosses
between the hyperbolic and circular regimes; the starting value is one
analytic SNM step from an endpoint, chosen by the g(0) / g(pi/2)
heuristic.  Two iterations reach double precision for m <= 0.8.
"""

import math

from snm import (
    EllipticQuery,
    ellip_e_complete,
    ellip_e_inc,
    ellip_start_high,
    ellip_start_low,
    ellip_xc,
    ellip_xe,
    invert_ellip_e,
    snm_step,
)
from snm.elliptic import MONOTONE_OMEGA_MODULUS, EllipticProblem, choose_start


def main() -> None:
    print("= Omega's sign-change abscissa x_c(m) and interior minimum x_e(m)")
    print(f"  x_c(m -> 0) = {ellip_xc(1e-9):.15f}   (pi/4 = {math.pi / 4:.15f})")
    print(f"  x_c(0.5)    = {ellip_xc(0.5):.15f}")
    print(f"  x_c(1)      = {ellip_xc(1.0):.15f}   (pi/2 = {math.pi / 2:.15f})")
    print(f"  x_e exists only for m > 2/sqrt(7) = {MONOTONE_OMEGA_MODULUS:.6f}:"
          f"  x_e(0.9) = {ellip_xe(0.9):.15f} < x_c(0.9) = {ellip_xc(0.9):.15f}")

    print()
    print("= Start selection and the solve, m = 0.5, p = 0.5")
    m, p = 0.5, 0.5
    low = ellip_start_low(m, p)
    high = ellip_start_high(m, p)
    x0, label = choose_start(EllipticQuery(m, p))
    print(f"  g(0) = {low:.15f}, g(pi/2) = {high:.15f} -> chose '{label}'")
    report = invert_ellip_e(EllipticQuery(m, p))
    print(f"  root = {report.root:.17g}   iterations = {report.iterations}  "
          f"start = {report.start}")
    comp = ellip_e_complete(m)
    print(f"  E(sin root, m)/E(1, m) = {ellip_e_inc(report.root, m) / comp:.17g}")

    print()
    print("= Two explicit iterations vs a 200-step bisection oracle")
    print(f"  {'m':>5} {'p':>5}   |x2 - oracle|")
    for m in (0.2, 0.5, 0.8):
        for p in (0.1, 0.5, 0.9):
            query = EllipticQuery(m, p)
            problem = EllipticProblem(query)
            x, _ = choose_start(query)
            for _ in range(2):
                x = snm_step(problem.evaluate(x))
            target = p * ellip_e_complete(m)
            lo, hi = 0.0, math.pi / 2
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if ellip_e_inc(mid, m) > target:
                    hi = mid
                else:
                    lo = mid
            print(f"  {m:5.2f} {p:5.2f}   {abs(x - 0.5 * (lo + hi)):.2e}")

    print()
    print("= Degenerate moduli invert in closed form")
    print(f"  m = 0:  root = {invert_ellip_e(EllipticQuery(0.0, 0.3)).root:.17g}"
          f"  (0.3 * pi/2 = {0.3 * math.pi / 2:.17g})")
    print(f"  m = 1:  root = {invert_ellip_e(EllipticQuery(1.0, 0.42)).root:.17g}"
          f"  (arcsin 0.42 = {math.asin(0.42):.17g})")


if __name__ == "__main__":
    main()
