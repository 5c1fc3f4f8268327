"""Gamma-distribution quantiles: monotone convergence and iteration counts.

For shape a >= 1 the solver starts at x = a + 1 (the maximum of the
half-Schwarzian Omega) and converges monotonically; for a < 1 it works
in z = log x from a provable lower bound.  Three iterations reach double
precision across the central probability range.
"""

from snm import (
    GammaQuantileQuery,
    Method,
    SolveOptions,
    invert_gamma,
    reg_gamma_p,
    solve,
)
from snm.gamma import GammaDirectProblem, gamma_start


def main() -> None:
    print("= Median of the gamma(2) distribution, with the iteration trace")
    query = GammaQuantileQuery(2.0, 0.5)
    report = invert_gamma(query)
    print(f"  root = {report.root:.17g}   iterations = {report.iterations}")
    for rec in report.trace:
        print(f"    iterate {rec.n}: x = {rec.x:.15f}  f = {rec.f:+.3e}  "
              f"step = {rec.step:+.3e}")
    print(f"  round trip: P(2, root) = {reg_gamma_p(2.0, report.root):.17g}")

    print()
    print("= Iteration counts, SNM vs Halley, start x0 = a + 1, tol 1e-15")
    print(f"  {'a':>6} {'p':>5}   snm  halley")
    for a in (2.0, 5.0, 30.0, 100.0):
        for p in (0.1, 0.5, 0.9):
            problem = GammaDirectProblem(GammaQuantileQuery(a, p))
            n_s = solve(problem, a + 1.0, SolveOptions(
                method=Method.SNM, residual_tol=1e-14)).iterations
            n_h = solve(problem, a + 1.0, SolveOptions(
                method=Method.HALLEY, residual_tol=1e-14)).iterations
            print(f"  {a:6.0f} {p:5.2f}   {n_s:3d}  {n_h:6d}")

    print()
    print("= a = 1 is the exponential distribution: Omega is constant,")
    print("  so the method is exact and every quantile takes one iteration")
    for p in (0.1, 0.5, 0.9):
        report = invert_gamma(GammaQuantileQuery(1.0, p))
        print(f"  p = {p}: root = {report.root:.17g}  iterations = {report.iterations}")

    print()
    print("= a < 1 runs in the log variable (note the report's notes)")
    plan = gamma_start(GammaQuantileQuery(0.5, 0.2))
    report = invert_gamma(GammaQuantileQuery(0.5, 0.2))
    print(f"  start: variable = {plan.variable.value}, z0 = {plan.x0:.6f}")
    print(f"  root = {report.root:.17g}   notes = {report.notes}")
    print(f"  P(0.5, root) = {reg_gamma_p(0.5, report.root):.17g}")


if __name__ == "__main__":
    main()
