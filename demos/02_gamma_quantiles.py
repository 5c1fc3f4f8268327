"""Gamma-distribution quantiles: monotone convergence and iteration counts.

The solver works in z = log x for every shape, where Omega is negative.
Deep enough in the lower tail it starts, for every a, on the reverted
lower-tail series from the lower bound x_l of the root, from
P(a, x) <= x^a / Gamma(a+1).  Elsewhere, for shape a >= 1 it starts at
the log of Temme's uniform asymptotic inversion of the quantile with two
correction terms, never below x_l.  Both are close enough for the solve
to end after one evaluation, for a >= 10 in either tail; near a = 1 the
asymptotic start takes one or two iterations.  For a < 1 it starts from
the closer of two bounds of the root.  The SNM-vs-Halley table solves the paper's problem in x
from x = a + 1 instead, the maximum of the half-Schwarzian Omega, from
which convergence is monotone: three iterations reach double precision
across the central probability range.
"""

import math


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
    for rec in report.trace:  # in the solver variable z = log x
        print(f"    iterate {rec.n}: x = {math.exp(rec.x):.15f}  f = {rec.f:+.3e}  "
              f"step in z = {rec.step:+.3e}")
    print(f"  round trip: P(2, root) = {reg_gamma_p(2.0, report.root):.17g}")

    print()
    print("= Iteration counts, SNM vs Halley, start x0 = a + 1, tol 1e-15")
    print(f"  {'a':>6} {'p':>5}   snm  halley")
    for a in (2.0, 5.0, 30.0, 100.0):
        for p in (0.1, 0.5, 0.9):
            problem = GammaDirectProblem(GammaQuantileQuery(a, p))
            n_s = solve(problem, a + 1.0, SolveOptions(method=Method.SNM)).iterations
            n_h = solve(problem, a + 1.0, SolveOptions(method=Method.HALLEY)).iterations
            print(f"  {a:6.0f} {p:5.2f}   {n_s:3d}  {n_h:6d}")

    print()
    print("= a = 1 is the exponential distribution: Omega in x is constant,")
    print("  so the method in x is exact: from the plan's start every quantile")
    print("  takes one step, which the predicted stop applies without")
    print("  evaluating (and counting) it")
    for p in (0.1, 0.5, 0.9):
        query = GammaQuantileQuery(1.0, p)
        plan = gamma_start(query)
        report = solve(GammaDirectProblem(query), plan.to_x(plan.x0))
        print(f"  p = {p}: root = {report.root:.17g}  iterations = {report.iterations}"
              f"  evaluations = {report.evaluations}  reason = {report.reason.value}")

    print()
    print("= a < 1 runs in the log variable too, at a central p from a bound")
    print("  (see the report's fields)")
    plan = gamma_start(GammaQuantileQuery(0.5, 0.5))
    report = invert_gamma(GammaQuantileQuery(0.5, 0.5))
    print(f"  start: variable = {plan.variable.value}, z0 = {plan.x0:.6f}")
    print(f"  root = {report.root:.17g}   variable = {report.variable.value}  "
          f"start = {report.start}")
    print(f"  P(0.5, root) = {reg_gamma_p(0.5, report.root):.17g}")


if __name__ == "__main__":
    main()
