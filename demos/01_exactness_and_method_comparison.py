"""Why a fourth-order step: exactness on constant-Schwarzian functions.

Newton's method is exact for linear functions; Halley's for Moebius
functions (x+A)/(Bx+C).  The Schwarzian-Newton step is exact for the
wider family (gtan(lam, x)+A)/(B gtan(lam, x)+C), which includes every
tan, tanh and logistic-like sigmoid.  This demo shows one-step exactness
on tan and tanh, and the classic counterexample where Halley leaves the
interval while the SNM lands on the root immediately.
"""

import math

from snm import (
    Method,
    ProblemEvaluation,
    SolveOptions,
    halley_step,
    newton_step,
    snm_step,
    solve,
    tan_problem,
)


def tanh_evaluation(x: float, shift: float) -> ProblemEvaluation:
    t = math.tanh(x - shift)
    # B = -f''/f' = 2 tanh, Omega = -1 (constant) for a tanh sigmoid.
    return ProblemEvaluation.build(x, f=t, fp=1.0 - t * t, big_b=2.0 * t, omega=-1.0)


def main() -> None:
    print("= One SNM step on f = tanh(x - 0.3), exact root 0.3")
    for x0 in (-2.0, 0.0, 1.0, 4.0):
        e = tanh_evaluation(x0, 0.3)
        print(f"  from x0 = {x0:5.1f}:  snm -> {snm_step(e):.17f}"
              f"   halley -> {halley_step(e):.6f}   newton -> {newton_step(e):.6f}")

    print()
    print("= f = tan(x) on (-pi/2, pi/2), start x0 = 1.5 (near the edge)")
    problem = tan_problem()
    e = problem.evaluate(1.5)
    print(f"  one SNM step:    {snm_step(e):+.17f}   (root is 0)")
    print(f"  one Halley step: {halley_step(e):+.6f}   (outside the interval!)")

    print()
    print("= Full solves from x0 = 1.5 with the domain clamp")
    for method in (Method.SNM, Method.HALLEY, Method.NEWTON):
        report = solve(problem, 1.5, SolveOptions(method=method))
        print(f"  {method.value:7s} iterations={report.iterations:2d} "
              f"root={report.root:+.3e} converged={report.converged}")


if __name__ == "__main__":
    main()
