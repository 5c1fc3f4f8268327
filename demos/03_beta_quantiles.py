"""Beta-distribution quantiles: the asymptotic start and the logit path.

Every query solves in z = log(x/(1-x)), where Omega is negative for
every shape pair.  (In x, for a, b > 1, Omega has a unique maximum, the
root of a cubic, ``beta_xm``.)  For a, b > 1 the start is the asymptotic
quantile of Abramowitz & Stegun 26.5.22, formed in z and clamped between
the bounds of the root from I_x(a, b) <= x^a / (a B(a, b)) and
1 - I_x(a, b) <= (1-x)^b / (b B(a, b)).  Otherwise it starts from those
bounds on the side of the root that Omega's monotonicity names: below it
when Omega decreases (a <= 1 <= b), above it when Omega increases
(a >= 1 >= b).
"""

from snm import BetaQuantileQuery, beta_plan, beta_xm, invert_beta, reg_beta


def main() -> None:
    print("= Shapes above one: the Omega maximum (cubic root) and the A&S start")
    a, b, p = 2.0, 3.0, 0.3
    print(f"  beta_xm(2, 3) = {beta_xm(a, b):.15f}")
    report = invert_beta(BetaQuantileQuery(a, b, p))
    print(f"  quantile(2, 3; 0.3) = {report.root:.17g}  "
          f"iterations = {report.iterations}  start = {report.start}")
    print(f"  I(root; 2, 3) = {reg_beta(report.root, a, b):.17g}")

    print()
    print("= Uniform sanity check: I_x(1, 1) = x")
    report = invert_beta(BetaQuantileQuery(1.0, 1.0, 0.37))
    print(f"  quantile(1, 1; 0.37) = {report.root!r}  "
          f"iterations = {report.iterations}")

    print()
    print("= Every shape pair solves in the logit variable")
    for a, b, p in ((2.0, 3.0, 0.3), (0.5, 3.0, 0.2), (3.0, 0.5, 0.2), (0.3, 0.6, 0.4)):
        plan = beta_plan(BetaQuantileQuery(a, b, p))
        report = invert_beta(BetaQuantileQuery(a, b, p))
        print(f"  (a={a}, b={b}, p={p}): variable={plan.variable.value} "
              f"start={plan.start}")
        print(f"      root = {report.root:.17g}")

    print()
    print("= Symmetry: quantile(a, b; p) + quantile(b, a; 1-p) = 1")
    for a, b, p in ((2.0, 5.0, 0.2), (0.4, 0.7, 0.35)):
        r1 = invert_beta(BetaQuantileQuery(a, b, p)).root
        r2 = invert_beta(BetaQuantileQuery(b, a, 1.0 - p)).root
        print(f"  (a={a}, b={b}, p={p}): sum = {r1 + r2:.17g}")


if __name__ == "__main__":
    main()
