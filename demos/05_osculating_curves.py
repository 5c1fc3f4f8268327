"""The geometric view: each step solves an osculating tangent curve.

At the current iterate the method fits
    y(x) = (gtan(lam, x - xn) + A) / (B gtan(lam, x - xn) + C)
to the function's value and first three derivatives, then jumps to the
curve's root.  This reproduces the arctan step formula exactly, and the
curve hugs a sigmoid CDF far better than Halley's Moebius model
(lam = 0) or Newton's tangent line.

The same data is available from the command line:
    snm osculate gamma --a 30 --p 0.5 --x0 31 --range 15:50 --samples 200
"""

from snm import (
    GammaQuantileQuery,
    PoleError,
    osculating_eval,
    osculating_fit,
    osculating_root,
    reg_gamma_p,
    snm_step,
)
from snm.gamma import GammaDirectProblem


def main() -> None:
    a, p = 30.0, 0.5
    problem = GammaDirectProblem(GammaQuantileQuery(a, p))
    e = problem.evaluate(a + 1.0)

    model = osculating_fit(e)
    halley_model = model._replace(lam=0.0)
    print(f"= Models fitted to the gamma(30) CDF residual at x = {e.x}")
    print(f"  lam = Omega(x0) = {model.lam:.15f}")
    print(f"  A = {model.a:.6e}  B = {model.b:.6e}  C = {model.c:.6e}")
    print(f"  curve root  = {osculating_root(model):.15f}")
    print(f"  snm step    = {snm_step(e):.15f}   (identical construction)")

    print()
    print("= Curve values on CDF scale vs P(30, x)")
    print(f"  {'x':>4} {'P(a,x)':>10} {'tangent-curve':>14} {'moebius':>10} {'line':>10}")
    for x in (18.0, 22.0, 26.0, 31.0, 36.0, 41.0, 46.0):
        truth = reg_gamma_p(a, x)
        snm_val = osculating_eval(model, x) + p
        try:
            hal_val = f"{osculating_eval(halley_model, x) + p:10.5f}"
        except PoleError:
            hal_val = "      pole"
        line_val = e.f + e.fp * (x - e.x) + p
        print(f"  {x:4.0f} {truth:10.5f} {snm_val:14.5f} {hal_val} {line_val:10.5f}")

    print()
    print("  (the tangent-curve column tracks P; the other two fly off)")


if __name__ == "__main__":
    main()
