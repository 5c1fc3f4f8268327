"""Adaptive Gauss-Kronrod quadrature: the test suite's integration oracle.

The kernels in ``snm.special`` are checked against direct integration of
their densities and integrands; this module supplies that integral
independently of every kernel it checks.
"""

from __future__ import annotations

from typing import Callable

from snm.special import KernelError

# Gauss-Kronrod 7/15 pair on [-1, 1]; Kronrod abscissae/weights and the
# embedded 7-point Gauss weights (odd Kronrod nodes).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _kronrod(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """15-point Kronrod estimate and |K15 - G7| error estimate on [lo, hi]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    f_mid = f(mid)
    kron = _WGK[7] * f_mid
    gauss = _WG[3] * f_mid
    for j in range(7):
        fa = f(mid - half * _XGK[j])
        fb = f(mid + half * _XGK[j])
        kron += _WGK[j] * (fa + fb)
        if j % 2 == 1:
            gauss += _WG[j // 2] * (fa + fb)
    kron *= half
    gauss *= half
    return kron, abs(kron - gauss)


def integrate_adaptive(f: Callable[[float], float], lo: float, hi: float,
                       tol: float, max_depth: int = 48) -> float:
    """Adaptive quadrature to absolute tolerance ``tol`` (test oracle).

    Gauss-Kronrod 7/15 with recursive bisection; each half receives half
    the error budget.

    Raises:
        KernelError: subdivision budget exhausted before the error
            estimate fell under tolerance.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if lo == hi:
        return 0.0

    def recurse(a: float, b: float, budget: float, depth: int) -> float:
        est, err = _kronrod(f, a, b)
        if err <= budget or err <= abs(est) * 1e-16:
            return est
        if depth >= max_depth:
            raise KernelError(
                f"integrate_adaptive: no convergence on [{a}, {b}], err={err}")
        mid = 0.5 * (a + b)
        return (recurse(a, mid, 0.5 * budget, depth + 1)
                + recurse(mid, b, 0.5 * budget, depth + 1))

    return recurse(lo, hi, tol, 0)
