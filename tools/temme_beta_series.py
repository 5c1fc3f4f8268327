"""Derive the small-eta series of ``snm.beta._asymptotic_start`` with sympy.

Usage, from the root of a source checkout (sympy installed; offline, the
library itself never imports sympy):

    python3 tools/temme_beta_series.py [TERMS]

Temme's beta inversion relates x to eta by x0 ln(x/x0) + y0 ln(y/y0) =
-eta^2/2; in u = ln(x/y) - ln(x0/y0) that is phi(u) = x0 u - ln(y0 +
x0 e^u) = -eta^2/2, and phi = -sum_k x^(k-1)(0) u^k / k!, x(u) = x0 e^u /
(y0 + x0 e^u).  The script reverts that series to u(eta), forms
L = ln(sqrt(s) eta/(x - x0)), s = x0 y0, and from it eps1 = L/eta and
eps2 = (eps1' + L' eps1 - eps1^2/2 - (1/s - 1)/12)/eta, and prints the
coefficients of eta^k of u, eps1 and eps2 as rational functions of x0,
with w = sqrt(s).  It checks that the numerator of eps2 vanishes at
eta = 0, which holds only for that constant (1/s - 1)/12.  The library
writes them in zeta = eta/w with s and d = y0 - x0, where each tends to
gamma's coefficient as x0 -> 0.  Truncated after TERMS powers of eta
(default 7, the terms the library uses), the series fix u to eta^(TERMS-2),
eps1 to eta^(TERMS-4) and eps2 to eta^(TERMS-5), and those are printed.
It runs in about 20 s.
"""

from __future__ import annotations

import sys

import sympy as sp

x0, w = sp.symbols("x0 w", positive=True)
y0 = 1 - x0
S = x0 * y0


def reduce(c):
    """c as A + B w with A, B rational in x0, using w^2 = x0 y0."""
    c = sp.together(sp.expand(c))
    if c == 0:
        return sp.Integer(0)
    num, den = sp.fraction(c)

    def split(e):
        a = b = sp.Integer(0)
        for (k,), coef in sp.Poly(sp.expand(e), w).terms():
            if k % 2:
                b += coef * S ** (k // 2)
            else:
                a += coef * S ** (k // 2)
        return a, b

    na, nb = split(num)
    da, db = split(den)
    d = da * da - db * db * S
    return (sp.factor(sp.cancel((na * da - nb * db * S) / d))
            + sp.factor(sp.cancel((nb * da - na * db) / d)) * w)


def mul(a, b, n):
    return [reduce(sum(a[i] * b[k - i] for i in range(k + 1))) for k in range(n)]


def compose(f, g, n):
    """The series f(g(eta)), g[0] = 0."""
    out = [sp.Integer(0)] * n
    power = [sp.Integer(1)] + [sp.Integer(0)] * (n - 1)
    for k in range(n):
        out = [reduce(out[i] + f[k] * power[i]) for i in range(n)]
        power = mul(power, g, n)
    return out


def main(n: int) -> None:
    u = sp.symbols("u")
    x_u = x0 * sp.exp(u) / (y0 + x0 * sp.exp(u))
    dx = [sp.factor(sp.simplify(sp.diff(x_u, u, k).subs(u, 0))) for k in range(n + 3)]
    # eta = w u sqrt(F(u)), F = -2 phi/(s u^2), F(0) = 1.
    f = [reduce(2 * dx[k + 1] / (sp.factorial(k + 2) * S)) for k in range(n)]
    root = compose([sp.binomial(sp.Rational(1, 2), k) for k in range(n)], [0] + f[1:], n)
    eta_u = [sp.Integer(0)] + [reduce(w * c) for c in root[:n - 1]]
    # Revert by fixed point: u = (eta - sum_{k>=2} e_k u^k)/e_1.
    u_eta = [sp.Integer(0), reduce(1 / eta_u[1])] + [sp.Integer(0)] * (n - 2)
    for _ in range(n + 1):
        rest = [sp.Integer(0)] * n
        power = mul(u_eta, u_eta, n)
        for k in range(2, n):
            rest = [reduce(rest[i] + eta_u[k] * power[i]) for i in range(n)]
            power = mul(power, u_eta, n)
        u_eta = [reduce((int(i == 1) - rest[i]) / eta_u[1]) for i in range(n)]
    # (x - x0)/eta, then L = ln(w eta/(x - x0)).
    d_eta = compose([sp.Integer(0)] + [dx[k] / sp.factorial(k) for k in range(1, n)], u_eta, n)
    q = d_eta[1:] + [sp.Integer(0)]
    inv = [reduce(1 / q[0])] + [sp.Integer(0)] * (n - 1)
    for k in range(1, n):
        inv[k] = reduce(-sum(q[i] * inv[k - i] for i in range(1, k + 1)) / q[0])
    ratio = [reduce(w * c) for c in inv]
    log = [sp.Integer(0)] + [sp.Rational((-1) ** (k + 1), k) for k in range(1, n)]
    ln_ratio = compose(log, [0] + ratio[1:], n)
    eps1 = ln_ratio[1:] + [sp.Integer(0)]
    d_ln = [reduce((k + 1) * ln_ratio[k + 1]) for k in range(n - 1)] + [sp.Integer(0)]
    d_eps1 = [reduce((k + 1) * eps1[k + 1]) for k in range(n - 1)] + [sp.Integer(0)]
    num = [reduce(a + b - c / 2) for a, b, c in zip(d_eps1, mul(d_ln, eps1, n), mul(eps1, eps1, n))]
    num[0] = reduce(num[0] - (1 / S - 1) / 12)
    assert num[0] == 0, num[0]
    eps2 = num[1:] + [sp.Integer(0)]
    for name, series, first, last in (("u", u_eta, 1, n - 2), ("eps1", eps1, 0, n - 4),
                                      ("eps2", eps2, 0, n - 5)):
        for k in range(first, last + 1):
            print(f"{name} eta^{k}: {series[k]}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
