"""Beta-distribution quantiles by the Schwarzian-Newton iteration.

Inverts I_x(a, b) = p in the smaller tail: the residual is I - p for
p <= 1/2 and q - (1 - I) otherwise, from a kernel that returns both
values, each tail to relative accuracy where its fraction runs, and the
stop is relative to that tail, as gamma's is.  Each tail is solved in
place; no query is mirrored through I_x(a, b) = 1 - I_(1-x)(b, a).

Every query solves in the logit variable z = log(x/(1-x)), where Omega
is negative for all shapes.  Two power bounds locate the root: x_p
solves x^a / (a B) = p, a lower bound for b >= 1, and x_q solves
(1-x)^b / (b B) = q, an upper bound for a >= 1.  Where the smaller
tail's bound (x_p for p <= 1/2, else 1 - x_q) is within the reach of the
reverted lower-tail series (``_series_start``), for any shapes, that
series is the start.  Past its reach, for a, b > 1 the start is Temme's
uniform asymptotic inversion with two corrections, formed in z and
clamped between the bounds.  Otherwise it lies on the side of the root
that the paper's convergence theorem names for Omega's monotonicity:
below it for a <= 1 <= b (Omega decreasing), above it for a >= 1 >= b
(Omega increasing), from the closer bound.  For a, b < 1 the bounds swap
sides, x_q <= root <= x_p, and the start is 1/2 clamped into them.  The
report's ``variable`` is LOGIT and its ``start`` "series", "asymptotic",
"lower-bound", "upper-bound" or "bracket".  ``BetaDirectProblem`` is the
paper's problem in x, which no plan uses.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional

from .core import (
    MIN_NORMAL,
    RESIDUAL_NOISE_FLOOR,
    Interval,
    Plan,
    Problem,
    ProblemEvaluation,
    SolveOptions,
    SolveReport,
    _LOGIT,
    _REAL_LINE,
    _Checked,
    _logit,
    _sigmoid,
    _tuple_new,
    check_shape,
    check_tails,
    solve,
)
from .special import _beta_constants, _beta_exponent, _normal_quantile, _reg_beta, bisect_root

_UNIT_INTERVAL = Interval(0.0, 1.0, lo_open=True, hi_open=True)
# log of the largest double below 1.
_LOG_X_MAX = math.log1p(-2.0 ** -53)
_LOG_HALF = math.log(0.5)


class BetaQuantileQuery(_Checked, namedtuple("BetaQuantileQuery", "a b p q")):
    """Shapes a, b > 0 and both tail probabilities p, q; q = 1 - p by default."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, p: float,
                q: Optional[float] = None) -> BetaQuantileQuery:
        check_shape("BetaQuantileQuery", a)
        check_shape("BetaQuantileQuery", b)
        return _tuple_new(cls, (a, b, p, check_tails(p, q)))


def beta_b(a: float, b: float, x: float) -> float:
    """B(x) = -(a-1)/x + (b-1)/(1-x) for the beta residual."""
    check_shape("beta_b", a)
    check_shape("beta_b", b)
    if not 0.0 < x < 1.0:
        raise ValueError(f"beta_b requires x in (0, 1), got {x}")
    return -(a - 1.0) / x + (b - 1.0) / (1.0 - x)


def beta_omega(a: float, b: float, x: float) -> float:
    """Half the Schwarzian derivative of the beta residual in x.

    (a-1)(b-1)/(2x(1-x)) - (a^2-1)/(4x^2) - (b^2-1)/(4(1-x)^2); negative
    on all of (0, 1) when a > 1 and b > 1.  Where x^2 underflows (x below
    ~1.5e-162) it is the limit at x -> 0: +inf for a < 1, -inf for a > 1,
    -(b^2-1)/4 for a = 1.  Where a shape's square overflows (a = 1e200,
    x = 1e-150) the direct form is inf - inf; regrouped, it gives the same
    limit at a small x and the finite value elsewhere.
    """
    check_shape("beta_omega", a)
    check_shape("beta_omega", b)
    if not 0.0 < x < 1.0:
        raise ValueError(f"beta_omega requires x in (0, 1), got {x}")
    y = 1.0 - x
    xx = x * x
    if xx == 0.0:  # then y == 1
        return -0.25 * (b * b - 1.0) if a == 1.0 else math.copysign(math.inf, 1.0 - a)
    omega = ((a - 1.0) * (b - 1.0) / (2.0 * x * y)
             - 0.25 * (a * a - 1.0) / xx
             - 0.25 * (b * b - 1.0) / (y * y))
    if omega != omega:
        # inf - inf at a huge shape: the same Omega regrouped,
        # -(1/4)((al/x - be/y)^2 + 2 al/x^2 + 2 be/y^2) with al = a - 1 and
        # be = b - 1, whose terms do not cancel (at a small x, its limit).
        al, be = a - 1.0, b - 1.0
        t = al / x - be / y
        return -0.25 * (t * t + 2.0 * al / xx + 2.0 * be / (y * y))
    return omega


def beta_xm_coefficients(a: float, b: float) -> tuple[float, float, float, float]:
    """Cubic coefficients (G, H, I, J) whose (0,1)-root locates max Omega."""
    al = a - 1.0
    be = b - 1.0
    g = (al + be) * (al + be + 2.0)
    h = -3.0 * (al * al + al * be + 2.0 * al)
    i = 3.0 * al * al + al * be + 6.0 * al
    j = -al * (al + 2.0)
    return g, h, i, j


def beta_xm(a: float, b: float) -> float:
    """Abscissa of the maximum of Omega on (0, 1), for a > 1, b > 1.

    The cubic G x^3 + H x^2 + I x + J has exactly one real root, bracketed
    by Q(0) = -(a-1)(a+1) < 0 < Q(1) = (b-1)(b+1); solved by bisection to
    adjacent doubles rather than by the closed-form cubic formulas.
    """
    check_shape("beta_xm", a)
    check_shape("beta_xm", b)
    if not (a > 1.0 and b > 1.0):
        raise ValueError(f"beta_xm requires a > 1 and b > 1, got a={a}, b={b}")
    g, h, i, j = beta_xm_coefficients(a, b)
    return bisect_root(lambda x: ((g * x + h) * x + i) * x + j, 0.0, 1.0)


def beta_omega_logit(a: float, b: float, z: float) -> float:
    """Half the Schwarzian derivative in the logit variable.

    With x = 1/(1 + e^-z), y = 1 - x and u = b x - a y:
    -(u^2 + 2 (a+b) x y) / 4.  Always negative; tends to -a^2/4 as
    z -> -inf and to -b^2/4 as z -> +inf.  A NaN z raises ValueError.
    """
    check_shape("beta_omega_logit", a)
    check_shape("beta_omega_logit", b)
    if math.isnan(z):
        raise ValueError("beta_omega_logit requires a number z, got nan")
    return _beta_omega_logit_x(a, b, _sigmoid(z), _sigmoid(-z))


def _beta_omega_logit_x(a: float, b: float, x: float, y: float) -> float:
    """beta_omega_logit from x = 1/(1 + e^-z) and y = 1/(1 + e^z).

    Symmetric in (a, x) <-> (b, y), and finite for any shapes near the
    root, where b x - a y stays small even when a + b is huge.
    """
    u = b * x - a * y
    return -0.25 * (u * u + 2.0 * (a + b) * x * y)


class _BetaProblem(Problem):
    """The residual both variables share: I - p for p <= 1/2, else q - J.

    The kernel returns the pair (I, J), J = 1 - I, with the tail on its
    fraction's side of the switch (a+1)/(a+b+2) to relative accuracy, so
    either tail can be inverted.  The stop is relative to the inverted
    tail, RESIDUAL_NOISE_FLOOR * min(p, q), as gamma's is.  A residual
    within RESIDUAL_NOISE_FLOOR of the tail the fraction computed at this
    x (I below the switch, J above it) counts as 0: where the inverted
    tail is 1 minus that one, its rounding noise is that large.  ``ln_b``
    is ln B(a, b), and ``stirling`` for a, b >= 16 the constants of the
    kernel exponent's Stirling form, both from one ``_beta_constants``
    call.  It holds the query's fields as ``a``, ``b``, ``p`` and ``q``,
    read once.
    """

    def __init__(self, query: BetaQuantileQuery) -> None:
        a, b, p, q = query.a, query.b, query.p, query.q
        self.a, self.b, self.p, self.q = a, b, p, q
        self.ln_b, self.stirling = _beta_constants(a, b)
        self.switch = (a + 1.0) / (a + b + 2.0)
        self.residual_tol = RESIDUAL_NOISE_FLOOR * min(p, q)

    def _residual(self, x: float, i: float, j: float) -> float:
        p = self.p
        f = i - p if p <= 0.5 else self.q - j
        if abs(f) <= RESIDUAL_NOISE_FLOOR * (i if x < self.switch else j):
            return 0.0
        return f


class BetaDirectProblem(_BetaProblem):
    """f(x) = I_x(a,b) - p (or q - (1 - I_x(a,b))) on (0, 1); f' is the
    kernel's prefactor over x (1 - x), with Stirling's terms for a, b >= 16."""

    def evaluate(self, x: float) -> ProblemEvaluation:
        a, b = self.a, self.b
        y = 1.0 - x
        scale = math.exp(_beta_exponent(a, b, x, y, self.ln_b, self.stirling))
        i, j = _reg_beta(x, y, a, b, scale)
        return ProblemEvaluation.build(x, self._residual(x, i, j), scale / (x * y),
                                       beta_b(a, b, x), beta_omega(a, b, x))

    def omega(self, x: float) -> float:
        return beta_omega(self.a, self.b, x)

    def scale(self, x: float) -> float:
        """The distance to the nearer end of (0, 1): x or 1 - x."""
        return min(x, 1.0 - x)

    def domain(self) -> Interval:
        return _UNIT_INTERVAL


class BetaLogitProblem(_BetaProblem):
    """Same residual in z = log(x/(1-x)); B and Omega transformed.

    x = sigma(z) and y = 1 - x = sigma(-z) both come from one exp(-|z|),
    so neither tail is formed by subtraction; f' is the kernel's prefactor,
    from z, or for a, b >= 16 from Stirling's shifted exponent, whose error
    is not ~eps (a + b), wherever x and y are both normal, the rule of
    ``GammaLogProblem``.  Every z runs the kernel: where (a + b) e^-|z| is
    below eps it returns the leading power term e^(az) / (a B(a, b)), or
    its mirror e^(-bz) / (b B(a, b)), and B_z and Omega tend to -a and
    -a^2/4 (b and -b^2/4), even where x or y is subnormal or 0.
    """

    def evaluate(self, z: float) -> ProblemEvaluation:
        a, b, ln_b = self.a, self.b, self.ln_b
        # Chain rule with dx/dz = x y: f_z' = x^a y^b / B(a,b), B_z = b x - a y;
        # t = e^-|z|: log x = -log1p(t) + min(z, 0), log y = -log1p(t) - max(z, 0).
        t = math.exp(-abs(z))
        d = 1.0 + t
        x, y = (1.0 / d, t / d) if z >= 0.0 else (t / d, 1.0 / d)
        # f_z' is the kernel's prefactor x^a y^b / B, and formed from z it
        # keeps its precision where x or y is subnormal or 0.
        if self.stirling and min(x, y) >= MIN_NORMAL:
            fp = math.exp(_beta_exponent(a, b, x, y, ln_b, self.stirling))
        else:
            fp = math.exp((a * z if z < 0.0 else -b * z) - (a + b) * math.log1p(t) - ln_b)
        i, j = _reg_beta(x, y, a, b, fp)
        return ProblemEvaluation.build(
            z, self._residual(x, i, j), fp, b * x - a * y, _beta_omega_logit_x(a, b, x, y))

    def omega(self, z: float) -> float:
        # x and y as ``evaluate`` forms them, so the Omegas agree bit for bit.
        t = math.exp(-abs(z))
        d = 1.0 + t
        x, y = (1.0 / d, t / d) if z >= 0.0 else (t / d, 1.0 / d)
        return _beta_omega_logit_x(self.a, self.b, x, y)

    def scale(self, z: float) -> float:
        """1: a step of dz moves x and 1 - x by a relative dz at most."""
        return 1.0

    def domain(self) -> Interval:
        return _REAL_LINE


def _logit_of(log_x: float) -> float:
    """logit x of x = e^log_x in (0, 1), never forming 1 - x by subtraction.

    Below 1/2 it is ``_logit`` of the rounded x (log x where x underflows),
    the arithmetic a subnormal-band start has always had; above, minus
    the logit of 1 - x = -expm1(log x), also below 2^-53.  log x >= 0 (a
    bound from a rounded tail) gives the largest double below 1.
    """
    if log_x < _LOG_HALF:
        x = math.exp(log_x)
        return _logit(x) if x else log_x
    return -_logit(-math.expm1(log_x if log_x < 0.0 else _LOG_X_MAX))


# The series start serves the queries whose power bound w is at most 1/2
# and whose |t1 w|, the series' first correction, is at most this.
SERIES_REACH = 0.1


def _series_start(a: float, b: float, log_w: float) -> Optional[float]:
    """logit of the reverted lower-tail series from the power bound w = e^log_w, or None.

    I_x = x^a S(x) / (a B), S = 2F1(a, 1-b; a+1; x), so the bound's
    w^a = p a B is x^a S(x): w = x S(x)^(1/a).  With S^(1/a) = 1 + t1 x +
    t2 x^2 + t3 x^3 and t1 = (1-b)/(a+1), the reverted series is x = w (1 -
    t1 w + (2 t1^2 - t2) w^2 + (5 t1 t2 - 5 t1^3 - t3) w^3) (the lower-tail
    start of Gil, Segura & Temme, Numer. Algorithms 74, 2017).  In u = t1 w,
    with i2 = 1/(a+2) and i3 = 1/(a+3), t2 and t3 expanded, that is
    x = w (1 + u (-1 + k2 u - m2 w - k3 u^2 + m3 u w - n3 w^2)), k2 = 3/2 -
    i2/2, m2 = (1 - i2)/2, k3 = 8/3 - i2 - 4 i3/3, m3 = 2 - i2 - 2 i3 and
    n3 = (1 - 2 i3)/3: bounded for every shape, so nothing overflows.  As
    b grows with b w fixed, it tends to gamma's ``_series_start``.  It is
    formed in log x, and logit x = log x - log1p(-x) needs no second exp.

    None past the reach: w > 1/2 or |u| > ``SERIES_REACH``.  For
    |u| <= 1e-9 the first correction alone, x = w (1 - u), is as good a
    start.
    """
    if log_w > _LOG_HALF:
        return None
    w = math.exp(log_w)
    u = (1.0 - b) / (a + 1.0) * w
    if not abs(u) > 1e-9:
        return log_w - u - math.log1p(-w)
    if abs(u) > SERIES_REACH:
        return None
    i2 = 1.0 / (a + 2.0)
    i3 = 1.0 / (a + 3.0)
    c = u * (-1.0 + u * (1.5 - 0.5 * i2 - u * (8.0 / 3.0 - i2 - 4.0 / 3.0 * i3))
             - w * (0.5 - 0.5 * i2 - u * (2.0 - i2 - 2.0 * i3) + w * (1.0 - 2.0 * i3) / 3.0))
    return log_w + math.log1p(c) - math.log1p(-w * (1.0 + c))


def _asymptotic_start(a: float, b: float, p: float, q: float,
                      log_x_p: float, log_y_q: float) -> float:
    """Temme's uniform asymptotic quantile for a, b > 1 in z, clamped between the power bounds.

    With r = a + b, x0 = a/r, y0 = b/r and s = x0 y0, the root's eta solves
    x0 ln(x/x0) + y0 ln(y/y0) = -eta^2/2, sign(eta) = sign(x - x0); in
    u = z - ln(a/b) that is phi(u) = x0 u - ln(1 + x0 (e^u - 1)) =
    -eta^2/2, whose slope is x0 - x.  Temme (J. Comput. Appl. Math. 41,
    1992; Gil, Segura & Temme, Numer. Algorithms 74, 2017) gives eta =
    eta0 + eps1/r + eps2/r^2, eta0 = Phi^-1(p)/sqrt(r): with
    L = ln(sqrt(s) eta/(x - x0)), L' = 1/eta - eta x y/(x - x0)^2,
    eps1 = L/eta, eps1' = (L' - eps1)/eta and eps2 = (eps1' + L' eps1 -
    eps1^2/2 - (1/s - 1)/12)/eta.  The start is u at eta0 moved to that eta
    by the second-order Taylor step of du/deta = eta/(x - x0); on the bench
    query sets it ends more solves at one evaluation than u solved at eta
    itself.

    In zeta = eta/sqrt(s) every series below has coefficients of order 1
    and radius at least sqrt(4 pi) (u is singular where e^u = 1, u != 0):
    u = zeta - d zeta^2/6 + (1 - s) zeta^3/36 - (2 + s) d zeta^4/540 +
    (1 - s)^2 zeta^5/4320, d = y0 - x0, within 2e-2 relative for
    |zeta| <= 3.  There it places the point on the curve at which eps1 and
    eps2 are taken, its own eta from phi (eta0 itself for |zeta| <= 0.1,
    where the series is within 1e-9 and phi would cancel); further out,
    which is above the mean (every zeta0 < -3 starts on ``_series_start``,
    whose |t1 x_p| is at most 0.026 there), Newton on phi to 1e-2 from
    gamma's start for its limit x0 e^u << 1, e^u - 1 - u = eta0^2/(2 x0).
    eps1 is moved from that eta to eta0 by eps1'.  For
    |zeta0| < 1e-2, where L' and eps2 cancel, eps1 and eps2 are their
    series (``tools/temme_beta_series.py`` derives them; each tends to
    gamma's as s -> 0), and u and its derivatives the series' at zeta0.  The shapes
    are taken with a <= b (the mirror, z -> -z, for a > b), so that
    x0 <= 1/2 and phi's two terms cancel at most to ~eps/|u| relative.

    The start lies between the power bounds of ``beta_plan``, x_p <= x <=
    x_q, compared in logs; it is replaced by the bound it passes.  Formed
    in z, it keeps 1 - x where x rounds to 1.
    """
    if a > b:
        return -_asymptotic_start(b, a, q, p, log_y_q, log_x_p)
    r = a + b
    x0 = a / r
    y0 = b / r
    s = x0 * y0
    w = math.sqrt(s)
    dl = y0 - x0
    eta0 = _normal_quantile(p, q) / math.sqrt(r)
    zeta = eta0 / w
    if -1e-2 < zeta < 1e-2:
        eps1 = (-dl / 3.0 + zeta * ((1.0 + 5.0 * s) / 36.0 + zeta * (
            dl * (1.0 + 23.0 * s) / 1620.0 - zeta * (7.0 - 2.0 * s + 31.0 * s * s) / 6480.0)))
        eps2 = (-dl * (7.0 + 26.0 * s) / 405.0 + zeta * (
            -(1.0 + 5.0 * s) * (7.0 - 37.0 * s) / 2592.0
            + zeta * dl * (533.0 + 290.0 * s + 2705.0 * s * s) / 204120.0)) / s
        step = (eps1 + eps2 / r) / (r * s)  # in zeta
        c2 = (1.0 - s) * zeta
        c3 = (2.0 + s) * dl * zeta * zeta
        u = zeta * (1.0 + zeta * (-dl / 6.0 + c2 / 36.0 - c3 / 540.0))
        du = 1.0 + zeta * (-dl / 3.0 + c2 / 12.0 - c3 / 135.0)
        u += step * (du + 0.5 * step * (-dl / 3.0 + c2 / 6.0 - c3 / 45.0))
    else:
        if -3.0 <= zeta <= 3.0:
            u = zeta * (1.0 + zeta * (-dl / 6.0 + zeta * ((1.0 - s) / 36.0 + zeta * (
                -(2.0 + s) * dl / 540.0 + zeta * (1.0 - s) * (1.0 - s) / 4320.0))))
            em = math.expm1(u)
            if -0.1 <= zeta <= 0.1:
                eta = eta0
            else:
                eta = math.copysign(math.sqrt(2.0 * (math.log1p(x0 * em) - x0 * u)), u)
        else:
            # zeta > 3: below -3 the lower series reaches every root.  Gamma's
            # start for e^u - 1 - u = t/x0, the limit x0 e^u << 1.
            t = 0.5 * eta0 * eta0
            u = math.log1p(t / x0 + math.log1p(t / x0))
            for _ in range(40):  # phi is concave: monotone from the far side
                em = math.expm1(u)
                lg = math.log1p(x0 * em)
                step = (x0 * u - lg + t) * (1.0 + x0 * em) / (s * em)
                if abs(step) <= 1e-2 * abs(u):
                    break
                u += step
            eta = math.copysign(math.sqrt(2.0 * (lg - x0 * u)), u)
        g = 1.0 + x0 * em
        d = s * em / g  # x - x0
        xy = s * (1.0 + em) / (g * g)
        du = eta / d
        d_ln = 1.0 / eta - xy * du / d
        eps1 = math.log(w * du) / eta
        d_eps1 = (d_ln - eps1) / eta
        eps2 = (d_eps1 + d_ln * eps1 - 0.5 * eps1 * eps1 - (1.0 / s - 1.0) / 12.0) / eta
        step = eta0 - eta
        step += (eps1 + d_eps1 * step + eps2 / r) / r
        u += step * (du + 0.5 * step * (1.0 - xy * du * du) / d)
    z = math.log(a / b) + u
    # log x and log y = log(1 - x) at z from one exp(-|z|).
    l = math.log1p(math.exp(-abs(z)))
    log_x, log_y = (z - l, -l) if z < 0.0 else (-l, -z - l)
    if log_x < log_x_p:
        return _logit_of(log_x_p)
    if log_y < log_y_q:
        return -_logit_of(log_y_q)
    return z


def beta_plan(query: BetaQuantileQuery) -> Plan:
    """Choose the start of a query's solve in the logit variable z.

    Two power bounds locate the root: x_p solves x^a / (a B) = p and x_q
    solves (1 - x)^b / (b B) = q.  I_x <= x^a / (a B) for b >= 1, so x_p
    lies below the root iff b >= 1; 1 - I_x <= (1 - x)^b / (b B) for
    a >= 1, so x_q lies above it iff a >= 1.

    - Where the smaller tail's bound w is within ``SERIES_REACH`` (w <= 1/2
      and |(1 - b) w / (a + 1)| <= 0.1, x_p with the shapes (a, b) for
      p <= 1/2, else y_q = 1 - x_q with (b, a)), every class starts at the
      reverted series of ``_series_start`` (``start="series"``).  On the
      bench query sets its error in z has median 3e-8 or less for
      |t1 w| < 0.01 and ~2e-3 at the edge of the reach, so most solves end
      after one evaluation.  Past the reach the rules below apply.
    - a, b > 1 start at ``_asymptotic_start``, Temme's inversion clamped
      into [x_p, x_q] (``start="asymptotic"``).  On the bench query sets
      it ends about four solves in five after one evaluation on ``bulk``
      (1.23-1.24 evaluations per query) and nearly all on ``tails``
      (1.00-1.03); the misses have a shape near 1, where the expansion in
      1/(a + b) is weakest.
    - Otherwise the paper's convergence theorem takes a start on the side
      of the root that Omega's monotonicity names: for a <= 1 <= b Omega
      decreases in z, both bounds lie below the root and the start is the
      larger (``"lower-bound"``); for a >= 1 >= b Omega increases, both lie
      above it and the start is the smaller (``"upper-bound"``).
    - Both shapes < 1: (1 - t)^(b-1) >= 1 and t^(a-1) >= 1 reverse both
      bounds, x_q <= root <= x_p, and the start is 1/2 clamped into that
      bracket (``"bracket"``), which needs no kernel evaluation.

    The problem holds ln B(a, b); y_q is formed only where x_p does not
    start the series.
    """
    problem = BetaLogitProblem(query)
    a, b, p, q = problem.a, problem.b, problem.p, problem.q
    ln_b = problem.ln_b
    log_x_p = (math.log(p) + math.log(a) + ln_b) / a
    if p <= 0.5:
        z = _series_start(a, b, log_x_p)
        if z is not None:
            return _tuple_new(Plan, (problem, z, _LOGIT, "series"))
    log_y_q = (math.log(q) + math.log(b) + ln_b) / b
    if p > 0.5:
        z = _series_start(b, a, log_y_q)
        if z is not None:
            return _tuple_new(Plan, (problem, -z, _LOGIT, "series"))
    if a > 1.0 and b > 1.0:
        return _tuple_new(Plan, (problem, _asymptotic_start(a, b, p, q, log_x_p, log_y_q),
                                 _LOGIT, "asymptotic"))
    # A tail above 1/2 may stand for one closer to 1 (1 - 1e-300 is at best
    # 1 - 2^-53), which moves its bound up: x_p down, x_q up in x.  That is
    # safe for x_p as a lower or x_q as an upper bound, so the other kind is
    # taken only from a tail of at most 1/2.
    if a <= 1.0 <= b:
        z_q = -_logit_of(log_y_q) if q <= 0.5 and log_y_q < 0.0 else -math.inf
        return _tuple_new(Plan, (problem, max(_logit_of(log_x_p), z_q), _LOGIT, "lower-bound"))
    if b <= 1.0 <= a:
        z_p = _logit_of(log_x_p) if p <= 0.5 and log_x_p < 0.0 else math.inf
        return _tuple_new(Plan, (problem, min(z_p, -_logit_of(log_y_q)), _LOGIT, "upper-bound"))
    # Both shapes < 1: x_q <= root <= x_p; the start is 1/2 clamped into them.
    z_q = -_logit_of(log_y_q) if log_y_q < 0.0 else -math.inf
    return _tuple_new(Plan, (problem, max(z_q, _logit_of(min(log_x_p, _LOG_HALF))), _LOGIT,
                             "bracket"))


def invert_beta(query: BetaQuantileQuery,
                opts: Optional[SolveOptions] = None) -> SolveReport:
    """Solve I_x(a, b) = p for x in (0, 1): one solve from the ``beta_plan``.

    The report records the plan's variable and start.  A root below the
    smallest normal double (tiny shapes) is reported with
    ``root_underflow`` set; a root of 1.0 means 1 - x < 2^-54.
    """
    plan = beta_plan(query)
    return solve(plan.problem, plan.x0, opts, plan)
