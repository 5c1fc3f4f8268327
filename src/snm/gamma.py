"""Gamma-distribution quantiles by the Schwarzian-Newton iteration.

Inverts P(a, x) = p (lower tail) or Q(a, x) = q (upper tail), whichever
is the smaller, and stops once the residual is below 1e-14 times that
tail, so tail roots keep their relative accuracy.  Every query solves in
z = log x, where Omega is negative for every a > 0: strictly decreasing
for a <= 1, with a single maximum at z = log(a - 1) for a > 1.  Deep
enough in the lower tail, for every a, the start is the reverted
lower-tail series (``_series_start``); elsewhere for a >= 1 it is the
log of Temme's uniform asymptotic inversion with two correction terms
(``_temme_start``), and for a < 1 the closer of two analytic bounds of
the root, the upper one moved by an asymptotic step (``gamma_start``).
The report's ``variable`` is LOG and its ``start`` "series",
"asymptotic", "lower-bound" or "upper-bound".  ``GammaDirectProblem`` is
the paper's problem in x, which no plan uses.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional

from .core import (
    MIN_NORMAL,
    RESIDUAL_NOISE_FLOOR,
    DerivativeVanishedError,
    Interval,
    Plan,
    Problem,
    ProblemEvaluation,
    SolveOptions,
    SolveReport,
    _LOG,
    _REAL_LINE,
    _Checked,
    _tuple_new,
    check_shape,
    check_tails,
    solve,
)
from .special import (_gamma_constants, _gamma_exponent, _gamma_prefactor, _ln_gamma_1p,
                      _normal_quantile, _reg_gamma)

_POSITIVE_AXIS = Interval(0.0, math.inf, lo_open=True, hi_open=True)


class GammaQuantileQuery(_Checked, namedtuple("GammaQuantileQuery", "a p q")):
    """Shape a > 0 and both tail probabilities p, q; q = 1 - p by default."""

    __slots__ = ()

    def __new__(cls, a: float, p: float, q: Optional[float] = None) -> GammaQuantileQuery:
        check_shape("GammaQuantileQuery", a)
        return _tuple_new(cls, (a, p, check_tails(p, q)))


def gamma_b(a: float, x: float) -> float:
    """B(x) = 1 + (1 - a)/x for the gamma residual."""
    check_shape("gamma_b", a)
    if not (x > 0.0):
        raise ValueError(f"gamma_b requires x > 0, got {x}")
    return 1.0 + (1.0 - a) / x


def gamma_omega(a: float, x: float) -> float:
    """Half the Schwarzian derivative of the gamma residual in x.

    -(1/4) (1 + 2(1-a)/x + (a^2-1)/x^2); for a >= 1 this is negative on
    (0, inf) with its maximum -1/(2(1+a)) at x = a + 1.  Where x^2
    underflows (x below ~1.5e-162) it is the limit at x -> 0: +inf for
    a < 1, -inf for a > 1, -1/4 for a = 1.  Where a^2 overflows against a
    small x (a = 1e200, x = 1e-150) the direct form is inf - inf;
    regrouped, it gives the same limit.
    """
    check_shape("gamma_omega", a)
    if not (x > 0.0):
        raise ValueError(f"gamma_omega requires x > 0, got {x}")
    xx = x * x
    if xx == 0.0:
        return -0.25 if a == 1.0 else math.copysign(math.inf, 1.0 - a)
    omega = -0.25 * (1.0 + 2.0 * (1.0 - a) / x + (a * a - 1.0) / xx)
    if omega != omega:
        # inf - inf at a huge a: the same Omega, -(1/4)((1 - al/x)^2 + 2 al/x^2)
        # with al = a - 1, whose terms cannot cancel (-inf, its x -> 0 limit).
        al = a - 1.0
        t = 1.0 - al / x
        return -0.25 * (t * t + 2.0 * al / xx)
    return omega


def gamma_omega_log(a: float, z: float) -> float:
    """Half the Schwarzian derivative in the log variable z = log x.

    With x = e^z: -(1/4) (x^2 - 2(a-1)x + a^2).  Negative for all x > 0
    whenever a > 0; maximum at z = log(a-1) for a > 1, strictly
    decreasing on the whole real line for a < 1.  -inf once e^z
    overflows; a NaN z raises ValueError.
    """
    check_shape("gamma_omega_log", a)
    if math.isnan(z):
        raise ValueError("gamma_omega_log requires a number z, got nan")
    try:
        x = math.exp(z)
    except OverflowError:
        return -math.inf
    return _gamma_omega_log_x(a, x)


def _gamma_omega_log_x(a: float, x: float) -> float:
    """gamma_omega_log from x = e^z."""
    return -0.25 * (x * x - 2.0 * (a - 1.0) * x + a * a)


class _GammaProblem(Problem):
    """The residual both variables share: P - p for p <= 1/2, else q - Q.

    The residual stop is relative to the inverted tail, RESIDUAL_NOISE_FLOOR
    * min(p, q).  The problem holds ln Gamma(a) and ln Gamma(a + 1); for
    a < 1 the latter is ``ln_gamma_1p``, without rounding 1 + a, from which
    the kernel forms an upper tail's Q to relative accuracy on its series
    side (x < a + 1), and ln Gamma(a) is ln Gamma(1 + a) - ln a.  For
    a >= 1, ln Gamma(a) and ``stirling``, the constants of the kernel
    exponent's Stirling form (None below a = 16), come from one
    ``_gamma_constants`` call.  It holds the query's fields as ``a``, ``p`` and
    ``q``, read once.
    """

    def __init__(self, query: GammaQuantileQuery) -> None:
        a, p, q = query.a, query.p, query.q
        self.a, self.p, self.q = a, p, q
        if a < 1.0:
            self.ln_gamma_1p = self.ln_gamma_a1 = _ln_gamma_1p(a)
            self.ln_gamma_a, self.stirling = self.ln_gamma_1p - math.log(a), None
        else:
            self.ln_gamma_1p = None
            self.ln_gamma_a, self.stirling = _gamma_constants(a)
            self.ln_gamma_a1 = self.ln_gamma_a + math.log(a)
        self.residual_tol = RESIDUAL_NOISE_FLOOR * min(p, q)

    def _residual(self, x: float, scale: float) -> float:
        """P - p for p <= 1/2, else q - Q, from the kernel's prefactor.

        Where x is subnormal or 0 it is P - p for every p: Q's small-a form
        takes log x, and there x = e^z has lost bits that a prefactor formed
        from z keeps."""
        p = self.p
        if p <= 0.5 or x < MIN_NORMAL:
            return _reg_gamma(self.a, x, scale)[0] - p
        return self.q - _reg_gamma(self.a, x, scale, self.ln_gamma_1p)[1]


class GammaDirectProblem(_GammaProblem):
    """f(x) = P(a,x) - p (or q - Q(a,x)) on (0, inf); f' is the prefactor over x."""

    def evaluate(self, x: float) -> ProblemEvaluation:
        a = self.a
        scale, fp = _gamma_prefactor(a, x, self.ln_gamma_a, self.stirling)
        return ProblemEvaluation.build(
            x, self._residual(x, scale), fp, gamma_b(a, x), gamma_omega(a, x))

    def omega(self, x: float) -> float:
        return gamma_omega(self.a, x)

    def domain(self) -> Interval:
        return _POSITIVE_AXIS


class GammaLogProblem(_GammaProblem):
    """Same residual in z = log x; B and Omega transformed accordingly."""

    def evaluate(self, z: float) -> ProblemEvaluation:
        a = self.a
        if z > 700.0:
            # e^z overflows and the derivative e^(az - x) has long
            # underflowed; report the vanished derivative instead.
            raise DerivativeVanishedError(f"gamma log-variable derivative 0 at z={z}")
        x = math.exp(z)
        # Chain rule: B_z = x B(x) - 1 = x - a, f_z' = x f'(x) = x^a e^-x
        # / Gamma(a), the kernel's prefactor, formed from z directly so it
        # keeps its precision where x is subnormal or 0.  At a >= 16 it is
        # Stirling's shifted exponent, whose error is not ~eps a, while x is
        # normal: its log(x/a) then keeps eps accuracy, and below, from
        # z = -45 down, every such prefactor has underflowed.
        if self.stirling and x >= MIN_NORMAL:
            fp = math.exp(_gamma_exponent(a, x, self.ln_gamma_a, self.stirling))
        else:
            fp = math.exp(a * z - x - self.ln_gamma_a)
        return ProblemEvaluation.build(
            z, self._residual(x, fp), fp, x - a, _gamma_omega_log_x(a, x))

    def omega(self, z: float) -> float:
        if z > 709.0:  # e^z overflows past 709.78, x^2 long before
            return -math.inf
        return _gamma_omega_log_x(self.a, math.exp(z))

    def scale(self, z: float) -> float:
        """1: a step of dz moves x by a relative dz at most."""
        return 1.0

    def domain(self) -> Interval:
        return _REAL_LINE


def _temme_lambda(eta: float) -> tuple[float, float]:
    """(lambda, lambda - 1) with lambda - 1 - ln lambda = eta^2/2, sign(lambda - 1) = sign(eta).

    For |eta| <= 1 the series of lambda - 1 in eta (relative error 1.6e-5 at
    eta = -1, 1.2e-8 at |eta| = 0.5), then one Newton step unless
    |eta| < 0.05; further out, Newton from 1 + t + ln(1 + t) (eta > 0) or
    e^(-1 - t), t = eta^2/2, both left of the root of the convex residual.
    """
    t = 0.5 * eta * eta
    if abs(eta) <= 1.0:
        d = eta * (1.0 + eta * (1.0 / 3.0 + eta * (1.0 / 36.0 + eta * (
            -1.0 / 270.0 + eta * (1.0 / 4320.0 + eta * (
                1.0 / 17010.0 - eta * (139.0 / 5443200.0)))))))
        if abs(eta) < 0.05:
            return 1.0 + d, d
        lam, steps = 1.0 + d, 1
    else:
        lam = 1.0 + t + math.log1p(t) if eta > 0.0 else math.exp(-1.0 - t)
        steps = 16
    for _ in range(steps):
        step = (lam - 1.0 - math.log(lam) - t) * lam / (lam - 1.0)
        lam -= step
        if abs(step) <= 1e-5 * lam:  # quadratic: the error left is below 1e-10
            break
    return lam, lam - 1.0


def _temme_start(a: float, p: float, q: float, z_l: float) -> float:
    """log of Temme's uniform asymptotic inversion, never below the root's lower bound.

    x0 = a lambda(eta), eta = eta0 + eps1/a + eps2/a^2, eta0 = Phi^-1(p)/sqrt(a)
    (Temme, Math. Comp. 58, 1992; Gil, Segura & Temme, SIAM J. Sci. Comput.
    34, 2012).  With L = ln(eta/(lambda - 1)) at eta0, lambda' = eta lambda /
    (lambda - 1) and L' = 1/eta - lambda'/(lambda - 1): eps1 = L/eta,
    eps1' = (L' - eps1)/eta, eps2 = (eps1' + L' eps1 - eps1^2/2 - 1/12)/eta;
    for |eta0| < 1e-3, where those forms cancel, their series (and a fresh
    solve of lambda(eta)).  Elsewhere lambda at eta is one Newton step from
    the second-order Taylor polynomial of lambda at eta0, lambda'' =
    (lambda - eta lambda'/(lambda - 1))/(lambda - 1): one log, where a
    fresh solve takes one to four.

    P(a, x) <= x^a / Gamma(a+1) puts the root at or above
    x_l = (p Gamma(a+1))^(1/a) = e^z_l: the start is max(x0, x_l).
    """
    eta = _normal_quantile(p, q) / math.sqrt(a)
    if abs(eta) < 1e-3:
        eps1 = -1.0 / 3.0 + eta * (1.0 / 36.0 + eta * (1.0 / 1620.0 - eta * (7.0 / 6480.0)))
        eps2 = -7.0 / 405.0 + eta * (-7.0 / 2592.0 + eta * (533.0 / 204120.0))
        lam = _temme_lambda(eta + (eps1 + eps2 / a) / a)[0]
    else:
        lam, d = _temme_lambda(eta)
        ln_ratio = math.log(eta / d)
        d_ln_ratio = 1.0 / eta - eta * lam / (d * d)
        eps1 = ln_ratio / eta
        d_eps1 = (d_ln_ratio - eps1) / eta
        eps2 = (d_eps1 + d_ln_ratio * eps1 - 0.5 * eps1 * eps1 - 1.0 / 12.0) / eta
        step = (eps1 + eps2 / a) / a
        t = 0.5 * (eta + step) ** 2
        d_lam = eta * lam / d
        lam += step * (d_lam + 0.5 * step * (lam - eta * d_lam / d) / d)
        lam -= (lam - 1.0 - math.log(lam) - t) * lam / (lam - 1.0)
    return max(math.log(a * lam), z_l)


# The series start serves the queries whose x_l/(a + 1) is at most this.
SERIES_REACH = 0.06


def _series_start(a: float, z_l: float, u: float) -> float:
    """log of the reverted lower-tail series, from u = x_l/(a + 1), x_l = e^z_l.

    P(a, x) = x^a S(x) / Gamma(a+1), S(x) = sum_k a (-x)^k / (k! (a+k)),
    so x_l^a = p Gamma(a+1) = x^a S(x); reverted, x = x_l (1 + c1 x_l +
    c2 x_l^2 + c3 x_l^3 + c4 x_l^4 + ...) with c_k = c_k' / (a + 1)^k and
    c1' = 1, c2' = (3a + 5)/(2(a + 2)), c3' = (8a^2 + 33a + 31)/(3(a + 2)(a + 3)),
    c4' = (125a^4 + 1179a^3 + 3971a^2 + 5661a + 2888)/(24(a + 2)^2(a + 3)(a + 4))
    (DiDonato & Morris, ACM TOMS 12, 1986; Gil, Segura & Temme, SIAM J.
    Sci. Comput. 34, 2012).  For u <= ``SERIES_REACH`` the omitted terms
    are below 1e-5 of x (c5 (a + 1)^5 rises from 3.8 at a = 0 to 10.8 as
    a grows).
    """
    a2 = a + 2.0
    a3 = a + 3.0
    c2 = (3.0 * a + 5.0) / (2.0 * a2)
    c3 = (8.0 * a + 33.0) * a + 31.0
    c4 = (((125.0 * a + 1179.0) * a + 3971.0) * a + 5661.0) * a + 2888.0
    c3 /= 3.0 * a2 * a3
    c4 /= 24.0 * a2 * a2 * a3 * (a + 4.0)
    return z_l + math.log1p(u * (1.0 + u * (c2 + u * (c3 + u * c4))))


def _upper_bound(a: float, ln_q: float, ln_gamma_a: float) -> tuple[float, float]:
    """The upper bound of the root for a < 1 from the tail bound on Q, and a closer start.

    Q(a, x) <= x^(a-1) e^-x / Gamma(a) puts the root at or below the x_u
    that solves (a - 1) ln x - x = ln q + ln Gamma(a), one x for every q.
    In s = ln x that is H(s) = e^s + (1 - a) s - t = 0 with t = -(ln q +
    ln Gamma(a)); H is increasing and convex, and H >= 0 at
    s0 = ln max(t, 1), so Newton steps from s0 fall monotonically toward
    ln x_u: every iterate is itself an upper bound.  Four steps.  (The
    fixed-point form x <- t + (a - 1) ln x contracts only where
    (1 - a)/x < 1; short of that, four of its steps can land far above
    x_u, and ``gamma_start`` would then take this bound for a close one.)

    Returns (x_u, s): s is ln x_u moved by one more Newton step, with H's
    derivative, on H(s) = log1p(u), u = (a-1)/x (1 + (a-2)/x (1 + (a-3)/x)):
    the asymptotic series Q = x^(a-1) e^-x (1 + u + ...) / Gamma(a) (DLMF
    8.11.2) to three terms, where |u| < 1/2; else s = ln x_u.
    """
    t = -(ln_q + ln_gamma_a)
    c = 1.0 - a
    s = math.log(t) if t > 1.0 else 0.0
    for _ in range(4):
        x = math.exp(s)
        s -= (x + c * s - t) / (x + c)
    x = math.exp(s)
    u = (a - 1.0) / x * (1.0 + (a - 2.0) / x * (1.0 + (a - 3.0) / x))
    if abs(u) < 0.5:
        return x, s - (x + c * s - math.log1p(u) - t) / (x + c)
    return x, s


def gamma_start(query: GammaQuantileQuery) -> Plan:
    """Standard plan: every query solves in z = log x (``Variable.LOG``).

    P(a, x) <= x^a / Gamma(a+1) puts the root at or above
    x_l = (p Gamma(a+1))^(1/a).  Where x_l <= ``SERIES_REACH`` (a + 1), for
    every a, the start is the reverted lower-tail series of
    ``_series_start`` (``start="series"``), within 1e-5 of the root.

    Elsewhere, for a >= 1 the start is the log of ``_temme_start``: Temme's
    asymptotic inversion with two corrections (``start="asymptotic"``).
    On the benchmark query sets, both tails, its relative error has median
    5e-8 (at most 2e-5) for a >= 10 and 3e-5 for 3 <= a < 10, so those
    solves mostly end after one evaluation; near a = 1 it is about 1e-3.

    For a < 1 it is the closer of the root's two analytic bounds (the
    closer-bound rule):

    - the lower bound x_l, whose leading-term relative error is about x
      (``start="lower-bound"``);
    - the upper bound x_u of ``_upper_bound``, from
      Q(a, x) <= x^(a-1) e^-x / Gamma(a), whose leading-term relative
      error is about (1 - a)/x (``start="upper-bound"``).

    It takes the upper side iff (1 - a)/x_u < x_l, and then starts at
    ``_upper_bound``'s asymptotic step from ln x_u.  In z, Omega is
    negative and strictly decreasing for a < 1, so the paper's convergence
    theorem gives monotonically increasing iterates from any start left of
    the root: the lower bound always qualifies.  A start right of the root
    has no such guarantee (its first step can overshoot far to the left),
    so the upper side is taken only where the bound is the tighter one,
    deep in the upper tail; used for every q < p it ends many central
    queries at ``MaxIter``.  The problem holds ln Gamma(a) and
    ln Gamma(a+1) (for a < 1 without rounding a + 1).
    """
    problem = GammaLogProblem(query)
    a, p, q = problem.a, problem.p, problem.q
    z0 = (math.log(p) + problem.ln_gamma_a1) / a
    x_l = math.exp(z0)
    u = x_l / (a + 1.0)
    if u <= SERIES_REACH:
        return _tuple_new(Plan, (problem, _series_start(a, z0, u), _LOG, "series"))
    if a >= 1.0:
        return _tuple_new(Plan, (problem, _temme_start(a, p, q, z0), _LOG, "asymptotic"))
    ln_q = math.log(q)
    # x_u <= max(t, 1), the first Newton point, so the rule can only pick
    # the upper bound when (1 - a)/max(t, 1) < x_l.
    if (1.0 - a) / max(-(ln_q + problem.ln_gamma_a), 1.0) < x_l:
        x_u, s = _upper_bound(a, ln_q, problem.ln_gamma_a)
        if (1.0 - a) / x_u < x_l:
            return _tuple_new(Plan, (problem, s, _LOG, "upper-bound"))
    return _tuple_new(Plan, (problem, z0, _LOG, "lower-bound"))


def invert_gamma(query: GammaQuantileQuery,
                 opts: Optional[SolveOptions] = None) -> SolveReport:
    """Solve P(a, x) = p for x: one solve from the ``gamma_start`` plan.

    Roots found in the log variable are mapped back with x = e^z before
    reporting; the trace stays in the solver variable.  A root e^z below
    the smallest normal double is reported with ``root_underflow``.
    """
    plan = gamma_start(query)
    return solve(plan.problem, plan.x0, opts, plan)
