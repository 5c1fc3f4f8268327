"""Seeded query sets for the benchmark workloads, with their reference checks.

Every query is a pair of callables: ``make`` builds the caller-side object
(the query class, or a ``FunctionProblem``) and ``call`` runs the public API
on it.  ``make`` runs outside the timed region, once per pass, so the timed
call never sees an object it has seen before.  Library calls go through the
``snm`` package attributes, never through names bound here, so the traced
run's rebinding of those attributes reaches every call.

Each answer is checked twice against mpmath at 40 digits, which uses none
of ``snm``'s kernels.  ``Query.within`` is the accuracy contract: the true
root lies within a relative ``REL_TOL`` of the returned root.  The true
root is never computed; since the residual is monotone, the check
evaluates it at the two ends of the tolerance interval around the returned
root and asks whether it changes sign between them, which is the decision
the last step of a 40-digit bisection makes, at the cost of two
evaluations.  ``Query.keeps_promise`` is the weaker round-trip accuracy the
library documents today, a residual of at most ``RESIDUAL_PROMISE`` in the
inverted tail; an answer that misses both is wrong beyond what the library
claims.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

import mpmath
from mpmath import mp, mpf

import snm

mp.dps = 40

REL_TOL = 1e-12
RESIDUAL_PROMISE = 1e-13
_DELTA = mpf(REL_TOL)

SOLVERS = ("gamma", "beta", "elliptic")


@dataclass(frozen=True)
class Query:
    """One benchmark query.

    ``solver`` is "gamma", "beta", "elliptic" or "solve".  Quantile queries
    carry ``residual``, an increasing mpmath function of x that is zero at
    the true root; ``solve`` queries carry the closed-form root ``exact``.
    ``control`` queries are timed for the per-solver means only (see
    ``user_solve``).
    """

    solver: str
    label: str
    make: Callable[[], object]
    call: Callable[[object], object]
    residual: Optional[Callable[[mpf], mpf]] = None
    exact: Optional[float] = None
    control: bool = False

    def within(self, root: float) -> bool:
        """Whether the true root lies within a relative REL_TOL of ``root``."""
        if self.residual is None:
            return abs(root - self.exact) <= REL_TOL * abs(self.exact)
        if not (root > 0.0 and math.isfinite(root)):
            return False
        x = mpf(root)
        return self.residual(x / (1 + _DELTA)) <= 0 <= self.residual(x / (1 - _DELTA))

    def keeps_promise(self, root: float) -> bool:
        """Whether ``root`` meets the documented round-trip residual."""
        return (self.residual is not None and root > 0.0 and math.isfinite(root)
                and abs(self.residual(mpf(root))) <= RESIDUAL_PROMISE)


def _strata(rng: random.Random, n: int) -> list[float]:
    # One uniform draw per stratum of (0, 1), in random order: a Latin
    # hypercube across the dimensions, so means and tail quantiles vary
    # less between seeds than with plain sampling.
    u = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return u


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


# Residuals in the tail the library inverts: P - p for p <= 1/2, else q - Q.

def _gamma_residual(a: float, p: float, q: float) -> Callable[[mpf], mpf]:
    a_ = mpf(a)
    if p <= 0.5:
        p_ = mpf(p)
        return lambda x: mpmath.gammainc(a_, 0, x, regularized=True) - p_
    q_ = mpf(q)
    return lambda x: q_ - mpmath.gammainc(a_, x, mpmath.inf, regularized=True)


def _beta_residual(a: float, b: float, p: float, q: float) -> Callable[[mpf], mpf]:
    a_, b_ = mpf(a), mpf(b)
    # The upper end of the tolerance interval may pass x = 1, where I_x = 1.
    if p <= 0.5:
        p_ = mpf(p)
        return lambda x: mpmath.betainc(a_, b_, 0, min(x, 1), regularized=True) - p_
    q_ = mpf(q)
    # I_x(a, b) = 1 - I_(1-x)(b, a); 1 - x is exact at 40 digits.
    return lambda x: q_ - mpmath.betainc(b_, a_, 0, max(1 - x, 0), regularized=True)


def _elliptic_residual(m: float, p: float) -> Callable[[mpf], mpf]:
    k2 = mpf(m) ** 2  # mpmath takes the parameter m^2, snm the modulus m
    complete = mpmath.ellipe(k2)
    p_ = mpf(p)
    return lambda x: mpmath.ellipe(x, k2) / complete - p_


def _gamma_query(a: float, p: float, q: float) -> Query:
    return Query("gamma", f"gamma a={a!r} p={p!r} q={q!r}",
                 lambda: snm.GammaQuantileQuery(a, p, q),
                 lambda query: snm.invert_gamma(query),
                 _gamma_residual(a, p, q))


def _beta_query(a: float, b: float, p: float, q: float) -> Query:
    return Query("beta", f"beta a={a!r} b={b!r} p={p!r} q={q!r}",
                 lambda: snm.BetaQuantileQuery(a, b, p, q),
                 lambda query: snm.invert_beta(query),
                 _beta_residual(a, b, p, q))


def _elliptic_query(m: float, p: float) -> Query:
    return Query("elliptic", f"elliptic m={m!r} p={p!r}",
                 lambda: snm.EllipticQuery(m, p),
                 lambda query: snm.invert_ellip_e(query),
                 _elliptic_residual(m, p))


SHAPE_LO, SHAPE_HI = 0.05, 200.0


def _bulk_queries(rng: random.Random, n: int) -> list[Query]:
    out: list[Query] = []
    for a, p in zip(_strata(rng, n), _strata(rng, n)):
        p = 0.001 + 0.998 * p
        out.append(_gamma_query(_log_uniform(a, SHAPE_LO, SHAPE_HI), p, 1.0 - p))
    for a, b, p in zip(_strata(rng, n), _strata(rng, n), _strata(rng, n)):
        p = 0.001 + 0.998 * p
        out.append(_beta_query(_log_uniform(a, SHAPE_LO, SHAPE_HI),
                               _log_uniform(b, SHAPE_LO, SHAPE_HI), p, 1.0 - p))
    for m, p in zip(_strata(rng, n), _strata(rng, n)):
        out.append(_elliptic_query(m, 0.001 + 0.998 * p))
    return out


def bulk(rng: random.Random, n: int) -> list[Query]:
    """Equal shares of gamma, beta and elliptic quantile queries.

    Shapes log-uniform in [0.05, 200], p uniform in [0.001, 0.999], modulus
    uniform in (0, 1).  About 4% of the elliptic queries fall in the retry
    region (m above ~0.81, p in ~[0.55, 0.77]).
    """
    return _bulk_queries(rng, n)


def _tail_pair(u_side: float, tail: float) -> tuple[float, float]:
    # Lower tail for half the queries, upper for the other half; the
    # smaller tail is the exact draw and the other is 1 - tail rounded.
    if u_side < 0.5:
        return tail, 1.0 - tail
    return 1.0 - tail, tail


def tails(rng: random.Random, n: int) -> list[Query]:
    """The bulk shapes with the smaller tail log-uniform in [1e-15, 1e-6].

    Plus elliptic queries with 1 - m log-uniform in [1e-12, 1e-2] and p
    within 1e-2 of 0 or 1.  Tails below ~1e-16 are left out only because
    the query classes refuse them.  The seed code returns wrong roots
    reported as converged on a large share of these queries.
    """
    out: list[Query] = []
    for a, t, s in zip(_strata(rng, n), _strata(rng, n), _strata(rng, n)):
        p, q = _tail_pair(s, _log_uniform(t, 1e-15, 1e-6))
        out.append(_gamma_query(_log_uniform(a, SHAPE_LO, SHAPE_HI), p, q))
    for a, b, t, s in zip(_strata(rng, n), _strata(rng, n), _strata(rng, n),
                          _strata(rng, n)):
        p, q = _tail_pair(s, _log_uniform(t, 1e-15, 1e-6))
        out.append(_beta_query(_log_uniform(a, SHAPE_LO, SHAPE_HI),
                               _log_uniform(b, SHAPE_LO, SHAPE_HI), p, q))
    for e, d, s in zip(_strata(rng, n), _strata(rng, n), _strata(rng, n)):
        m = 1.0 - _log_uniform(e, 1e-12, 1e-2)
        d = 0.01 * d
        out.append(_elliptic_query(m, d if s < 0.5 else 1.0 - d))
    return out


# Caller-built problems with closed-form derivatives and roots.  Each family
# maps three uniform draws (u, v, w) to
# (name, f, f', f'', f''', domain, root, x0); the starts keep every method,
# Newton included, inside its basin.

def _tan_family(u: float, v: float, w: float):
    # Omega = s^2: one SNM step is exact.
    s = _log_uniform(u, 0.2, 5.0)
    r = 0.5 + 1.5 * v
    half = math.pi / (2.0 * s)
    sec2 = lambda x: 1.0 + math.tan(s * (x - r)) ** 2
    return ("tan", lambda x: math.tan(s * (x - r)),
            lambda x: s * sec2(x),
            lambda x: 2.0 * s * s * math.tan(s * (x - r)) * sec2(x),
            lambda x: 2.0 * s ** 3 * sec2(x) * (1.0 + 3.0 * math.tan(s * (x - r)) ** 2),
            snm.Interval(r - half, r + half), r, r + 0.8 * half * (2.0 * w - 1.0))


def _tanh_family(u: float, v: float, w: float):
    # Omega = -s^2.
    s = _log_uniform(u, 0.2, 5.0)
    r = 0.5 + 1.5 * v
    sech2 = lambda x: 1.0 - math.tanh(s * (x - r)) ** 2
    return ("tanh", lambda x: math.tanh(s * (x - r)),
            lambda x: s * sech2(x),
            lambda x: -2.0 * s * s * math.tanh(s * (x - r)) * sech2(x),
            lambda x: 2.0 * s ** 3 * sech2(x) * (3.0 * math.tanh(s * (x - r)) ** 2 - 1.0),
            snm.Interval(-math.inf, math.inf), r, r + (2.0 * w - 1.0) / s)


def _exp_family(u: float, v: float, w: float):
    # Omega = -s^2/4.
    s = _log_uniform(u, 0.2, 5.0)
    r = 0.5 + 1.5 * v
    g = lambda x: math.exp(s * (x - r))
    return ("exp", lambda x: g(x) - 1.0, lambda x: s * g(x),
            lambda x: s * s * g(x), lambda x: s ** 3 * g(x),
            snm.Interval(-math.inf, math.inf), r, r + 2.0 * (2.0 * w - 1.0) / s)


def _cube_family(u: float, v: float, w: float):
    r = _log_uniform(v, 0.5, 5.0)
    c = r ** 3
    return ("cube", lambda x: x ** 3 - c, lambda x: 3.0 * x * x,
            lambda x: 6.0 * x, lambda x: 6.0,
            snm.Interval(0.0, math.inf), c ** (1.0 / 3.0), r * _log_uniform(w, 0.5, 2.0))


def _log_family(u: float, v: float, w: float):
    c = -2.0 + 4.0 * v
    return ("log", lambda x: math.log(x) - c, lambda x: 1.0 / x,
            lambda x: -1.0 / (x * x), lambda x: 2.0 / x ** 3,
            snm.Interval(0.0, math.inf), math.exp(c), math.exp(c) * _log_uniform(w, 0.5, 2.0))


def _sinh_family(u: float, v: float, w: float):
    c = 0.5 + 19.5 * v
    r = math.asinh(c)
    return ("sinh", lambda x: math.sinh(x) - c, math.cosh, math.sinh, math.cosh,
            snm.Interval(-math.inf, math.inf), r, r + (w - 0.5))


CONSTANT_SCHWARZIAN = (_tan_family, _tanh_family, _exp_family)
VARIABLE_SCHWARZIAN = (_cube_family, _log_family, _sinh_family)
METHODS = (snm.Method.SNM, snm.Method.HALLEY, snm.Method.NEWTON)
CONTROL_PER_SOLVER = 150


def user_solve(rng: random.Random, n: int) -> list[Query]:
    """``solve`` on caller-built ``FunctionProblem``s; no kernel runs.

    Half the problems have a constant Schwarzian (one SNM step is exact),
    half a non-constant one; methods rotate through SNM, Halley and Newton.
    The workload sends no quantile traffic, so the per-solver means come
    from a control set of CONTROL_PER_SOLVER bulk queries per solver, timed
    in the same passes and left out of every other metric.  The control
    set is the same for every seed: it is a yardstick, and a fixed one
    keeps sampling out of its spread.
    """
    families = CONSTANT_SCHWARZIAN + VARIABLE_SCHWARZIAN
    out: list[Query] = []
    draws = zip(_strata(rng, 3 * n), _strata(rng, 3 * n), _strata(rng, 3 * n))
    for i, (u, v, w) in enumerate(draws):
        family = families[(i // 3) % len(families)]
        method = METHODS[i % 3]
        name, f, fp, fpp, fppp, domain, root, x0 = family(u, v, w)
        opts = snm.SolveOptions(method=method)
        out.append(Query(
            "solve", f"solve {name} {method.value} root={root!r} x0={x0!r}",
            lambda f=f, fp=fp, fpp=fpp, fppp=fppp, domain=domain:
                snm.FunctionProblem(f, fp, fpp, fppp, domain),
            lambda problem, x0=x0, opts=opts: snm.solve(problem, x0, opts),
            exact=root))
    control = _bulk_queries(random.Random("user-solve:control"), CONTROL_PER_SOLVER)
    return out + [replace(q, control=True) for q in control]


WORKLOADS = {"bulk": bulk, "tails": tails, "user-solve": user_solve}


def generate(workload: str, seed: int, n_per_class: int) -> list[Query]:
    """The workload's queries for ``seed``, in a seeded interleaved order."""
    rng = random.Random(f"{workload}:{seed}")
    queries = WORKLOADS[workload](rng, n_per_class)
    rng.shuffle(queries)
    return queries
