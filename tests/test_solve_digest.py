"""A sha256 pin of the whole solve layer over a seeded grid of queries.

Every ``invert_*`` result on the grid is reduced to its root's float.hex,
iteration and evaluation counts, stop reason, plan fields (variable,
start, root_underflow), predicted error bound and every trace record, and
the lot is hashed.  A refactor of the input checks, the plans or the kernels that is
meant to keep the bits must keep the digest; a one-ulp change to any
start, step or kernel value moves it.  Like ``test_golden.py`` it assumes
the platform libm's ``exp``/``log`` bits.

The grid is seeded and mixes log-uniform shapes with tail probabilities,
plus fixed points for the branches a random draw rarely reaches;
``test_every_plan_branch_is_reached`` checks that the grid reaches every
plan branch, so a change of plan rules cannot leave one unpinned.
"""

import hashlib
import math
import random

from snm import (
    BetaQuantileQuery,
    EllipticQuery,
    GammaQuantileQuery,
    Variable,
    beta_plan,
    invert_beta,
    invert_ellip_e,
    invert_gamma,
)

from conftest import DEEP_TAIL_Z, log_uniform

# CHANGES.md records each re-recording.
DIGEST = "74f80c8ad9b323c915cc1ac1063aac613092ba638465b37ef17e0e2d2bac3a01"


def _probability(rng):
    # Central and tail probabilities on either side.
    p = rng.choice((rng.uniform(0.001, 0.999), log_uniform(rng, 1e-15, 1e-3)))
    return p if rng.random() < 0.5 else 1.0 - p


def _queries():
    rng = random.Random("solve-digest")
    out = []
    for _ in range(150):
        out.append(GammaQuantileQuery(log_uniform(rng, 0.01, 300.0), _probability(rng)))
        out.append(BetaQuantileQuery(log_uniform(rng, 0.05, 200.0),
                                     log_uniform(rng, 0.05, 200.0), _probability(rng)))
        out.append(EllipticQuery(rng.uniform(0.0, 1.0), rng.uniform(0.001, 0.999)))
    out += [
        GammaQuantileQuery(0.05, 1e-15),   # log start below DEEP_TAIL_Z
        GammaQuantileQuery(1e-3, 0.3),     # root below the smallest double
        BetaQuantileQuery(1e-4, 1e-4, 0.3),   # logit start below DEEP_TAIL_Z, root 0
        BetaQuantileQuery(0.5, 1e-3, 0.9),    # its mirror, above -DEEP_TAIL_Z, root 1
        BetaQuantileQuery(0.3, 0.7, 0.9),     # both shapes <= 1, upper side
        BetaQuantileQuery(0.3, 0.7, 0.1),     # both shapes <= 1, lower side
        BetaQuantileQuery(0.5, 0.5, 0.48),    # both shapes < 1, start 1/2, root below
        BetaQuantileQuery(0.5, 0.5, 0.52),    # both shapes < 1, start 1/2, root above
        GammaQuantileQuery(1.0, 1e-300),      # a tail given alone, root below DEEP_TAIL_Z
        BetaQuantileQuery(2.0, 5.0, 1.0, 1e-300),  # 1 - x ~ 1e-60, far below 2^-53
        EllipticQuery(0.0, 0.3),
        EllipticQuery(1.0, 0.3),
        EllipticQuery(0.98, 0.4),
        EllipticQuery(0.9, 0.7),
        EllipticQuery(0.9999, 0.999),         # complementary start, s0 = sqrt(2T)
        EllipticQuery(0.99, 1.0 - 1e-6),      # complementary start, s0 = T/b
        EllipticQuery(0.99999, 0.99),         # C(pi/2 - x) by its series
        EllipticQuery(0.9999, 0.9999),        # C by its series, below s = 4 k'/m
        EllipticQuery(1.0 - 1e-9, 0.004),     # E(sin x, m) by its series
    ]
    return out


def _invert(query):
    if isinstance(query, GammaQuantileQuery):
        return invert_gamma(query)
    if isinstance(query, BetaQuantileQuery):
        return invert_beta(query)
    return invert_ellip_e(query)


def _record(report):
    parts = [report.root.hex(), report.iterations, report.evaluations,
             report.reason.value, report.variable.value,
             report.start, report.root_underflow, report.predicted_error.hex()]
    for r in report.trace:
        parts += [r.n, r.x.hex(), r.f.hex(), r.h.hex(), r.omega.hex(),
                  r.step.hex(), r.fallback_used]
    return repr(parts)


def _results():
    return [(query, _invert(query)) for query in _queries()]


def _branch(query, report):
    """The plan branch a result took, as a short label.

    The "deep tail" labels are input regions, beyond ``DEEP_TAIL_Z``,
    that the grid must keep reaching, not branches of the problems.
    """
    if isinstance(query, GammaQuantileQuery):
        assert report.variable is Variable.LOG
        if report.root_underflow:
            return "gamma log underflow"
        # The last evaluation ran at z = log(root).
        if report.root < math.exp(DEEP_TAIL_Z):
            return "gamma log deep tail"
        return f"gamma log {report.start}"
    if isinstance(query, BetaQuantileQuery):
        assert report.variable is Variable.LOGIT
        if report.start == "asymptotic":
            return f"beta asymptotic {'lower' if query.p <= 0.5 else 'upper'}"
        if beta_plan(query).x0 < DEEP_TAIL_Z:
            return "beta logit deep tail"
        if beta_plan(query).x0 > -DEEP_TAIL_Z:
            return "beta logit upper deep tail"
        if report.start == "series":
            return f"beta series {'lower' if query.p <= 0.5 else 'upper'}"
        if query.a > 1.0:
            shapes = "a>1>=b"
        elif query.b > 1.0:
            shapes = "a<=1<b"
        else:
            shapes = "a,b<=1"
        return f"beta logit {shapes} {report.start}"
    return f"elliptic {report.start}"


def test_every_plan_branch_is_reached():
    reached = {_branch(q, r) for q, r in _results()}
    assert reached >= {
        "gamma log asymptotic", "gamma log lower-bound", "gamma log deep tail",
        "gamma log underflow", "gamma log upper-bound", "gamma log series",
        "beta asymptotic lower", "beta asymptotic upper",
        "beta series lower", "beta series upper",
        "beta logit a>1>=b upper-bound", "beta logit a<=1<b lower-bound",
        "beta logit a,b<=1 bracket",
        "beta logit deep tail", "beta logit upper deep tail",
        "elliptic low", "elliptic high", "elliptic arcsin-guess",
        "elliptic complementary", "elliptic closed-form",
    }, reached


def test_solve_layer_digest():
    digest = hashlib.sha256(
        "\n".join(_record(r) for _, r in _results()).encode()).hexdigest()
    assert digest == DIGEST
