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
from snm.core import DEEP_TAIL_Z

# Re-recorded when ``root_underflow`` became the one rule of ``with_plan``
# and the beta deep tail became a solve: 9 flipped roots of 1.0 gained the
# flag, and the two tiny-shape beta records went from 0 to 1 evaluation.
# Re-recorded when the gamma residual stop became relative to the inverted
# tail, a < 1 upper tails gained the upper-bound start and their Q its
# small-a form, and ln Gamma(a+1) stopped rounding a + 1 for a < 1: 59 of
# the 152 gamma records moved (15 now start at the upper bound); no beta
# or elliptic record moved.
# Re-recorded when beta stopped flipping its queries and solved each tail in
# place from the kernel pair (I, 1 - I), and the records lost the flip
# flag: with that flag dropped from the old records too, no gamma or
# elliptic record moved; 127 of the 154 beta records moved, 74 of them in
# their root.  All 74 new roots are within 1e-12 of the true quantile
# (40-digit mpmath); 21 of the old ones were not.  Beta iterations on
# the grid fell from 262 to 231.
# Re-recorded when ln Gamma above 2.6 came from math.lgamma: no elliptic
# record moved; 22 of the 152 gamma records moved (20 roots, by -30 to +5
# ulps) and 57 of the 154 beta records (30 roots, by -87 to +489 ulps).
# Against 40-digit mpmath the worst relative error of the moved roots fell
# from 3.9e-15 to 2.7e-15 (gamma) and from 7.5e-14 to 1.8e-14 (beta).  Four
# beta records changed stop reason between StepTol and ResidualTol, and
# one, (175.98, 14.757, p = 0.272), takes 2 iterations instead of 1.
# Re-recorded when SNM solves gained the predicted stop and the records its
# bound: 396 of the 456 records moved, as 396 solves that ended StepTol
# (3 gamma, 8 beta) or ResidualTol now end "Predicted" one evaluation
# earlier; evaluations on the grid fell from 1,090 to 694.  Five roots
# moved: two gamma upper tails (a ~ 2.35, q ~ 4e-11) by -4 and -7 ulps,
# relative error against 50-digit mpmath -4.5e-19 -> -5.1e-16 and 4.5e-17
# -> -8.3e-16, and three beta roots by +1, -1 and +1 ulp (errors within
# 1.5e-16 either side).  No elliptic root moved.
# Re-recorded when BetaDirectProblem's f' became the kernel's prefactor over
# x (1 - x): 47 of the 154 beta records moved, 43 only in their trace's h
# and 4 also in a step and the predicted bound; no gamma or elliptic record
# moved, and every iteration and evaluation count and stop reason kept its
# value.  Three roots moved, by +3, -1 and -6 ulps;
# against 50-digit mpmath their relative errors went from -7.5e-17,
# -2.2e-16 and 8.2e-16 to 4.5e-16, -3.7e-16 and 2.3e-17.
# Re-recorded when E(1, m) came from Gauss's arithmetic-geometric mean
# instead of the Carlson duplication at phi = pi/2: 115 of the 154 elliptic
# records moved and no gamma or beta record.  108 roots moved, by -6 to +7
# ulps; no iteration or evaluation count, stop reason or start moved.
# Against 40-digit mpmath the median relative error of the moved roots
# fell from 2.8e-16 to 1.4e-16 and the worst from 5.1e-15 to 4.9e-15.
# Re-recorded when the direct gamma start became Temme's asymptotic
# inversion and both asymptotic starts took their normal quantile from
# statistics.NormalDist: 82 gamma direct and 52 beta direct records moved,
# no elliptic record.  Gamma evaluations on the grid fell from 249 to 198
# (48 solves lost one or two), beta from 256 to 254.  56 gamma roots moved,
# by -15 to +31 ulps, and 32 beta roots, by -9 to +9; against 50-digit
# mpmath the worst relative error of the moved roots went from 2.7e-15 to
# 3.9e-15 (gamma) and from 5.8e-15 to 4.4e-15 (beta).
# Re-recorded when the step stop became relative, |step| <= STEP_REL_TOL *
# |x| without the absolute 1e-15: 4 of the 456 records moved, 3 gamma
# (a ~ 1.39 and 2.38, p from 4e-13 to 1.3e-6) and 1 beta (a = 0.148,
# b = 97.2, q = 5.2e-4), each from StepTol to Predicted: their last step
# is now too long relative to the root for the step stop, and the
# predicted stop accepts it instead.  No root, iteration or evaluation
# count moved.
# Re-recorded when every gamma query came to solve in log x and every beta
# query in logit x, with two fixed points added for a tail given alone
# (1e-300).  On the 460 earlier points 85 gamma and 66 beta records moved,
# no elliptic record; 69 gamma roots moved, by -94 to +6 ulps, and 37 beta
# roots, by -8 to +20.  Evaluations on the grid fell from 198 to 190
# (gamma) and from 254 to 253 (beta).  Against 40-digit mpmath the worst
# relative error of the moved roots went from 3.9e-15 to 7.3e-15 (gamma,
# two ResidualTol stops near a = 2) and from 4.4e-15 to 4.8e-15 (beta).
# Re-recorded when ln Gamma(2 + t) came from a piecewise table, E(1, m) near
# m = 1 from its k' series and the elliptic start for m > 0.95, p > 1/2
# from the complementary amplitude, with two fixed points added for that
# start ((0.9999, 0.999) and (0.99, 1 - 1e-6), 2 and 1 evaluations from the
# arcsin guess, 1 each now; relative error against 40-digit mpmath 1.8e-14
# -> -7.7e-15 and -6.7e-15 -> -6.4e-18).  On the 462 earlier points no gamma
# or beta record moved, and 1 elliptic record: (0.98, 0.4), whose E(1, m)
# now comes from the k' series, by -1 ulp in its root (3.6e-16 -> 2.3e-16).
DIGEST = "8980755a814fe001605921ee1255120ee3454d6942bad29d0c10394ca27c503f"


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _probability(rng):
    # Central and tail probabilities on either side.
    p = rng.choice((rng.uniform(0.001, 0.999), _log_uniform(rng, 1e-15, 1e-3)))
    return p if rng.random() < 0.5 else 1.0 - p


def _queries():
    rng = random.Random("solve-digest")
    out = []
    for _ in range(150):
        out.append(GammaQuantileQuery(_log_uniform(rng, 0.01, 300.0), _probability(rng)))
        out.append(BetaQuantileQuery(_log_uniform(rng, 0.05, 200.0),
                                     _log_uniform(rng, 0.05, 200.0), _probability(rng)))
        out.append(EllipticQuery(rng.uniform(0.0, 1.0), rng.uniform(0.001, 0.999)))
    out += [
        GammaQuantileQuery(0.05, 1e-15),   # log start below DEEP_TAIL_Z
        GammaQuantileQuery(1e-3, 0.3),     # root below the smallest double
        BetaQuantileQuery(1e-4, 1e-4, 0.3),   # logit start below DEEP_TAIL_Z, root 0
        BetaQuantileQuery(0.5, 1e-3, 0.9),    # its mirror, above -DEEP_TAIL_Z, root 1
        BetaQuantileQuery(0.3, 0.7, 0.9),     # both shapes <= 1, upper side
        BetaQuantileQuery(0.3, 0.7, 0.1),     # both shapes <= 1, lower side
        GammaQuantileQuery(1.0, 1e-300),      # a tail given alone, root below DEEP_TAIL_Z
        BetaQuantileQuery(2.0, 5.0, 1.0, 1e-300),  # 1 - x ~ 1e-60, far below 2^-53
        EllipticQuery(0.0, 0.3),
        EllipticQuery(1.0, 0.3),
        EllipticQuery(0.98, 0.4),
        EllipticQuery(0.9, 0.7),
        EllipticQuery(0.9999, 0.999),         # complementary start, s0 = sqrt(2T)
        EllipticQuery(0.99, 1.0 - 1e-6),      # complementary start, s0 = T/b
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
    """The plan branch a result took, as a short label."""
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
        "gamma log underflow", "gamma log upper-bound",
        "beta asymptotic lower", "beta asymptotic upper",
        "beta logit a>1>=b upper-bound", "beta logit a<=1<b lower-bound",
        "beta logit a,b<=1 upper-bound", "beta logit a,b<=1 lower-bound",
        "beta logit deep tail", "beta logit upper deep tail",
        "elliptic low", "elliptic high", "elliptic arcsin-guess",
        "elliptic complementary", "elliptic closed-form",
    }, reached


def test_solve_layer_digest():
    digest = hashlib.sha256(
        "\n".join(_record(r) for _, r in _results()).encode()).hexdigest()
    assert digest == DIGEST
