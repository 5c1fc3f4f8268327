"""Golden results: root bits, iteration count, stop reason and plan fields.

Each entry pins one query on one solver path.  A change meant to be
bit-identical must keep every entry; a change that moves rounding must
re-pin the entries it moves and say by how many ulps.  Re-pinned:
"gamma direct a=20 p=1e-10" moved by 2 ulps when the a >= 16 gamma
exponent switched from log1p((x-a)/a) to log(x/a) below x = a/2.
Renamed: "elliptic retry m=0.81 p=0.7" became "elliptic low m=0.81 p=0.7"
when the elliptic alternate-start retry was removed; its root bits and
iteration count did not move, and the one solve runs from the low start.
Re-pinned when the direct gamma (a >= 1) and beta (a, b > 1) solves moved
from the maximum of Omega to the Wilson-Hilferty and A&S 26.5.22 starts:
the four gamma direct entries (2, 1, 0 and 343330013 ulps; the last was
5.0e-8 off the true root and is now 6.6e-13 off) and the three beta direct
entries (89, 1 and 0 ulps), whose note is now "start=asymptotic".
The note strings became the typed report fields (variable, then a flip
flag, start, root_underflow) with no change to any root, iteration count or
stop reason; the gamma entries gained their start labels, and the
"flip=omega-monotonicity" and "path=heuristic" notes, functions of the
shapes alone, were dropped.
Re-pinned when the gamma residual stop became relative to the inverted
tail (1e-14 * min(p, q)) and an a < 1 upper tail took Q from its own
small-a formula on the series side: "gamma direct a=20 p=1e-10" moved by
-4483 ulps (2 -> 3 iterations), from 6.6e-13 to 2.9e-17 relative error
against mpmath; "gamma log a=0.2 p=0.9" moved by +127 ulps (2 -> 3
iterations), from -2.4e-14 to -2.1e-16.
When beta stopped flipping its queries (x -> 1 - x, a <-> b) and solved
each tail in place, the report lost its ``flipped`` field and every entry
its slot.  The three entries named "flipped" keep their names, which now
say which queries the old flip served; each is solved in its own tail,
and the last two start from the upper bound of their root.  The logit
evaluation now takes x, 1 - x and the kernel's prefactor from z, which
moved three roots: "beta logit 0.5,3 p=0.2" by -6 ulps (relative error
against mpmath -2.9e-16 -> -1.2e-15), "beta logit flipped 3,0.5 p=0.4"
by -1 (2.7e-16 -> 1.4e-16) and "beta heuristic 0.5,0.5 p=0.3" by -8
(4.5e-16 -> -6.2e-16).  No iteration count or stop reason moved, and no
other root.
When ln Gamma above 2.6 came from ``math.lgamma``, ln B(a, b) moved and
with it three beta roots: "beta direct 2,3 p=0.3" by -5 ulps (relative
error against mpmath 1.5e-15 -> 4.6e-16), "beta direct flipped 2,3 p=0.8"
by +4 (9.3e-16 -> 1.7e-16) and "beta logit 0.5,3 p=0.2" by +6 (1.2e-15 ->
2.9e-16).  No iteration count or stop reason moved, and no other root.
When SNM solves gained the predicted stop, 15 gamma, beta and elliptic
entries became "Predicted" with one iteration fewer: the confirming
evaluation that ended them on their residual is gone.  "elliptic arcsin
m=0.97 p=0.3" still ends on its residual.  No root moved by a bit.
When E(1, m) came from Gauss's arithmetic-geometric mean instead of the
Carlson duplication at phi = pi/2, the target p E(1, m) moved by ulps and
with it one root: "elliptic arcsin m=0.97 p=0.3" by -3 ulps (relative
error against 40-digit mpmath -1.3e-15 -> -1.8e-15).  No iteration count
or stop reason moved, and no gamma or beta root.
When the direct gamma start became Temme's asymptotic inversion, the four
gamma direct entries moved: "gamma direct a=2.5 p=0.3" by +34 ulps, now
ending on its residual (relative error against 50-digit mpmath -3.8e-18
-> 5.0e-15); "gamma direct a=20 p=0.5" by +1 (6.1e-18 -> 1.9e-16, 0
iterations on both); "gamma direct a=20 p=1e-10" by -1 (2.9e-17 ->
-1.2e-16, 2 -> 0 iterations); "gamma direct upper a=5 p=0.99" kept its
root (8.5e-17) and went from 1 iteration to 0.  The beta direct entries,
whose A&S 26.5.22 start now takes its normal quantile from
``statistics.NormalDist`` instead of A&S 26.2.23, did not move.
When every gamma query came to solve in log x and every beta query in
logit x, the "direct" entries (the names keep the class they were solved
in) became LOG or LOGIT and four roots moved: "gamma direct a=2.5 p=0.3"
by -35 ulps, now ending Predicted after 0 iterations instead of on its
residual after 1 (relative error against 50-digit mpmath 5.0e-15 ->
-1.5e-16); "gamma direct upper a=5 p=0.99" by +1 (8.5e-17 -> 2.4e-16);
"gamma direct a=20 p=1e-10" by -1 (-1.2e-16 -> -2.6e-16); "beta direct
flipped 2,3 p=0.8" by +1 (-1.7e-16 -> 2.2e-17).  The other three kept
their roots, iteration counts and stop reasons.
"""

import math

import pytest

from snm import (
    BetaQuantileQuery,
    EllipticQuery,
    FunctionProblem,
    GammaQuantileQuery,
    Interval,
    Method,
    SolveOptions,
    Variable,
    invert_beta,
    invert_ellip_e,
    invert_gamma,
    solve,
    tan_problem,
)


def _cube_problem() -> FunctionProblem:
    # f(x) = x^3 - 2: non-constant Schwarzian, root 2^(1/3).
    return FunctionProblem(lambda x: x ** 3 - 2.0, lambda x: 3.0 * x * x,
                           lambda x: 6.0 * x, lambda x: 6.0,
                           Interval(0.0, math.inf))


def _solve(make, method):
    return lambda: solve(make(), 1.0, SolveOptions(method=method))


CASES = {
    "gamma direct a=2.5 p=0.3":
        lambda: invert_gamma(GammaQuantileQuery(2.5, 0.3)),
    "gamma direct upper a=5 p=0.99":
        lambda: invert_gamma(GammaQuantileQuery(5.0, 0.99)),
    "gamma direct a=20 p=0.5":
        lambda: invert_gamma(GammaQuantileQuery(20.0, 0.5)),
    "gamma direct a=20 p=1e-10":
        lambda: invert_gamma(GammaQuantileQuery(20.0, 1e-10)),
    "gamma log a=0.5 p=0.3":
        lambda: invert_gamma(GammaQuantileQuery(0.5, 0.3)),
    "gamma log a=0.2 p=0.9":
        lambda: invert_gamma(GammaQuantileQuery(0.2, 0.9)),
    "gamma log a=0.01 p=1e-5":
        lambda: invert_gamma(GammaQuantileQuery(0.01, 1e-5)),
    "beta direct 2,3 p=0.3":
        lambda: invert_beta(BetaQuantileQuery(2.0, 3.0, 0.3)),
    "beta direct flipped 2,3 p=0.8":
        lambda: invert_beta(BetaQuantileQuery(2.0, 3.0, 0.8)),
    "beta direct 50,50 p=0.5":
        lambda: invert_beta(BetaQuantileQuery(50.0, 50.0, 0.5)),
    "beta logit 0.5,3 p=0.2":
        lambda: invert_beta(BetaQuantileQuery(0.5, 3.0, 0.2)),
    "beta logit flipped 3,0.5 p=0.4":
        lambda: invert_beta(BetaQuantileQuery(3.0, 0.5, 0.4)),
    "beta heuristic 0.5,0.5 p=0.3":
        lambda: invert_beta(BetaQuantileQuery(0.5, 0.5, 0.3)),
    "beta heuristic flipped 0.3,0.7 p=0.9":
        lambda: invert_beta(BetaQuantileQuery(0.3, 0.7, 0.9)),
    "elliptic low m=0.5 p=0.3":
        lambda: invert_ellip_e(EllipticQuery(0.5, 0.3)),
    "elliptic high m=0.5 p=0.9":
        lambda: invert_ellip_e(EllipticQuery(0.5, 0.9)),
    "elliptic arcsin m=0.97 p=0.3":
        lambda: invert_ellip_e(EllipticQuery(0.97, 0.3)),
    "elliptic low m=0.81 p=0.7":
        lambda: invert_ellip_e(EllipticQuery(0.81, 0.7)),
    "elliptic closed m=0 p=0.4":
        lambda: invert_ellip_e(EllipticQuery(0.0, 0.4)),
    "elliptic closed m=1 p=0.4":
        lambda: invert_ellip_e(EllipticQuery(1.0, 0.4)),
    "solve tan snm": _solve(tan_problem, Method.SNM),
    "solve tan halley": _solve(tan_problem, Method.HALLEY),
    "solve tan newton": _solve(tan_problem, Method.NEWTON),
    "solve cube snm": _solve(_cube_problem, Method.SNM),
    "solve cube halley": _solve(_cube_problem, Method.HALLEY),
    "solve cube newton": _solve(_cube_problem, Method.NEWTON),
}

# name -> (root.hex(), iterations, reason, (variable, start, root_underflow))
GOLDEN = {
    "gamma direct a=2.5 p=0.3": ('0x1.7ffcfd5c9aa70p+0', 0, "Predicted",
        (Variable.LOG, "asymptotic", False)),
    "gamma direct upper a=5 p=0.99": ('0x1.735917be45bedp+3', 0, "Predicted",
        (Variable.LOG, "asymptotic", False)),
    "gamma direct a=20 p=0.5": ('0x1.3aaec947689f7p+4', 0, "Predicted",
        (Variable.LOG, "asymptotic", False)),
    "gamma direct a=20 p=1e-10": ('0x1.8427e394b7aacp+1', 0, "Predicted",
        (Variable.LOG, "asymptotic", False)),
    "gamma log a=0.5 p=0.3": ('0x1.301203f7937b9p-4', 1, "Predicted",
        (Variable.LOG, "lower-bound", False)),
    "gamma log a=0.2 p=0.9": ('0x1.35b5c1cbd2db5p-1', 2, "Predicted",
        (Variable.LOG, "lower-bound", False)),
    "gamma log a=0.01 p=1e-5": ('0x0.0p+0', 0, "ResidualTol",
        (Variable.LOG, "lower-bound", True)),
    "beta direct 2,3 p=0.3": ('0x1.16ebd0ecac2bfp-2', 1, "Predicted",
        (Variable.LOGIT, "asymptotic", False)),
    "beta direct flipped 2,3 p=0.8": ('0x1.2a375adc0a662p-1', 1, "Predicted",
        (Variable.LOGIT, "asymptotic", False)),
    "beta direct 50,50 p=0.5": ('0x1.0000000000000p-1', 0, "ResidualTol",
        (Variable.LOGIT, "asymptotic", False)),
    "beta logit 0.5,3 p=0.2": ('0x1.7a9e125bd9495p-7', 1, "Predicted",
        (Variable.LOGIT, "lower-bound", False)),
    "beta logit flipped 3,0.5 p=0.4": ('0x1.c26b906c4bcebp-1', 1, "Predicted",
        (Variable.LOGIT, "upper-bound", False)),
    "beta heuristic 0.5,0.5 p=0.3": ('0x1.a61b9f7154b3fp-3', 1, "Predicted",
        (Variable.LOGIT, "lower-bound", False)),
    "beta heuristic flipped 0.3,0.7 p=0.9": ('0x1.b549b8b247cc1p-1', 1, "Predicted",
        (Variable.LOGIT, "upper-bound", False)),
    "elliptic low m=0.5 p=0.3": ('0x1.c66a12c3eb5e3p-2', 0, "Predicted",
        (Variable.DIRECT, "low", False)),
    "elliptic high m=0.5 p=0.9": ('0x1.66d045d309310p+0', 0, "Predicted",
        (Variable.DIRECT, "high", False)),
    "elliptic arcsin m=0.97 p=0.3": ('0x1.4dfa5fd26b06fp-2', 1, "ResidualTol",
        (Variable.DIRECT, "arcsin-guess", False)),
    "elliptic low m=0.81 p=0.7": ('0x1.f55eb027e5ba6p-1', 1, "Predicted",
        (Variable.DIRECT, "low", False)),
    "elliptic closed m=0 p=0.4": ('0x1.41b2f769cf0e0p-1', 0, "ResidualTol",
        (Variable.DIRECT, "closed-form", False)),
    "elliptic closed m=1 p=0.4": ('0x1.a564ac0e73a34p-2', 0, "ResidualTol",
        (Variable.DIRECT, "closed-form", False)),
    "solve tan snm": ('0x0.0p+0', 1, "ResidualTol",
        (Variable.DIRECT, "", False)),
    "solve tan halley": ('0x0.0p+0', 5, "ResidualTol",
        (Variable.DIRECT, "", False)),
    "solve tan newton": ('0x0.0p+0', 5, "ResidualTol",
        (Variable.DIRECT, "", False)),
    "solve cube snm": ('0x1.428a2f98d728bp+0', 3, "ResidualTol",
        (Variable.DIRECT, "", False)),
    "solve cube halley": ('0x1.428a2f98d728bp+0', 3, "ResidualTol",
        (Variable.DIRECT, "", False)),
    "solve cube newton": ('0x1.428a2f98d728bp+0', 5, "ResidualTol",
        (Variable.DIRECT, "", False)),
}


def test_every_case_is_pinned():
    assert CASES.keys() == GOLDEN.keys()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    report = CASES[name]()
    got = (report.root.hex(), report.iterations, report.reason.value,
           (report.variable, report.start, report.root_underflow))
    assert got == GOLDEN[name]
