"""Golden results: root bits, iteration count, stop reason and plan fields.

Each entry pins one query on one solver path.  A change meant to be
bit-identical must keep every entry; a change that moves rounding must
re-pin the entries it moves and say by how many ulps.  CHANGES.md records
each re-pin.  An entry keeps the name it was first pinned under ("direct",
"flipped"), though its query may now take another path.
"""

import pytest

from snm import (
    BetaQuantileQuery,
    EllipticQuery,
    GammaQuantileQuery,
    Method,
    SolveOptions,
    Variable,
    invert_beta,
    invert_ellip_e,
    invert_gamma,
    solve,
    tan_problem,
)

from conftest import cube_problem


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
    "gamma log a=0.5 p=0.5":
        lambda: invert_gamma(GammaQuantileQuery(0.5, 0.5)),
    "gamma log upper a=0.5 q=1e-10":
        lambda: invert_gamma(GammaQuantileQuery(0.5, 1.0 - 1e-10, 1e-10)),
    "beta direct 2,3 p=0.3":
        lambda: invert_beta(BetaQuantileQuery(2.0, 3.0, 0.3)),
    "beta direct flipped 2,3 p=0.8":
        lambda: invert_beta(BetaQuantileQuery(2.0, 3.0, 0.8)),
    "beta direct 50,50 p=0.5":
        lambda: invert_beta(BetaQuantileQuery(50.0, 50.0, 0.5)),
    "beta logit 0.5,3 p=0.2":
        lambda: invert_beta(BetaQuantileQuery(0.5, 3.0, 0.2)),
    "beta logit 0.5,3 p=0.8":
        lambda: invert_beta(BetaQuantileQuery(0.5, 3.0, 0.8)),
    "beta logit flipped 3,0.5 p=0.4":
        lambda: invert_beta(BetaQuantileQuery(3.0, 0.5, 0.4)),
    "beta heuristic 0.5,0.5 p=0.3":
        lambda: invert_beta(BetaQuantileQuery(0.5, 0.5, 0.3)),
    "beta heuristic flipped 0.3,0.7 p=0.9":
        lambda: invert_beta(BetaQuantileQuery(0.3, 0.7, 0.9)),
    "beta heuristic 0.5,0.5 p=0.45":
        lambda: invert_beta(BetaQuantileQuery(0.5, 0.5, 0.45)),
    "beta heuristic 0.5,0.5 p=0.55":
        lambda: invert_beta(BetaQuantileQuery(0.5, 0.5, 0.55)),
    "elliptic low m=0.5 p=0.3":
        lambda: invert_ellip_e(EllipticQuery(0.5, 0.3)),
    "elliptic high m=0.5 p=0.9":
        lambda: invert_ellip_e(EllipticQuery(0.5, 0.9)),
    "elliptic arcsin m=0.97 p=0.3":
        lambda: invert_ellip_e(EllipticQuery(0.97, 0.3)),
    "elliptic low m=0.81 p=0.7":
        lambda: invert_ellip_e(EllipticQuery(0.81, 0.7)),
    "elliptic complementary m=0.99999 p=0.99":
        lambda: invert_ellip_e(EllipticQuery(0.99999, 0.99)),
    "elliptic arcsin m=0.97 p=0.6":
        lambda: invert_ellip_e(EllipticQuery(0.97, 0.6)),
    "elliptic closed m=0 p=0.4":
        lambda: invert_ellip_e(EllipticQuery(0.0, 0.4)),
    "elliptic closed m=1 p=0.4":
        lambda: invert_ellip_e(EllipticQuery(1.0, 0.4)),
    "solve tan snm": _solve(tan_problem, Method.SNM),
    "solve tan halley": _solve(tan_problem, Method.HALLEY),
    "solve tan newton": _solve(tan_problem, Method.NEWTON),
    "solve cube snm": _solve(cube_problem, Method.SNM),
    "solve cube halley": _solve(cube_problem, Method.HALLEY),
    "solve cube newton": _solve(cube_problem, Method.NEWTON),
}

# name -> (root.hex(), iterations, reason, (variable, start, root_underflow))
GOLDEN = {
    "gamma direct a=2.5 p=0.3": ('0x1.7ffcfd5c9aa70p+0', 0, "Predicted",
        (Variable.LOG, "asymptotic", False)),
    "gamma direct upper a=5 p=0.99": ('0x1.735917be45bedp+3', 0, "Predicted",
        (Variable.LOG, "asymptotic", False)),
    "gamma direct a=20 p=0.5": ('0x1.3aaec947689f7p+4', 0, "Predicted",
        (Variable.LOG, "asymptotic", False)),
    "gamma direct a=20 p=1e-10": ('0x1.8427e394b7aadp+1', 0, "Predicted",
        (Variable.LOG, "asymptotic", False)),
    "gamma log a=0.5 p=0.3": ('0x1.301203f7937bdp-4', 0, "Predicted",
        (Variable.LOG, "series", False)),
    "gamma log a=0.2 p=0.9": ('0x1.35b5c1cbd2db5p-1', 2, "Predicted",
        (Variable.LOG, "lower-bound", False)),
    "gamma log a=0.01 p=1e-5": ('0x0.0p+0', 0, "ResidualTol",
        (Variable.LOG, "series", True)),
    "gamma log a=0.5 p=0.5": ('0x1.d1dada8c3b2bbp-3', 1, "Predicted",
        (Variable.LOG, "lower-bound", False)),
    "gamma log upper a=0.5 q=1e-10": ('0x1.4e9257b6eded2p+4', 0, "Predicted",
        (Variable.LOG, "upper-bound", False)),
    "beta direct 2,3 p=0.3": ('0x1.16ebd0ecac2c2p-2', 1, "ResidualTol",
        (Variable.LOGIT, "asymptotic", False)),
    "beta direct flipped 2,3 p=0.8": ('0x1.2a375adc0a661p-1', 1, "Predicted",
        (Variable.LOGIT, "series", False)),
    "beta direct 50,50 p=0.5": ('0x1.0000000000000p-1', 0, "ResidualTol",
        (Variable.LOGIT, "asymptotic", False)),
    "beta logit 0.5,3 p=0.2": ('0x1.7a9e125bd9495p-7', 0, "Predicted",
        (Variable.LOGIT, "series", False)),
    "beta logit 0.5,3 p=0.8": ('0x1.06ef54871e7a3p-2', 2, "ResidualTol",
        (Variable.LOGIT, "lower-bound", False)),
    "beta logit flipped 3,0.5 p=0.4": ('0x1.c26b906c4bcebp-1', 1, "Predicted",
        (Variable.LOGIT, "upper-bound", False)),
    "beta heuristic 0.5,0.5 p=0.3": ('0x1.a61b9f7154b3fp-3', 0, "Predicted",
        (Variable.LOGIT, "series", False)),
    "beta heuristic flipped 0.3,0.7 p=0.9": ('0x1.b549b8b247cc2p-1', 0, "Predicted",
        (Variable.LOGIT, "series", False)),
    "beta heuristic 0.5,0.5 p=0.45": ('0x1.afe7d2615eb22p-2', 1, "Predicted",
        (Variable.LOGIT, "bracket", False)),
    "beta heuristic 0.5,0.5 p=0.55": ('0x1.280c16cf50a6fp-1', 1, "Predicted",
        (Variable.LOGIT, "bracket", False)),
    "elliptic low m=0.5 p=0.3": ('0x1.c66a12c3eb5e4p-2', 0, "Predicted",
        (Variable.DIRECT, "low", False)),
    "elliptic high m=0.5 p=0.9": ('0x1.66d045d309310p+0', 0, "Predicted",
        (Variable.DIRECT, "high", False)),
    "elliptic arcsin m=0.97 p=0.3": ('0x1.4dfa5fd26b06ep-2', 1, "ResidualTol",
        (Variable.DIRECT, "arcsin-guess", False)),
    "elliptic low m=0.81 p=0.7": ('0x1.f55eb027e5ba4p-1', 1, "Predicted",
        (Variable.DIRECT, "low", False)),
    "elliptic complementary m=0.99999 p=0.99": ('0x1.6df90d9072274p+0', 0, "Predicted",
        (Variable.DIRECT, "complementary", False)),
    "elliptic arcsin m=0.97 p=0.6": ('0x1.6249bd1e33669p-1', 1, "Predicted",
        (Variable.DIRECT, "arcsin-guess", False)),
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
