"""Bit pins for the gamma and beta kernels and their Problem evaluations.

Each value is the float.hex of the result of the straightforward loops the
kernels are written against (a Taylor series that divides zeta(k) - 1 by k
on every call, integer loop counters, ``abs`` guards).  The tabled and
leaner kernels must return the same bits; any change of rounding, even
one ulp, fails here.  The points cover every branch: ln_gamma below 0.45,
on [0.45, 1.45), on [1.45, 2.6], above 2.6 and at its exact zeros; both
ln_beta forms; the gamma series and continued fraction on both sides of
a = 16; the beta fraction on both sides of its symmetry switch and with
the a, b >= 16 exponent.
"""

import hashlib
import math
import random

from snm.beta import (
    BetaDirectProblem,
    BetaLogitProblem,
    BetaQuantileQuery,
    _beta_b,
    _beta_omega,
    _beta_omega_logit_x,
    beta_b,
    beta_omega,
    beta_omega_logit,
)
from snm.core import _sigmoid
from snm.gamma import (
    GammaDirectProblem,
    GammaLogProblem,
    GammaQuantileQuery,
    _gamma_b,
    _gamma_omega,
    _gamma_omega_log_x,
    gamma_b,
    gamma_omega,
    gamma_omega_log,
)
from snm.special import _reg_beta, _reg_gamma, ln_beta, ln_gamma

LN_GAMMA = {
    0.001: '0x1.ba0f3807161acp+2',
    0.1: '0x1.2058e35f3deedp+1',
    0.3: '0x1.188637a6c4196p+0',
    0.44: '0x1.6641fc55ac75ap-1',
    0.45: '0x1.5aab293d2355cp-1',
    0.7: '0x1.0b20c891cde74p-2',
    1.2: '-0x1.5db138c7d70c7p-4',
    1.45: '-0x1.f156b7a4a65fcp-4',
    1.6: '-0x1.cd2d05f7769f8p-4',
    2.3: '0x1.3bc7ae538475ep-3',
    2.6: '0x1.6dfd602494c51p-2',
    2.61: '0x1.75b452da7cb58p-2',
    3.7: '0x1.6d9625e359b92p+0',
    17.5: '0x1.00a61f910a7fbp+5',
    250.0: '0x1.1a2185764485ep+10',
    1.0: '0x0.0p+0',
    2.0: '0x0.0p+0',
}

LN_BETA = {
    (0.5, 3.0): '0x1.08598b59e39e0p-4',
    (2.5, 7.0): '-0x1.34d357bf0cc8ap+2',
    (15.9, 0.2): '0x1.f3a44155505e0p-1',
    (20.0, 3.5): '-0x1.2fc3ad3bf8daap+3',
    (3.5, 20.0): '-0x1.2fc3ad3bf8daap+3',
    (40.0, 60.0): '-0x1.0fdfdcf0053efp+6',
}

# (a, x) -> (P, Q, exponent): series for x < a + 1, fraction otherwise.
REG_GAMMA = {
    (2.5, 1.0): ('0x1.34f37283a59adp-3', '0x1.b2c3235f16995p-1', '-0x1.48e0fa02699fap+0'),
    (2.5, 6.0): ('0x1.ee304bc8d9bc5p-1', '0x1.1cfb4372643abp-5', '-0x1.ce271aebd49f6p+0'),
    (0.3, 0.05): ('0x1.cb33086446535p-2', '0x1.1a667bcddcd66p-1', '-0x1.05b2c15727eaap+1'),
    (30.0, 20.0): ('0x1.65783caeac92dp-6', '0x1.f4d43e1a8a9b7p-1', '-0x1.6293ff5333617p+0'),
    (30.0, 5.0): ('0x1.fb8f10e1ba5d8p-46', '0x1.fffffffffff02p-1', '-0x1.bf9519d686002p+4'),
    (30.0, 45.0): ('0x1.fc3e4c71f1869p-1', '0x1.e0d9c7073cb66p-8', '-0x1.075128afca4d3p+1'),
    (200.0, 190.0): ('0x1.f26022c7b4104p-3', '0x1.8367f74e12fbfp-1', '0x1.789ceed37c985p+0'),
}

# (x, a, b) -> I_x(a, b); the switch sits at x = (a + 1)/(a + b + 2).
REG_BETA = {
    (0.2, 2.0, 5.0): '0x1.60e94ee392e37p-2',
    (0.8, 2.0, 5.0): '0x1.ff2e48e8a71dep-1',
    (0.3, 0.5, 0.7): '0x1.cefa9a5429ce7p-2',
    (0.9, 0.5, 0.7): '0x1.c47ffc73cb03bp-1',
    (0.42, 20.0, 25.0): '0x1.8014ea75c275fp-2',
    (0.5, 20.0, 25.0): '0x1.8c724e46d13fep-1',
    (0.6, 40.0, 17.0): '0x1.a7550b0387cc0p-5',
    (0.75, 40.0, 17.0): '0x1.90d2ecd4377b0p-1',
}

# (problem class, query arguments, point, (x, f, fp, big_b, omega, h)).
EVALUATIONS = (
    (GammaDirectProblem, (2.5, 0.3), 1.7,
     ('0x1.b333333333333p+0', '0x1.f73c356851a30p-5', '0x1.37ea49a463a30p-2',
      '0x1.e1e1e1e1e1e20p-4', '-0x1.0d4985c1fe3a9p-2', '0x1.982e5201bf7a9p-3')),
    (GammaDirectProblem, (20.0, 0.9), 23.0,
     ('0x1.7000000000000p+4', '-0x1.1a09a56a944cdp-3', '0x1.01d29b80248c3p-4',
      '0x1.642c8590b2164p-3', '-0x1.a21e00f7c5ed8p-6', '-0x1.59d6afb00faaap+1')),
    (GammaLogProblem, (0.4, 0.3), -1.2,
     ('-0x1.3333333333333p+0', '0x1.5e8684d4a84e7p-2', '0x1.a6bc512b44c7cp-3',
      '-0x1.94b560c7e1aecp-4', '-0x1.396bdb5b92ed0p-3', '0x1.ce6d8a86961fcp+0')),
    (GammaLogProblem, (0.4, 0.8), 0.5,
     ('0x1.0000000000000p-1', '0x1.31795e056d347p-3', '0x1.b1b4c1e7bd657p-4',
      '0x1.3fac327b7a036p+0', '-0x1.36d4f2d9d6b21p+0', '0x1.7fbc67f8788e3p-1')),
    (GammaLogProblem, (0.01, 0.3), -700.0,
     ('-0x1.5e00000000000p+9', '-0x1.3242ca9fc583bp-2', '0x1.33b90ea0e0ab2p-17',
      '-0x1.47ae147ae147bp-7', '-0x1.a36e2eb1c432dp-16', '-0x1.8d8fd81e5e578p+7')),
    (BetaDirectProblem, (2.0, 5.0, 0.3), 0.2,
     ('0x1.999999999999ap-3', '0x1.6db0dd82fd820p-5', '0x1.3a92a30553276p+1',
      '0x0.0p+0', '-0x1.f3ffffffffffep+3', '0x1.2999999999a24p-6')),
    (BetaDirectProblem, (2.0, 5.0, 0.3), 0.6,
     ('0x1.3333333333333p-1', '0x1.516db0dd82fd6p-1', '0x1.d7dbf487fcbb1p-2',
      '0x1.0aaaaaaaaaaabp+3', '-0x1.f3ffffffffffep+4', '0x1.a4e42616b2867p-3')),
    (BetaDirectProblem, (30.0, 20.0, 0.4), 0.58,
     ('0x1.28f5c28f5c28fp-1', '-0x1.44fa1cda0bba0p-6', '0x1.5a93b5ee438ecp+2',
      '-0x1.30c30c30c30c8p+2', '-0x1.9a824fde5f000p+6', '-0x1.dbf0880456d6fp-9')),
    (BetaLogitProblem, (0.5, 3.0, 0.3), -1.5,
     ('-0x1.8000000000000p+0', '0x1.a2950dfa619d1p-2', '0x1.c0271673c67b6p-3',
      '0x1.1ba04babb60e4p-3', '-0x1.102e2ae063577p-2', '0x1.a77195b28aefep+0')),
    (BetaLogitProblem, (0.7, 0.4, 0.2), 2.0,
     ('0x1.0000000000000p+1', '0x1.c61444d518033p-2', '0x1.086e5b9360f3dp-3',
      '0x1.13546fa63d8bcp-2', '-0x1.368f31776a53bp-4', '0x1.2cbe71049a190p+1')),
)


def test_ln_gamma_bits():
    for a, pinned in LN_GAMMA.items():
        assert ln_gamma(a).hex() == pinned, a


def test_ln_beta_bits():
    for (a, b), pinned in LN_BETA.items():
        assert ln_beta(a, b).hex() == pinned, (a, b)


def test_reg_gamma_bits():
    for (a, x), pinned in REG_GAMMA.items():
        got = _reg_gamma(a, x, ln_gamma(a))
        assert tuple(v.hex() for v in got) == pinned, (a, x)


def test_reg_beta_bits():
    for (x, a, b), pinned in REG_BETA.items():
        assert _reg_beta(x, a, b, ln_beta(a, b)).hex() == pinned, (x, a, b)


def test_problem_evaluation_bits():
    for cls, args, point, pinned in EVALUATIONS:
        query = (GammaQuantileQuery if cls.__module__ == "snm.gamma"
                 else BetaQuantileQuery)(*args)
        got = cls(query).evaluate(point)
        assert tuple(v.hex() for v in got) == pinned, (cls.__name__, args, point)


def _same(u: float, v: float) -> bool:
    return u.hex() == v.hex()


def test_private_b_omega_helpers_equal_the_public_functions():
    rng = random.Random(20151)
    for _ in range(2000):
        a = math.exp(rng.uniform(-5.0, 6.0))
        b = math.exp(rng.uniform(-5.0, 6.0))
        x = rng.uniform(1e-6, 1.0 - 1e-6)
        xg = math.exp(rng.uniform(-20.0, 8.0))
        z = rng.uniform(-40.0, 6.0)
        assert _same(_gamma_b(a, xg), gamma_b(a, xg))
        assert _same(_gamma_omega(a, xg), gamma_omega(a, xg))
        assert _same(_gamma_omega_log_x(a, math.exp(z)), gamma_omega_log(a, z))
        assert _same(_beta_b(a, b, x), beta_b(a, b, x))
        assert _same(_beta_omega(a, b, x), beta_omega(a, b, x))
        assert _same(_beta_omega_logit_x(a, b, _sigmoid(z)), beta_omega_logit(a, b, z))


def _grid_digest(kernel: str) -> str:
    """sha256 over the hex bits of one kernel on a seeded grid of 400 points."""
    rng = random.Random(f"kernel-bits:{kernel}")
    bands = ((0.001, 0.45), (0.45, 1.45), (1.45, 2.6), (2.6, 16.0), (16.0, 400.0))
    out = []
    for i in range(400):
        a = rng.uniform(*bands[i % 5])
        b = rng.uniform(*bands[(i // 5) % 5])
        u = rng.uniform(0.01, 0.99)
        if kernel == "ln_gamma":
            got = (ln_gamma(a),)
        elif kernel == "ln_beta":
            got = (ln_beta(a, b),)
        elif kernel == "reg_gamma":
            got = _reg_gamma(a, 2.0 * u * (a + 1.0), ln_gamma(a))
        elif kernel == "reg_beta":
            got = (_reg_beta(u, a, b, ln_beta(a, b)),)
        else:  # the gamma and beta evaluations, near each distribution's bulk
            gamma = (GammaDirectProblem if a >= 1.0 else GammaLogProblem)(
                GammaQuantileQuery(a, u))
            xg = a * (0.5 + u)
            got = gamma.evaluate(xg if a >= 1.0 else math.log(xg))
            xb = a * (0.5 + u) / (1.5 * a + b)
            if a > 1.0 and b > 1.0:
                got += BetaDirectProblem(BetaQuantileQuery(a, b, u)).evaluate(xb)
            else:
                got += BetaLogitProblem(BetaQuantileQuery(a, b, u)).evaluate(
                    math.log(xb / (1.0 - xb)))
        out.append(",".join(v.hex() for v in got))
    return hashlib.sha256(";".join(out).encode()).hexdigest()


# Digests of _grid_digest, recorded with the reference loops.
GRID_DIGESTS = {
    "ln_gamma":
        "7521beb0260892d829c50b43c9580ae2f739b9f6817874591f96bff029b5480f",
    "ln_beta":
        "d01b7c1dd80bff6777f9ced3eb1001ad5c2d6fd27c0058b9fa19bd527d9000c7",
    "reg_gamma":
        "66ca0b67ec66618c2881108083a20be5150d970d38479d6bb0ba14213551471e",
    "reg_beta":
        "8c7af46537e78292666f8daba3f15200dbaa0347a32f9b8e07854bd74b25e457",
    "evaluate":
        "4e59388e0a2575bbc7e9480d335bd2a8018b4e42f1bb3415674b624c7f537794",
}


def test_kernel_grid_bits():
    for kernel, pinned in GRID_DIGESTS.items():
        assert _grid_digest(kernel) == pinned, kernel
