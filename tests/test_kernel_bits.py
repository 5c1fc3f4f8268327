"""Bit pins for the gamma and beta kernels and their Problem evaluations.

Each value is the float.hex of the result of the straightforward loops the
kernels are written against (a Taylor series that divides zeta(k) - 1 by k
on every call, integer loop counters, ``abs`` guards), with ln Gamma above
2.6 taken from ``math.lgamma``; the beta fraction's pins are those of its
even part.  The tabled and leaner kernels must return
the same bits; any change of rounding, even one ulp, fails here.  The
points cover every branch: ln_gamma below 0.45, on [0.45, 1.45), on
[1.45, 2.6], above 2.6 (``math.lgamma``) and at its exact zeros; both
ln_beta forms; the gamma series and continued fraction on both sides of
a = 16; the beta fraction on both sides of its symmetry switch and with
the a, b >= 16 exponent, which returns the pair (I, 1 - I).  Like
``test_golden.py`` they assume the platform libm's ``exp``/``log`` bits,
which ``math.lgamma`` uses too.

CHANGES.md records each re-pin.
"""

import hashlib
import math
import random

from snm.beta import (
    BetaDirectProblem,
    BetaLogitProblem,
    BetaQuantileQuery,
    _beta_omega_logit_x,
    beta_omega_logit,
)
from snm.core import _sigmoid
from snm.gamma import (
    GammaDirectProblem,
    GammaLogProblem,
    GammaQuantileQuery,
    _gamma_omega_log_x,
    gamma_omega_log,
)
from snm.special import _beta_exponent, _gamma_exponent, _reg_beta, _reg_gamma, ln_beta, ln_gamma

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
    3.7: '0x1.6d9625e359b88p+0',
    17.5: '0x1.00a61f910a7f9p+5',
    250.0: '0x1.1a2185764485fp+10',
    1.0: '0x0.0p+0',
    2.0: '0x0.0p+0',
}

LN_BETA = {
    (0.5, 3.0): '0x1.08598b59e3a00p-4',
    (2.5, 7.0): '-0x1.34d357bf0cc86p+2',
    (15.9, 0.2): '0x1.f3a4415550600p-1',
    (20.0, 3.5): '-0x1.2fc3ad3bf8daap+3',
    (3.5, 20.0): '-0x1.2fc3ad3bf8daap+3',
    (40.0, 60.0): '-0x1.0fdfdcf0053eep+6',
}

# (a, x) -> (P, Q, exponent): series for x < a + 1, fraction otherwise.  The
# kernel takes its prefactor e^exponent from the caller, as the problems
# pass theirs, and returns (P, Q).
REG_GAMMA = {
    (2.5, 1.0): ('0x1.34f37283a59adp-3', '0x1.b2c3235f16995p-1', '-0x1.48e0fa02699fap+0'),
    (2.5, 6.0): ('0x1.ee304bc8d9bc5p-1', '0x1.1cfb4372643abp-5', '-0x1.ce271aebd49f6p+0'),
    (0.3, 0.05): ('0x1.cb33086446535p-2', '0x1.1a667bcddcd66p-1', '-0x1.05b2c15727eaap+1'),
    (30.0, 20.0): ('0x1.65783caeac92dp-6', '0x1.f4d43e1a8a9b7p-1', '-0x1.6293ff5333617p+0'),
    (30.0, 5.0): ('0x1.fb8f10e1ba5d8p-46', '0x1.fffffffffff02p-1', '-0x1.bf9519d686002p+4'),
    (30.0, 45.0): ('0x1.fc3e4c71f1869p-1', '0x1.e0d9c7073cb66p-8', '-0x1.075128afca4d3p+1'),
    (200.0, 190.0): ('0x1.f26022c7b4104p-3', '0x1.8367f74e12fbfp-1', '0x1.789ceed37c985p+0'),
}

# (x, a, b) -> (I_x(a, b), 1 - I_x(a, b)); the switch sits at
# x = (a + 1)/(a + b + 2).  The first value of each pair kept its bits when
# the kernel began to return the pair.  Moved through ln B by math.lgamma:
# (0.2, 2, 5) I by -10 ulps (3.8e-15 -> 2.2e-15) and 1 - I by +6
# (-2.1e-15 -> -1.1e-15), (0.8, 2, 5) 1 - I by -12 (5.6e-15 -> 4.0e-15).
# Moved when the fraction became its even part (one Lentz update per pair
# of terms): I by -2 to +4 ulps and 1 - I by -5 to +5; against 40-digit
# mpmath the worst pair error went from 4.0e-15 to 3.7e-15.
REG_BETA = {
    (0.2, 2.0, 5.0): ('0x1.60e94ee392e2bp-2', '0x1.4f8b588e368eap-1'),
    (0.8, 2.0, 5.0): ('0x1.ff2e48e8a71dep-1', '0x1.a36e2eb1c4340p-10'),
    (0.3, 0.5, 0.7): ('0x1.cefa9a5429ce5p-2', '0x1.1882b2d5eb18ep-1'),
    (0.9, 0.5, 0.7): ('0x1.c47ffc73cb03ap-1', '0x1.dc001c61a7e2cp-4'),
    (0.42, 20.0, 25.0): ('0x1.8014ea75c2763p-2', '0x1.3ff58ac51ec4ep-1'),
    (0.5, 20.0, 25.0): ('0x1.8c724e46d13ffp-1', '0x1.ce36c6e4bb003p-3'),
    (0.6, 40.0, 17.0): ('0x1.a7550b0387cc3p-5', '0x1.e58aaf4fc7834p-1'),
    (0.75, 40.0, 17.0): ('0x1.90d2ecd4377afp-1', '0x1.bcb44caf22144p-3'),
}

# (problem class, query arguments, point, (x, f, fp, big_b, omega, h)).
# Moved through ln B by math.lgamma (ulps; relative error against mpmath):
# BetaDirectProblem (2, 5, 0.3) at 0.2, f by -80 (2.9e-14 -> 1.7e-14), f'
# by -10 (3.7e-15 -> 1.9e-15), h by -56; at 0.6, f' by -15 (3.5e-15 ->
# 1.7e-15), h by +2; BetaLogitProblem (0.5, 3, 0.3) at -1.5, f by -4
# (1.4e-15 -> 8.3e-16), f' by -3 (6.4e-16 -> 2.6e-16), h by -1.
# Moved when BetaDirectProblem's f' became the kernel's prefactor over
# x (1 - x): (2, 5, 0.3) at 0.2, f' by -1 (1.9e-15 -> 1.7e-15), h by +1
# (1.5e-14 both); at 0.6, f' by +8 (1.7e-15 -> 2.7e-15), h by -1 (-3.7e-16
# -> -5.0e-16); (30, 20, 0.4) at 0.58, f' by -12 (1.7e-15 -> -2.7e-16), h
# by -17 (4.9e-15 -> 6.9e-15, the error of f).
# Moved when the beta fraction became its even part, f and h (ulps):
# BetaDirectProblem (2, 5, 0.3) at 0.2 by -16 and -13 (f 1.7e-14 ->
# 1.4e-14 against mpmath); (30, 20, 0.4) at 0.58 by -48 and -69 (f 6.7e-15
# -> -1.7e-15); BetaLogitProblem (0.5, 3, 0.3) at -1.5 by -6 and -6, and
# (0.7, 0.4, 0.2) at 2 by -4 and -2.
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
     ('0x1.999999999999ap-3', '0x1.6db0dd82fd7c0p-5', '0x1.3a92a3055326bp+1',
      '0x0.0p+0', '-0x1.f3ffffffffffep+3', '0x1.29999999999e0p-6')),
    (BetaDirectProblem, (2.0, 5.0, 0.3), 0.6,
     ('0x1.3333333333333p-1', '0x1.516db0dd82fd6p-1', '0x1.d7dbf487fcbaap-2',
      '0x1.0aaaaaaaaaaabp+3', '-0x1.f3ffffffffffep+4', '0x1.a4e42616b2868p-3')),
    (BetaDirectProblem, (30.0, 20.0, 0.4), 0.58,
     ('0x1.28f5c28f5c28fp-1', '-0x1.44fa1cda0bb70p-6', '0x1.5a93b5ee438e0p+2',
      '-0x1.30c30c30c30c8p+2', '-0x1.9a824fde5f000p+6', '-0x1.dbf0880456d3bp-9')),
    (BetaLogitProblem, (0.5, 3.0, 0.3), -1.5,
     ('-0x1.8000000000000p+0', '0x1.a2950dfa619c7p-2', '0x1.c0271673c67b3p-3',
      '0x1.1ba04babb60e4p-3', '-0x1.102e2ae063577p-2', '0x1.a77195b28aef7p+0')),
    (BetaLogitProblem, (0.7, 0.4, 0.2), 2.0,
     ('0x1.0000000000000p+1', '0x1.c61444d518037p-2', '0x1.086e5b9360f3bp-3',
      '0x1.13546fa63d8bcp-2', '-0x1.368f31776a536p-4', '0x1.2cbe71049a193p+1')),
)


def test_ln_gamma_bits():
    for a, pinned in LN_GAMMA.items():
        assert ln_gamma(a).hex() == pinned, a


def test_ln_beta_bits():
    for (a, b), pinned in LN_BETA.items():
        assert ln_beta(a, b).hex() == pinned, (a, b)


def _reg_gamma_and_exponent(a: float, x: float) -> tuple[float, float, float]:
    arg = _gamma_exponent(a, x, ln_gamma(a))
    return _reg_gamma(a, x, math.exp(arg)) + (arg,)


def _reg_beta_pair(x: float, a: float, b: float) -> tuple[float, float]:
    y = 1.0 - x
    return _reg_beta(x, y, a, b, math.exp(_beta_exponent(a, b, x, y, ln_beta(a, b))))


def test_reg_gamma_bits():
    for (a, x), pinned in REG_GAMMA.items():
        got = _reg_gamma_and_exponent(a, x)
        assert tuple(v.hex() for v in got) == pinned, (a, x)


def test_reg_beta_bits():
    for (x, a, b), pinned in REG_BETA.items():
        got = _reg_beta_pair(x, a, b)
        assert tuple(v.hex() for v in got) == pinned, (x, a, b)


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
        z = rng.uniform(-40.0, 6.0)
        assert _same(_gamma_omega_log_x(a, math.exp(z)), gamma_omega_log(a, z))
        assert _same(_beta_omega_logit_x(a, b, _sigmoid(z), _sigmoid(-z)),
                     beta_omega_logit(a, b, z))


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
            got = _reg_gamma_and_exponent(a, 2.0 * u * (a + 1.0))
        elif kernel == "reg_beta":
            got = _reg_beta_pair(u, a, b)
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


# Digests of _grid_digest, recorded with the reference loops; "reg_beta" and
# "evaluate" re-recorded when the beta fraction became its even part.
GRID_DIGESTS = {
    "ln_gamma":
        "f921dec87af482cd8cf56bb66cfee80da76e3c8624c4cc9ebfbed00d73f3425a",
    "ln_beta":
        "7e9f5e2b01c04aa72d05edc23c3ccf1e4f75d87a382cb13a4611c43cda561489",
    "reg_gamma":
        "8eb030ca7c83e9a634c32a959b3b16d52187b9e079df7ba593603a446d332256",
    "reg_beta":
        "cf46f606c5b4411201d80fd25bfdb28d81c92b6e837833178abf465a309ab61f",
    "evaluate":
        "d79e38715e30bedc9114a93e6fbb129ccf056856d4fb2472e6c7f28c29002381",
}


def test_kernel_grid_bits():
    for kernel, pinned in GRID_DIGESTS.items():
        assert _grid_digest(kernel) == pinned, kernel
