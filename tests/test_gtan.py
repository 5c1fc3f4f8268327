"""Generalized tangent / arctangent and the Schwarzian helper."""

import math

import pytest

from snm.core import SERIES_THRESHOLD, StepUndefinedError, gatan, gtan, schwarzian_omega

from conftest import family_derivatives


EPS = 2.220446049250313e-16


def test_gtan_identity_at_lambda_zero():
    assert gtan(0.0, 0.7) == 0.7
    assert gtan(0.0, -3.25) == -3.25


def test_gtan_hyperbolic_branch():
    # tanh(1/2) through the independent exponential form.
    e = math.exp(1.0)
    assert gtan(-1.0, 0.5) == pytest.approx((e - 1.0) / (e + 1.0), abs=2 * EPS)
    assert gtan(-1.0, 0.5) == pytest.approx(0.46211715726000974, abs=2 * EPS)


def test_gtan_circular_branch():
    assert gtan(1.0, math.pi / 4) == pytest.approx(1.0, abs=4 * EPS)


def test_gtan_principal_branch_error():
    with pytest.raises(ValueError):
        gtan(1.0, math.pi / 2)
    with pytest.raises(ValueError):
        gtan(4.0, 0.8)  # |x| sqrt(lam) = 1.6 >= pi/2


def test_gatan_examples():
    assert gatan(1.0, 1.0) == pytest.approx(math.pi / 4, abs=2 * EPS)
    assert gatan(0.0, -2.5) == -2.5


def test_gatan_hyperbolic_domain_error():
    with pytest.raises(StepUndefinedError):
        gatan(-4.0, 0.6)  # |u| sqrt(-lam) = 1.2
    with pytest.raises(StepUndefinedError):
        gatan(-1.0, 1.0)  # boundary


def test_round_trip_within_branch(rng):
    # gtan(lam, gatan(lam, u)) = u to 4 ulp for |u| sqrt|lam| <= 0.99.
    for _ in range(3000):
        lam = rng.uniform(-4.0, 4.0)
        scale = math.sqrt(abs(lam)) if lam != 0.0 else 1.0
        u = rng.uniform(-0.99, 0.99) / max(scale, 1e-9)
        back = gtan(lam, gatan(lam, u))
        assert abs(back - u) <= 4.0 * EPS * max(1.0, abs(u))


def test_series_branch_continuity(rng):
    # |gatan(lam, u) - u| <= 2 |lam| |u|^3 in the series regime.
    for _ in range(2000):
        u = rng.uniform(-1.0, 1.0)
        if u == 0.0:
            continue
        lam = rng.uniform(-1.0, 1.0) * 1e-4 / (u * u)
        assert abs(gatan(lam, u) - gatan(0.0, u)) <= 2.0 * abs(lam) * abs(u) ** 3
        assert abs(gtan(lam, u) - gtan(0.0, u)) <= 2.0 * abs(lam) * abs(u) ** 3


def test_series_matches_closed_form_at_threshold(rng):
    # Continuity across the series cutoff: at each (lam, u), on either side
    # of it, gatan/gtan agree with arctan/arctanh and tan/tanh of
    # sqrt(|lam|) u, computed here.  The u just under the cutoff take the
    # series branch.
    for lam in (1e-6, -1e-6, 3.3e-6, -3.3e-6):
        s = math.sqrt(abs(lam))
        near = math.sqrt(0.999 * SERIES_THRESHOLD / abs(lam))
        for u in (0.9, -1.1, 0.5, near, -near):
            if lam > 0.0:
                full, full_t = math.atan(s * u) / s, math.tan(s * u) / s
            else:
                full, full_t = math.atanh(s * u) / s, math.tanh(s * u) / s
            assert gatan(lam, u) == pytest.approx(full, abs=4 * EPS * abs(u))
            assert gtan(lam, u) == pytest.approx(full_t, abs=4 * EPS * abs(u))
        assert abs(lam * near * near) < SERIES_THRESHOLD


def test_schwarzian_omega_tan_at_zero():
    # tan has f', f'', f''' = 1, 0, 2 at the origin and Omega = 1.
    assert schwarzian_omega(1.0, 0.0, 2.0) == 1.0


def test_schwarzian_omega_moebius_is_zero(rng):
    for _ in range(200):
        a = rng.uniform(-2, 2)
        b = rng.uniform(-2, 2)
        c = rng.uniform(-2, 2)
        if abs(c - a * b) < 0.1:
            continue
        x = rng.uniform(-1, 1)
        if abs(b * x + c) < 0.1:
            continue
        y, y1, y2, y3 = family_derivatives(0.0, a, b, c, x)
        assert schwarzian_omega(y1, y2, y3) == pytest.approx(0.0, abs=1e-12)


def test_schwarzian_omega_linear():
    assert schwarzian_omega(1.0, 0.0, 0.0) == 0.0


def test_schwarzian_omega_requires_nonzero_fp():
    with pytest.raises(ValueError):
        schwarzian_omega(0.0, 1.0, 1.0)


def test_family_has_constant_schwarzian(rng):
    # {y, x} = 2 lam for every member: the derivative oracle and the
    # Omega formula agree.
    from conftest import sample_family
    for _ in range(100):
        m = sample_family(rng)
        y, y1, y2, y3 = family_derivatives(m.lam, m.a, m.b, m.c, m.x0)
        assert schwarzian_omega(y1, y2, y3) == pytest.approx(m.lam, rel=1e-7, abs=1e-9)
