"""Bound-evaluator tests against a 60-digit mpmath oracle, plus domain
errors, monotonicity, and the two-sided consistency scan."""

import math

import mpmath as mp
import numpy as np
import pytest

from mla import NumericalError
from mla.bounds import (
    BoundInputs,
    two_sided_report,
    upper_bound_1,
    upper_bound_2,
)

mp.mp.dps = 60


def mp_upper1(g, alpha, lam1, L, eps):
    g, alpha, lam1, L, eps = map(mp.mpf, (g, alpha, lam1, L, eps))
    la = L * (1 + alpha**2 * lam1)
    bracket = mp.log(g) - mp.log(L / 2) / 2
    return g ** (mp.mpf(2) / 3) * ((4 + eps) ** 3 / (3 * la) * bracket) ** (mp.mpf(1) / 3)


def mp_upper2(g, alpha, lam1, L):
    g, alpha, lam1, L = map(mp.mpf, (g, alpha, lam1, L))
    la = L * (1 + alpha**2 * lam1)
    bracket = mp.log(g) + mp.mpf(1) / 2 + mp.log(3 * mp.sqrt(2) / mp.sqrt(la))
    return (12 / mp.sqrt(la)) ** (mp.mpf(2) / 3) * g ** (mp.mpf(2) / 3) * bracket ** (mp.mpf(1) / 3)


def test_upper1_literal_example():
    g = math.exp(10.0)
    got = upper_bound_1(BoundInputs(g=g))
    want = math.exp(20.0 / 3.0) * (
        (64.0 / (3.0 * math.pi)) * (10.0 - 0.5 * math.log(math.pi / 2.0))
    ) ** (1.0 / 3.0)
    assert got == pytest.approx(want, rel=1e-13)


def test_upper2_literal_example():
    got = upper_bound_2(BoundInputs(g=1.0))
    want = (12.0 / math.sqrt(math.pi)) ** (2.0 / 3.0) * (
        0.5 + math.log(3.0 * math.sqrt(2.0) / math.sqrt(math.pi))
    ) ** (1.0 / 3.0)
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(3.98, abs=0.01)


def test_upper_bounds_match_highprecision_oracle():
    for g in (10.0, 1e3, 1e6):
        for alpha in (0.0, 0.05, 0.3):
            inp = BoundInputs(g=g, alpha=alpha)
            assert upper_bound_1(inp) == pytest.approx(
                float(mp_upper1(g, alpha, 1.0, math.pi, 0.0)), rel=1e-12
            )
            assert upper_bound_2(inp) == pytest.approx(
                float(mp_upper2(g, alpha, 1.0, math.pi)), rel=1e-12
            )


def test_upper1_monotone_in_eps():
    a = upper_bound_1(BoundInputs(g=100.0, eps_g=0.0))
    b = upper_bound_1(BoundInputs(g=100.0, eps_g=0.1))
    assert b > a


def test_upper1_eps_continuity():
    base = upper_bound_1(BoundInputs(g=100.0, eps_g=0.0))
    vals = [upper_bound_1(BoundInputs(g=100.0, eps_g=e))
            for e in (1e-6, 1e-9, 1e-12)]
    assert abs(vals[-1] - base) < 1e-12 * base


def test_upper1_doubling_scaling():
    # with L = 2 the log-bracket is exactly log G, so doubling G scales
    # the bound by 2^(2/3) (1 + log2/logG)^(1/3)
    g = 50.0
    a = upper_bound_1(BoundInputs(g=g, l_const=2.0))
    b = upper_bound_1(BoundInputs(g=2 * g, l_const=2.0))
    want = 2.0 ** (2.0 / 3.0) * (1.0 + math.log(2.0) / math.log(g)) ** (1.0 / 3.0)
    assert b / a == pytest.approx(want, rel=1e-13)


def test_upper2_alpha_to_zero_limit():
    base = upper_bound_2(BoundInputs(g=1e4, alpha=0.0))
    near = upper_bound_2(BoundInputs(g=1e4, alpha=1e-9))
    assert near == pytest.approx(base, rel=1e-14)


def test_upper2_decreasing_in_alpha():
    vals = [upper_bound_2(BoundInputs(g=1e4, alpha=a))
            for a in (0.0, 0.01, 0.1, 0.5)]
    assert np.all(np.diff(vals) < 0)


def test_upper_bounds_increasing_in_g():
    for fn in (upper_bound_1, upper_bound_2):
        vals = [fn(BoundInputs(g=g)) for g in np.geomspace(10, 1e8, 12)]
        assert np.all(np.diff(vals) > 0)


def test_log_domain_errors():
    # G=1, L=pi: log G - 1/2 log(L/2) = -0.5 log(pi/2) < 0
    with pytest.raises(NumericalError):
        upper_bound_1(BoundInputs(g=1.0))
    with pytest.raises(NumericalError):
        upper_bound_2(BoundInputs(g=1e-3))


@pytest.mark.parametrize("fn", [upper_bound_1, upper_bound_2])
@pytest.mark.parametrize("alpha", [1e154, 1e200])
def test_filtered_constant_overflow_is_a_value_error(fn, alpha):
    # alpha^2 L is inf at 1e154 (upper1 read 0.0, below the lower bound, and
    # upper2 a bare math domain error); alpha**2 raises OverflowError at 1e200
    with pytest.raises(ValueError, match=r"^L\(1 \+ alpha\^2 lambda1\) overflows"):
        fn(BoundInputs(g=100.0, alpha=alpha))


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(g=-1.0)
    with pytest.raises(ValueError):
        BoundInputs(g=1.0, l_const=-1.0)


def test_two_sided_lower_below_upper_on_grid():
    for g in np.geomspace(1e2, 1e8, 7):
        for alpha in (0.0, 1e-3, 1e-2, 1e-1):
            rep = two_sided_report(BoundInputs(g=float(g), alpha=float(alpha)))
            assert rep.upper_min is not None
            assert rep.lower <= rep.upper_min
            assert rep.ratio >= 1.0


def test_two_sided_report_specific_values():
    rep = two_sided_report(BoundInputs(g=1e6, alpha=0.0))
    assert rep.lower == pytest.approx(0.006 * 1e4, rel=1e-12)
    assert rep.alpha_regime_forms["C1"] is None
    assert any("eps_G" in n for n in rep.notes)


def test_two_sided_ratio_grows_like_cuberoot_log():
    # at alpha=0 the ratio upper2/lower scales like (log G)^(1/3)
    gs = np.geomspace(1e4, 1e12, 5)
    ratios = []
    for g in gs:
        rep = two_sided_report(BoundInputs(g=float(g)))
        ratios.append(rep.upper2 / rep.lower)
    scaled = np.array(ratios) / np.log(gs) ** (1.0 / 3.0)
    # slowly-varying residual: spread well under the raw ratio growth
    assert np.max(scaled) / np.min(scaled) < np.max(ratios) / np.min(ratios)
    assert np.max(scaled) / np.min(scaled) < 1.35


def test_two_sided_report_domain_error_noted():
    rep = two_sided_report(BoundInputs(g=1.0, alpha=0.0))
    assert rep.upper1 is None
    assert any("domain error" in n for n in rep.notes)
