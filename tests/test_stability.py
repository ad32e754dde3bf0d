"""Stability machinery tests: region membership against literal
re-evaluation, the lattice against a NumPy mask oracle, the closed-form
area against adaptive quadrature and a 40-digit reference, lattice counts
against area asymptotics, recurrence coefficients against direct
substitution, the principal eigenvalue against the dense full-operator
oracle, the eigenpair selection against the dense-eigenvector oracle, the
tridiagonal solve against LAPACK's, the warm-started truncation doubling
against a dense selection at every doubling, mirrored chains against each
other, and thresholds against their windows and a bisection oracle."""

import inspect
import itertools
import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mla import NumericalError, stability
from mla.bounds import lower_bound_dim2d
from mla.stability import (
    DELTA_STAR,
    MAX_A_DELTA_SCALED,
    RecurrenceProblem,
    RegionSpec,
    StabilityResult,
    build_recurrence_system,
    capital_lambda,
    lambda0_threshold,
    lu_interval,
    principal_sigma,
    region_area,
    region_contains_point,
    stability_sweep,
)
from mla.cli import parse_config
from mla.squire import admissible_triples, hat_problem, lambda2_threshold
from test_squire import SHIPPED_WINDOW

SQRT2PI2 = 2.0 * math.sqrt(2.0) * math.pi
#: max over delta of a(delta) * delta^(4/3), to the reported two digits.
A_DELTA_MAX = 0.012


def lam_from_cap(cap, s, alpha):
    return cap * SQRT2PI2 * (1.0 + alpha**2 * s**2)


def lattice_points(spec):
    """The pairs of ``RegionSpec.box()`` that lie in the region: the lattice count."""
    return [(t, r) for t, r in spec.box() if region_contains_point(spec.delta, spec.s, t, r)]


# ---------------------------------------------------------------------
# capital lambda
# ---------------------------------------------------------------------

def test_capital_lambda_cancellation():
    for s in (1, 3, 7):
        assert capital_lambda(SQRT2PI2, s, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_capital_lambda_direct_substitution():
    assert capital_lambda(SQRT2PI2 * 5, 2, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_capital_lambda_monotone_in_alpha():
    vals = [capital_lambda(3.0, 4, a) for a in (0.0, 0.1, 0.5, 1.0)]
    assert np.all(np.diff(vals) < 0)


# ---------------------------------------------------------------------
# region and lattice
# ---------------------------------------------------------------------

def test_region_contains_examples():
    assert region_contains_point(0.5, 6, 3, 0)
    assert not region_contains_point(0.5, 6, 2, 0)  # t < delta s
    assert not region_contains_point(0.5, 6, 3, 1)  # r_max = 1, strict


def test_region_first_constraint():
    for t in range(1, 10):
        for r in range(-3, 4):
            if t * t + r * r >= 12:  # s^2/3
                assert not region_contains_point(0.1, 6, t, r)


def test_region_contains_matches_literal_float_oracle():
    s, d = 11, 0.37
    for t in range(1, 9):
        for r in range(-3, 4):
            want = (
                t**2 + r**2 < s**2 / 3
                and t**2 + (-s + r) ** 2 > s**2
                and t**2 + (s + r) ** 2 > s**2
                and t >= d * s
                and -s / 6 < r < s / 6
            )
            assert region_contains_point(d, s, t, r) == want


def test_count_lattice_examples():
    assert len(lattice_points(RegionSpec(delta=0.5, s=6))) == 1
    assert lattice_points(RegionSpec(delta=0.3, s=4)) == [(2, 0)]


def test_count_lattice_density_converges_to_area():
    a = region_area(0.3)
    d = len(lattice_points(RegionSpec(delta=0.3, s=200)))
    assert abs(d / 200**2 - a) < 0.05


def test_count_lattice_degenerate_delta():
    delta = 1 / math.sqrt(3) - 1e-6
    for s in (10, 50, 200):
        assert len(lattice_points(RegionSpec(delta=delta, s=s))) == 0


def test_count_symmetric_in_r():
    pts = lattice_points(RegionSpec(delta=0.25, s=30))
    as_set = set(pts)
    for (t, r) in pts:
        assert (t, -r) in as_set


def test_region_area_degenerate():
    assert region_area(1 / math.sqrt(3) - 1e-6) < 1e-3


def test_region_area_against_lattice_count():
    for delta in (0.25, 0.4):
        a = region_area(delta)
        d = len(lattice_points(RegionSpec(delta=delta, s=500))) / 500**2
        assert abs(d - a) / a < 0.02


def _mask_lattice_points(spec):
    """Oracle: the region as one NumPy mask over the bounding box."""
    s = spec.s
    t_hi = int(math.floor(s / math.sqrt(3.0))) + 1
    r_hi = s // 6 + 1
    T, R = np.meshgrid(np.arange(1, t_hi + 1), np.arange(-r_hi, r_hi + 1),
                       indexing="ij")
    mask = (
        (3 * (T * T + R * R) < s * s)
        & (T * T + (R - s) ** 2 > s * s)
        & (T * T + (R + s) ** 2 > s * s)
        & (T >= spec.delta * s)
        & (-s < 6 * R)
        & (6 * R < s)
    )
    return [(int(a), int(b)) for a, b in zip(T[mask], R[mask])]


@pytest.mark.parametrize("s", [4, 8, 200, 500])
@pytest.mark.parametrize("delta", [0.25, 0.3, 0.5])
def test_lattice_points_match_mask_oracle(s, delta):
    spec = RegionSpec(delta=delta, s=s)
    assert lattice_points(spec) == _mask_lattice_points(spec)


def test_region_test_matches_integer_forms_on_every_box_pair():
    # region_contains_point's float inequalities against the mask's integer
    # forms (3 (t^2 + r^2) < s^2, -s < 6 r < s) on every box up to s = 60
    for s in range(1, 61):
        for delta in (0.05, 0.3, 0.5):
            spec = RegionSpec(delta=delta, s=s)
            assert lattice_points(spec) == _mask_lattice_points(spec)


def _section_halfwidth(x):
    """Half-width of the (s-normalized) region section at abscissa x."""
    inner = 1.0 / 3.0 - x * x
    if inner <= 0.0:
        return 0.0
    return min(1.0 / 6.0, math.sqrt(inner), 1.0 - math.sqrt(max(0.0, 1.0 - x * x)))


def _quad_region_area(delta):
    """Oracle: a(delta) by adaptive quadrature of the section width, with
    the section crossover sqrt(11)/6 as a breakpoint."""
    crossover = math.sqrt(11.0) / 6.0
    pts = [crossover] if delta < crossover else []
    val, _ = scipy.integrate.quad(
        lambda x: 2.0 * _section_halfwidth(x), delta, 1.0 / math.sqrt(3.0),
        points=pts, limit=200, epsabs=1e-13, epsrel=1e-10,
    )
    return val


def _mp_region_area(delta):
    """Reference: a(delta) from the antiderivatives at 40 digits, with the
    exact 1/sqrt(3) and sqrt(11)/6 (delta itself is taken as given)."""
    with mpmath.workdps(40):
        c, x0, d = 1 / mpmath.sqrt(3), mpmath.sqrt(11) / 6, mpmath.mpf(delta)

        def disk(r, x):  # integral of 2 sqrt(r^2 - x^2)
            return x * mpmath.sqrt(r * r - x * x) + r * r * mpmath.asin(x / r)

        area = disk(c, c) - disk(c, max(d, x0))
        if d < x0:
            area += 2 * (x0 - d) - (disk(1, x0) - disk(1, d))
        return area


_INV_SQRT3 = 1.0 / math.sqrt(3.0)
# 399 delta evenly across (0, 1/sqrt(3)), then up to 1e-7 from its end
_AREA_DELTAS = ([_INV_SQRT3 * i / 400 for i in range(1, 400)]
                + [_INV_SQRT3 - h for h in (1e-4, 1e-5, 1e-6, 5e-7, 2e-7, 1e-7)])


def test_region_area_matches_quadrature_oracle():
    for delta in _AREA_DELTAS:
        if delta <= 0.57:
            want = _quad_region_area(delta)
            assert abs(region_area(delta) - want) <= 1e-10 * want, delta


def test_region_area_matches_40_digit_reference():
    for delta in _AREA_DELTAS:
        want = _mp_region_area(delta)
        err = abs(mpmath.mpf(region_area(delta)) - want) / want
        # beyond 0.57 the rounding of 1/sqrt(3) itself dominates
        assert err <= (1e-12 if delta <= 0.57 else 1e-8), delta


def _optimize_delta():
    """(delta*, a(delta*) delta*^(4/3)): the maximum of a(delta) delta^(4/3)
    from an 80-point scan of (0, 1/sqrt(3)) and a golden-section search to a
    1e-7 bracket, on region_area's closed segment form.  The oracle of the
    constants ``DELTA_STAR`` and ``MAX_A_DELTA_SCALED``."""

    def h(d):
        return region_area(d) * d ** (4.0 / 3.0)

    points = 80
    deltas = np.linspace(1e-3, _INV_SQRT3 - 1e-9, points)
    i = int(np.argmax([h(d) for d in deltas]))
    a, b = deltas[max(0, i - 1)], deltas[min(points - 1, i + 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = h(c), h(d)
    while b - a > 1e-7:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = h(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = h(d)
    x = 0.5 * (a + b)
    return x, h(x)


def test_optimize_delta_value():
    dstar, value = _optimize_delta()
    assert dstar == pytest.approx(DELTA_STAR, rel=1e-12, abs=0)
    assert value == pytest.approx(MAX_A_DELTA_SCALED, rel=1e-12, abs=0)
    assert value == pytest.approx(A_DELTA_MAX, rel=0.10)
    assert 0.3 < dstar < 0.45
    # interior maximum: nearby values are smaller
    h = lambda d: region_area(d) * d ** (4 / 3)
    assert h(dstar * 0.9) < value and h(min(dstar * 1.1, 0.55)) < value


# ---------------------------------------------------------------------
# recurrence system
# ---------------------------------------------------------------------

def d_coefficient(prob, n, sigma_hat):
    """Reconstruct d_n from the assembled system."""
    sys = build_recurrence_system(prob, 64)
    i = n + 64
    return (sigma_hat * sys.diag_b[i] - sys.diag_a[i]) / sys.off_a[i]


def test_recurrence_d1_direct_substitution():
    # s=2, t=1, r=0, alpha=0, Lambda=1, sigma=0: d_1 = 25/1 = 25
    prob = RecurrenceProblem(s=2, t=1, r=0, capital_lambda=1.0, alpha=0.0)
    assert d_coefficient(prob, 1, 0.0) == pytest.approx(25.0, rel=1e-14)


def test_recurrence_d_matches_formula_generic():
    prob = RecurrenceProblem(s=3, t=2, r=1, capital_lambda=1.7, alpha=0.2)
    for n in (-2, -1, 0, 1, 2):
        k2 = prob.t**2 + (prob.s * n + prob.r) ** 2
        for sig in (0.0, 0.7, -1.3):
            want = ((k2 + prob.alpha**2 * k2**2) * (k2 + sig)
                    / (prob.capital_lambda * prob.t * (k2 - prob.s**2)))
            assert d_coefficient(prob, n, sig) == pytest.approx(want, rel=1e-13)


def test_diag_b_alpha0_reduces_to_kappa_sq():
    prob = RecurrenceProblem(s=2, t=1, r=0, capital_lambda=1.0, alpha=0.0)
    sys = build_recurrence_system(prob, 64)
    assert np.allclose(sys.diag_b, prob.kappa_sq(64), rtol=0, atol=0)


def test_singular_chain_rejected():
    # kappa_1^2 = 9 + (5 - 1)^2 = 25 = s^2
    with pytest.raises(NumericalError, match="singular chain"):
        RecurrenceProblem(s=5, t=3, r=-1, capital_lambda=1.0, alpha=0.0)


def test_truncation_convergence():
    prob = RecurrenceProblem(s=4, t=2, r=0, capital_lambda=5.0, alpha=0.0)
    from mla.stability import _largest_real_decaying

    s1, _ = _largest_real_decaying(build_recurrence_system(prob, 40))
    s2, _ = _largest_real_decaying(build_recurrence_system(prob, 50))
    assert abs(s1 - s2) < 1e-10


def _largest_real_decaying_loop(vals, vecs):
    """Per-eigenvalue loop over the output of the dense eigensolve."""
    from mla.stability import DECAY_TAIL_TOL, SIGMA_REAL_TOL

    best = None
    for j in range(len(vals)):
        lam = vals[j]
        if abs(lam.imag) >= SIGMA_REAL_TOL * (1.0 + abs(lam.real)):
            continue
        v = vecs[:, j]
        if max(abs(v[0]), abs(v[-1])) >= DECAY_TAIL_TOL * np.max(np.abs(v)):
            continue
        if best is None or lam.real > best[0]:
            best = (float(lam.real), np.real(v / v[np.argmax(np.abs(v))]))
    return best


def _shifted(sys, sigma_hat):
    """A - sigma_hat B in the (1, 1) band storage of solve_banded."""
    ab = np.zeros((3, sys.size))
    ab[0, 1:] = sys.off_a[:-1]
    ab[1, :] = sys.diag_a - sigma_hat * sys.diag_b
    ab[2, :-1] = -sys.off_a[1:]
    return ab


def _polish(sys, sigma_hat, e):
    """Banded inverse iteration + Rayleigh quotient on (A, B), keeping the
    pair of smallest residual: a dense eigenvector of the balanced B^-1 A is
    not at the generalized residual's floor, and a couple of O(n) sweeps
    push it there.  The vector is scaled to +1 at its signed peak."""
    best_sig, best_vec = sigma_hat, e
    best_res = sys.residual(sigma_hat, e)
    sig, vec = sigma_hat, e
    for _ in range(2):
        try:
            w = scipy.linalg.solve_banded((1, 1), _shifted(sys, sig),
                                          sys.diag_b * vec)
        except np.linalg.LinAlgError:
            break  # exactly singular: current pair is already converged
        if not np.all(np.isfinite(w)):
            break
        vec = w / w[np.argmax(np.abs(w))]
        sig = sys.rayleigh_quotient(vec)
        res = sys.residual(sig, vec)
        if res < best_res:
            best_sig, best_vec, best_res = sig, vec, res
        if best_res < 1e-13:
            break
    return best_sig, best_vec


def _dense_largest_real_decaying(sys):
    """The dense-eigenvector selection: every eigenvector of the balanced
    B^-1 A from one scipy.linalg.eig, the per-eigenvalue loop, then the
    banded polish of the chosen pair."""
    m = np.diag(sys.diag_a / sys.diag_b)
    idx = np.arange(sys.size - 1)
    m[idx, idx + 1] = sys.off_a[:-1] / sys.diag_b[:-1]
    m[idx + 1, idx] = -sys.off_a[1:] / sys.diag_b[1:]
    try:
        best = _largest_real_decaying_loop(*scipy.linalg.eig(m))
    except ValueError as exc:  # a non-finite chain
        raise NumericalError(f"dense eigensolve failed: {exc}") from exc
    return None if best is None else _polish(sys, *best)


@pytest.mark.parametrize("cap", [1e-3, 2.0, 6.0, 40.0])
def test_largest_real_decaying_matches_dense_oracle(cap):
    sys = build_recurrence_system(
        RecurrenceProblem(s=8, t=3, r=-1, capital_lambda=cap, alpha=0.1), 64)
    got = stability._largest_real_decaying(sys)
    want = _dense_largest_real_decaying(sys)
    assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
    assert np.max(np.abs(got[1] - want[1])) <= 1e-8


def test_largest_real_decaying_rejects_a_cut_off_eigenvector():
    # the only real eigenvalue at n_trunc 64 has a tail the truncation edge
    # cuts off (test_unresolved_misses_do_not_stop_the_search)
    sys = build_recurrence_system(
        RecurrenceProblem(s=1, t=3, r=0, capital_lambda=3000.0), 64)
    assert _dense_largest_real_decaying(sys) is None
    assert stability._largest_real_decaying(sys) is None


@pytest.mark.parametrize("cap", [1e-3, 40.0])
def test_largest_real_decaying_solves_eigenvalues_only_once(monkeypatch, cap):
    calls = []
    eigvals = np.linalg.eigvals

    def recording_eigvals(m, *args, **kwargs):
        calls.append((args, kwargs))
        return eigvals(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
    sys = build_recurrence_system(
        RecurrenceProblem(s=8, t=3, r=-1, capital_lambda=cap, alpha=0.1), 64)
    assert stability._largest_real_decaying(sys) is not None
    assert calls == [((), {})]


def test_principal_sigma_solves_banded_only_in_inverse_iteration(monkeypatch):
    # shipped scan chain (s, t, r) = (8, 3, 0): the Rayleigh quotient of the
    # inverse-iteration vector is the eigenvalue, with no second polish
    callers = []
    gtsv = stability._gtsv

    def recording(*args):
        callers.append(inspect.currentframe().f_back.f_code.co_name)
        return gtsv(*args)

    monkeypatch.setattr(stability, "_gtsv", recording)
    cap = capital_lambda(120.0, 8, 0.1)
    res = principal_sigma(RecurrenceProblem(s=8, t=3, r=0, capital_lambda=cap,
                                            alpha=0.1))
    assert res.eigen_residual < 1e-12
    assert callers and set(callers) == {"_inverse_iteration"}


def _gtsv_of(ab, b):
    """stability._gtsv on the (1, 1) band storage of solve_banded."""
    return np.array(stability._gtsv(ab[2, :-1].tolist(), ab[1].tolist(),
                                    ab[0, 1:].tolist(), b.tolist()))


def test_gtsv_matches_lapack_on_random_systems():
    # oracle: LAPACK dgtsv, which solve_banded calls for bands (1, 1);
    # rounded entries make ties and exact zeros in the pivot test
    rng = np.random.default_rng(13)
    for trial in range(400):
        n = int(rng.integers(2, 60))
        ab = rng.standard_normal((3, n)) * np.exp(rng.uniform(-4, 4, (3, n)))
        if trial % 4 == 0:
            ab = np.round(ab)
        b = rng.standard_normal(n)
        try:
            want = scipy.linalg.solve_banded((1, 1), ab, b)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                _gtsv_of(ab, b)
            continue
        assert np.array_equal(_gtsv_of(ab, b), want), trial


@pytest.mark.parametrize("n_trunc", [64, 128, 512])
def test_gtsv_matches_lapack_on_shipped_chain(n_trunc):
    # shipped scan chain (s, t, r) = (8, 3, 0) at sizes 129, 257 and 1025,
    # shifted to its eigenvalue as inverse iteration shifts it
    cap = capital_lambda(120.0, 8, 0.1)
    sys = build_recurrence_system(
        RecurrenceProblem(s=8, t=3, r=0, capital_lambda=cap, alpha=0.1), n_trunc)
    sigma = principal_sigma(RecurrenceProblem(s=8, t=3, r=0, capital_lambda=cap,
                                              alpha=0.1)).sigma_hat
    rng = np.random.default_rng(n_trunc)
    for shift in (sigma, sigma + 0.5, -3.0):
        ab = _shifted(sys, shift)
        for b in (sys.diag_b.copy(), rng.standard_normal(sys.size)):
            assert np.array_equal(_gtsv_of(ab, b),
                                  scipy.linalg.solve_banded((1, 1), ab, b))


def test_inverse_iteration_nudges_an_exactly_singular_shift():
    # zero diagonal of odd size: A itself is singular, with null vector
    # (1, 0, 1, 0, 1), so the shift 0 stops the elimination at a zero pivot
    sys = stability.GeneralizedEigSystem(
        diag_a=np.zeros(5), off_a=np.array([1.0, 2.0, 1.0, 3.0, 1.0]),
        diag_b=np.arange(1.0, 6.0))
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.solve_banded((1, 1), _shifted(sys, 0.0), np.ones(5))
    with pytest.raises(np.linalg.LinAlgError):
        _gtsv_of(_shifted(sys, 0.0), np.ones(5))
    vec = stability._inverse_iteration(sys, 0.0)
    assert np.max(np.abs(vec - [1.0, 0.0, 1.0, 0.0, 1.0])) < 1e-12


def test_stability_result_residual_invariant():
    with pytest.raises(NumericalError):
        StabilityResult(
            sigma_hat=1.0, eigen_residual=1e-6,
            eigenvector=np.ones(3), n_trunc_used=1,
        )


def test_residual_norm_does_not_square_large_entries():
    # ||(3e200, 0)|| squared 3e200 and overflowed: inf, with a RuntimeWarning
    sys = stability.GeneralizedEigSystem(
        diag_a=np.array([3e200, 0.0]), off_a=np.zeros(2), diag_b=np.ones(2))
    assert sys.residual(0.0, np.ones(2)) == pytest.approx(3e200 / math.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("t,r", [(1, 0), (2, 0), (3, 0), (3, 1), (4, 0), (4, 1)])
def test_chain_at_huge_lambda_has_a_finite_residual(t, r):
    # at Lambda(1e300) these chains failed with "eigen residual inf" after a
    # RuntimeWarning from the norm; each passes, or fails with a finite residual
    prob = RecurrenceProblem(s=6, t=t, r=r, capital_lambda=capital_lambda(1e300, 6, 0.0))
    try:
        principal_sigma(prob)
    except NumericalError as exc:
        residual = re.search(r"eigen residual (\S+) exceeds", str(exc))
        assert residual is None or math.isfinite(float(residual[1]))


# ---------------------------------------------------------------------
# principal / unstable eigenvalue
# ---------------------------------------------------------------------

def unstable_sigma(prob):
    """Principal eigenvalue if it is unstable (sigma_hat > 0), else None."""
    res = principal_sigma(prob)
    return res if res.sigma_hat > 0.0 else None


def test_sigma_small_lambda_limit():
    prob = RecurrenceProblem(s=4, t=2, r=0, capital_lambda=1e-9, alpha=0.0)
    res = principal_sigma(prob)
    assert res.sigma_hat == pytest.approx(-4.0, abs=1e-6)  # -min kappa^2
    assert unstable_sigma(prob) is None


def test_sigma_above_upper_threshold_is_unstable():
    for alpha in (0.0, 0.1):
        _, hi = lu_interval(4, 0.3, alpha)
        prob = RecurrenceProblem(s=4, t=2, r=0, capital_lambda=1.5 * hi,
                                 alpha=alpha)
        res = unstable_sigma(prob)
        assert res is not None and res.sigma_hat > 0


def test_sigma_monotone_in_lambda():
    caps = np.geomspace(0.5, 20.0, 12)
    sigs = [
        principal_sigma(
            RecurrenceProblem(s=4, t=2, r=0, capital_lambda=c, alpha=0.05)
        ).sigma_hat
        for c in caps
    ]
    assert np.all(np.diff(sigs) > 0)


def test_sigma_matches_dense_oracle_supercritical():
    # deep cutoff so the dense chain is converged at an unstable Lambda
    cap = 5.122
    lam = lam_from_cap(cap, 4, 0.0)
    sig = principal_sigma(
        RecurrenceProblem(s=4, t=2, r=0, capital_lambda=cap, alpha=0.0)
    ).sigma_hat
    assert sig > 0
    vals = full_linearization_spectrum(4, lam, 1.0, 0.0, 24)
    real = vals[np.abs(vals.imag) < 1e-10 * (1 + np.abs(vals.real))].real
    assert np.min(np.abs(real - sig)) < 1e-8


def test_eigenvector_decays():
    res = principal_sigma(
        RecurrenceProblem(s=4, t=2, r=0, capital_lambda=6.0, alpha=0.0)
    )
    v = np.abs(res.eigenvector)
    assert max(v[0], v[-1]) < 1e-8 * np.max(v)
    assert res.eigen_residual < 1e-10


# ---------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------

def test_lambda0_in_window_and_sign_change():
    lam0 = lambda0_threshold(4, 2, 0, 0.0, 0.3)
    lo, hi = lu_interval(4, 0.3, 0.0)
    assert lo < lam0 < hi
    up = principal_sigma(
        RecurrenceProblem(s=4, t=2, r=0, capital_lambda=1.1 * lam0, alpha=0.0)
    ).sigma_hat
    dn = principal_sigma(
        RecurrenceProblem(s=4, t=2, r=0, capital_lambda=0.9 * lam0, alpha=0.0)
    ).sigma_hat
    assert dn < 0 < up


def test_lambda0_alpha_form_window():
    lam0 = lambda0_threshold(6, 3, 0, 0.1, 0.35)
    lo, hi = lu_interval(6, 0.35, 0.1)
    assert lo < lam0 < hi


@pytest.mark.parametrize("s,delta,t,alpha",
                         [(4, 0.3, 2, 0.5), (6, 0.35, 3, 0.3), (4, 0.4, 2, 1.0)])
def test_lambda0_window_holds_at_order_one_alpha(s, delta, t, alpha):
    # filter lengths with alpha^2 s^2 of order one and above
    lam0 = lambda0_threshold(s, t, 0, alpha, delta)
    lo, hi = lu_interval(s, delta, alpha)
    assert lo < lam0 < hi


def _bisect_lambda0(s, t, r, alpha, delta):
    """Bisection for sigma_hat(Lambda) = 0 to 1e-8 relative, on the
    two-sided window widened by a factor of 10 on each side."""
    lo_ref, hi_ref = lu_interval(s, delta, alpha)
    lo, hi = lo_ref / 10.0, hi_ref * 10.0

    def sig(lam_cap):
        return principal_sigma(
            RecurrenceProblem(s=s, t=t, r=r, capital_lambda=lam_cap, alpha=alpha)
        ).sigma_hat

    assert sig(lo) < 0.0 < sig(hi)
    while hi - lo > 1e-8 * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        if sig(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _criterion_6_cases():
    cases = []
    for s, delta in ((4, 0.3), (6, 0.2), (8, 0.3), (10, 0.3)):
        for (t, r) in lattice_points(RegionSpec(delta=delta, s=s)):
            for alpha in (0.0, 0.1):
                cases.append((s, delta, t, r, alpha))
    return cases[:20]


@pytest.mark.parametrize("s,delta,t,r,alpha", _criterion_6_cases()[::3])
def test_lambda0_matches_bisection_oracle(s, delta, t, r, alpha):
    direct = lambda0_threshold(s, t, r, alpha, delta)
    oracle = _bisect_lambda0(s, t, r, alpha, delta)
    assert abs(direct - oracle) <= 1e-8 * oracle


def _seeded_in_region_chains():
    """Eight in-region chains with s <= 12 drawn with a fixed seed, each at
    both alpha of criterion 6 and at a Lambda drawn log-uniformly from the
    widened threshold window."""
    rng = np.random.default_rng(5)
    chains = [(s, t, r) for s in range(2, 13)
              for (t, r) in lattice_points(RegionSpec(delta=0.3, s=s))]
    cases = []
    for i in rng.choice(len(chains), 8, replace=False):
        for alpha in (0.0, 0.1):
            s, t, r = chains[i]
            lo, hi = lu_interval(s, 0.3, alpha)
            cap = math.exp(rng.uniform(math.log(lo / 10), math.log(hi * 10)))
            cap = float(f"{cap:.4g}")  # short test ids
            cases.append((s, t, r, alpha, cap))
    return cases


def _dense_settled_eigenpair(build, sigma_ref=0.0):
    """The doubling loop with a dense selection at every truncation, from a
    fixed start of 64 and with the edge-row miss rule: the dense-eigenvector
    oracle, without the warm start from the vector that the previous
    truncation settled, and without the tail certificate."""
    prev, misses = None, 0
    trunc = 64
    while trunc <= stability.MAX_TRUNC:
        sys = build(trunc)
        got = _dense_largest_real_decaying(sys)
        edge = np.abs(sys.diag_a - sigma_ref * sys.diag_b)[[0, -1]]
        resolved = np.all(2.0 * np.abs(sys.off_a[[0, -1]]) < edge)
        misses = misses + 1 if got is None and resolved else 0
        if misses == 2:
            raise NumericalError(
                f"no real decaying eigenvalue at n_trunc={trunc // 2} or {trunc}")
        if got is not None:
            value, vec = got
            if prev is not None and abs(value - prev) < 1e-10 * (1.0 + abs(value)):
                return value, vec, sys, trunc
            prev = value
        trunc *= 2
    raise NumericalError(
        f"eigenvalue did not converge by n_trunc={stability.MAX_TRUNC} "
        f"(last value={prev})")


_REAL_LARGEST_REAL_DECAYING = stability._largest_real_decaying


def _cold_largest_real_decaying(sys, guess=None):
    """The selection with its guess dropped: a dense solve at every call."""
    return _REAL_LARGEST_REAL_DECAYING(sys)


def _fast_and_dense(monkeypatch, solve, name="_settled_eigenpair",
                    oracle=_dense_settled_eigenpair):
    """solve() as shipped and with ``oracle`` in place of stability.<name>
    (by default the fixed-64 dense search); None where it raises
    NumericalError."""
    out = []
    for dense in (False, True):
        with monkeypatch.context() as mp:
            if dense:
                mp.setattr(stability, name, oracle)
            try:
                out.append(solve())
            except NumericalError:
                out.append(None)
    return out


def _agree(fast, dense):
    return fast is dense is None or (
        None not in (fast, dense) and abs(fast - dense) <= 1e-9 * (1.0 + abs(dense)))


@pytest.mark.parametrize("s,t,r,alpha,cap", _seeded_in_region_chains())
def test_fast_selection_agrees_with_dense_oracle(monkeypatch, s, t, r, alpha, cap):
    prob = RecurrenceProblem(s=s, t=t, r=r, capital_lambda=cap, alpha=alpha)
    assert _agree(*_fast_and_dense(
        monkeypatch, lambda: principal_sigma(prob).sigma_hat))
    assert _agree(*_fast_and_dense(
        monkeypatch, lambda: lambda0_threshold(s, t, r, alpha, 0.3)))


def test_fast_selection_agrees_with_dense_oracle_on_squire_hat_chains(monkeypatch):
    from mla import squire

    lam = squire.lambda3_driver(20, 0.05, 0.2)
    triples = list(squire.admissible_triples(20, SHIPPED_WINDOW))
    for i in np.random.default_rng(5).choice(len(triples), 3, replace=False):
        prob = squire.hat_problem(triples[i], 20, lam, 0.05)
        assert _agree(*_fast_and_dense(
            monkeypatch, lambda: principal_sigma(prob).sigma_hat))


def _seeded_grid_cases(seed=9, n_chains=24, n_thresholds=4):
    """A seeded sample of the agreement grid: n_chains of its chains (s 3-12,
    both alpha, Lambda = 0.5 s, 2 s and 10 s over the delta = 0.05 box) and
    n_thresholds of its in-region Lambda_0 chains at delta = 0.3."""
    rng = np.random.default_rng(seed)
    chains = []
    for s in range(3, 13):
        for alpha in (0.0, 0.1):
            for cap in (0.5 * s, 2.0 * s, 10.0 * s):
                for (t, r) in RegionSpec(delta=0.05, s=s).box():
                    try:
                        chains.append(RecurrenceProblem(
                            s=s, t=t, r=r, capital_lambda=cap, alpha=alpha))
                    except NumericalError:  # singular chain: kappa_n^2 = s^2
                        pass
    thresholds = [(s, t, r, alpha) for s in range(3, 13) for alpha in (0.0, 0.1)
                  for (t, r) in lattice_points(RegionSpec(delta=0.3, s=s))]
    return ([chains[i] for i in rng.choice(len(chains), n_chains, replace=False)],
            [thresholds[i] for i in rng.choice(len(thresholds), n_thresholds,
                                               replace=False)])


def test_warm_start_matches_dense_solve_at_every_doubling(monkeypatch):
    # the same search, with the guess of every doubling dropped
    cold = {"name": "_largest_real_decaying", "oracle": _cold_largest_real_decaying}
    chains, thresholds = _seeded_grid_cases()
    for prob in chains:
        def solve():
            res = principal_sigma(prob)
            return res.sigma_hat, res.n_trunc_used

        warm, dense = _fast_and_dense(monkeypatch, solve, **cold)
        assert (warm is None) == (dense is None), prob
        if warm is not None:
            assert _agree(warm[0], dense[0]), prob
            assert warm[1] == dense[1], prob
    for s, t, r, alpha in thresholds:
        assert _agree(*_fast_and_dense(
            monkeypatch, lambda: lambda0_threshold(s, t, r, alpha, 0.3), **cold))


def test_tail_bound_holds_for_every_eigenvector_of_a_longer_truncation():
    # the bound at n_trunc 16 and value lam caps the rows +-16 of each real
    # eigenvector of value lam at n_trunc 64; it is tight where the vector
    # peaks next to the resolved run
    checked = 0
    for prob in _seeded_grid_cases(3, 12, 1)[0]:
        short, long = (build_recurrence_system(prob, m) for m in (16, 64))
        dense = np.diag(long.diag_a / long.diag_b)
        idx = np.arange(long.size - 1)
        dense[idx, idx + 1] = long.off_a[:-1] / long.diag_b[:-1]
        dense[idx + 1, idx] = -long.off_a[1:] / long.diag_b[1:]
        vals, vecs = scipy.linalg.eig(dense)
        for lam, e in zip(vals, vecs.T):
            if abs(lam.imag) > 1e-10 * (1.0 + abs(lam.real)):
                continue
            e = np.real(e / e[np.argmax(np.abs(e))])
            bound = stability._tail_bound(short, lam.real)
            assert max(abs(e[64 - 16]), abs(e[64 + 16])) <= bound + 1e-13, prob
            checked += 1e-13 < bound < 1.0
    assert checked > 50


def test_start_at_16_agrees_with_the_fixed_64_oracle(monkeypatch):
    # the same chains raise, and the values agree within 1e-9 (1 + |v|);
    # n_trunc_used may differ
    chains, thresholds = _seeded_grid_cases(16, 64, 8)
    for prob in chains:
        assert _agree(*_fast_and_dense(
            monkeypatch, lambda: principal_sigma(prob).sigma_hat)), prob
    for s, t, r, alpha in thresholds:
        assert _agree(*_fast_and_dense(
            monkeypatch, lambda: lambda0_threshold(s, t, r, alpha, 0.3)))


def _recorded_eig_sizes(monkeypatch):
    sizes = []
    eigvals = np.linalg.eigvals

    def recording_eigvals(m, *args, **kwargs):
        sizes.append(len(m))
        return eigvals(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
    return sizes


def test_settled_chain_makes_one_dense_solve(monkeypatch):
    # shipped scan chain (s, t, r) = (8, 3, 0): the dense solve at n_trunc 16
    # finds the pair, and 32 confirms it from the zero-padded vector
    sizes = _recorded_eig_sizes(monkeypatch)
    cap = capital_lambda(120.0, 8, 0.1)
    res = principal_sigma(RecurrenceProblem(s=8, t=3, r=0, capital_lambda=cap,
                                            alpha=0.1))
    assert res.n_trunc_used == 32
    assert sizes == [33]
    sizes.clear()
    lambda0_threshold(8, 3, 0, 0.1, 0.3)  # the mu chain and two sign checks
    assert sizes == [33, 33, 33]


def test_a_guess_that_does_not_settle_falls_back_to_the_dense_solve(monkeypatch):
    sys = build_recurrence_system(
        RecurrenceProblem(s=8, t=3, r=-1, capital_lambda=6.0, alpha=0.1), 64)
    want = stability._largest_real_decaying(sys)
    sizes = _recorded_eig_sizes(monkeypatch)
    # inverse iteration at a value off by 1 cannot settle against it
    got = stability._largest_real_decaying(sys, (want[0] + 1.0, np.ones(sys.size)))
    assert sizes == [sys.size] and got[0] == want[0]
    sizes.clear()
    got = stability._largest_real_decaying(sys, want)
    assert sizes == [] and abs(got[0] - want[0]) <= 1e-12 * abs(want[0])


def test_chain_the_certificate_refuses_at_16_solves_densely_further(monkeypatch):
    # alpha = 0 and Lambda 10x the top of the delta = 0.05 window: the edge
    # coupling Lambda t / kappa^2 at n_trunc 16 is 5.6, so no row there is
    # resolved, and each doubling solves densely until one certifies its pair
    cap = 10.0 * lu_interval(8, 0.05, 0.0)[1]
    prob = RecurrenceProblem(s=8, t=3, r=0, capital_lambda=cap)
    assert stability._tail_bound(build_recurrence_system(prob, 16), 0.0) == math.inf
    fast, dense = _fast_and_dense(monkeypatch, lambda: principal_sigma(prob).sigma_hat)
    sizes = _recorded_eig_sizes(monkeypatch)
    assert principal_sigma(prob).n_trunc_used == 64
    assert sizes == [33, 65, 129]
    assert _agree(fast, dense)


def test_lambda0_out_of_region_chain_raises():
    # two modes of this chain lie inside |k| < s: no neutral decaying mode
    with pytest.raises(NumericalError, match="no real decaying"):
        lambda0_threshold(8, 1, 2, 0.1, 0.3)


def test_eigenpair_search_stops_after_two_truncations_without_one(monkeypatch):
    # the misses replace the whole selection, the warm start included
    real = stability._largest_real_decaying
    sizes, guessed = [], []

    def every_other(sys, guess=None):  # none at the 1st and 3rd truncation
        sizes.append(sys.size)
        guessed.append(guess is not None)
        return None if len(sizes) in (1, 3) else real(sys, guess)

    prob = RecurrenceProblem(s=4, t=2, r=0, capital_lambda=5.0)
    monkeypatch.setattr(stability, "_largest_real_decaying", every_other)
    assert principal_sigma(prob).n_trunc_used == 128  # one miss: search goes on
    assert guessed == [False, False, True, False]  # the 3rd was warm-started
    sizes.clear()
    monkeypatch.setattr(stability, "_largest_real_decaying",
                        lambda sys, guess=None: sizes.append(sys.size))
    with pytest.raises(NumericalError, match="n_trunc=16 or 32"):
        principal_sigma(prob)
    assert len(sizes) == 2


def test_unresolved_misses_do_not_stop_the_search(monkeypatch):
    # edge coupling Lambda t (kappa^2 - s^2) / (B kappa^2) is 34, 8.7, 2.2
    # and 0.55 at n_trunc 16 to 128: none resolves the tail, so their misses
    # do not end the search, and 256 finds a real decaying eigenvalue
    prob = RecurrenceProblem(s=1, t=3, r=0, capital_lambda=3000.0)
    monkeypatch.setattr(stability, "MAX_TRUNC", 256)
    with pytest.raises(NumericalError,
                       match=r"did not converge by n_trunc=256 \(last value=-"):
        principal_sigma(prob)


def test_lambda0_outside_widened_window_raises(monkeypatch):
    monkeypatch.setattr(stability, "lu_interval", lambda s, delta, alpha: (1e3, 1e4))
    with pytest.raises(NumericalError, match="outside"):
        lambda0_threshold(4, 2, 0, 0.0, 0.3)


def test_lambda0_without_resolved_sign_change_raises(monkeypatch):
    # a width below the float spacing evaluates sigma_hat at Lambda_0 twice
    monkeypatch.setattr(stability, "LAMBDA0_REL_WIDTH", 1e-20)
    with pytest.raises(NumericalError, match="sign"):
        lambda0_threshold(4, 2, 0, 0.0, 0.3)


def test_lambda2_threshold_consistent_with_capital_form():
    # the amplitude-form upper edge equals the Lambda-form one scaled by
    # 2 sqrt2 pi (1 + alpha^2 s^2) -- checked for both transcriptions
    for s, delta, alpha in ((4, 0.3, 0.0), (6, 0.25, 0.2), (9, 0.4, 0.05)):
        scale = SQRT2PI2 * (1 + alpha**2 * s**2)
        assert lambda2_threshold(s, alpha, delta) == pytest.approx(
            lu_interval(s, delta, alpha)[1] * scale, rel=1e-12)


# ---------------------------------------------------------------------
# dense operator: the full linearization over the half-lattice
# ---------------------------------------------------------------------

def _half_lattice(k_cutoff):
    return ([(0, k2) for k2 in range(1, k_cutoff + 1)]
            + [(k1, k2) for k1 in range(1, k_cutoff + 1)
               for k2 in range(-k_cutoff, k_cutoff + 1)])


def full_linearization_matrix(s, lam, alpha, k_cutoff):
    """Coefficient matrix of the linearization on the half-lattice box.

    Valid for both the cosine- and sine-family coefficient vectors (the
    two families satisfy identical equations); eigenvalues are sigma_hat.
    Requires k_cutoff >= 3s so each in-region chain keeps at least the
    |n| <= 1 neighbours.
    """
    if k_cutoff < 3 * s:
        raise ValueError(f"k_cutoff={k_cutoff} too small, need >= 3s = {3 * s}")
    lam_cap = capital_lambda(lam, s, alpha)
    index = {k: i for i, k in enumerate(_half_lattice(k_cutoff))}
    m = np.zeros((len(index), len(index)))

    def g(k1, k2):
        ksq = k1 * k1 + k2 * k2
        return (ksq - s * s) / (ksq + alpha**2 * ksq**2)

    for (k1, k2), i in index.items():
        m[i, i] = -(k1 * k1 + k2 * k2)
        if k1 == 0:
            continue  # single-variable modes: no coupling, neutral/stable line
        up, dn = (k1, k2 + s), (k1, k2 - s)
        if up in index:
            m[i, index[up]] += lam_cap * k1 * g(*up)
        if dn in index:
            m[i, index[dn]] -= lam_cap * k1 * g(*dn)
    return m, index


def full_linearization_spectrum(s, lam, nu, alpha, k_cutoff):
    """All sigma_hat eigenvalues of the dense linearization matrix, each
    twice: the cosine and sine coefficient families obey the same equation.
    ``nu`` only sets the dimensional growth rate nu * sigma_hat."""
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    m, _ = full_linearization_matrix(s, lam, alpha, k_cutoff)
    vals = scipy.linalg.eigvals(m)
    both = np.concatenate([vals, vals])
    return both[np.argsort(-both.real)]


def test_full_spectrum_subcritical_all_stable():
    # lam below every threshold: every eigenvalue strictly negative
    lam = lam_from_cap(0.05, 4, 0.0)
    vals = full_linearization_spectrum(4, lam, 1.0, 0.0, 12)
    assert np.all(vals.real < 0)


def test_full_matrix_k1_zero_line_is_diagonal():
    m, index = full_linearization_matrix(3, 8.0, 0.0, 9)
    for (k1, k2), i in index.items():
        if k1 == 0:
            row = m[i].copy()
            row[i] = 0.0
            assert not row.any()
            assert m[i, i] == -(k2**2)
            col = m[:, i].copy()
            col[i] = 0.0
            assert not col.any()


def test_full_matrix_chain_block_structure():
    # eigenvalues of each (t, r mod s) chain block appear in the full spectrum
    m, index = full_linearization_matrix(3, 5.0, 0.1, 9)
    full_vals = scipy.linalg.eigvals(m)
    for (t, r) in ((1, 1), (2, 0), (1, -1)):
        chain = [(t, 3 * n + r) for n in range(-3, 4) if abs(3 * n + r) <= 9]
        idx = [index[c] for c in chain]
        sub_vals = scipy.linalg.eigvals(m[np.ix_(idx, idx)])
        for v in sub_vals:
            assert np.min(np.abs(full_vals - v)) < 1e-9


def test_full_spectrum_multiplicity_two():
    lam = lam_from_cap(2.0, 4, 0.0)
    vals = full_linearization_spectrum(4, lam, 1.0, 0.0, 12)
    for v in vals[:10]:
        assert np.sum(np.abs(vals - v) < 1e-12 * (1 + abs(v))) >= 2


def test_full_matrix_cutoff_guard():
    with pytest.raises(ValueError):
        full_linearization_matrix(4, 1.0, 0.0, 11)


# ---------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------

def test_lower_bound_values():
    assert lower_bound_dim2d(1000.0, 0.0)["value"] == pytest.approx(0.6, rel=1e-12)
    assert lower_bound_dim2d(1000.0, 0.01)["value"] == pytest.approx(0.18, rel=1e-12)
    res = lower_bound_dim2d(10.0, 0.05)
    assert res["regime"] == "small-alpha"
    assert res["alpha_regime_forms"]["C1"] is None


def derived_lower_coefficient(alpha_zero):
    """Provenance of the two-digit coefficients:

    2 (3 sqrt6 / (20 pi))^(2/3) * max a(delta) delta^(4/3)  for alpha = 0,
    2 (63 / (440 sqrt5 pi))^(2/3) * the same max              for small alpha.
    """
    if alpha_zero:
        base = 3.0 * math.sqrt(6.0) / (20.0 * math.pi)
    else:
        base = 63.0 / (440.0 * math.sqrt(5.0) * math.pi)
    return 2.0 * base ** (2.0 / 3.0) * A_DELTA_MAX


def test_lower_bound_coefficient_provenance():
    # 2 (3 sqrt6/(20 pi))^{2/3} * 0.012 rounds to 0.006 at two digits
    assert abs(derived_lower_coefficient(True) - 0.006) < 5e-4
    assert abs(derived_lower_coefficient(False) - 0.0018) < 5e-5


def test_lower_bound_rejects_bad_g():
    with pytest.raises(ValueError):
        lower_bound_dim2d(-1.0, 0.0)


# ---------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------

def test_stability_sweep_region_count():
    rows = stability_sweep(s=6, alpha=0.0, delta=0.5, lam=30.0,
                           compute_lambda0=False)
    in_region = [row for row in rows if row["in_region"]]
    assert len(in_region) == len(lattice_points(RegionSpec(delta=0.5, s=6))) == 1
    assert in_region[0]["t"] == 3 and in_region[0]["r"] == 0
    assert all(np.isfinite(row["sigma_hat"]) or not row["in_region"]
               for row in rows)
    assert all(row["error"] is None for row in rows if row["in_region"])


def test_stability_sweep_records_why_sigma_is_missing():
    # the chain coefficients overflow to inf, so every eigensolve fails
    rows = stability_sweep(s=6, alpha=0.0, delta=0.5, lam=1e308,
                           compute_lambda0=False)
    assert rows and all(math.isnan(row["sigma_hat"]) for row in rows)
    assert all(row["error"].startswith(
        "NumericalError: chain coefficient overflow at n_trunc=16: "
        "Lambda t (kappa^2 - s^2)") for row in rows)


def test_stability_sweep_solves_each_mirrored_pair_once(monkeypatch):
    # row (t, -r) repeats row (t, r); the in-region rows carry Lambda_0
    sizes = _recorded_eig_sizes(monkeypatch)
    rows = stability_sweep(s=8, alpha=0.1, delta=0.3, lam=120.0)
    by_pair = {(row["t"], row["r"]): row for row in rows}
    keys = ("sigma_hat", "lambda0", "in_region", "error")
    mirrored = [(t, r) for t, r in by_pair if r > 0]
    assert len(mirrored) == 10
    for t, r in mirrored:
        assert [by_pair[t, r][k] for k in keys] == [by_pair[t, -r][k] for k in keys]
    assert len(sizes) == 24


def _mirror_chain_cases():
    """A seeded sample of chains (t, r > 0) over the delta = 0.05 box, s 3-12,
    both alpha and Lambda = 0.5 s, 2 s and 10 s."""
    cases = [(s, t, r, alpha, cap) for s in range(3, 13) for alpha in (0.0, 0.1)
             for cap in (0.5 * s, 2.0 * s, 10.0 * s)
             for (t, r) in RegionSpec(delta=0.05, s=s).box() if r > 0]
    rng = np.random.default_rng(21)
    return [cases[i] for i in rng.choice(len(cases), 100, replace=False)]


def test_mirrored_chains_share_their_eigenpair():
    # kappa^2 of (t, -r) at n is kappa^2 of (t, r) at -n, and diag((-1)^n)
    # restores the off-diagonal sign: e'_n = (-1)^n e_{-n}, up to the sign
    # that scaling to 1 at the peak fixes
    for s, t, r, alpha, cap in _mirror_chain_cases():
        got = []
        for rr in (r, -r):
            try:
                got.append(principal_sigma(RecurrenceProblem(
                    s=s, t=t, r=rr, capital_lambda=cap, alpha=alpha)))
            except NumericalError as exc:
                got.append(type(exc))
        plus, minus = got
        if isinstance(plus, type) or isinstance(minus, type):
            assert plus is minus, (s, t, r)
            continue
        assert plus.n_trunc_used == minus.n_trunc_used
        assert abs(plus.sigma_hat - minus.sigma_hat) <= 1e-14 * max(
            1.0, abs(plus.sigma_hat)), (s, t, r)
        n = plus.n_trunc_used
        flip = (-1.0) ** np.arange(-n, n + 1) * plus.eigenvector[::-1]
        flip /= flip[np.argmax(np.abs(flip))]
        assert np.max(np.abs(flip - minus.eigenvector)) <= 1e-12, (s, t, r)


def test_mirrored_chains_share_their_threshold():
    # the sigma_hat = 0 chains mirror the same way
    pairs = [(s, t, r, alpha) for s in range(3, 13) for alpha in (0.0, 0.1)
             for (t, r) in lattice_points(RegionSpec(delta=0.3, s=s)) if r > 0]
    assert len(pairs) == 14
    for s, t, r, alpha in pairs:
        plus, minus = (lambda0_threshold(s, t, rr, alpha, 0.3) for rr in (r, -r))
        assert abs(plus - minus) <= 1e-14 * plus, (s, t, r, alpha)


# ---------------------------------------------------------------------
# truncation-free oracle: the chain's continued fraction
# ---------------------------------------------------------------------

def _chain_condition(prob, sigma_hat, depth=64):
    """(F, scale) of F(sigma_hat) = d_0 + mu_{-1} - rho_1, the row n = 0 of
    the recurrence over e_0, as Meshalkin and Sinai (1961) treat the chain.
    The decaying solution's ratios rho_n = e_n / e_{n-1} = 1 / (rho_{n+1} -
    d_n) toward +inf and mu_n = e_n / e_{n+1} = 1 / (mu_{n-1} + d_n) toward
    -inf start from 0 at |n| = depth; d_n is the closed form of the module
    docstring, so no truncation of the solver is shared.  F vanishes at a
    decaying eigenvalue whose e_0 is not small; scale is |d_0| + |mu_{-1}| +
    |rho_1|."""
    def d(n):
        k2 = prob.t**2 + (prob.s * n + prob.r) ** 2
        return ((k2 + prob.alpha**2 * k2**2) * (k2 + sigma_hat)
                / (prob.capital_lambda * prob.t * (k2 - prob.s**2)))

    rho = mu = 0.0
    for n in range(depth, 0, -1):
        rho, mu = 1.0 / (rho - d(n)), 1.0 / (mu + d(-n))
    return d(0) + mu - rho, abs(d(0)) + abs(mu) + abs(rho)


def _assert_chain_condition(prob, sigma_hat):
    f, scale = _chain_condition(prob, sigma_hat)
    assert abs(f) <= 1e-12 * scale, (prob, sigma_hat, f, scale)


def _shipped(name):
    return json.loads((Path(__file__).parents[1] / "configs" / f"{name}.json").read_text())


@pytest.mark.parametrize("alpha", [0.1, 0.0])
def test_shipped_scan_satisfies_the_chain_condition(alpha):
    # every finite sigma_hat at Lambda(lambda), and sigma_hat = 0 at every Lambda_0
    cfg = _shipped("stability_scan")
    rows = stability_sweep(cfg["s"], alpha, cfg["delta"], cfg["lambda"])
    sigmas = [row for row in rows if math.isfinite(row["sigma_hat"])]
    thresholds = [row for row in rows if math.isfinite(row["lambda0"])]
    assert (len(sigmas), len(thresholds)) == (25, 4)
    for row in sigmas:
        _assert_chain_condition(RecurrenceProblem(
            cfg["s"], row["t"], row["r"], row["capital_lambda"], alpha), row["sigma_hat"])
    for row in thresholds:
        _assert_chain_condition(RecurrenceProblem(
            cfg["s"], row["t"], row["r"], row["lambda0"], alpha), 0.0)


def test_squire_hat_chains_satisfy_the_chain_condition():
    cfg = parse_config(json.dumps(_shipped("squire_study")))
    p, plan = cfg.parameters, cfg.plan
    for tr in itertools.islice(admissible_triples(p["s"], plan["window"]), 40):
        prob = hat_problem(tr, p["s"], plan["lambda"], p["alpha"])
        _assert_chain_condition(prob, principal_sigma(prob).sigma_hat)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s=st.integers(2, 24), delta=st.floats(0.05, 0.3), alpha=st.floats(0.0, 0.2),
       pick=st.integers(0, 10**6), factor=st.floats(1.0, 10.0))
def test_unstable_chains_satisfy_the_chain_condition(s, delta, alpha, pick, factor):
    # an in-region chain above the window's upper edge is unstable.  F is an
    # oracle only where e_0 is not small, which stable chains whose
    # eigenvector peaks off n = 0 break.  s <= 24 and Lambda <= 10 times the
    # edge keep sigma_hat below 4e6: from about 3e7 up, the absolute eigen
    # residual passes 1e-8 and rejects pairs that F confirms (ROADMAP item 4)
    points = lattice_points(RegionSpec(delta=delta, s=s))
    assume(points)
    t, r = points[pick % len(points)]
    prob = RecurrenceProblem(s, t, r, factor * lu_interval(s, delta, alpha)[1], alpha)
    sigma_hat = principal_sigma(prob).sigma_hat
    assert sigma_hat > 0
    _assert_chain_condition(prob, sigma_hat)
