"""Oblique-wave pipeline tests: setup closed forms, reduction identities
against direct substitution, the shear stencil against dense convolution
matrices, the omega2 lanes against LAPACK's banded solve, lifted-mode
residuals on the full mode equations and a lift's memory, the closed-form
a=0 spectrum against the dense generator, the diffusion oracle and a full
differential-algebraic pencil, and triple counting against brute force."""

import math
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from mla import NumericalError
from mla.squire import (
    CountWindow,
    DEFAULT_WINDOW,
    Mode1DProfile,
    Setup3D,
    SquireTriple,
    _modes,
    _relative,
    _shift,
    _wave_tables,
    a0_stability_spectrum,
    admissible_triples,
    count_triples,
    hat_problem,
    lambda2_threshold,
    lambda3_driver,
    lift_mode,
    lower_bound_dim3d,
    reconstruct_omega2,
    solve_hat_mode,
)

S, ALPHA, NU, DSTAR = 6, 0.0, 1.0, 0.2


def driver_setup(s=S, alpha=ALPHA, nu=NU, delta=DSTAR):
    return Setup3D(s, lambda3_driver(s, alpha, delta), nu, alpha)


# ---------------------------------------------------------------------
# oracles: the shear as dense matrices on mode coefficients, the Squire
# reduction, the reduced equations and the a = 0 pressure
# ---------------------------------------------------------------------

def _conv_sin(amp: float, s: int, m_max: int) -> np.ndarray:
    """Multiplication by amp sin(s x3) as a matrix on mode coefficients."""
    n = 2 * m_max + 1
    # e^{+is x3} shifts m-s -> m
    return (amp / 2j) * (np.eye(n, k=-s) - np.eye(n, k=s))


def _conv_cos(amp: float, s: int, m_max: int) -> np.ndarray:
    n = 2 * m_max + 1
    return (amp / 2.0) * (np.eye(n, k=-s, dtype=np.complex128)
                          + np.eye(n, k=s, dtype=np.complex128))


def _a0_generator(b: int, s: int, lam: float, nu: float, alpha: float,
                  k_cutoff: int) -> np.ndarray:
    """The a = 0 linearized generator on divergence-free modes.

    For b != 0 the states are (omega1, omega3) on |m| <= k_cutoff with
    omega2 = -(m/b) omega3 and the pressure eliminated; for b = 0 the
    states are (omega1, omega2) with the m = 0 means removed (zero-mean
    condition).
    """
    u0_amp = Setup3D(s, lam, nu, alpha).u0_amp
    m = _modes(k_cutoff).astype(np.float64)
    if b == 0:
        return np.diag(np.tile(-nu * m[m != 0] ** 2, 2)).astype(np.complex128)
    ksq = b * b + m**2
    H = 1.0 / (1.0 + alpha**2 * ksq)
    n = len(m)
    gen = np.diag(np.tile(-nu * ksq, 2)).astype(np.complex128)
    gen[:n, n:] = -(u0_amp * s / 2.0) * _shift(np.diag(H), s, 1)
    return gen


def _banded_omega2(triple: SquireTriple, q: np.ndarray, setup: Setup3D,
                   c: complex, m_max: int) -> np.ndarray:
    """The omega2 solve as one (s, s) banded system for solve_banded."""
    a, s = triple.a, setup.s
    _, D, H, _, _ = _wave_tables(setup, triple.a_hat**2, m_max)
    half = 0.5 * a * setup.u0_amp
    bands = np.zeros((2 * s + 1, 2 * m_max + 1), dtype=np.complex128)
    bands[0, s:] = half * H[s:]
    bands[s] = setup.nu * D + 1j * a * c
    bands[2 * s, :-s] = -half * H[:-s]
    return scipy.linalg.solve_banded((s, s), bands, 1j * triple.b * q)


@dataclass(frozen=True, eq=False)
class Reduced2D:
    """Squire-reduced data (omega1_hat, omega3_hat, q_hat, c_hat) with the
    dissipation rescale a_hat/a recorded."""

    a_hat: float
    delta_scale: float
    m_max: int
    omega1_hat: np.ndarray
    omega3_hat: np.ndarray
    q_hat: np.ndarray
    c_hat: complex


def squire_reduce(triple: SquireTriple, mode: Mode1DProfile) -> Reduced2D:
    """(omega1_hat, omega3_hat, q_hat, c_hat) from a 3-D mode; a != 0."""
    a, b = triple.a, triple.b
    ah = triple.a_hat
    return Reduced2D(
        a_hat=ah,
        delta_scale=ah / a,
        m_max=mode.m_max,
        omega1_hat=(a * mode.omega1 + b * mode.omega2) / ah,
        omega3_hat=mode.omega3.copy(),
        q_hat=mode.q * (ah / a),
        c_hat=mode.c,
    )


def lineareq2_residuals(reduced: Reduced2D, setup: Setup3D) -> dict:
    """Relative residuals of the reduced system (dissipation scaled by
    a_hat/a, filter unchanged):

        nu (ah/a) D w1h - i ah (u0 H w1h - c w1h) - i ah qh - u0' H w3h = 0
        nu (ah/a) D w3h - i ah (u0 H w3h - c w3h) - qh'                 = 0
        i ah w1h + w3h'                                                 = 0
    """
    ah = reduced.a_hat
    m, D, H, u0_h, du0_h = _wave_tables(setup, ah * ah, reduced.m_max)
    nu_eff = setup.nu * reduced.delta_scale
    c = reduced.c_hat
    w1, w3, q = reduced.omega1_hat, reduced.omega3_hat, reduced.q_hat

    eq1 = _relative([
        nu_eff * D * w1, -1j * ah * u0_h(w1), 1j * ah * c * w1,
        -1j * ah * q, -du0_h(w3),
    ])
    eq2 = _relative([
        nu_eff * D * w3, -1j * ah * u0_h(w3), 1j * ah * c * w3,
        -1j * m * q,
    ])
    div = 1j * ah * w1 + 1j * m * w3
    eq3 = float(np.linalg.norm(div)
                / max(np.linalg.norm(w1), np.linalg.norm(w3), 1e-300))
    return {"eq1": eq1, "eq2": eq2, "eq3": eq3}


def a0_mode_pressure_norms(b: int, s: int, lam: float, nu: float, alpha: float,
                           k_cutoff: int) -> np.ndarray:
    """Least-squares pressure per a = 0 eigenmode (should vanish: the
    periodic pressure solving both momentum rows is q = 0)."""
    if b == 0:
        return np.zeros(2 * (2 * k_cutoff))
    vals, vecs = scipy.linalg.eig(_a0_generator(b, s, lam, nu, alpha, k_cutoff))
    M = k_cutoff
    m = np.arange(-M, M + 1).astype(np.float64)
    n = 2 * M + 1
    ksq = b * b + m**2
    D = -nu * ksq
    out = np.empty(len(vals))
    for j, mu in enumerate(vals):
        w1 = vecs[:n, j]
        w3 = vecs[n:, j]
        w2 = -(m / b) * w3
        rhs2 = (D - mu) * w2   # = i b q
        rhs3 = (D - mu) * w3   # = i m q
        # least squares for q_m over the two rows
        q = (np.conj(1j * b) * rhs2 + np.conj(1j * m) * rhs3) / (b * b + m**2)
        scale = max(np.linalg.norm(w1), np.linalg.norm(w3), 1e-300)
        out[j] = np.linalg.norm(q) / scale
    return out


# ---------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------

def test_setup_v0_amp():
    setup = Setup3D(3, 2.5, 0.4, 0.1)
    assert setup.v0_amp == pytest.approx(0.4 * 2.5 / (math.sqrt(2) * math.pi),
                                         rel=1e-14)


@pytest.mark.parametrize("s,lam,nu,alpha", [
    (0, 1.0, 1.0, 0.0), (3, 0.0, 1.0, 0.0), (3, -1.0, 1.0, 0.0),
    (3, 1.0, 0.0, 0.0), (3, 1.0, -1.0, 0.0), (3, 1.0, 1.0, -0.1),
])
def test_setup_rejects_out_of_range_parameters(s, lam, nu, alpha):
    with pytest.raises(ValueError, match="require s >= 1"):
        Setup3D(s, lam, nu, alpha)


def test_setup_u0_is_filtered_v0():
    setup = Setup3D(4, 1.0, 1.0, 0.3)
    assert setup.u0_amp == pytest.approx(setup.v0_amp / (1 + 0.09 * 16), rel=1e-14)
    zero_alpha = Setup3D(4, 1.0, 1.0, 0.0)
    assert zero_alpha.u0_amp == zero_alpha.v0_amp


def test_triple_validation():
    with pytest.raises(ValueError):
        SquireTriple(a=0, b=1, r=0)
    t = SquireTriple(a=3, b=4, r=1)
    assert t.a_hat == pytest.approx(5.0)
    assert t.a_hat**2 == pytest.approx(t.a**2 + t.b**2)


# ---------------------------------------------------------------------
# reduction identities
# ---------------------------------------------------------------------

def _synthetic_mode(a, b, m_max=6, seed=0):
    rng = np.random.default_rng(seed)
    m = np.arange(-m_max, m_max + 1)
    w3 = rng.standard_normal(2 * m_max + 1) + 1j * rng.standard_normal(2 * m_max + 1)
    w2 = rng.standard_normal(2 * m_max + 1) + 1j * rng.standard_normal(2 * m_max + 1)
    # choose omega1 to satisfy incompressibility exactly
    w1 = -(b * w2 + m * w3) / a
    q = rng.standard_normal(2 * m_max + 1) + 1j * rng.standard_normal(2 * m_max + 1)
    return Mode1DProfile(a=a, b=b, m_max=m_max, omega1=w1, omega2=w2,
                         omega3=w3, q=q, c=0.3 + 0.2j)


def test_reduce_b0_is_identity():
    mode = _synthetic_mode(3, 0)
    red = squire_reduce(SquireTriple(a=3, b=0, r=0), mode)
    assert red.a_hat == pytest.approx(3.0)
    assert np.max(np.abs(red.omega1_hat - mode.omega1)) < 1e-15 * np.max(np.abs(mode.omega1))
    assert np.allclose(red.q_hat, mode.q, rtol=0, atol=0)
    assert red.c_hat == mode.c


def test_reduce_three_four_five():
    mode = _synthetic_mode(3, 4)
    red = squire_reduce(SquireTriple(a=3, b=4, r=0), mode)
    assert red.a_hat == pytest.approx(5.0)
    want = (3 * mode.omega1 + 4 * mode.omega2) / 5.0
    assert np.max(np.abs(red.omega1_hat - want)) < 1e-14
    assert np.max(np.abs(red.q_hat - mode.q * 5.0 / 3.0)) < 1e-14
    assert red.delta_scale == pytest.approx(5.0 / 3.0)


def test_reduced_true_mode_satisfies_hat_equations():
    setup = driver_setup()
    triple = SquireTriple(a=3, b=1, r=0)
    mode = lift_mode(triple, solve_hat_mode(triple, setup), setup)
    red = squire_reduce(triple, mode)
    res = lineareq2_residuals(red, setup)
    assert max(res.values()) < 1e-10


# ---------------------------------------------------------------------
# shear stencil against the dense matrices
# ---------------------------------------------------------------------

@pytest.mark.parametrize("s,m_max", [(2, 10), (20, 96), (20, 12), (20, 5), (2, 1)])
def test_shift_matches_dense_matvec(s, m_max):
    # m_max = 12 and 5 lie below s = 20: part or all of the shift falls off
    n = 2 * m_max + 1
    rng = np.random.default_rng(s + m_max)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cols = rng.standard_normal((n, 3))
    for sign, dense in ((-1, _conv_sin(2j, s, m_max)), (1, _conv_cos(2.0, s, m_max))):
        assert np.array_equal(_shift(x, s, sign), dense @ x)
        assert np.array_equal(_shift(cols, s, sign), (dense @ cols).real)


@pytest.mark.parametrize("s,alpha,a_hat_sq", [(6, 0.0, 10.0), (20, 0.05, 85.0)])
def test_wave_table_products_match_dense(s, alpha, a_hat_sq):
    setup = driver_setup(s=s, alpha=alpha)
    m_max = 4 * s + 16
    _, _, H, u0_h, du0_h = _wave_tables(setup, a_hat_sq, m_max)
    w = np.random.default_rng(2).standard_normal((2 * m_max + 1, 2)) @ [1, 1j]
    want_u0 = _conv_sin(setup.u0_amp, s, m_max) @ (H * w)
    want_du0 = _conv_cos(setup.u0_amp * s, s, m_max) @ (H * w)
    scale = np.max(np.abs(H * w)) * setup.u0_amp * s
    assert np.max(np.abs(u0_h(w) - want_u0)) <= 1e-15 * scale
    assert np.max(np.abs(du0_h(w) - want_du0)) <= 1e-15 * scale


def test_a0_generator_matches_dense_coupling():
    b, s, lam, nu, alpha, M = 1, 3, 40.0, 1.0, 0.2, 10
    n = 2 * M + 1
    H = 1.0 / (1.0 + alpha**2 * (b * b + np.arange(-M, M + 1.0) ** 2))
    u0_amp = Setup3D(s, lam, nu, alpha).u0_amp
    gen = _a0_generator(b, s, lam, nu, alpha, M)
    assert np.array_equal(gen[:n, n:], -(_conv_cos(u0_amp * s, s, M) * H[None, :]))


def test_lift_memory_is_linear_in_truncation():
    # the dense shear matrices needed about 80 MB at m_max = 500
    setup = driver_setup()
    triple = SquireTriple(a=3, b=1, r=0)
    res2d = solve_hat_mode(triple, setup)
    tracemalloc.start()
    try:
        mode = lift_mode(triple, res2d, setup, m_max=500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mode.m_max == 500 and max(mode.residuals.values()) < 1e-8
    assert peak < 8e6


# ---------------------------------------------------------------------
# omega2 reconstruction
# ---------------------------------------------------------------------

def test_reconstruct_b0_gives_zero():
    setup = driver_setup()
    triple = SquireTriple(a=3, b=0, r=0)
    q = np.ones(2 * 20 + 1, dtype=complex)
    w2 = reconstruct_omega2(triple, q, setup, c=0.5j, m_max=20)
    assert np.max(np.abs(w2)) == 0.0


def test_reconstruct_requires_unstable_phase():
    setup = driver_setup()
    triple = SquireTriple(a=3, b=1, r=0)
    with pytest.raises(NumericalError, match="Re\\(iac\\) < 0"):
        reconstruct_omega2(triple, np.ones(41, dtype=complex), setup,
                           c=-0.5j, m_max=20)


def test_reconstruct_rejects_a_non_finite_solve():
    setup = driver_setup()
    triple = SquireTriple(a=3, b=1, r=0)
    q = np.ones(41, dtype=complex)
    q[7] = np.nan
    with pytest.raises(NumericalError, match="residual nan"):
        reconstruct_omega2(triple, q, setup, c=0.5j, m_max=20)


@pytest.mark.parametrize("s,alpha,a,b", [(6, 0.0, 3, 1), (20, 0.05, 7, -6)])
def test_reconstruct_matches_dense_solve(s, alpha, a, b):
    # oracle: the dense operator -(nu D + i a c - i a u0 H) solved densely
    setup = driver_setup(s=s, alpha=alpha)
    triple = SquireTriple(a=a, b=b, r=0)
    c, m_max = 0.7j / a, 4 * s + 16
    q = np.random.default_rng(1).standard_normal(2 * m_max + 1) + 0j
    _, D, H, _, _ = _wave_tables(setup, triple.a_hat**2, m_max)
    cu = _conv_sin(setup.u0_amp, s, m_max)
    dense = np.diag(setup.nu * D + 1j * a * c) - 1j * a * (cu * H[None, :])
    want = np.linalg.solve(dense, 1j * b * q)
    got = reconstruct_omega2(triple, q, setup, c, m_max)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("s,alpha,a,b,m_max", [
    (6, 0.0, 3, 1, 40), (20, 0.05, 7, -6, 96), (20, 0.05, 9, 2, 222), (5, 0.3, 2, 2, 3),
])
def test_reconstruct_lanes_match_banded_solve(s, alpha, a, b, m_max):
    # oracle: LAPACK's general banded solve of the whole (s, s) system;
    # its complex pivot test uses |Re| + |Im|, the lanes' the modulus
    setup = driver_setup(s=s, alpha=alpha)
    triple = SquireTriple(a=a, b=b, r=0)
    c = 0.7j / a + 0.3
    rng = np.random.default_rng(s + m_max)
    q = rng.standard_normal(2 * m_max + 1) + 1j * rng.standard_normal(2 * m_max + 1)
    want = _banded_omega2(triple, q, setup, c, m_max)
    got = reconstruct_omega2(triple, q, setup, c, m_max)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_reconstruct_truncation_converged():
    setup = driver_setup()
    triple = SquireTriple(a=3, b=1, r=0)
    mode = lift_mode(triple, solve_hat_mode(triple, setup), setup)
    M = mode.m_max
    q_big = np.zeros(2 * (2 * M) + 1, dtype=complex)
    q_big[2 * M - M: 2 * M + M + 1] = mode.q
    w2_big = reconstruct_omega2(triple, q_big, setup, mode.c, 2 * M)
    inner = w2_big[2 * M - M: 2 * M + M + 1]
    scale = np.max(np.abs(mode.omega2))
    assert np.max(np.abs(inner - mode.omega2)) < 1e-9 * scale
    outer = np.abs(np.concatenate([w2_big[: 2 * M - M], w2_big[2 * M + M + 1:]]))
    assert np.max(outer) < 1e-9 * scale


# ---------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------

def test_lift_b0_embeds_2d_mode():
    setup = driver_setup()
    triple = SquireTriple(a=3, b=0, r=0)
    mode = lift_mode(triple, solve_hat_mode(triple, setup), setup)
    assert np.max(np.abs(mode.omega2)) == 0.0
    assert max(mode.residuals.values()) < 1e-8


def test_lift_reflection_same_growth():
    setup = driver_setup()
    up = SquireTriple(a=3, b=1, r=0)
    dn = SquireTriple(a=3, b=-1, r=0)
    mode_up = lift_mode(up, solve_hat_mode(up, setup), setup)
    mode_dn = lift_mode(dn, solve_hat_mode(dn, setup), setup)
    growth_up, growth_dn = (float(-np.real(1j * m.a * m.c))
                            for m in (mode_up, mode_dn))
    assert growth_up == pytest.approx(growth_dn, rel=1e-12)
    assert growth_up > 0


def test_lift_rejects_stable_input():
    setup = Setup3D(S, 1.0, NU, ALPHA)  # tiny amplitude: stable
    triple = SquireTriple(a=3, b=0, r=0)
    res = solve_hat_mode(triple, setup)
    assert res.sigma_hat < 0
    with pytest.raises(ValueError):
        lift_mode(triple, res, setup)


def test_lift_residuals_across_admissible_band():
    # all in-region a_hat values at s=6 with r=0
    setup = driver_setup()
    for (a, b) in ((1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)):
        triple = SquireTriple(a=a, b=b, r=0)
        res2d = solve_hat_mode(triple, setup)
        assert res2d.sigma_hat > 0
        mode = lift_mode(triple, res2d, setup)
        assert max(mode.residuals.values()) < 1e-8
        assert mode.incompressibility_residual() < 1e-10


def triple_threshold_margin(triple):
    """sqrt(2) a / a_hat - 1 >= 0 for |b| <= a: the per-triple check that
    the sqrt(2)-boosted amplitude clears the rescaled threshold."""
    return math.sqrt(2.0) * triple.a / triple.a_hat - 1.0


def test_threshold_wiring_per_triple():
    # sqrt2 a/a_hat >= 1 whenever |b| <= a, with equality at |b| = a
    for (a, b) in ((1, 1), (2, 0), (3, 2), (5, 5)):
        margin = triple_threshold_margin(SquireTriple(a=a, b=b, r=0))
        assert margin >= -1e-15
    # and the effective amplitude clears the rescaled threshold numerically
    s, alpha, delta = 6, 0.1, 0.2
    from mla.stability import capital_lambda

    lam3 = lambda3_driver(s, alpha, delta)
    lam2 = lambda2_threshold(s, alpha, delta)
    for (a, b) in ((1, 1), (2, 1), (3, 0)):
        tr = SquireTriple(a=a, b=b, r=0)
        cap_eff = (tr.a / tr.a_hat) * capital_lambda(lam3, s, alpha)
        assert cap_eff >= capital_lambda(lam2, s, alpha) * (1 - 1e-12)


def test_hat_problem_uses_rescaled_amplitude():
    from mla.stability import capital_lambda

    tr = SquireTriple(a=3, b=4, r=1)
    prob = hat_problem(tr, 6, 100.0, 0.0)
    assert prob.t == pytest.approx(5.0)
    assert prob.capital_lambda == pytest.approx(
        0.6 * capital_lambda(100.0, 6, 0.0), rel=1e-14
    )


# ---------------------------------------------------------------------
# a = 0 line
# ---------------------------------------------------------------------

def test_a0_b0_pure_diffusion():
    vals = a0_stability_spectrum(0, NU, k_cutoff=12)
    m = np.arange(-12, 13)
    targets = np.sort(np.concatenate([-NU * m[m != 0] ** 2.0] * 2))
    got = np.sort(vals.real)
    assert np.max(np.abs(got - targets)) < 1e-12
    assert np.max(np.abs(vals.imag)) < 1e-12


@pytest.mark.parametrize("b", [1, 2])
def test_a0_no_unstable_at_twice_threshold(b):
    lam = 2.0 * lambda2_threshold(2, 0.0, 0.3)
    vals = a0_stability_spectrum(b, 1.0, k_cutoff=24)
    assert np.max(vals.real) < 1e-10
    qn = a0_mode_pressure_norms(b, 2, lam, 1.0, 0.0, 24)
    assert np.max(qn) < 1e-10


@pytest.mark.parametrize("b,s,lam,nu,alpha,k_cutoff", [
    (0, 6, 100.0, 1.0, 0.0, 12), (1, 6, 150.0, 1.0, 0.05, 40),
    (2, 2, 40.0, 0.5, 0.2, 8), (-3, 4, 900.0, 2.0, 0.0, 25),
])
def test_a0_closed_form_matches_dense_generator(b, s, lam, nu, alpha, k_cutoff):
    vals = a0_stability_spectrum(b, nu, k_cutoff)
    dense = scipy.linalg.eigvals(_a0_generator(b, s, lam, nu, alpha, k_cutoff))
    assert np.array_equal(np.sort(vals.real), np.sort(dense.real))
    assert not vals.imag.any() and not dense.imag.any()
    assert np.all(np.diff(vals.real) <= 0)


def test_a0_matches_full_pencil_oracle():
    # independent route: the constrained (omega, q) pencil solved by QZ
    b, s, lam, nu, alpha, M = 1, 2, 40.0, 1.0, 0.2, 8
    setup = Setup3D(s, lam, nu, alpha)
    m = np.arange(-M, M + 1).astype(float)
    n = 2 * M + 1
    ksq = b * b + m**2
    D = -nu * ksq
    H = 1.0 / (1.0 + alpha**2 * ksq)
    cdu = np.zeros((n, n), dtype=complex)
    amp = setup.u0_amp * s
    for i in range(n):
        if i - s >= 0:
            cdu[i, i - s] += amp / 2
        if i + s < n:
            cdu[i, i + s] += amp / 2
    A = np.zeros((4 * n, 4 * n), dtype=complex)
    B = np.zeros((4 * n, 4 * n), dtype=complex)
    w1, w2, w3, q = range(4)

    def blk(i, j):
        return slice(i * n, (i + 1) * n), slice(j * n, (j + 1) * n)

    A[blk(0, w1)] = np.diag(D)
    A[blk(0, w3)] = -(cdu * H[None, :])
    B[blk(0, w1)] = np.eye(n)
    A[blk(1, w2)] = np.diag(D)
    A[blk(1, q)] = -1j * b * np.eye(n)
    B[blk(1, w2)] = np.eye(n)
    A[blk(2, w3)] = np.diag(D)
    A[blk(2, q)] = np.diag(-1j * m)
    B[blk(2, w3)] = np.eye(n)
    A[blk(3, w2)] = 1j * b * np.eye(n)
    A[blk(3, w3)] = np.diag(1j * m)

    vals = scipy.linalg.eigvals(A, B)
    finite = np.sort(vals[np.isfinite(vals)].real)
    reduced = np.sort(a0_stability_spectrum(b, nu, M).real)
    assert len(finite) == len(reduced)
    assert np.max(np.abs(finite - reduced)) < 1e-8


# ---------------------------------------------------------------------
# triple counting
# ---------------------------------------------------------------------

def test_count_window_validation():
    with pytest.raises(ValueError):
        CountWindow(c2=0.1, c3=0.3, c4=0.2)
    # the (0.1, 0.2, 0.3) rectangle pokes outside the region: the corner
    # (0.3, 0.1) has 0.09 + 0.81 = 0.90 < 1 on the shifted circle
    with pytest.raises(ValueError):
        CountWindow(c2=0.1, c3=0.2, c4=0.3, delta_star=0.2)
    CountWindow(c2=0.105, c3=0.46, c4=0.56, delta_star=0.2)  # valid


def test_count_matches_bruteforce():
    w = DEFAULT_WINDOW
    s = 10
    brute = 0
    for a in range(1, 12):
        for b in range(-a, a + 1):
            if (w.c3 * s) ** 2 <= a * a + b * b <= (w.c4 * s) ** 2:
                brute += 2 * int(w.c2 * s) + 1
    assert count_triples(s, w).count == brute
    trs = list(admissible_triples(s, w))
    assert len(trs) == brute


def _float_admissible_triples(s, w):
    """The triple window with float bounds widened by a relative eps, as
    enumerated before the integer window rows."""
    eps = 1e-9
    lo = (w.c3 * s) ** 2 * (1 - eps)
    hi = (w.c4 * s) ** 2 * (1 + eps)
    r_hi = int(math.floor(w.c2 * s * (1 + eps)))
    a_max = int(math.floor(w.c4 * s * (1 + eps))) + 1
    return [(a, b, r)
            for a in range(1, a_max + 1)
            for b in range(-a, a + 1) if lo <= a * a + b * b <= hi
            for r in range(-r_hi, r_hi + 1)]


@pytest.mark.parametrize("w", [DEFAULT_WINDOW,
                               CountWindow(c2=0.08, c3=0.45, c4=0.5),
                               CountWindow(c2=0.02, c3=0.3, c4=0.55)])
def test_window_rows_match_float_window_oracle(w):
    # the same triples in the same (a, b, r) order, and a count that agrees
    for s in range(1, 121):
        got = [(t.a, t.b, t.r) for t in admissible_triples(s, w)]
        assert got == _float_admissible_triples(s, w)
        assert count_triples(s, w).count == len(got)


def _dense_count(s, w):
    """The (a, b) grid count on a dense array, as counted before the
    integer row count."""
    eps = 1e-9
    lo, hi = (w.c3 * s) ** 2 * (1 - eps), (w.c4 * s) ** 2 * (1 + eps)
    a_max = int(math.floor(w.c4 * s * (1 + eps))) + 1
    a = np.arange(1, a_max + 1)[:, None]
    b = np.arange(-a_max, a_max + 1)[None, :]
    ssq = a * a + b * b
    pairs = int(np.sum((np.abs(b) <= a) & (ssq >= lo) & (ssq <= hi)))
    return pairs * (2 * int(math.floor(w.c2 * s * (1 + eps))) + 1)


@pytest.mark.parametrize("w", [DEFAULT_WINDOW,
                               CountWindow(c2=0.08, c3=0.45, c4=0.5)])
def test_count_matches_dense_grid_oracle(w):
    for s in list(range(1, 300)) + [1000, 1600]:
        assert count_triples(s, w).count == _dense_count(s, w)


def test_count_b_reflection_symmetry():
    trs = list(admissible_triples(20, DEFAULT_WINDOW))
    keys = set((t.a, t.b, t.r) for t in trs)
    for t in trs:
        assert (t.a, -t.b, t.r) in keys


def test_count_density_converges():
    fits = {s: count_triples(s).c5_fit for s in (50, 100, 200, 400)}
    for s in (50, 100, 200):
        assert abs(fits[s] / fits[400] - 1.0) < 0.10
    # the empirical density lands on the full-window candidate, twice the
    # half-window one; both are reported, neither adjudicated
    w = DEFAULT_WINDOW
    assert count_triples(400).c5_fit == pytest.approx(w.c5_fullwindow(), rel=0.05)
    assert w.c5_fullwindow() == pytest.approx(2.0 * w.c5_halfwindow(), rel=1e-12)


# ---------------------------------------------------------------------
# 3-D lower bound
# ---------------------------------------------------------------------

def test_lower_bound_3d_gamma_limit():
    g, alpha, c6 = 1000.0, 0.05, 0.02
    near_one = lower_bound_dim3d(g, alpha, 1.0 - 1e-12, c6)
    assert near_one.value == pytest.approx(c6 * g, rel=1e-9)


def test_lower_bound_3d_consistency_at_coupling():
    alpha, c6 = 0.05, 0.02
    g = alpha**-3
    for gamma in (0.2, 0.5, 0.8):
        res = lower_bound_dim3d(g, alpha, gamma, c6)
        assert res.value == pytest.approx(c6 / alpha**3, rel=1e-12)
        assert res.raw_count == pytest.approx(c6 / alpha**3, rel=1e-12)


def test_lower_bound_3d_validation():
    with pytest.raises(ValueError):
        lower_bound_dim3d(10.0, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        lower_bound_dim3d(10.0, 0.1, 1.5, 1.0)
    with pytest.raises(ValueError, match="underflows"):  # was a ZeroDivisionError
        lower_bound_dim3d(10.0, 5e-324, 0.5, 1.0)
    rep = lower_bound_dim3d(10.0, 0.1, 0.5, 1.0)
    assert "(G/alpha)^(3/2)" in rep.upper_form


@pytest.mark.parametrize("alpha,gamma,c6,formula", [
    (1e-105, 0.5, 0.02, "raw_count = c6 / alpha^3"),
    (1e-100, 0.01, 1e20, "value = c6 G^gamma / alpha^(3(1-gamma))"),
], ids=["raw_count", "value"])
def test_lower_bound_3d_overflow_names_its_formula(alpha, gamma, c6, formula):
    # both returned inf, which the squire summary wrote as Infinity
    with pytest.raises(ValueError, match=re.escape(f"{formula} overflows a float")):
        lower_bound_dim3d(4.0, alpha, gamma, c6)
