"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the measured figures at the criterion's stated tolerance."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from mla import bounds as bounds_mod
from mla import dynamics, spectral, squire, stability
from spectral_oracles import deriv, inner
from test_stability import derived_lower_coefficient, full_linearization_spectrum

mp.mp.dps = 60


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


# ---------------------------------------------------------------------
# 1. Jacobian identity suite at n_modes = 128
# ---------------------------------------------------------------------

def test_criterion_1_jacobian_identities():
    t0 = time.monotonic()
    grid = spectral.SpectralGrid(128)
    rng = np.random.default_rng(2024)
    worst_anti = worst_mean = worst_pair = worst_cyc = 0.0
    for _ in range(100):
        a = spectral.ScalarField.random(grid, rng, decay=0.6)
        b = spectral.ScalarField.random(grid, rng, decay=0.6)
        c = spectral.ScalarField.random(grid, rng, decay=0.6)
        scale = spectral.norms(a).l2 * spectral.norms(b).l2
        jab = spectral.jacobian(a, b)
        worst_anti = max(
            worst_anti,
            spectral.norms(jab + spectral.jacobian(b, a)).l2 / scale,
        )
        j_raw = (
            deriv(a, 1).to_physical() * deriv(b, 2).to_physical()
            - deriv(a, 2).to_physical() * deriv(b, 1).to_physical()
        )
        worst_mean = max(worst_mean, abs(np.mean(j_raw)) / scale)
        worst_pair = max(
            worst_pair,
            abs(inner(jab, b)) / (scale * spectral.norms(b).l2),
        )
        lhs = inner(jab, c)
        rhs = inner(spectral.jacobian(b, c), a)
        worst_cyc = max(
            worst_cyc,
            abs(lhs - rhs) / max(abs(lhs), abs(rhs), scale),
        )
    elapsed = time.monotonic() - t0
    assert worst_anti < 1e-12
    assert worst_mean < 1e-12
    assert worst_pair < 1e-12
    assert worst_cyc < 1e-12
    assert elapsed < 10.0
    _report(1, f"antisym {worst_anti:.2e}, mean {worst_mean:.2e}, "
               f"pairing {worst_pair:.2e}, cyclic {worst_cyc:.2e}, "
               f"{elapsed:.1f}s over 100 fields at n=128")


# ---------------------------------------------------------------------
# 2. Stationarity over the (s, lam, nu, alpha) matrix
# ---------------------------------------------------------------------

def test_criterion_2_stationarity_matrix():
    t0 = time.monotonic()
    grid = spectral.SpectralGrid(32)
    worst = 0.0
    for s in (1, 2, 4):
        for lam in (0.5, 2.0):
            for nu in (0.1, 1.0):
                for alpha in (0.0, 0.1):
                    params = dynamics.ModelParams(nu=nu, alpha=alpha, grid=grid)
                    spec = dynamics.ForcingSpec(s=s, lam=lam)
                    psi = dynamics.stationary_psi(spec, params)
                    F = dynamics.kolmogorov_forcing(spec, params)
                    state = dynamics.SolverState(psi=psi, time=0.0, params=params)
                    res = spectral.norms(dynamics.rhs(state, F)).l2
                    worst = max(worst, res / spectral.norms(F).l2)
    elapsed = time.monotonic() - t0
    assert worst < 1e-12
    assert elapsed < 5.0
    _report(2, f"worst stationary residual {worst:.2e} over 24 cases, "
               f"{elapsed:.1f}s")


# ---------------------------------------------------------------------
# 3. Solver order
# ---------------------------------------------------------------------

def test_criterion_3_solver_order():
    grid = spectral.SpectralGrid(32)
    params = dynamics.ModelParams(nu=0.3, alpha=0.15, grid=grid)
    spec = dynamics.ForcingSpec(s=2, lam=1.5)
    forcing = dynamics.kolmogorov_forcing(spec, params)
    rng = np.random.default_rng(11)
    psi0 = spectral.ScalarField.random(grid, rng, amplitude=0.5)
    T = 0.5

    def integrate(dt):
        state = dynamics.SolverState(psi=psi0, time=0.0, params=params)
        buffers = dynamics._run_buffers(params, dt)
        for _ in range(int(round(T / dt))):
            state = dynamics.step_imex(state, dt, forcing, _buffers=buffers)
        return state.psi

    ref = integrate(2.5e-3 / 16)
    errs = [spectral.norms(integrate(dt) - ref).l2
            for dt in (1e-2, 5e-3, 2.5e-3)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9

    # exact exponential decay of a single mode
    k, nu, T2 = 3, 0.8, 1.0
    p2 = dynamics.ModelParams(nu=nu, alpha=0.0, grid=grid)
    state = dynamics.SolverState(
        psi=spectral.ScalarField.harmonic(grid, k, 0), time=0.0, params=p2)
    zero = spectral.ScalarField.zeros(grid)
    buffers = dynamics._run_buffers(p2, T2 / 1000)
    for _ in range(1000):
        state = dynamics.step_imex(state, T2 / 1000, zero, _buffers=buffers)
    decay_err = abs(2 * abs(state.psi.coeff(k, 0)) - math.exp(-nu * k * k * T2))
    assert decay_err < 1e-8
    _report(3, f"orders {orders[0]:.2f}/{orders[1]:.2f}, "
               f"single-mode decay error {decay_err:.2e}")


# ---------------------------------------------------------------------
# 4. Asymptotic energy bounds on a forced run at G ~ 50
# ---------------------------------------------------------------------

def test_criterion_4_asymptotic_bounds():
    nu, alpha, s, lam = 1.0, 0.1, 4, 3.125   # G = lam s^2 = 50
    grid = spectral.SpectralGrid(32)
    params = dynamics.ModelParams(nu=nu, alpha=alpha, grid=grid)
    spec = dynamics.ForcingSpec(s=s, lam=lam)
    forcing = dynamics.kolmogorov_forcing(spec, params)
    assert stability.grashof(spec.lam, spec.s) == pytest.approx(50.0)
    state = dynamics.initial_state(params, seed=7, amplitude=0.1)
    diag = dynamics.run(state, t_final=200.0 / nu, dt=0.02, forcing=forcing,
                        sample_every=100)
    report = dynamics.check_asymptotic_bounds(
        diag, f_l2=nu**2 * lam * s**2, nu=nu)
    assert report.phi_margin >= 0.0
    assert report.avg_margin >= 0.0
    _report(4, f"G=50 run to t=200: |phi|^2 tail {report.phi_sq_tail_max:.4g} "
               f"<= {report.phi_sq_bound:.4g}, avg |grad phi|^2 tail "
               f"{report.avg_tail_max:.4g} <= {report.avg_bound:.4g}")


# ---------------------------------------------------------------------
# 5. Recurrence vs dense full-operator oracle
# ---------------------------------------------------------------------

def test_criterion_5_recurrence_vs_dense_oracle():
    t0 = time.monotonic()
    s, delta = 4, 0.3
    pairs = stability.lattice_points(stability.RegionSpec(delta=delta, s=s))
    assert pairs  # A(0.3) is nonempty at s=4
    # amplitudes kept below threshold so the depth-3 chain the cutoff-3s
    # matrix carries is fully converged (the comparison's validity window)
    cap_by_alpha = {0.0: 2.2, 0.1: 2.6}
    worst = 0.0
    for alpha, cap in cap_by_alpha.items():
        lam = cap * 2 * math.sqrt(2) * math.pi * (1 + alpha**2 * s**2)
        vals = full_linearization_spectrum(s, lam, 1.0, alpha, 3 * s)
        real = vals[np.abs(vals.imag) < 1e-10 * (1 + np.abs(vals.real))].real
        for (t, r) in pairs:
            res = stability.principal_sigma(stability.RecurrenceProblem(
                s=s, t=t, r=r, capital_lambda=cap, alpha=alpha))
            dist = np.abs(real - res.sigma_hat)
            worst = max(worst, float(np.min(dist)))
            assert np.min(dist) < 1e-8
            assert np.sum(dist < 1e-8) >= 2  # multiplicity two
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(5, f"worst recurrence-vs-dense gap {worst:.2e} over "
               f"{2 * len(pairs)} cases, multiplicity two, {elapsed:.1f}s")


# ---------------------------------------------------------------------
# 6. Threshold windows and monotonicity over 20 sampled cases
# ---------------------------------------------------------------------

def test_criterion_6_thresholds():
    t0 = time.monotonic()
    cases = []
    for s, delta in ((4, 0.3), (6, 0.2), (8, 0.3), (10, 0.3)):
        for (t, r) in stability.lattice_points(
                stability.RegionSpec(delta=delta, s=s)):
            for alpha in (0.0, 0.1):
                cases.append((s, delta, t, r, alpha))
    cases = cases[:20]
    assert len(cases) == 20
    for (s, delta, t, r, alpha) in cases:
        lam0 = stability.lambda0_threshold(s, t, r, alpha, delta)
        lo, hi = stability.lu_interval(s, delta, alpha)
        assert lo < lam0 < hi
        if alpha == 0.0:
            # the general form evaluated at alpha = 0 must hold as well
            lo_g, hi_g = stability.lu_interval(s, delta, 1e-300)
            assert lo_g < lam0 < hi_g
        caps = np.geomspace(lo / 2, hi, 20)
        sigs = [stability.principal_sigma(stability.RecurrenceProblem(
            s=s, t=t, r=r, capital_lambda=float(c), alpha=alpha)).sigma_hat
            for c in caps]
        assert np.all(np.diff(sigs) > 0)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(6, f"20 cases: thresholds inside both windows, sigma strictly "
               f"increasing on 20-point grids, {elapsed:.1f}s")


# ---------------------------------------------------------------------
# 7. The 0.012 maximum and the lattice-area match at the optimizer
# ---------------------------------------------------------------------

def test_criterion_7_area_constant():
    dstar, value = stability.optimize_delta()
    assert abs(value - 0.012) <= 0.1 * 0.012
    a_star = stability.region_area(dstar)
    density = len(stability.lattice_points(
        stability.RegionSpec(delta=dstar, s=200))) / 200**2
    assert abs(density - a_star) / a_star < 0.05
    _report(7, f"max a(delta) delta^(4/3) = {value:.5f} at delta*={dstar:.4f}; "
               f"d(200)/200^2 = {density:.5f} vs a(delta*) = {a_star:.5f}")


# ---------------------------------------------------------------------
# 8. Lower-bound coefficients
# ---------------------------------------------------------------------

def test_criterion_8_lower_coefficients():
    assert stability.lower_bound_dim2d(1000.0, 0.0).value == pytest.approx(
        0.006 * 1000.0 ** (2.0 / 3.0), rel=1e-15)
    assert stability.lower_bound_dim2d(1000.0, 0.01).value == pytest.approx(
        0.0018 * 1000.0 ** (2.0 / 3.0), rel=1e-15)
    derived0 = derived_lower_coefficient(True)
    derived_a = derived_lower_coefficient(False)
    assert abs(derived0 - 0.006) < 5e-4    # rounds to 0.006 at two digits
    assert abs(derived_a - 0.0018) < 5e-5
    _report(8, f"coefficients 0.006/0.0018 exact; derivations give "
               f"{derived0:.5f} and {derived_a:.6f}")


# ---------------------------------------------------------------------
# 9. Upper bounds vs the 60-digit oracle, and two-sided consistency
# ---------------------------------------------------------------------

def test_criterion_9_upper_bounds_oracle():
    gs = [1e2, 1e3, 1e4, 1e6, 1e8]
    alphas = [0.0, 1e-3, 1e-2, 1e-1, 0.5]
    worst = 0.0
    for g in gs:
        for alpha in alphas:
            inp = bounds_mod.BoundInputs(g=g, alpha=alpha)
            u1 = bounds_mod.upper_bound_1(inp)
            u2 = bounds_mod.upper_bound_2(inp)

            gm, am = mp.mpf(g), mp.mpf(alpha)
            la = mp.pi * (1 + am**2)
            ref1 = gm ** (mp.mpf(2) / 3) * (
                mp.mpf(64) / (3 * la) * (mp.log(gm) - mp.log(mp.pi / 2) / 2)
            ) ** (mp.mpf(1) / 3)
            ref2 = (12 / mp.sqrt(la)) ** (mp.mpf(2) / 3) * gm ** (mp.mpf(2) / 3) * (
                mp.log(gm) + mp.mpf(1) / 2 + mp.log(3 * mp.sqrt(2) / mp.sqrt(la))
            ) ** (mp.mpf(1) / 3)
            worst = max(worst, abs(u1 - float(ref1)) / float(ref1))
            worst = max(worst, abs(u2 - float(ref2)) / float(ref2))

            lower = stability.lower_bound_dim2d(g, alpha).value
            assert min(u1, u2) >= lower
    assert worst < 1e-12
    _report(9, f"5x5 grid vs 60-digit oracle: worst relative gap {worst:.2e}; "
               f"min(upper) >= lower everywhere")


# ---------------------------------------------------------------------
# 10. Squire pipeline
# ---------------------------------------------------------------------

def test_criterion_10_squire_pipeline():
    t0 = time.monotonic()
    s, alpha, nu, dstar = 6, 0.0, 1.0, 0.2
    lam = squire.lambda3_driver(s, alpha, dstar)
    setup = squire.Setup3D(s, lam, nu, alpha)

    # all in-region triples at s=6 (r = 0 is forced by the strict |r| < 1
    # window): exactly ten of them
    triples = []
    for a in range(1, 4):
        for b in range(-a, a + 1):
            tr = squire.SquireTriple(a=a, b=b, r=0)
            if stability.region_contains_point(dstar, s, tr.a_hat, 0.0):
                triples.append(tr)
    assert len(triples) == 10

    worst_res = worst_div = 0.0
    for tr in triples:
        res2d = squire.solve_hat_mode(tr, setup)
        assert res2d.sigma_hat > 0
        mode = squire.lift_mode(tr, res2d, setup)
        worst_res = max(worst_res, max(mode.residuals.values()))
        worst_div = max(worst_div, mode.incompressibility_residual())
    assert worst_res < 1e-8
    assert worst_div < 1e-10

    # the a = 0 spectrum does not depend on the shear amplitude, so this
    # holds at twice the threshold amplitude and at any other
    worst_growth = -math.inf
    for b in (0, 1, 2):
        vals = squire.a0_stability_spectrum(b, nu, k_cutoff=4 * s + 16)
        worst_growth = max(worst_growth, float(np.max(vals.real)))
    assert worst_growth < 1e-10

    fits = {ss: squire.count_triples(ss).c5_fit for ss in (50, 100, 200, 400)}
    for ss in (50, 100, 200):
        assert abs(fits[ss] / fits[400] - 1.0) < 0.10
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(10, f"10 lifted modes: worst residual {worst_res:.2e}, "
                f"divergence {worst_div:.2e}; a=0 max growth "
                f"{worst_growth:.2e}; count/s^3 within "
                f"{max(abs(fits[ss]/fits[400]-1) for ss in (50,100,200)):.3f} "
                f"of s=400; {elapsed:.1f}s")
