"""Cross-module consistency: the time integrator, the pseudospectral
Jacobian, and the chain eigensolve meet through independent code paths,
so the measured growth rate of a perturbed steady state must match the
predicted principal eigenvalue."""

import math

import numpy as np

from mla.dynamics import (
    ForcingSpec,
    ModelParams,
    SolverState,
    _run_buffers,
    kolmogorov_forcing,
    stationary_psi,
    step_imex,
)
from mla.spectral import ScalarField, SpectralGrid, norms
from mla.stability import (
    RecurrenceProblem,
    lambda0_threshold,
    principal_sigma,
)


def test_nonlinear_growth_matches_eigenvalue():
    # supercritical Kolmogorov state: a tiny random perturbation grows at
    # the rate nu * sigma_hat of the dominant chain
    s, nu, alpha = 2, 1.0, 0.0
    lam0 = lambda0_threshold(s, 1, 0, alpha, 0.5)
    cap = 2.0 * lam0
    lam = cap * 2 * math.sqrt(2) * math.pi * (1 + alpha**2 * s**2)
    predicted = nu * principal_sigma(
        RecurrenceProblem(s=s, t=1, r=0, capital_lambda=cap, alpha=alpha)
    ).sigma_hat
    assert predicted > 0

    grid = SpectralGrid(32)
    params = ModelParams(nu=nu, alpha=alpha, grid=grid)
    spec = ForcingSpec(s=s, lam=lam)
    forcing = kolmogorov_forcing(spec, params)
    psi_s = stationary_psi(spec, params)
    rng = np.random.default_rng(5)
    state = SolverState(
        psi=psi_s + ScalarField.random(grid, rng, amplitude=1e-7),
        time=0.0, params=params,
    )

    dt = 2e-3
    buffers = _run_buffers(params, dt)
    times, dists = [], []
    for _ in range(100):
        for _ in range(25):
            state = step_imex(state, dt, forcing, _buffers=buffers)
        d = norms(state.psi - psi_s).l2
        times.append(state.time)
        dists.append(d)
        if d > 1e-2:
            break
    times = np.asarray(times)
    dists = np.asarray(dists)
    # fit in the window past initial transients but still linear
    mask = (dists > 1e-5) & (dists < 1e-3)
    assert mask.sum() >= 10
    slope = np.polyfit(times[mask], np.log(dists[mask]), 1)[0]
    assert abs(slope - predicted) < 5e-3 * predicted
