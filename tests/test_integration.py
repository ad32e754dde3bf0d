"""Cross-module consistency: the time integrator, the pseudospectral
Jacobian, and the chain eigensolve meet through independent code paths,
so the measured growth rate of a perturbed steady state must match the
predicted principal eigenvalue."""

import math

import numpy as np
import pytest

from mla.bounds import BoundInputs, lower_bound_dim3d
from mla.dynamics import (
    ForcingSpec,
    ModelParams,
    SolverState,
    kolmogorov_forcing,
    run,
    stationary_psi,
)
from mla.spectral import ScalarField, SpectralGrid, norms
from mla.stability import (
    RecurrenceProblem,
    RegionSpec,
    capital_lambda,
    lambda0_threshold,
    principal_sigma,
    region_area,
)

GRID = SpectralGrid(16)
_ZERO = ScalarField(GRID, np.zeros(GRID.shape, complex))
_STATE = SolverState(psi=_ZERO, time=0.0, params=ModelParams(nu=1.0, alpha=0.0, grid=GRID))
# each library entry point outside its domain: (call, start of the ValueError)
_OUT_OF_DOMAIN = {
    "params-nu": (lambda: ModelParams(nu=0.0, alpha=0.0, grid=GRID), "nu must be positive"),
    "params-alpha": (lambda: ModelParams(nu=1.0, alpha=-0.1, grid=GRID),
                     "alpha must be nonnegative"),
    "forcing-s": (lambda: ForcingSpec(s=0, lam=1.0), "s must be a positive integer"),
    "forcing-lam": (lambda: ForcingSpec(s=1, lam=0.0), "lam must be positive"),
    "run-sample-every": (lambda: run(_STATE, 1.0, 0.1, _ZERO, sample_every=0),
                         "sample_every must be"),
    "field-shape": (lambda: ScalarField(GRID, np.zeros((16, 16))), "coeffs shape"),
    "field-harmonic-00": (lambda: ScalarField.harmonic(GRID, 0, 0),
                          "harmonic requires a nonzero wavevector"),
    "capital-lambda": (lambda: capital_lambda(-1.0, 2, 0.0), "require s >= 1 and lam > 0"),
    "region-delta": (lambda: RegionSpec(delta=0.6, s=4), "delta must lie in"),
    "region-s": (lambda: RegionSpec(delta=0.3, s=0), "s must be a positive integer"),
    "region-area": (lambda: region_area(0.0), "delta must lie in"),
    "chain-s": (lambda: RecurrenceProblem(s=0, t=1, r=0, capital_lambda=1.0), "s must be"),
    "chain-t": (lambda: RecurrenceProblem(s=2, t=0, r=0, capital_lambda=1.0), "t must be"),
    "chain-lambda": (lambda: RecurrenceProblem(s=2, t=1, r=0, capital_lambda=0.0),
                     "capital_lambda must be"),
    "chain-alpha": (lambda: RecurrenceProblem(s=2, t=1, r=0, capital_lambda=1.0,
                                              alpha=-1.0), "alpha must be"),
    "bounds-lambda1": (lambda: BoundInputs(g=1e4, alpha=0.0, lambda1=0.0),
                       "lambda1 must be positive"),
    "bounds-eps-g": (lambda: BoundInputs(g=1e4, alpha=0.0, eps_g=-0.1),
                     "eps_G must be nonnegative"),
    "dim3d-g": (lambda: lower_bound_dim3d(0.0, 0.1, 0.5, 1.0), "require G > 0 and c6 > 0"),
    "dim3d-c6": (lambda: lower_bound_dim3d(1e4, 0.1, 0.5, 0.0), "require G > 0 and c6 > 0"),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_DOMAIN))
def test_library_inputs_outside_their_domain_raise(case):
    call, start = _OUT_OF_DOMAIN[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value).startswith(start)


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
    times, dists = [], []
    for _ in range(100):
        state = run(state, state.time + 25 * dt, dt, forcing, sample_every=25).final_state
        d = norms(ScalarField(grid, state.psi.coeffs - psi_s.coeffs)).l2
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
