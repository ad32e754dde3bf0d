"""Dynamics tests: forcing/stationary closed forms, an independent
finite-difference evaluation of the right-hand side, exact single-mode
decay, stationarity preservation, self-convergence, and the dissipative
tail bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from mla import NumericalError
from mla.bounds import grashof
from mla.dynamics import (
    ForcingSpec,
    ModelParams,
    SolverState,
    _dt_max,
    _etd_tables,
    _nonlinear,
    _run_buffers,
    _step,
    check_asymptotic_bounds,
    initial_state,
    kolmogorov_forcing,
    run,
    stationary_psi,
    step_imex,
)
from mla.spectral import (
    GridMismatchError,
    ScalarField,
    SpectralGrid,
    jacobian,
    norms,
)
from spectral_oracles import (
    coeff,
    dealias_cutoff,
    field_values,
    helmholtz_inv,
    inv_laplacian,
    to_physical,
    velocity,
    wavenumbers,
)

GRID = SpectralGrid(32)
SQRT2PI = math.sqrt(2.0) * math.pi


def params(nu=1.0, alpha=0.0, grid=GRID):
    return ModelParams(nu=nu, alpha=alpha, grid=grid)


def advective_limit(state, cfl=0.5):
    """The run's advective limit of a state: ``_dt_max`` with fresh buffers."""
    return _dt_max(state.psi.grid, state.psi.coeffs, cfl, _run_buffers(state.params))


def dist(f, g):
    return norms(ScalarField(f.grid, f.coeffs - g.coeffs)).l2


def forcing_velocity_l2(spec, params):
    """L2 norm of the divergence-free velocity forcing whose curl is the
    scalar forcing, by the trapezoid rule (exact for the grid's modes)."""
    grid = params.grid
    stream = inv_laplacian(kolmogorov_forcing(spec, params)).coeffs
    u1, u2 = (to_physical(grid, c) for c in velocity(grid, stream))
    return math.sqrt(np.sum(u1**2 + u2**2)) * 2 * math.pi / grid.n_modes


def energy(psi, alpha):
    """|phi|^2 + alpha^2 |grad phi|^2 for phi = (I - a^2 Lap)^{-1} psi: the
    alpha-weighted functional that decays monotonically under zero forcing."""
    m = norms(helmholtz_inv(psi, alpha))
    return m.l2**2 + alpha**2 * m.h1_semi**2


# ---------------------------------------------------------------------
# forcing and stationary solution
# ---------------------------------------------------------------------

def test_forcing_coefficients():
    F = kolmogorov_forcing(ForcingSpec(s=1, lam=1.0), params(nu=1.0))
    # cos expansion puts -(1/(sqrt2 pi))/2 at both (0, +-1)
    want = -0.5 / SQRT2PI
    assert coeff(F, 0, 1) == pytest.approx(want, rel=1e-14)
    assert coeff(F, 0, -1) == pytest.approx(want, rel=1e-14)
    wav = wavenumbers(GRID).tolist()
    nonzero = {(k1, k2) for k1 in wav for k2 in wav if coeff(F, k1, k2) != 0}
    assert nonzero == {(0, 1), (0, -1)}
    # the stored half holds one of the pair
    assert np.argwhere(F.coeffs).tolist() == [list(GRID.index_of(0, 1))]


@pytest.mark.parametrize("s,lam,nu", [(1, 1.0, 1.0), (3, 2.5, 0.4), (4, 0.7, 2.0)])
def test_forcing_norms(s, lam, nu):
    p = params(nu=nu)
    spec = ForcingSpec(s=s, lam=lam)
    F = kolmogorov_forcing(spec, p)
    assert norms(F).l2 == pytest.approx(nu**2 * lam * s**3, rel=1e-12)
    assert forcing_velocity_l2(spec, p) == pytest.approx(nu**2 * lam * s**2, rel=1e-12)


def test_forcing_rejects_s_beyond_cutoff():
    with pytest.raises(ValueError):
        kolmogorov_forcing(ForcingSpec(s=11, lam=1.0), params())  # cutoff 32/3


def test_stationary_psi_formula():
    p = params(nu=0.5)
    psi = stationary_psi(ForcingSpec(s=2, lam=3.0), p)
    expected = ScalarField.harmonic(GRID, 0, 2, amplitude=-3.0 / SQRT2PI)
    assert dist(psi, expected) < 1e-14


@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
def test_stationary_nonlinear_term_vanishes(alpha):
    from mla.spectral import jacobian

    p = params(nu=0.8, alpha=alpha)
    psi = stationary_psi(ForcingSpec(s=3, lam=2.0), p)
    j = jacobian(inv_laplacian(psi), helmholtz_inv(psi, alpha))
    assert norms(j).l2 < 1e-14


def test_stationary_balance_exact():
    p = params(nu=0.5)
    spec = ForcingSpec(s=2, lam=3.0)
    psi = stationary_psi(spec, p)
    F = kolmogorov_forcing(spec, p)
    assert dist(ScalarField(GRID, p.nu * GRID.k_sq * psi.coeffs), F) < 1e-13 * norms(F).l2


@pytest.mark.parametrize("s", [1, 2, 4])
@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_rhs_stationary_residual(s, alpha):
    p = params(nu=0.7, alpha=alpha)
    spec = ForcingSpec(s=s, lam=1.3)
    psi = stationary_psi(spec, p)
    F = kolmogorov_forcing(spec, p)
    rhs = -p.nu * GRID.k_sq * psi.coeffs + _nonlinear(psi.coeffs, p, F.coeffs, _run_buffers(p))
    assert norms(ScalarField(GRID, rhs)).l2 < 1e-12 * norms(F).l2


def test_grashof():
    assert grashof(5.0, 3) == pytest.approx(45.0)
    assert grashof(1.0, 1) == pytest.approx(1.0)
    # consistency with the velocity-forcing norm: G nu^2 lambda1 = |f|
    p = params(nu=0.9)
    spec = ForcingSpec(s=2, lam=1.7)
    assert grashof(spec.lam, spec.s) * p.nu**2 == pytest.approx(
        forcing_velocity_l2(spec, p), rel=1e-12
    )


# ---------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------

def test_rhs_pure_decay_mode():
    p = params(nu=0.6)
    psi = ScalarField.harmonic(GRID, 0, 1)  # cos x2
    F = ScalarField(GRID, np.zeros(GRID.shape, complex))
    rhs = -p.nu * GRID.k_sq * psi.coeffs + _nonlinear(psi.coeffs, p, F.coeffs, _run_buffers(p))
    assert dist(ScalarField(GRID, rhs), psi * -p.nu) < 1e-13


def test_rhs_matches_finite_difference_oracle():
    # Independent path: the Jacobian and Laplacian are evaluated with
    # second-order centered differences and pointwise products on a fine
    # grid.  The diagonal inverses feeding J are covered by their own
    # round-trip oracles.
    n = 512
    grid = SpectralGrid(n)
    rng = np.random.default_rng(99)
    base = ScalarField.random(SpectralGrid(32), rng, amplitude=1.0, decay=1.2)
    keep = {(k1, k2): coeff(base, k1, k2) for k1 in range(-4, 5)
            for k2 in range(5) if k2 > 0 or k1 > 0}
    psi = ScalarField.from_modes(grid, keep)

    p = ModelParams(nu=0.7, alpha=0.25, grid=grid)
    spec = ForcingSpec(s=2, lam=1.3)
    F = kolmogorov_forcing(spec, p)
    # the right-hand side through the kernel that run steps with
    got = to_physical(grid, -p.nu * grid.k_sq * psi.coeffs
                           + _nonlinear(psi.coeffs, p, F.coeffs, _run_buffers(p)))

    h = 2 * np.pi / n

    def d1(v):
        return (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2 * h)

    def d2(v):
        return (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2 * h)

    def lap(v):
        return (
            np.roll(v, 1, 0) + np.roll(v, -1, 0) + np.roll(v, 1, 1)
            + np.roll(v, -1, 1) - 4 * v
        ) / h**2

    chi = field_values(inv_laplacian(psi))
    phi = field_values(helmholtz_inv(psi, p.alpha))
    j_fd = d1(chi) * d2(phi) - d2(chi) * d1(phi)
    want = p.nu * lap(field_values(psi)) - j_fd + field_values(F)
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert err < 1e-4


# ---------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------

def test_exact_exponential_decay():
    p = params(nu=0.8)
    k = 3
    psi0 = ScalarField.harmonic(GRID, k, 0)
    state = SolverState(psi=psi0, time=0.0, params=p)
    F = ScalarField(GRID, np.zeros(GRID.shape, complex))
    T = 1.0
    state = run(state, T, T / 1000, F, sample_every=1000).final_state
    want = math.exp(-p.nu * k**2 * T)
    got = 2 * abs(coeff(state.psi, k, 0))
    assert abs(got - want) < 1e-8 * want


def test_stationary_state_fixed_point():
    p = params(nu=1.0, alpha=0.1)
    spec = ForcingSpec(s=2, lam=2.0)
    psi_s = stationary_psi(spec, p)
    F = kolmogorov_forcing(spec, p)
    state = SolverState(psi=psi_s, time=0.0, params=p)
    state = run(state, 1.0, 1e-3, F, sample_every=1000).final_state
    assert dist(state.psi, psi_s) < 1e-10 * norms(psi_s).l2


def test_self_convergence_second_order():
    p = params(nu=0.3, alpha=0.15)
    spec = ForcingSpec(s=2, lam=1.5)
    F = kolmogorov_forcing(spec, p)
    rng = np.random.default_rng(4)
    psi0 = ScalarField.random(GRID, rng, amplitude=0.5)
    T = 0.5

    def integrate(dt):
        state = SolverState(psi=psi0, time=0.0, params=p)
        return run(state, T, dt, F, sample_every=int(round(T / dt))).final_state.psi

    ref = integrate(T / 4096)
    e1 = dist(integrate(1e-2), ref)
    e2 = dist(integrate(5e-3), ref)
    ratio = e1 / e2
    assert 3.3 < ratio < 4.7  # ~4x per halving for a second-order scheme


def _reference_step(state, dt, forcing):
    """The ETD2RK step composed from validated fields, as step_imex was
    written before it moved onto coefficient arrays: the oracle for it."""
    p = state.params
    exp_z, w1, w2 = _etd_tables(p.grid, p.nu, dt)

    def nonlinear(psi):
        j = jacobian(inv_laplacian(psi), helmholtz_inv(psi, p.alpha))
        return ScalarField(p.grid, forcing.coeffs - j.coeffs)

    n0 = nonlinear(state.psi)
    a = ScalarField(p.grid, exp_z * state.psi.coeffs + w1 * n0.coeffs)
    new = ScalarField(p.grid, a.coeffs + w2 * (nonlinear(a).coeffs - n0.coeffs))
    return SolverState(psi=new, time=state.time + dt, params=p)


@pytest.mark.parametrize("n", [32, 48, 64])
@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_step_matches_field_composed_reference(n, alpha):
    # 48 is not a power of two, so the array path rounds differently there
    p = params(nu=0.05, alpha=alpha, grid=SpectralGrid(n))
    spec = ForcingSpec(s=2, lam=40.0)
    F = kolmogorov_forcing(spec, p)
    psi0 = stationary_psi(spec, p) + initial_state(p, seed=3, amplitude=0.5).psi
    got = want = SolverState(psi=psi0, time=0.0, params=p)
    for _ in range(20):
        got, want = step_imex(got, 0.01, F), _reference_step(want, 0.01, F)
        assert dist(got.psi, want.psi) <= 1e-13 * norms(want.psi).l2
        assert got.time == want.time
    assert dist(got.psi, psi0) > 1e-3 * norms(psi0).l2  # the state moved


def test_step_rejects_bad_dt_and_detects_blowup():
    p = params()
    state = initial_state(p, seed=1)
    F = ScalarField(GRID, np.zeros(GRID.shape, complex))
    with pytest.raises(ValueError):
        step_imex(state, -0.1, F)
    with pytest.raises(ValueError, match="dt must be positive"):
        run(state, t_final=-1.0, dt=-0.1, forcing=F)


@pytest.mark.parametrize("other", [SpectralGrid(32, "1/2"), SpectralGrid(16)])
def test_step_and_rhs_reject_forcing_on_another_grid(other):
    state = initial_state(params(), seed=1)
    F = ScalarField(other, np.zeros(other.shape, complex))
    for call in (lambda: step_imex(state, 0.01, F),
                 lambda: run(state, t_final=0.02, dt=0.01, forcing=F)):
        with pytest.raises(GridMismatchError):
            call()


# ---------------------------------------------------------------------
# run + diagnostics
# ---------------------------------------------------------------------

def test_run_zero_steps_empty():
    p = params()
    state = initial_state(p, seed=2)
    F = ScalarField(GRID, np.zeros(GRID.shape, complex))
    diag = run(state, t_final=0.0, dt=0.1, forcing=F)
    assert len(diag) == 0
    assert diag.final_state is state


def test_run_sampling_sparser_than_steps():
    # sample_every beyond the step count: no samples, final state intact
    p = params()
    state = initial_state(p, seed=21)
    F = ScalarField(GRID, np.zeros(GRID.shape, complex))
    diag = run(state, t_final=0.1, dt=0.02, forcing=F, sample_every=100)
    assert len(diag) == 0
    assert diag.final_state.time == pytest.approx(0.1)
    with pytest.raises(ValueError):
        check_asymptotic_bounds(diag, f_l2=1.0, nu=1.0)


def test_run_diagnostics_match_field_norms_bit_for_bit():
    # run reads the norms of phi off its coefficient array; the field-built
    # norms(helmholtz_inv(psi)) is the oracle, to the bit as CSVs need
    p = params(nu=0.05, alpha=0.1)
    spec = ForcingSpec(s=2, lam=40.0)
    F = kolmogorov_forcing(spec, p)
    psi0 = stationary_psi(spec, p) + initial_state(p, seed=5, amplitude=0.5).psi
    state = SolverState(psi=psi0, time=0.0, params=p)
    diag = run(state, t_final=0.1, dt=0.01, forcing=F, sample_every=1)
    acc, g_prev = 0.0, norms(helmholtz_inv(state.psi, p.alpha)).h1_semi ** 2
    for i in range(10):
        state = step_imex(state, 0.01, F)
        m = norms(helmholtz_inv(state.psi, p.alpha))
        acc += 0.5 * (g_prev + m.h1_semi ** 2) * 0.01
        g_prev = m.h1_semi ** 2
        assert (diag.phi_l2[i], diag.grad_phi_l2[i]) == (m.l2, m.h1_semi)
        assert diag.avg_grad_sq[i] == acc / state.time
    assert np.array_equal(diag.final_state.psi.coeffs, state.psi.coeffs)


def test_run_wraps_only_the_state_it_returns(monkeypatch):
    # the steps advance coefficient arrays; a field and a state per step before
    p = params(nu=0.05, alpha=0.1)
    spec = ForcingSpec(s=2, lam=40.0)
    F = kolmogorov_forcing(spec, p)
    state = initial_state(p, seed=5, amplitude=0.5, about=stationary_psi(spec, p))
    built = {"fields": 0, "states": 0}
    post_init, init = ScalarField.__post_init__, SolverState.__init__

    def counted_post_init(field):
        built["fields"] += 1
        post_init(field)

    def counted_init(self, *args, **kwargs):
        built["states"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ScalarField, "__post_init__", counted_post_init)
    monkeypatch.setattr(SolverState, "__init__", counted_init)
    diag = run(state, t_final=0.25, dt=0.01, forcing=F, sample_every=5)
    assert built == {"fields": 1, "states": 1}
    assert len(diag) == 5 and diag.final_state.psi is not state.psi


def test_decay_run_monotone():
    p = params(nu=0.5, alpha=0.2)
    state = initial_state(p, seed=3, amplitude=0.5)
    F = ScalarField(GRID, np.zeros(GRID.shape, complex))
    diag = run(state, t_final=2.0, dt=0.01, forcing=F, sample_every=10)
    assert np.all(np.diff(diag.phi_l2) < 0)
    assert np.all(np.diff(diag.times) > 0)
    # alpha-weighted energy non-increasing as well
    state2 = initial_state(p, seed=3, amplitude=0.5)
    vals = [energy(state2.psi, p.alpha)]
    for _ in range(20):
        for _ in range(10):
            state2 = step_imex(state2, 0.01, F)
        vals.append(energy(state2.psi, p.alpha))
    assert np.all(np.diff(vals) <= 0)


def test_subthreshold_run_converges_to_stationary():
    # s=1 admits no unstable pairs, so the Kolmogorov state attracts.
    p = params(nu=1.0, alpha=0.1)
    spec = ForcingSpec(s=1, lam=2.0)
    F = kolmogorov_forcing(spec, p)
    psi_s = stationary_psi(spec, p)
    rng = np.random.default_rng(8)
    psi0 = psi_s + ScalarField.random(GRID, rng, amplitude=1e-3)
    state = SolverState(psi=psi0, time=0.0, params=p)
    diag = run(state, t_final=30.0, dt=0.02, forcing=F, sample_every=100)
    assert dist(diag.final_state.psi, psi_s) < 1e-6


def test_cfl_guard():
    p = params(nu=1e-4)
    rng = np.random.default_rng(5)
    psi0 = ScalarField.random(GRID, rng, amplitude=50.0)
    state = SolverState(psi=psi0, time=0.0, params=p)
    F = ScalarField(GRID, np.zeros(GRID.shape, complex))
    limit = advective_limit(state)
    assert np.isfinite(limit)
    with pytest.raises(NumericalError, match="advective limit"):
        run(state, t_final=1.0, dt=limit * 10, forcing=F)


def test_cfl_guard_mid_run_names_the_limit():
    # a quiescent start passes the start check; the forcing alone then drives
    # |u| past dt's limit in the first step, and the sample check names it
    p = params(nu=0.01)
    F = kolmogorov_forcing(ForcingSpec(s=2, lam=1e6), p)
    state = SolverState(psi=ScalarField(GRID, np.zeros(GRID.shape, complex)),
                        time=0.0, params=p)
    assert advective_limit(state) == math.inf
    limit = advective_limit(step_imex(state, 0.05, F))
    assert 0.0 < limit < 0.05
    with pytest.raises(NumericalError) as exc:
        run(state, t_final=20.0, dt=0.05, forcing=F)
    assert str(exc.value) == f"dt=0.05 exceeds advective limit {limit} at t=0.05"


def _dt_max_reference(state, cfl=0.5):
    """The advective limit as it was before it reused the run's buffers: each velocity
    component through irfft2 (``spectral_oracles.to_physical``), then the max
    of |u|.  The oracle for the buffered path."""
    grid = state.psi.grid
    stream = grid.neg_inv_k_sq * state.psi.coeffs
    u1, u2 = (to_physical(grid, c) for c in velocity(grid, stream))
    umax = float(np.max(np.sqrt(u1**2 + u2**2)))
    k = wavenumbers(grid)
    kmax = float(np.max(np.abs(k[np.abs(k) < dealias_cutoff(grid)])))
    return math.inf if umax * kmax == 0.0 else cfl / (umax * kmax)


def _dt_max_states(n):
    """Random masked fields of three sizes, and one with modes outside the
    dealias mask, each with the run buffers of a kernel step already taken
    (past the advective limit for the largest, where ``run`` would raise)."""
    grid = SpectralGrid(n)
    rng = np.random.default_rng(n)
    p = params(nu=1.0, alpha=0.1, grid=grid)
    full = np.fft.rfft2(rng.standard_normal((n, n))) / n**2
    full[0, 0] = 0.0
    fields = [ScalarField.random(grid, rng, amplitude=a) for a in (1e-3, 1.0, 50.0)]
    for psi in fields + [ScalarField(grid, full)]:
        state = SolverState(psi=psi, time=0.0, params=p)
        buffers = _run_buffers(p)
        _step(psi.coeffs, 0.0, 1e-4, p, np.zeros(grid.shape, complex),
              _etd_tables(grid, p.nu, 1e-4), buffers)
        yield state, buffers


@pytest.mark.parametrize("n", [16, 64, 256])
def test_buffered_dt_max_is_bit_identical_to_irfft2_reference(n):
    # 1/n is exact for a power of two, so the unscaled 1-D passes give the
    # bits of irfft2 times n^2
    for state, buffers in _dt_max_states(n):
        want = _dt_max_reference(state, 0.3)
        assert _dt_max(state.psi.grid, state.psi.coeffs, 0.3, buffers) == want
        assert advective_limit(state, 0.3) == want


def test_buffered_dt_max_matches_irfft2_reference_to_rounding():
    for state, buffers in _dt_max_states(48):
        want = _dt_max_reference(state)
        got = _dt_max(state.psi.grid, state.psi.coeffs, 0.5, buffers)
        assert got == pytest.approx(want, rel=1e-15, abs=0)


def test_dt_max_of_quiescent_field_is_inf():
    p = params(grid=SpectralGrid(64))
    state = SolverState(psi=ScalarField(p.grid, np.zeros(p.grid.shape, complex)),
                        time=0.0, params=p)
    assert advective_limit(state) == math.inf == _dt_max_reference(state)


def _traced_peak(call):
    """Peak bytes that call() allocates, as tracemalloc counts numpy buffers."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _kolmogorov_256():
    """The kolmogorov-256 benchmark's run: shipped physics at n = 256, seed 0."""
    p = params(nu=1.0, alpha=0.1, grid=SpectralGrid(256))
    return initial_state(p, seed=0), kolmogorov_forcing(ForcingSpec(s=4, lam=3.125), p)


def test_run_working_set_is_bounded_in_half_spectra():
    # 16.5 half-spectra before the band-only Jacobian arguments, the one
    # work array and the buffered CFL check; 13.0 after
    state, forcing = _kolmogorov_256()
    half = state.psi.coeffs.nbytes
    peak = _traced_peak(lambda: run(state, 0.125, 0.005, forcing, sample_every=5))
    assert peak <= 13.5 * half


def test_dt_max_with_run_buffers_allocates_only_the_velocity():
    # the two velocity arrays, numpy's one 8192-element casting buffer for
    # the real-by-complex stream product, and a few KB; before, dt_max also
    # made the stream and four full-size temporaries per component
    state, _ = _kolmogorov_256()
    buffers = _run_buffers(state.params)
    half = state.psi.coeffs.nbytes
    peak = _traced_peak(lambda: _dt_max(state.psi.grid, state.psi.coeffs, 0.5, buffers))
    assert peak <= 2 * half + 8192 * 16 + 16 * 1024


@pytest.mark.parametrize("n", [16, 64, 256])
def test_filter_multiply_is_bit_identical_to_the_division(n):
    # numpy divides by a real promoted to complex as (re + im 0) (1/h), so
    # each nonzero part of psi * (1/h) has the bits of psi / h; an exact zero
    # may differ in sign only, and no output holds one
    grid = SpectralGrid(n)
    rng = np.random.default_rng(n)
    full = np.fft.rfft2(rng.standard_normal((n, n))) / n**2
    full[0, 0] = 0.0
    states = [ScalarField.random(grid, rng).coeffs,  # zero outside the dealias mask
              full, full * 1e300, full * 1e-300,
              ScalarField.random(grid, rng, amplitude=1e308).coeffs]
    for alpha in (0.0, 0.1, 1.0, 1e3):
        h_inv = _run_buffers(params(alpha=alpha, grid=grid)).helmholtz_inv
        h = grid.helmholtz(alpha)
        for psi in states:
            got, want = psi * h_inv, psi / h
            assert np.array_equal(got, want)
            nonzero = want.view(np.float64) != 0
            assert np.array_equal(got.view(np.uint64)[nonzero], want.view(np.uint64)[nonzero])


def _phi1(z):
    """(e^z - 1)/z, series for small |z|: the separate pass ``_etd_tables``
    made before it shared the mask and expm1 with phi2.  The oracle."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-2
    zs = z[small]
    out[small] = 1 + zs / 2 + zs**2 / 6 + zs**3 / 24 + zs**4 / 120 + zs**5 / 720
    zl = z[~small]
    out[~small] = np.expm1(zl) / zl
    return out


def _phi2(z):
    """(e^z - 1 - z)/z^2, series for small |z|: phi2's own pass, the oracle."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-2
    zs = z[small]
    out[small] = (0.5 + zs / 6 + zs**2 / 24 + zs**3 / 120 + zs**4 / 720
                  + zs**5 / 5040)
    zl = z[~small]
    out[~small] = (np.expm1(zl) - zl) / zl**2
    return out


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("nu", [1.0, 0.37])
@pytest.mark.parametrize("z_max", [4e-2, 200.0])
def test_etd_tables_match_the_separate_phi_passes_bit_for_bit(n, nu, z_max):
    grid = SpectralGrid(n)
    # |z| = nu dt |k|^2 runs from 0 (the series) to z_max (expm1) across the grid
    dt = z_max / (nu * grid.k_sq.max())
    z = -nu * dt * grid.k_sq
    assert np.any(np.abs(z) < 1e-2) and np.any(np.abs(z) >= 1e-2)
    exp_z, w1, w2 = _etd_tables(grid, nu, dt)
    for got, want in ((exp_z, np.exp(z)), (w1, dt * _phi1(z)), (w2, dt * _phi2(z))):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------
# asymptotic bounds
# ---------------------------------------------------------------------

def test_asymptotic_bounds_stationary_closed_form():
    nu, lam, s, alpha = 1.0, 2.0, 2, 0.1
    p = params(nu=nu, alpha=alpha)
    spec = ForcingSpec(s=s, lam=lam)
    psi_s = stationary_psi(spec, p)
    phi_s = helmholtz_inv(psi_s, alpha)
    # |psi_s| = nu lam s, filtered by 1/(1 + a^2 s^2)
    want = nu * lam * s / (1 + alpha**2 * s**2)
    assert norms(phi_s).l2 == pytest.approx(want, rel=1e-12)
    f_l2 = nu**2 * lam * s**2
    assert want**2 <= f_l2**2 / nu**2  # closed-form check of the bound

    state = SolverState(psi=psi_s, time=0.0, params=p)
    diag = run(state, t_final=1.0, dt=0.01, forcing=kolmogorov_forcing(spec, p),
               sample_every=10)
    report = check_asymptotic_bounds(diag, f_l2=f_l2, nu=nu)
    assert report.ok
    assert report.phi_margin >= 0 and report.avg_margin >= 0


def test_asymptotic_bounds_supercritical_run():
    # large-G run: the instability pulls the trajectory far from the
    # steady state and the tail bounds must still hold
    p = params(nu=1.0, alpha=0.05)
    spec = ForcingSpec(s=2, lam=30.0)  # G = 120
    F = kolmogorov_forcing(spec, p)
    state = initial_state(p, seed=19, amplitude=0.01)
    diag = run(state, t_final=25.0, dt=0.005, forcing=F, sample_every=200)
    rep = check_asymptotic_bounds(diag, f_l2=p.nu**2 * spec.lam * spec.s**2,
                                  nu=p.nu)
    assert rep.ok
    psi_s = stationary_psi(spec, p)
    assert dist(diag.final_state.psi, psi_s) > 1.0  # genuinely departed


def test_asymptotic_bounds_zero_forcing():
    p = params(nu=1.0)
    state = initial_state(p, seed=11, amplitude=0.1)
    F = ScalarField(GRID, np.zeros(GRID.shape, complex))
    diag = run(state, t_final=5.0, dt=0.01, forcing=F, sample_every=25)
    report = check_asymptotic_bounds(diag, f_l2=1.0, nu=p.nu)
    assert report.ok
    assert report.phi_sq_tail_max < 1e-4  # left sides decay toward zero
