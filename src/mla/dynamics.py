"""Time integration of the vorticity model on the torus.

The evolved variable is the vorticity-like scalar psi satisfying

    psi_t - nu Lap(psi) + J(Lap^{-1} psi, (I - alpha^2 Lap)^{-1} psi) = F,

driven by the single-mode Kolmogorov forcing
F = -(1/(sqrt(2) pi)) nu^2 lam s^3 cos(s x2).  Diffusion is integrated
exactly per mode (exponential integrating factor); the Jacobian term and
forcing are handled by a two-stage second-order exponential scheme whose
fixed points are exactly stationary.  Its phi1 and phi2 tables (Cox and
Matthews, J. Comput. Phys. 176, 2002) come from one pass, ``_etd_tables``.
``run`` steps plain coefficient
arrays through the private kernels ``_step`` and ``_dt_max`` and wraps only
the state it returns; ``step_imex`` wraps the same step kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import NumericalError
from .spectral import (
    ScalarField,
    SpectralGrid,
    _jacobian,
    _jacobian_buffers,
    _norms,
    _real_zero_mean,
    _to_physical,
)

__all__ = [
    "ModelParams",
    "ForcingSpec",
    "SolverState",
    "TrajectoryDiagnostics",
    "AsymptoticReport",
    "kolmogorov_forcing",
    "stationary_psi",
    "step_imex",
    "run",
    "check_asymptotic_bounds",
    "initial_state",
]


@dataclass(frozen=True)
class ModelParams:
    """Viscosity nu > 0, filter length alpha >= 0, and the spectral grid."""

    nu: float
    alpha: float
    grid: SpectralGrid

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")


@dataclass(frozen=True)
class ForcingSpec:
    """Kolmogorov forcing wavenumber s >= 1 and amplitude parameter lam > 0."""

    s: int
    lam: float

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"s must be a positive integer, got {self.s}")
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")


@dataclass(frozen=True, eq=False)
class SolverState:
    psi: ScalarField
    time: float
    params: ModelParams


@dataclass(eq=False)
class TrajectoryDiagnostics:
    """Sampled filtered-field norms along a run.

    ``avg_grad_sq[i]`` is the running time average of |grad phi|^2 over
    the run window [t_start, times[i]], accumulated by the trapezoid rule
    at every step (not just at samples).
    """

    times: np.ndarray
    phi_l2: np.ndarray
    grad_phi_l2: np.ndarray
    avg_grad_sq: np.ndarray
    final_state: SolverState | None = field(default=None, repr=False)

    CSV_HEADER = "time,phi_l2,grad_phi_l2,avg_grad_sq"

    def __len__(self):
        return len(self.times)


def _forcing_amplitude(spec: ForcingSpec, nu: float) -> float:
    return -(nu**2) * spec.lam * spec.s**3 / (math.sqrt(2.0) * math.pi)


def _forcing_l2(spec: ForcingSpec, nu: float) -> float:
    """|f| = nu^2 lam s^2, the forcing size ``check_asymptotic_bounds`` takes."""
    return nu**2 * spec.lam * spec.s**2


def _dissipative_bound(f_l2: float, nu: float) -> float:
    """|f|^2 / nu^2, the bound on both tails ``check_asymptotic_bounds`` checks."""
    return f_l2**2 / nu**2


def kolmogorov_forcing(spec: ForcingSpec, params: ModelParams) -> ScalarField:
    """F = -(1/(sqrt(2) pi)) nu^2 lam s^3 cos(s x2): two nonzero modes."""
    return ScalarField.harmonic(params.grid, 0, spec.s,
                                amplitude=_forcing_amplitude(spec, params.nu))


def stationary_psi(spec: ForcingSpec, params: ModelParams) -> ScalarField:
    """psi_s = -(1/(sqrt(2) pi)) nu lam s cos(s x2), the Kolmogorov steady state."""
    amp = -params.nu * spec.lam * spec.s / (math.sqrt(2.0) * math.pi)
    return ScalarField.harmonic(params.grid, 0, spec.s, amplitude=amp)


class _RunBuffers(NamedTuple):
    """What every step of one run reuses: the filter 1 / (1 + alpha^2 |k|^2)
    of I - alpha^2 Lap, the Jacobian's two (n, m) band arguments, one
    full-width ``work`` and the Jacobian's work arrays.  ``run`` drops them."""

    helmholtz_inv: np.ndarray
    stream: np.ndarray
    filtered: np.ndarray
    work: np.ndarray
    jacobian: tuple[np.ndarray, ...]


def _run_buffers(params: ModelParams) -> _RunBuffers:
    grid = params.grid
    # Tables before work arrays, in field order: built after them, the grid's
    # raised a simulate run's peak RSS at n = 256 by 0.6 MB.
    grid.neg_inv_k_sq, grid._jacobian_symbols
    band = (grid.n_modes, grid.dealias_band)
    h = grid.helmholtz(params.alpha)  # inverted in place: one array less at peak
    return _RunBuffers(np.divide(1.0, h, out=h),
                       np.empty(band, dtype=np.complex128),
                       np.empty(band, dtype=np.complex128),
                       np.empty(grid.shape, dtype=np.complex128),
                       _jacobian_buffers(grid))


def _nonlinear(psi: np.ndarray, params: ModelParams, forcing: np.ndarray,
               buffers: _RunBuffers, out: np.ndarray | None = None) -> np.ndarray:
    """F - J(Lap^{-1} psi, (I-a^2 Lap)^{-1} psi) on coefficient arrays, written
    over the Jacobian's result (``out``, or fresh); its arguments are band-only."""
    grid, m = params.grid, params.grid.dealias_band
    np.multiply(psi[:, :m], grid.neg_inv_k_sq[:, :m], out=buffers.stream)
    np.multiply(psi[:, :m], buffers.helmholtz_inv[:, :m], out=buffers.filtered)
    jac = _jacobian(grid, buffers.stream, buffers.filtered, buffers.jacobian, out)
    return np.subtract(forcing, jac, out=jac)


def _dt_max(grid: SpectralGrid, psi: np.ndarray, cfl: float, buffers: _RunBuffers) -> float:
    """The advective limit dt <= cfl / (max|u| k_max) of the coefficient array
    psi; inf for a quiescent field.  Each component of u = (-d2, d1) stream is formed
    in ``buffers.work`` and ``_to_physical`` runs there: nothing grid-sized is allocated."""
    u1, u2 = buffers.jacobian[1:3]
    for d, phys in ((-1j * grid.k2, u1), (1j * grid.k1, u2)):
        stream = np.multiply(grid.neg_inv_k_sq, psi, out=buffers.work)
        _to_physical(d, stream, stream, phys)
        phys *= phys
    umax = float(np.sqrt(np.max(np.add(u1, u2, out=u1))))  # sqrt is monotone
    kmax = grid.dealias_band - 1  # the largest kept |k_i|
    if umax * kmax == 0.0:
        return math.inf
    return cfl / (umax * kmax)


def _etd_tables(grid: SpectralGrid, nu: float, dt: float):
    """e^z, dt phi1(z) = dt (e^z - 1)/z and dt phi2(z) = dt (e^z - 1 - z)/z^2
    at z = -nu |k|^2 dt; Taylor series below |z| = 1e-2 dodge cancellation."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    z = -nu * dt * grid.k_sq
    phi1, phi2 = np.empty_like(z), np.empty_like(z)
    small = np.abs(z) < 1e-2
    zs = z[small]
    phi1[small] = 1 + zs / 2 + zs**2 / 6 + zs**3 / 24 + zs**4 / 120 + zs**5 / 720
    phi2[small] = 0.5 + zs / 6 + zs**2 / 24 + zs**3 / 120 + zs**4 / 720 + zs**5 / 5040
    zl = z[~small]
    em1 = np.expm1(zl)
    phi1[~small] = em1 / zl
    phi2[~small] = (em1 - zl) / zl**2
    return np.exp(z), dt * phi1, dt * phi2


def step_imex(state: SolverState, dt: float, forcing: ScalarField) -> SolverState:
    """One step of the exponential two-stage scheme.

    Per mode, with z = -nu |k|^2 dt:

        a     = e^z psi + dt phi1(z) N(psi)
        psi'  = a + dt phi2(z) (N(a) - N(psi))

    Steady states (N balancing diffusion exactly) are fixed points of the
    update, and smooth solutions converge at second order.  Callers are
    responsible for the advective limit; see run(), which checks it with
    ``_dt_max`` and takes its steps through the same kernel with tables and
    buffers built once.  This call builds both for its one step.
    """
    p = state.params
    etd = _etd_tables(p.grid, p.nu, dt)
    state.psi._require_same_grid(forcing)
    psi = _step(state.psi.coeffs, state.time, dt, p, forcing.coeffs, etd, _run_buffers(p))
    return SolverState(psi=ScalarField(p.grid, psi), time=state.time + dt, params=p)


def _step(psi: np.ndarray, t: float, dt: float, params: ModelParams, f: np.ndarray,
          etd: tuple[np.ndarray, np.ndarray, np.ndarray], buffers: _RunBuffers) -> np.ndarray:
    """``step_imex`` on coefficient arrays: psi at time t to a fresh array at
    t + dt, with ``etd`` from ``_etd_tables`` for this dt, finished by the
    half-spectrum rule ``ScalarField`` applies."""
    exp_z, w1, w2 = etd
    n0 = _nonlinear(psi, params, f, buffers)
    # in place or in ``work``, but the same products and sums in the same
    # order as the formulas of ``step_imex``, so the rounding is theirs
    a = exp_z * psi
    a += np.multiply(w1, n0, out=buffers.work)
    n1 = _nonlinear(a, params, f, buffers, out=buffers.work)
    n1 -= n0
    n1 *= w2
    a += n1
    del n0
    _real_zero_mean(a)
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"non-finite coefficients after step at t={t}: "
                             f"max|psi|={np.max(np.abs(psi))}, dt={dt}")
    return a


def run(state: SolverState, t_final: float, dt: float, forcing: ScalarField,
        sample_every: int = 1, cfl: float = 0.5) -> TrajectoryDiagnostics:
    """Integrate to t_final with fixed dt, sampling every ``sample_every`` steps.

    The number of steps is round((t_final - t0)/dt); there is no partial
    final step.  The CFL heuristic is enforced at the start and at every
    sample, and a non-finite step raises, both NumericalError; numpy's
    overflow warnings are silenced.  The steps advance plain arrays through
    ``_step``; only the final state, attached to the diagnostics, is wrapped.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be a positive integer")
    n_steps = int(round((t_final - state.time) / dt))
    if n_steps <= 0:
        empty = np.empty(0)
        return TrajectoryDiagnostics(empty, empty.copy(), empty.copy(),
                                     empty.copy(), final_state=state)
    state.psi._require_same_grid(forcing)

    # hold arrays only: the initial coefficients go after the first step
    psi, t, params = state.psi.coeffs, state.time, state.params
    del state
    grid, f, t0 = params.grid, forcing.coeffs, t
    times, phis, grads, avgs = [], [], [], []

    # an overflow ends as a non-finite step (NumericalError) or an infinite
    # norm, which no artifact may hold, so numpy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        # ETD tables before work arrays: after, 2.6 MB more peak RSS at n = 1024
        etd = _etd_tables(grid, params.nu, dt)
        buffers = _run_buffers(params)
        limit = _dt_max(grid, psi, cfl, buffers)
        if dt > limit:
            raise NumericalError(f"dt={dt} exceeds advective limit {limit} at start")
        acc = 0.0
        # norms of phi = (I - alpha^2 Lap)^{-1} psi, formed in the work array
        phi = np.multiply(psi, buffers.helmholtz_inv, out=buffers.work)
        g_prev = _norms(grid, phi).h1_semi ** 2
        for i in range(n_steps):
            psi = _step(psi, t, dt, params, f, etd, buffers)
            t += dt
            m = _norms(grid, np.multiply(psi, buffers.helmholtz_inv, out=phi))
            acc += 0.5 * (g_prev + m.h1_semi ** 2) * dt
            g_prev = m.h1_semi ** 2
            if (i + 1) % sample_every == 0:
                if dt > (limit := _dt_max(grid, psi, cfl, buffers)):
                    raise NumericalError(f"dt={dt} exceeds advective limit {limit} at t={t}")
                times.append(t)
                phis.append(m.l2)
                grads.append(m.h1_semi)
                avgs.append(acc / (t - t0))
    return TrajectoryDiagnostics(
        np.asarray(times), np.asarray(phis), np.asarray(grads), np.asarray(avgs),
        final_state=SolverState(psi=ScalarField(grid, psi), time=t, params=params),
    )


@dataclass(frozen=True)
class AsymptoticReport:
    """Tail-window check of the dissipative a-priori bounds.

    ``phi_sq_bound`` is |f|^2/(lambda1 nu^2), with lambda1 = 1 on the
    torus, against the tail max of |phi(t)|^2; ``avg_bound`` is |f|^2/nu^2
    against the tail of the running time average of |grad phi|^2.  Margins
    are bound minus measured value (nonnegative means the bound holds).
    """

    tail_start: float
    tail_count: int
    phi_sq_tail_max: float
    phi_sq_bound: float
    phi_margin: float
    avg_tail_max: float
    avg_bound: float
    avg_margin: float

    @property
    def ok(self) -> bool:
        return self.phi_margin >= 0 and self.avg_margin >= 0


def check_asymptotic_bounds(diag: TrajectoryDiagnostics, f_l2: float,
                            nu: float) -> AsymptoticReport:
    """Report whether the sampled tail satisfies the dissipative bounds.

    The limsup statements are checked as inequalities over the last half
    of the samples; the caller is responsible for the run being long
    enough that transients have decayed.
    """
    if len(diag) == 0:
        raise ValueError("diagnostics are empty")
    start = min(len(diag) // 2, len(diag) - 1)
    phi_sq_tail = diag.phi_l2[start:] ** 2
    avg_tail = diag.avg_grad_sq[start:]
    phi_bound = avg_bound = _dissipative_bound(f_l2, nu)
    return AsymptoticReport(
        tail_start=float(diag.times[start]),
        tail_count=len(diag) - start,
        phi_sq_tail_max=float(np.max(phi_sq_tail)),
        phi_sq_bound=phi_bound,
        phi_margin=float(phi_bound - np.max(phi_sq_tail)),
        avg_tail_max=float(np.max(avg_tail)),
        avg_bound=avg_bound,
        avg_margin=float(avg_bound - np.max(avg_tail)),
    )


def initial_state(params: ModelParams, seed: int = 0, amplitude: float = 1e-3,
                  about: ScalarField | None = None) -> SolverState:
    """Small random Hermitian perturbation of ``about`` (rest if None); seed
    recorded by callers."""
    rng = np.random.default_rng(seed)
    psi = ScalarField.random(params.grid, rng, amplitude=amplitude)
    return SolverState(psi=psi if about is None else about + psi, time=0.0, params=params)

