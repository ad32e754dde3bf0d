"""Oblique-wave reduction on the 3-torus.

Linear modes omega(x3) e^{i(a x1 + b x2 - a c t)} of the linearization
about the shear profile v0(x3) = (1/(sqrt2 pi)) nu lam sin(s x3) e1 reduce,
for a != 0, to a 2-D problem in (omega1_hat, omega3_hat, q_hat) with

    a_hat^2 = a^2 + b^2,  omega1_hat = (a omega1 + b omega2)/a_hat,
    omega3_hat = omega3,  q_hat = q a_hat/a,  c_hat = c,

and dissipation rescaled by a_hat/a.  The reduced problem is the plain
2-D chain analysis with column wavenumber t' = a_hat and amplitude
Lambda_eff = (a/a_hat) Lambda, so unstable 2-D chain modes lift back to
unstable 3-D modes: omega2 solves a coercive 1-D system and
omega1 = (a_hat omega1_hat - b omega2)/a completes incompressibility.

Everything here works on x3-Fourier coefficient arrays indexed by
m in [-m_max, m_max].  The shear is a single +-s mode, so multiplying by
sin/cos(s x3) is the two-shift stencil ``_shift`` (w[m-s] -+ w[m+s]),
and the omega2 solve splits into s tridiagonal lanes, one per residue of
m mod s.  ``lift_rows`` solves and lifts each (a, +-b, r) pair of triples
once, by stability's ``_solve_mirrored``, as both give the same row bit for
bit.  ``count_triples`` feeds a closed form of ``mla.bounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import LIFT_RESIDUAL_TOL, NumericalError
from .stability import (
    RecurrenceProblem,
    StabilityResult,
    _gtsv,
    _norm,
    _solve_mirrored,
    capital_lambda,
    principal_sigma,
    region_contains_point,
)

__all__ = [
    "SquireTriple",
    "Setup3D",
    "Mode1DProfile",
    "CountWindow",
    "TripleCount",
    "hat_problem",
    "solve_hat_mode",
    "reconstruct_omega2",
    "lift_mode",
    "lift_rows",
    "lineareq3_residuals",
    "a0_stability_spectrum",
    "admissible_triples",
    "count_triples",
    "lambda2_threshold",
    "lambda3_driver",
    "DEFAULT_WINDOW",
]

_SQRT2PI = math.sqrt(2.0) * math.pi


@dataclass(frozen=True)
class SquireTriple:
    """Wave triple (a, b, r): a >= 1 (the a=0 line is handled separately),
    b any integer, r the chain residue."""

    a: int
    b: int
    r: int

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"a must be a positive integer, got {self.a}")

    @property
    def a_hat(self) -> float:
        return math.hypot(self.a, self.b)


@dataclass(frozen=True)
class Setup3D:
    """Shear-flow amplitudes: forcing f1 = (1/(sqrt2 pi)) nu^2 lam s^2
    sin(s x3), stationary profile v0 = v0_amp sin(s x3), and its filtered
    form u0 = (I - alpha^2 Lap)^{-1} v0 = u0_amp sin(s x3).

    Both profiles depend on x3 only, so the stationary advection term
    vanishes structurally; the mode operators below apply the shear as a
    stencil on any truncation.
    """

    s: int
    lam: float
    nu: float
    alpha: float

    def __post_init__(self):
        if self.s < 1 or self.lam <= 0 or self.nu <= 0 or self.alpha < 0:
            raise ValueError("require s >= 1, lam > 0, nu > 0, alpha >= 0")

    @property
    def v0_amp(self) -> float:
        return self.nu * self.lam / _SQRT2PI

    @property
    def u0_amp(self) -> float:
        return self.v0_amp / (1.0 + self.alpha**2 * self.s**2)


# ---------------------------------------------------------------------
# mode-space operators
# ---------------------------------------------------------------------

def _modes(m_max: int) -> np.ndarray:
    return np.arange(-m_max, m_max + 1)


def _shift(x: np.ndarray, s: int, sign: int) -> np.ndarray:
    """x[m - s] + sign x[m + s] along axis 0, zero past |m| = m_max: the
    mode coefficients of (e^{is x3} + sign e^{-is x3}) times x."""
    out = np.zeros_like(x)
    out[s:] += x[:-s]
    out[:-s] += sign * x[s:]
    return out


def _wave_tables(setup: Setup3D, a_hat_sq: float, m_max: int):
    """Diagonal symbols and shear products for a wave with a^2+b^2 =
    a_hat_sq: modes m, mode Laplacian D, filter H, and the maps
    w -> u0 H w and w -> u0' H w."""
    m = _modes(m_max)
    ksq = a_hat_sq + m.astype(np.float64) ** 2
    D = -ksq
    H = 1.0 / (1.0 + setup.alpha**2 * ksq)
    s, amp = setup.s, setup.u0_amp

    def u0_h(w):  # u0 = amp sin(s x3)
        return (amp / 2j) * _shift(H * w, s, -1)

    def du0_h(w):  # u0' = amp s cos(s x3)
        return (amp * s / 2.0) * _shift(H * w, s, 1)

    return m, D, H, u0_h, du0_h


@dataclass(frozen=True, eq=False)
class Mode1DProfile:
    """Full 3-D mode (omega1, omega2, omega3, q)(x3) on the (a, b) wave
    with phase speed c; incompressibility holds to 1e-10 by construction."""

    a: int
    b: int
    m_max: int
    omega1: np.ndarray
    omega2: np.ndarray
    omega3: np.ndarray
    q: np.ndarray
    c: complex
    residuals: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        res = self.incompressibility_residual()
        if res > 1e-10:
            raise NumericalError(f"mode is not incompressible: residual {res}")

    def incompressibility_residual(self) -> float:
        m = _modes(self.m_max)
        div = (1j * self.a * self.omega1 + 1j * self.b * self.omega2
               + 1j * m * self.omega3)
        scale = max(_norm(self.omega1, "omega1"), _norm(self.omega2, "omega2"),
                    _norm(self.omega3, "omega3"), 1e-300)
        return _norm(div, "the divergence") / scale


# ---------------------------------------------------------------------
# residual evaluators (these encode the linearized equations themselves
# and double as the oracles for every construction below)
# ---------------------------------------------------------------------

def _relative(parts: list[np.ndarray], what: str) -> float:
    """||sum of parts|| over the largest ||part||, or over 1 if all are 0."""
    scale = max(_norm(p, f"a term of {what}") for p in parts)
    return _norm(sum(parts[1:], parts[0]), what) / (scale or 1.0)


def lineareq3_residuals(mode: Mode1DProfile, setup: Setup3D) -> dict:
    """Relative residuals of the four mode equations on the (a, b) wave:

        nu D w1 - i a (u0 H w1 - c w1) - i a q - u0' H w3 = 0
        nu D w2 - i a (u0 H w2 - c w2) - i b q            = 0
        nu D w3 - i a (u0 H w3 - c w3) - q'               = 0
        i a w1 + i b w2 + w3'                             = 0
    """
    a, b = mode.a, mode.b
    ah_sq = float(a * a + b * b)
    m, D, H, u0_h, du0_h = _wave_tables(setup, ah_sq, mode.m_max)
    nu, c = setup.nu, mode.c
    w1, w2, w3, q = mode.omega1, mode.omega2, mode.omega3, mode.q

    eq1 = _relative([
        nu * D * w1, -1j * a * u0_h(w1), 1j * a * c * w1,
        -1j * a * q, -du0_h(w3),
    ], "eq1")
    eq2 = _relative([
        nu * D * w2, -1j * a * u0_h(w2), 1j * a * c * w2,
        -1j * b * q,
    ], "eq2")
    eq3 = _relative([
        nu * D * w3, -1j * a * u0_h(w3), 1j * a * c * w3,
        -1j * m * q,
    ], "eq3")
    eq4 = mode.incompressibility_residual()
    return {"eq1": eq1, "eq2": eq2, "eq3": eq3, "eq4": eq4}


# ---------------------------------------------------------------------
# the 2-D hat problem and the lift
# ---------------------------------------------------------------------

def hat_problem(triple: SquireTriple, s: int, lam: float,
                alpha: float) -> RecurrenceProblem:
    """Chain problem of the reduced 2-D operator: column wavenumber
    t' = a_hat and amplitude Lambda_eff = (a/a_hat) Lambda."""
    cap_eff = (triple.a / triple.a_hat) * capital_lambda(lam, s, alpha)
    return RecurrenceProblem(s=s, t=triple.a_hat, r=triple.r,
                             capital_lambda=cap_eff, alpha=alpha)


def solve_hat_mode(triple: SquireTriple, setup: Setup3D) -> StabilityResult:
    """Principal chain eigenvalue of the reduced problem for this triple."""
    return principal_sigma(hat_problem(triple, setup.s, setup.lam, setup.alpha))


def reconstruct_omega2(triple: SquireTriple, q: np.ndarray, setup: Setup3D,
                       c: complex, m_max: int) -> np.ndarray:
    """Solve -(nu D + i a c - i a u0 H) w2 = -i b q on the mode grid.

    Requires Re(i a c) < 0 (an unstable mode), which makes the operator
    coercive; a near-singular solve is reported as an error since it
    would contradict that.
    """
    a, b = triple.a, triple.b
    if np.real(1j * a * c) >= 0:
        raise NumericalError(
            f"reconstruction requires Re(iac) < 0, got {np.real(1j * a * c)}")
    _, D, H, u0_h, _ = _wave_tables(setup, triple.a_hat**2, m_max)
    s, diag = setup.s, setup.nu * D + 1j * a * c
    # -i a u0 H couples only modes s apart: row j holds +(a u0_amp/2) H w at
    # j + s and -(a u0_amp/2) H w at j - s, so each residue class mod s is
    # a tridiagonal lane of its own
    half = 0.5 * a * setup.u0_amp
    rhs = 1j * b * q
    w2 = np.empty_like(rhs)
    for lane in range(min(s, len(rhs))):
        h = half * H[lane::s]
        w2[lane::s] = _gtsv((-h[:-1]).tolist(), diag[lane::s].tolist(),
                            h[1:].tolist(), rhs[lane::s].tolist())
    rhs_norm = _norm(rhs, "omega2's right-hand side i b q")
    if rhs_norm != 0:
        t_w2 = diag * w2 - 1j * a * u0_h(w2)
        res = _norm(t_w2 - rhs, "the omega2 solve residual") / rhs_norm
        if not res <= 1e-10:
            raise NumericalError(f"omega2 solve residual {res} (near-singular "
                                 "system; parameters contradict coercivity)")
    return w2


@np.errstate(over="ignore", invalid="ignore")
def lift_mode(triple: SquireTriple, two_d: StabilityResult, setup: Setup3D,
              m_max: int | None = None) -> Mode1DProfile:
    """Lift an unstable reduced-chain mode to the full 3-torus.

    The chain eigenvector gives the reduced vorticity profile; the
    divergence-free pair (omega1_hat, omega3_hat) comes from its stream
    function, q_hat from the omega3_hat equation (row m = 0 from the
    omega1_hat equation), omega2 from the coercive solve, and omega1
    from the reduction identity.  All four mode equations are then
    evaluated and must hold to LIFT_RESIDUAL_TOL.  A mode too large for
    floats (a huge nu scales q and every equation term) fails, with no
    overflow warning, as the NumericalError of the first norm not finite.
    """
    if two_d.sigma_hat <= 0:
        raise ValueError("lift requires an unstable 2-D mode (sigma_hat > 0)")
    a, b, r = triple.a, triple.b, triple.r
    ah = triple.a_hat
    s, nu, alpha = setup.s, setup.nu, setup.alpha

    nu_eff = nu * ah / a
    sigma = nu_eff * two_d.sigma_hat
    c = 1j * sigma / ah

    e, M = two_d.eigenvector, m_max
    if M is None:  # every entry above 1e-14 of the peak, and one shear coupling
        big = np.abs(e) > 1e-14 * np.abs(e).max()
        n_keep = int(np.max(np.abs(two_d.offsets[big])))
        M = max(4 * s + 16, s * (n_keep + 1) + abs(r) + s)
    m, D, H, u0_h, du0_h = _wave_tables(setup, ah * ah, M)
    ksq = -D

    # vorticity coefficients w_m = e_n / g_m of the chain's modes m = s n + r
    at = M + s * two_d.offsets + r
    fits = (at >= 0) & (at <= 2 * M)
    w = np.zeros(2 * M + 1, dtype=np.complex128)
    w[at[fits]] = e[fits] / ((ksq - s * s) / (ksq + alpha**2 * ksq**2))[at[fits]]
    w1h = 1j * m * w / ksq
    w3h = -1j * ah * w / ksq

    # q_hat from the omega3_hat equation for m != 0
    rhs3 = nu_eff * D * w3h - 1j * ah * u0_h(w3h) + 1j * ah * c * w3h
    qh = np.zeros_like(w)
    nz = m != 0
    qh[nz] = rhs3[nz] / (1j * m[nz])
    # m = 0 row of the omega1_hat equation pins q_hat(0)
    rhs1_0 = (nu_eff * D[M] * w1h[M] - 1j * ah * u0_h(w1h)[M]
              + 1j * ah * c * w1h[M] - du0_h(w3h)[M])
    qh[M] = rhs1_0 / (1j * ah)

    q = qh * (a / ah)
    w2 = reconstruct_omega2(triple, q, setup, c, M)
    w1 = (ah * w1h - b * w2) / a

    mode = Mode1DProfile(a=a, b=b, m_max=M, omega1=w1, omega2=w2,
                         omega3=w3h.copy(), q=q, c=c)
    res = lineareq3_residuals(mode, setup)
    if max(res.values()) > LIFT_RESIDUAL_TOL:
        raise NumericalError(f"lifted mode residuals {res} exceed {LIFT_RESIDUAL_TOL}")
    object.__setattr__(mode, "residuals", res)
    return mode


def lift_rows(triples, setup: Setup3D):
    """Yield (triple, sigma_hat, residuals) for each of ``triples``, taken
    one at a time: the reduced problem's sigma_hat, and the
    ``lineareq3_residuals`` of the lifted mode, or {} for a stable hat
    mode, which has no lift.

    The triples (a, b, r) and (a, -b, r) give equal rows, so the first of
    each pair to arrive is solved and lifted, and its partner reuses its
    sigma_hat and residuals.  The rows are equal bit for bit:
    - ``hat_problem`` reads b only through a_hat = hypot(a, b), so both
      solve the same chain.
    - In ``lift_mode``, q and the reduced profile see b only through a_hat.
      In ``reconstruct_omega2`` the lane matrices, and so the pivots of
      ``_gtsv``, do not depend on b, and the right-hand side i b q is
      linear in b.  Rounding is odd-symmetric, so omega2 flips sign (up to
      the signs of exact zeros), and omega1 = (a_hat omega1_hat -
      b omega2)/a, omega3 and q are unchanged.
    - Each residual is the norm of a vector that is unchanged (eq1, eq3 and
      eq4, where omega2 enters as b omega2) or negated (eq2).
    """
    def solve(tr):
        two_d = solve_hat_mode(tr, setup)
        return two_d.sigma_hat, (lift_mode(tr, two_d, setup).residuals
                                 if two_d.sigma_hat > 0 else {})

    for tr, row in _solve_mirrored(triples, lambda tr: (tr.a, abs(tr.b), tr.r), solve):
        yield (tr, *row)


# ---------------------------------------------------------------------
# a = 0 stability
# ---------------------------------------------------------------------

def a0_stability_spectrum(b: int, nu: float, k_cutoff: int) -> np.ndarray:
    """Eigenvalues of the a = 0 linearized generator on divergence-free
    modes, sorted by descending real part.

    For b != 0 the states are (omega1, omega3) on |m| <= k_cutoff, with
    omega2 = -(m/b) omega3 and the pressure eliminated; for b = 0 they are
    (omega1, omega2) with the m = 0 means removed.  The shear feeds omega3
    into the omega1 equation only, so the generator is block upper
    triangular with diagonal blocks -nu (b^2 + m^2), and those values, each
    twice, are its spectrum, whatever the shear's s, lam and alpha.
    NumericalError where the largest, at |m| = k_cutoff, overflows a float.
    """
    if not math.isfinite(nu * (b * b + k_cutoff**2)):
        raise NumericalError(f"the a = 0 spectrum -nu (b^2 + m^2) overflows a float "
                             f"at |m| = {k_cutoff} (nu = {nu!r})")
    m = _modes(k_cutoff).astype(np.float64)
    if b == 0:
        m = m[m != 0]
    vals = np.tile(-nu * (b * b + m**2), 2).astype(np.complex128)
    return vals[np.argsort(-vals.real)]


# ---------------------------------------------------------------------
# triple counting and the 3-D driver amplitude
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class CountWindow:
    """Rectangle |r| <= c2 s, c3 s <= t' <= c4 s inside the instability
    region at delta_star; corners are validated in the s-normalized
    continuum at construction and against the integer region inside
    count pipelines."""

    c2: float
    c3: float
    c4: float
    delta_star: float = 0.2

    def __post_init__(self):
        if not (0 < self.c2 and 0 < self.c3 < self.c4):
            raise ValueError("require 0 < c2 and 0 < c3 < c4")
        for x in (self.c3, self.c4):
            for y in (-self.c2, 0.0, self.c2):
                if not region_contains_point(self.delta_star, 1.0, x, y):
                    raise ValueError(
                        f"rectangle corner ({x}, {y}) falls outside the "
                        f"region at delta={self.delta_star}"
                    )

    def c5_halfwindow(self) -> float:
        """(1/4) pi c2 (c4^2 - c3^2): quarter-annulus sector density with
        the residue window weighted as c2 s values."""
        return 0.25 * math.pi * self.c2 * (self.c4**2 - self.c3**2)

    def c5_fullwindow(self) -> float:
        """(1/2) pi c2 (c4^2 - c3^2): the same sector with the full
        2 c2 s + 1 residue window; the empirical density lands here."""
        return 0.5 * math.pi * self.c2 * (self.c4**2 - self.c3**2)


#: c2 = 0.105 keeps the +-c2 s corners inside the region (which needs
#: c3 > sqrt(c2 (2 - c2)) = 0.446) while the floor(c2 s) window stays
#: nearly proportional across s; (0.46, 0.56) is the widest annulus that
#: then fits under sqrt(1/3 - c2^2).
DEFAULT_WINDOW = CountWindow(c2=0.105, c3=0.46, c4=0.56, delta_star=0.2)


@dataclass(frozen=True)
class TripleCount:
    s: int
    count: int
    c5_fit: float


def _window_r_max(s: int, window: CountWindow) -> int:
    """Largest |r| in the window: floor(c2 s), with a tiny tolerance
    against float boundaries."""
    return int(math.floor(window.c2 * s * (1 + 1e-9)))


def _window_rows(s: int, window: CountWindow):
    """Rows (a, b_lo, b_hi), a ascending: the integer (a, b) with |b| <= a
    and c3 s <= sqrt(a^2+b^2) <= c4 s (inclusive bounds, tiny tolerance
    against float boundaries) are those with b_lo <= |b| <= b_hi.  The
    bounds on a^2 + b^2 are rounded inward once, so every comparison after
    that is exact in integers."""
    eps = 1e-9
    lo = math.ceil((window.c3 * s) ** 2 * (1 - eps))
    hi = math.floor((window.c4 * s) ** 2 * (1 + eps))
    for a in range(1, math.isqrt(hi) + 1):
        b_hi = min(a, math.isqrt(hi - a * a))
        b_lo = math.isqrt(lo - a * a - 1) + 1 if lo > a * a else 0
        if b_lo <= b_hi:
            yield a, b_lo, b_hi


def admissible_triples(s: int, window: CountWindow = DEFAULT_WINDOW):
    """Yield the integer (a, b, r) of the window rows (``_window_rows``)
    with |r| <= c2 s, in (a, b, r) order, each built when it is taken.

    Each emitted chain (a_hat, r) is re-verified against the region at
    this s; the rectangle-in-region construction guarantee makes a
    failure here a geometry bug worth surfacing loudly.
    """
    r_max = _window_r_max(s, window)
    for a, b_lo, b_hi in _window_rows(s, window):
        # b ascending: -b_hi..-b_lo, then b_lo..b_hi, with b = 0 once
        for b in [*range(-b_hi, -b_lo + 1), *range(max(b_lo, 1), b_hi + 1)]:
            for r in range(-r_max, r_max + 1):
                tr = SquireTriple(a=a, b=b, r=r)
                if not region_contains_point(window.delta_star, s,
                                             tr.a_hat, r):
                    raise RuntimeError(
                        f"window triple {tr} fell outside the region "
                        f"at s={s}; window {window} is inconsistent"
                    )
                yield tr


def count_triples(s: int, window: CountWindow = DEFAULT_WINDOW) -> TripleCount:
    """Exact count of ``admissible_triples`` from the window rows (O(s)
    time and memory), plus the density fit count/s^3."""
    pairs = sum(2 * (b_hi - b_lo + 1) - (b_lo == 0)
                for _, b_lo, b_hi in _window_rows(s, window))
    count = pairs * (2 * _window_r_max(s, window) + 1)
    return TripleCount(s=s, count=count, c5_fit=count / s**3)


def lambda2_threshold(s: int, alpha: float, delta: float) -> float:
    """Amplitude above which every in-region chain is unstable: the upper
    edge of the ``lu_interval`` window for Lambda_0, stated for the
    amplitude lam = 2 sqrt2 pi (1 + alpha^2 s^2) Lambda."""
    if alpha == 0.0:
        return 20.0 * math.pi / (3.0 * math.sqrt(6.0)) * s / delta**2
    fac = (1.0 + alpha**2 * s**2) ** 2
    return 110.0 * math.sqrt(5.0) * math.pi / 63.0 * s * fac / delta**2


def lambda3_driver(s: int, alpha: float, delta: float) -> float:
    """sqrt(2) lambda2(s): the extra sqrt(2) covers the worst dissipation
    rescale a_hat/a <= sqrt(2) over triples with |b| <= a."""
    return math.sqrt(2.0) * lambda2_threshold(s, alpha, delta)
