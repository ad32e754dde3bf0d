"""Linear stability of the Kolmogorov steady state on the torus.

The linearization about the single-mode steady state couples, for each
column wavenumber t and residue r, the chain of modes k = (t, s n + r).
In the variables e_n = a_{t,sn+r} (kappa_n^2 - s^2)/(kappa_n^2 +
alpha^2 kappa_n^4) the chain obeys the three-term recurrence

    d_n e_n + e_{n-1} - e_{n+1} = 0,
    d_n = (kappa_n^2 + alpha^2 kappa_n^4)(kappa_n^2 + sigma_hat)
          / (Lambda t (kappa_n^2 - s^2)),
    kappa_n^2 = t^2 + (s n + r)^2,

which is linear in sigma_hat and therefore rearranges exactly into the
generalized eigenproblem  A e = sigma_hat B e  with A tridiagonal and
B = diag(kappa^2 + alpha^2 kappa^4) > 0:

    -B_n kappa_n^2 e_n + Lambda t (kappa_n^2 - s^2)(e_{n+1} - e_{n-1})
        = sigma_hat B_n e_n.

Decaying eigenvectors with sigma_hat > 0 are unstable modes (growth rate
nu * sigma_hat), each of multiplicity two (the cosine- and sine-family
coefficients satisfy the same equations).

At sigma_hat = 0 the rows are linear in Lambda instead, C e = (1/Lambda)
diag(B kappa^2) e with (C e)_n = t (kappa_n^2 - s^2)(e_{n+1} - e_{n-1}).
As sigma_hat increases with Lambda, the neutral threshold Lambda_0 is 1/mu
for the largest real mu of that problem with a decaying eigenvector.

Both pick the eigenpair alike: a dense solve of the balanced B^{-1} A gives
the eigenvalues only; each real one, largest first, gets its eigenvector by
O(n) inverse iteration until one decays at the truncation edge, and
sigma_hat is the Rayleigh quotient e.Ae / e.Be of that converged vector.
The truncation starts at 16 and doubles.  Where a tail certificate (a bound
on the edge entries of every eigenvector with a larger value, proved from
the per-row coupling ratios) shows that no larger pair lies beyond the
truncation, the next doubling first runs inverse iteration from the
zero-padded vector at the value found, so a chain that settles makes one
dense solve, at its first truncation.  The dense solve is
``numpy.linalg.eigvals``; each tridiagonal solve of the inverse iteration
is ``_gtsv``, a plain-Python port of LAPACK's dgtsv, so the module needs
no SciPy.  A chain whose coefficients overflow a float raises NumericalError.
``sigma_grid_rows`` follows one chain across the Lambda_0 window.  The
dimension bounds resting on these counts are closed forms in ``mla.bounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import DECAY_TAIL_TOL, LAMBDA0_REL_WIDTH, RESIDUAL_TOL, SIGMA_REAL_TOL, NumericalError

__all__ = [
    "RegionSpec",
    "RecurrenceProblem",
    "GeneralizedEigSystem",
    "StabilityResult",
    "capital_lambda",
    "region_contains_point",
    "lattice_points",
    "region_area",
    "build_recurrence_system",
    "principal_sigma",
    "lambda0_threshold",
    "lu_interval",
    "stability_sweep",
    "sigma_grid_rows",
    "DELTA_STAR",
    "MAX_A_DELTA_SCALED",
]

#: Chain truncation the eigenpair search starts from.
N_TRUNC = 16
#: Largest chain truncation the eigenpair search doubles up to.
MAX_TRUNC = 1024

#: Where a(delta) * delta^(4/3) peaks on (0, 1/sqrt(3)), and the peak, as an
#: 80-point scan and golden section to 1e-7 on ``region_area`` find them.
DELTA_STAR = 0.3863937491557782
MAX_A_DELTA_SCALED = 0.012668529658129878

_INV_SQRT3 = 1.0 / math.sqrt(3.0)
_X_TRIPLE = math.sqrt(11.0) / 6.0  # where the three section bounds all equal 1/6


def capital_lambda(lam: float, s: int, alpha: float) -> float:
    """Rescaled forcing amplitude lam / (2 sqrt(2) pi (1 + alpha^2 s^2))."""
    if s < 1 or lam <= 0:
        raise ValueError("require s >= 1 and lam > 0")
    return lam / (2.0 * math.sqrt(2.0) * math.pi * (1.0 + alpha**2 * s**2))


# ---------------------------------------------------------------------
# instability region and lattice counting
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class RegionSpec:
    """Region parameters: opening delta in (0, 1/sqrt(3)) and wavenumber s."""

    delta: float
    s: int

    def __post_init__(self):
        if not (0.0 < self.delta < _INV_SQRT3):
            raise ValueError(f"delta must lie in (0, 1/sqrt(3)), got {self.delta}")
        if self.s < 1:
            raise ValueError(f"s must be a positive integer, got {self.s}")

    def box(self) -> list[tuple[int, int]]:
        """Integer (t, r) of the bounding box, in (t, r) order."""
        t_hi = int(math.floor(self.s * _INV_SQRT3)) + 1
        r_hi = self.s // 6 + 1
        return [(t, r) for t in range(1, t_hi + 1) for r in range(-r_hi, r_hi + 1)]


def region_contains_point(delta: float, s: float, t: float, r: float) -> bool:
    """Membership of (t, r) in A(delta); all inequalities literal.

    Exact on the lattice: for integer t, r and s^2 < 2^53 the integer sides
    are exact, and s^2/3 and s/6 are exact or at least 1/3 and 1/6 away
    from every integer, which is more than their rounding error."""
    return (
        t * t + r * r < s * s / 3.0
        and t * t + (r - s) * (r - s) > s * s
        and t * t + (r + s) * (r + s) > s * s
        and t >= delta * s
        and -s / 6.0 < r < s / 6.0
    )


def lattice_points(spec: RegionSpec) -> list[tuple[int, int]]:
    """The integer pairs of the bounding box that lie in the region."""
    return [(t, r) for t, r in spec.box()
            if region_contains_point(spec.delta, spec.s, t, r)]


def _segment(c: float, d: float) -> float:
    """Area of the part x > d of the disk x^2 + y^2 < c^2 (0 <= d <= c):
    (c^2/2)(u - sin u) for the central angle u = 2 phi, cos phi = d/c."""
    u = 2.0 * math.atan2(math.sqrt((c - d) * (c + d)), d)
    if u < 0.1:  # u - sin u to a relative 2e-15, without the cancellation
        v = u * u
        return c * c * u * v / 12.0 * (1 - v / 20 * (1 - v / 42 * (1 - v / 72)))
    return 0.5 * c * c * (u - math.sin(u))


def region_area(delta: float) -> float:
    """Area a(delta) of the s-normalized region (so |A(delta)| = a * s^2).

    The x-section |y| < min(1/6, sqrt(1/3 - x^2), 1 - sqrt(1 - x^2)) is
    1 - sqrt(1 - x^2) below the triple point x = sqrt(11)/6, where all three
    bounds are 1/6, and sqrt(1/3 - x^2) above it.  So a(delta) is a segment
    of the disk of radius 1/sqrt(3) plus, below sqrt(11)/6, a strip less a
    slice of the unit disk; each segment (c^2/2)(u - sin u) is taken from its
    central angle u, never as a difference of antiderivatives.
    """
    if not (0.0 < delta < _INV_SQRT3):
        raise ValueError(f"delta must lie in (0, 1/sqrt(3)), got {delta}")
    area = _segment(_INV_SQRT3, max(delta, _X_TRIPLE))
    if delta < _X_TRIPLE:
        area += 2.0 * (_X_TRIPLE - delta) - (_segment(1.0, delta)
                                             - _segment(1.0, _X_TRIPLE))
    return area


# ---------------------------------------------------------------------
# the three-term recurrence as a generalized eigenproblem
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class RecurrenceProblem:
    """Chain parameters (s, t, r, Lambda, alpha).

    ``t`` is the column wavenumber of the chain: a positive integer for
    the plain torus analysis, and the real value a_hat = sqrt(a^2 + b^2)
    for chains produced by the oblique-wave reduction.
    """

    s: int
    t: float
    r: int
    capital_lambda: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if self.t <= 0:
            raise ValueError(f"t must be positive, got {self.t}")
        if self.capital_lambda <= 0:
            raise ValueError(f"capital_lambda must be positive, got {self.capital_lambda}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        # kappa_n^2 = s^2 needs |s n + r| < s, so |n| <= 1 when |r| <= s, as
        # for every chain built here: the scan over |n| <= N_TRUNC is exhaustive
        k2 = self.kappa_sq(N_TRUNC)
        if np.any(np.abs(k2 - self.s**2) <= 1e-12 * self.s**2):
            raise NumericalError(
                f"singular chain: kappa_n^2 = s^2 for some |n| <= {N_TRUNC}")

    def offsets(self, n_trunc: int) -> np.ndarray:
        return np.arange(-n_trunc, n_trunc + 1)

    def kappa_sq(self, n_trunc: int) -> np.ndarray:
        n = self.offsets(n_trunc)
        return self.t**2 + (self.s * n + self.r) ** 2


@dataclass(frozen=True, eq=False)
class GeneralizedEigSystem:
    """A e = sigma_hat B e: A tridiagonal with antisymmetric off-pattern.

    Row n of A is  diag_a[n] e_n + off_a[n] (e_{n+1} - e_{n-1}); B is the
    positive diagonal diag_b.
    """

    diag_a: np.ndarray
    off_a: np.ndarray
    diag_b: np.ndarray

    @property
    def size(self) -> int:
        return len(self.diag_a)

    def apply_a(self, e: np.ndarray) -> np.ndarray:
        out = self.diag_a * e
        out[:-1] += self.off_a[:-1] * e[1:]
        out[1:] -= self.off_a[1:] * e[:-1]
        return out

    def rayleigh_quotient(self, e: np.ndarray) -> float:
        """e.Ae / e.Be: the eigenvalue of a converged eigenvector e."""
        return float(e @ self.apply_a(e)) / float(e @ (self.diag_b * e))

    @np.errstate(over="ignore")
    def residual(self, sigma_hat: float, e: np.ndarray) -> float:
        """||Ae - sigma_hat Be|| / ||Be||, each norm a ``_norm``, which cannot
        overflow where the norm is finite."""
        be = self.diag_b * e
        return _norm(self.apply_a(e) - sigma_hat * be, "the eigen residual") / _norm(be, "B e")


def _norm(x: np.ndarray, what: str) -> float:
    """||x||, or NumericalError naming ``what`` where it is not finite.  Where
    only the squares of x's entries overflow (its callers ignore that warning),
    the plain norm is taken again over x scaled by its largest entry."""
    norm = float(np.linalg.norm(x))
    if norm == math.inf:
        peak = float(np.max(np.abs(x)))
        if math.isfinite(peak):
            norm = peak * float(np.linalg.norm(x / peak))
    if not math.isfinite(norm):
        raise NumericalError(f"the norm of {what} is not finite (got {norm})")
    return norm


def build_recurrence_system(prob: RecurrenceProblem,
                            n_trunc: int) -> GeneralizedEigSystem:
    k2 = prob.kappa_sq(n_trunc)
    with np.errstate(over="ignore"):
        b = k2 + prob.alpha**2 * k2**2
        sys = GeneralizedEigSystem(diag_a=-b * k2, diag_b=b,
                                   off_a=prob.capital_lambda * prob.t * (k2 - prob.s**2))
    if not (np.isfinite(sys.diag_a).all() and np.isfinite(sys.off_a).all()):
        raise NumericalError(f"chain coefficient overflow at n_trunc={n_trunc}: "
                             "Lambda t (kappa^2 - s^2) or B kappa^2 is not finite")
    return sys


@dataclass(frozen=True, eq=False)
class StabilityResult:
    """Principal real eigenvalue of a chain, with its decaying eigenvector."""

    sigma_hat: float
    eigen_residual: float
    eigenvector: np.ndarray
    offsets: np.ndarray
    n_trunc_used: int

    def __post_init__(self):
        if not self.eigen_residual < RESIDUAL_TOL:
            raise NumericalError(
                f"eigen residual {self.eigen_residual} exceeds {RESIDUAL_TOL}")


def _gtsv(dl: list, d: list, du: list, b: list) -> list:
    """Solve the tridiagonal system with sub-, main and super-diagonal
    (dl, d, du) for right-hand side b, all Python lists of floats or
    complexes, which it overwrites; returns b, holding the solution.

    Gaussian elimination with partial pivoting, operation for operation as
    LAPACK's dgtsv, so on floats it reproduces that routine bit for bit: an
    interchange moves the fill-in of the second superdiagonal into dl.  The
    pivot row's d and b, and the last two unknowns, ride in locals.
    Raises LinAlgError on an exactly zero pivot.
    """
    n = len(d)
    di, bi = d[0], b[0]
    for i in range(n - 1):
        li = dl[i]
        if abs(di) < abs(li):  # interchange rows i and i + 1
            fact = di / li
            d[i], temp = li, d[i + 1]
            di = d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], bi = b[i + 1], bi - fact * b[i + 1]
            b[i + 1] = bi
        elif di == 0:
            raise np.linalg.LinAlgError("singular tridiagonal system")
        else:
            fact = li / di
            di = d[i + 1] = d[i + 1] - fact * du[i]
            bi = b[i + 1] = b[i + 1] - fact * bi
            dl[i] = 0.0
    if di == 0:
        raise np.linalg.LinAlgError("singular tridiagonal system")
    x2 = x1 = b[-1] = bi / di
    if n > 1:
        x1 = b[-2] = (b[-2] - du[-1] * x1) / d[-2]
    for i in range(n - 3, -1, -1):
        x2, x1 = x1, (b[i] - du[i] * x1 - dl[i] * x2) / d[i]
        b[i] = x1
    return b


def _inverse_iteration(sys: GeneralizedEigSystem, sigma_hat: float,
                       start: np.ndarray | None = None) -> np.ndarray:
    """Eigenvector of A e = sigma_hat B e, scaled to 1 at its largest entry,
    by fixed-shift tridiagonal inverse iteration from ``start`` (a vector of
    ones by default) in at most 8 solves: the shift is an eigenvalue to
    rounding, so 2 or 3 usually do from ones, and fewer from a settled
    vector.  A solve that is exactly singular, or that overflows a float
    (a pivot that underflowed short of 0), nudges the shift instead."""
    vec = np.ones(sys.size) if start is None else start
    dl, du = (-sys.off_a[1:]).tolist(), sys.off_a[:-1].tolist()
    for _ in range(8):
        try:
            w = np.array(_gtsv(dl[:], (sys.diag_a - sigma_hat * sys.diag_b).tolist(),
                               du[:], (sys.diag_b * vec).tolist()))
            peak = w[np.argmax(np.abs(w))]
        except np.linalg.LinAlgError:
            peak = math.inf
        if not math.isfinite(peak):
            sigma_hat += 4.0 * np.spacing(max(abs(sigma_hat), 1.0))
            continue
        w /= peak
        if np.max(np.abs(np.abs(w) - np.abs(vec))) <= 1e-12:
            return w
        vec = w
    return vec


def _decays(vec: np.ndarray) -> bool:
    return max(abs(vec[0]), abs(vec[-1])) < DECAY_TAIL_TOL  # else cut off


def _settles(value: float, prev: float) -> bool:
    return abs(value - prev) < 1e-10 * (1.0 + abs(value))


def _tail_bound(sys: GeneralizedEigSystem, sigma: float) -> float:
    """Bound on the edge entries of every eigenvector of value >= sigma, at
    any longer truncation, scaled to 1 at its largest entry (inf if none):
    the largest, over the two edges, of the product of rho / (1 - rho) over
    the run of rows from the edge inward whose ratio rho = |off_a| /
    |diag_a - sigma diag_b| is at most 1/4 with diag_a - sigma diag_b < 0.
    The proof is in _settled_eigenpair's docstring."""
    d = sys.diag_a - sigma * sys.diag_b
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(d < 0.0, np.abs(sys.off_a) / -d, np.inf)
    bound = 0.0
    for tail in (rho[::-1], rho):  # the rows from each edge inward
        ok = tail <= 0.25
        run = len(tail) if ok.all() else int(np.argmin(ok))
        if run == 0:
            return math.inf
        bound = max(bound, float(np.prod(tail[:run] / (1.0 - tail[:run]))))
    return bound


def _largest_real_decaying(sys: GeneralizedEigSystem, guess=None):
    """Largest real eigenpair whose eigenvector decays at the truncation
    edge: eigenvalues from one dense solve, eigenvectors by inverse iteration,
    and the returned value the Rayleigh quotient of the converged vector.

    A ``guess`` (value, start) skips the dense solve when inverse iteration
    at that value from that start vector decays and settles against it."""
    if guess is not None:
        vec = _inverse_iteration(sys, *guess)
        value = sys.rayleigh_quotient(vec)
        if _decays(vec) and _settles(value, guess[0]):
            return value, vec
    m = (sys.diag_a / sys.diag_b)[:, None] * np.eye(sys.size)
    idx = np.arange(sys.size - 1)
    m[idx, idx + 1] = sys.off_a[:-1] / sys.diag_b[:-1]
    m[idx + 1, idx] = -sys.off_a[1:] / sys.diag_b[1:]
    try:
        vals = np.linalg.eigvals(m)
    except Exception as exc:  # pragma: no cover - LAPACK failure surface
        raise NumericalError(f"dense eigensolve failed: {exc}") from exc
    real = np.abs(vals.imag) < SIGMA_REAL_TOL * (1.0 + np.abs(vals.real))
    for value in np.sort(vals.real[real])[::-1]:
        vec = _inverse_iteration(sys, value)
        if _decays(vec):
            return sys.rayleigh_quotient(vec), vec
    return None


def _settled_eigenpair(build, sigma_ref: float = 0.0):
    """(value, vector, system, m) of the largest real decaying eigenpair of
    build(m), doubling m from N_TRUNC up to MAX_TRUNC until value settles.

    Tail certificate.  Write row n of A e = lam B e as D_n(lam) e_n =
    -c_n (e_{n+1} - e_{n-1}), with D_n = diag_a - lam diag_b and c_n = off_a,
    and rho_n(lam) = |c_n| / |D_n(lam)|.  diag_b > 0, so where D_n(sigma) < 0,
    |D_n(lam)| >= |D_n(sigma)| and rho_n(lam) <= rho_n(sigma) for every
    lam >= sigma.  Let rows k..m be the run of _tail_bound at the upper edge
    m (the lower edge mirrors it), and e an eigenvector of value lam >= sigma
    of any truncation M > m, with max |e| = 1 and e_{M+1} = 0.
    - Rows beyond the edge are resolved: rho_n(lam) <= 1/2 for m < n <= M.
      Both chain families here have c_n = C (kappa_n^2 - s^2) and
      D_n = -B_n (kappa_n^2 + lam) resp. -lam B_n kappa_n^2, where
      B_n / kappa_n^2 = 1 + alpha^2 kappa_n^2 and kappa_n^2 grow with n > m
      (their |r| <= s), and kappa_m^2 + lam > 0 resp. lam > 0 as
      D_m(sigma) < 0.  So rho_n(lam) <= rho_m(lam) / (1 - s^2 / kappa_m^2),
      kappa_m^2 >= (s (m - 1))^2 >= 2 s^2 for m >= 3, and
      rho_n(lam) <= 2 rho_m(sigma) <= 1/2.
    - Induction down from M: |e_n| <= g_n |e_{n-1}| with g_n <= 1 and, on
      rows with rho_n <= 1/2, g_n = rho_n / (1 - rho_n g_{n+1}) <=
      rho_n / (1 - rho_n), because |e_n| <= rho_n (|e_{n-1}| + |e_{n+1}|)
      <= rho_n |e_{n-1}| + rho_n g_{n+1} |e_n|, and g_{M+1} = 0.
    - So |e_m| <= prod_{n=k..m} rho_n / (1 - rho_n) |e_{k-1}|, and with
      |e_{k-1}| <= 1 and rho_n(lam) <= rho_n(sigma) this is _tail_bound.
    Where the bound is below DECAY_TAIL_TOL, such an e restricted to the rows
    of truncation m is an eigenvector of it up to the edge residuals
    |c_m e_{m+1}| <= |c_m e_m|: a pair of value >= sigma would decay there
    rather than be cut off by the truncation.  Two claims follow:
    - Two misses in a row end the search only where the bound holds at
      sigma_ref: a pair of value >= sigma_ref that both truncations miss does
      not exist rather than being cut off.
    - A pair found where the bound holds at its own value v has no larger
      real decaying pair beyond the truncation.  The next doubling then
      guesses v and the zero-padded vector, and solves densely only if
      inverse iteration from there does not settle against v.  A pair
      without the bound gets a dense solve at the next doubling.
    """
    prev, guess, misses = None, None, 0
    trunc = N_TRUNC
    while trunc <= MAX_TRUNC:
        sys = build(trunc)
        got = _largest_real_decaying(sys, guess)
        misses = misses + 1 if got is None and _tail_bound(
            sys, sigma_ref) < DECAY_TAIL_TOL else 0
        if misses == 2:
            raise NumericalError(
                f"no real decaying eigenvalue at n_trunc={trunc // 2} or {trunc}")
        guess = None
        if got is not None:
            value, vec = got
            if prev is not None and _settles(value, prev):
                return value, vec, sys, trunc
            prev = value
            if _tail_bound(sys, value) < DECAY_TAIL_TOL:
                start = np.zeros(4 * trunc + 1)  # vec, zero-padded
                start[trunc:-trunc] = vec
                guess = (value, start)
        trunc *= 2
    raise NumericalError(f"eigenvalue did not converge by n_trunc={MAX_TRUNC} "
                         f"(last value={prev})")


def principal_sigma(prob: RecurrenceProblem) -> StabilityResult:
    """Track the monotone real branch, doubling n_trunc until it settles.

    Raises NumericalError if two truncations in a row that resolve the
    eigenvector tail have no real decaying eigenvalue, or if the doubling
    fails to converge below 1e-10.
    """
    sigma, vec, sys, trunc = _settled_eigenpair(
        lambda m: build_recurrence_system(prob, m))
    return StabilityResult(
        sigma_hat=sigma,
        eigen_residual=sys.residual(sigma, vec),
        eigenvector=vec,
        offsets=prob.offsets(trunc),
        n_trunc_used=trunc,
    )


def lu_interval(s: int, delta: float, alpha: float) -> tuple[float, float]:
    """Two-sided window for the neutral threshold Lambda_0.

    alpha = 0 uses the sharper pair (delta^2 s / sqrt2, 5 s/(3 sqrt3 delta^2));
    alpha >= 0 the pair with the (1 + alpha^2 s^2) factor and constant
    55 sqrt5 / (63 sqrt2).
    """
    if alpha == 0.0:
        return (
            delta**2 * s / math.sqrt(2.0),
            5.0 / (3.0 * math.sqrt(3.0)) * s / delta**2,
        )
    fac = 1.0 + alpha**2 * s**2
    return (
        delta**2 * s * fac / math.sqrt(2.0),
        55.0 * math.sqrt(5.0) / (63.0 * math.sqrt(2.0)) * s * fac / delta**2,
    )


def lambda0_threshold(s: int, t: float, r: int, alpha: float,
                      delta: float) -> float:
    """Neutral threshold Lambda_0 = 1/mu, where sigma_hat(Lambda_0) = 0.

    mu comes from the sigma_hat = 0 chain (module docstring), by the same
    truncation doubling as principal_sigma.  Post-checks raise
    NumericalError unless Lambda_0 lies in the two-sided window widened
    10x on each side and sigma_hat changes sign across it at relative width
    LAMBDA0_REL_WIDTH.
    """
    prob = RecurrenceProblem(s=s, t=t, r=r, capital_lambda=1.0, alpha=alpha)

    def neutral(m: int) -> GeneralizedEigSystem:
        unit = build_recurrence_system(prob, m)
        return GeneralizedEigSystem(diag_a=np.zeros_like(unit.diag_a),
                                    off_a=unit.off_a, diag_b=-unit.diag_a)

    lo, hi = lu_interval(s, delta, alpha)
    lo, hi = lo / 10.0, hi * 10.0
    # mu < 1/hi fails the window check, so tails are resolved down to 1/hi
    mu = _settled_eigenpair(neutral, 1.0 / hi)[0]
    if not 1.0 / hi < mu < 1.0 / lo:
        raise NumericalError(f"Lambda_0 = 1/{mu} lies outside [{lo}, {hi}]")
    lam0, h = 1.0 / mu, 0.5 * LAMBDA0_REL_WIDTH
    below, above = (principal_sigma(replace(prob, capital_lambda=lam0 * f)).sigma_hat
                    for f in (1.0 - h, 1.0 + h))
    if not below < 0.0 < above:
        raise NumericalError(f"sigma_hat does not change sign across "
                             f"Lambda_0 = {lam0}: ({below}, {above})")
    return lam0


# ---------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------

def _solve_or_reason(solve) -> tuple[float, str | None]:
    """(solve(), None), or (NaN, "NumericalError: <message>") if it raises one."""
    try:
        return solve(), None
    except NumericalError as exc:
        return math.nan, f"{type(exc).__name__}: {exc}"


def _solve_mirrored(items, key, solve):
    """Yield (item, solve(item)) for each of ``items``, taken one at a time,
    except that the second item of a key, the first's mirror partner, gets
    the first's result, which the caller proves equal.  A result is held only
    until its partner arrives, so a third item of a key is solved again."""
    results = {}
    for item in items:
        if (k := key(item)) in results:
            yield item, results.pop(k)
        else:
            results[k] = solve(item)
            yield item, results[k]


def stability_sweep(s: int, alpha: float, delta: float, lam: float,
                    compute_lambda0: bool = True) -> list[dict]:
    """Chain scan over the region bounding box.

    One row per (t, r): principal sigma_hat at Lambda(lam), membership by
    region_contains_point, and (for in-region pairs) the threshold Lambda_0.
    A row whose sigma_hat could not be computed has sigma_hat NaN and
    ``error`` "NumericalError: <message>"; otherwise ``error`` is None.
    Likewise a Lambda_0 that could not be computed is NaN, with its reason
    in ``lambda0_error``.  Rows are emitted in fixed (t, r) order for
    reproducible output.

    Row (t, -r) repeats the solved values of row (t, r): kappa^2 of the chain
    (t, -r) at n is that of (t, r) at -n, and conjugating the reflected
    chain by diag((-1)^n) restores the sign of its off-diagonal pattern, so
    both chains (and both sigma_hat = 0 chains) have the same spectrum,
    edge rows and truncation decisions.  The box and the region are
    symmetric in r.
    """
    lam_cap = capital_lambda(lam, s, alpha)

    def solve(point):
        t, r = point
        in_region = region_contains_point(delta, s, t, r)
        sigma, error = _solve_or_reason(lambda: principal_sigma(
            RecurrenceProblem(s=s, t=t, r=r, capital_lambda=lam_cap,
                              alpha=alpha)).sigma_hat)
        lam0, lam0_error = math.nan, None
        if in_region and compute_lambda0:
            lam0, lam0_error = _solve_or_reason(
                lambda: lambda0_threshold(s, t, r, alpha, delta))
        return {"sigma_hat": sigma, "lambda0": lam0, "in_region": in_region,
                "error": error, "lambda0_error": lam0_error}

    rows = []
    for (t, r), solved in _solve_mirrored(RegionSpec(delta=delta, s=s).box(),
                                          lambda point: (point[0], abs(point[1])), solve):
        rows.append({"s": s, "t": t, "r": r, "alpha": alpha, "delta": delta,
                     "lambda": lam, "capital_lambda": lam_cap, **solved})
    return rows


def sigma_grid_rows(window: tuple[float, float], s: int, alpha: float, t: float,
                    r: int, n_points: int) -> list[dict]:
    """sigma_hat of chain (t, r) at n_points capital_lambda geometrically
    spaced over (lo / 2, hi), for the Lambda_0 window (lo, hi); NaN, with
    its reason in ``error``, where it could not be computed."""
    rows = []
    for cap in np.geomspace(window[0] / 2, window[1], n_points).tolist():
        sigma, error = _solve_or_reason(lambda: principal_sigma(RecurrenceProblem(
            s=s, t=t, r=r, capital_lambda=cap, alpha=alpha)).sigma_hat)
        rows.append({"capital_lambda": cap, "sigma_hat": sigma, "error": error})
    return rows
