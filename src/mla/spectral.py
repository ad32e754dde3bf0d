"""Truncated Fourier representation of zero-mean scalars on the square torus.

Fields live on [0, 2pi]^2, so wavevectors are integer pairs and the
coefficient convention is

    f(x) = sum_k c_k exp(i k.x),   c_{-k} = conj(c_k),   c_0 = 0.

Coefficients are stored in ``numpy.fft.rfft2`` layout, shape (n, n/2 + 1):
``coeffs[i1, k2]`` holds the mode ``(k1[i1], k2)``, k1 in fftfreq order and
k2 = 0..n/2.  Modes with k2 < 0 are implied as conjugates, so Hermitian
symmetry is structural except on the columns k2 = 0 and n/2, which
``_real_zero_mean`` makes exact, in ``ScalarField`` and after each step.
All linear operators are Fourier multipliers.  Physical space is reached
through one kernel, ``_to_physical``: a product with a derivative symbol, then
two 1-D passes with the scaling inside (``norm="forward"``), the ifft along k1
on the columns it is given and the irfft along k2.  Its callers are the
Jacobian and the CFL check of the stepper in ``mla.dynamics``, which works on
arrays, not fields.  ``SpectralGrid`` holds the symbol tables and states the
dealias rule once, in integers: a mode is kept iff max(|k1|, |k2|) < m, with
m = ceil(dealias_fraction * n/2) computed exactly (``keeps``, ``dealias_band``;
the 2/3-rule by default).  The masked derivative symbols live on the band
k2 < m, so the Jacobian hands the kernel only that band of its arguments, and
dealiasing its result only zeroes the modes outside the mask.  It works in
arrays from ``_jacobian_buffers`` and writes into an optional ``out``: a stepper
run allocates them once and drops them when it returns, ``jacobian`` makes its
own per call, and none is cached on the grid.  ``check_size`` bounds n by the
largest array numpy makes.  ``save_field`` streams the ``mla-field-v1`` text one
k2 column, O(n) modes, at a time.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _MEAN_TOL, _atomic_open

__all__ = [
    "SpectralGrid",
    "ScalarField",
    "FieldNorms",
    "jacobian",
    "norms",
    "field_from_json",
    "save_field",
    "load_field",
]

@dataclass(frozen=True)
class SpectralGrid:
    """Square spectral grid: ``n_modes`` modes per dimension on [0, 2pi]^2.

    ``dealias_fraction`` is the cutoff fraction of the Nyquist wavenumber;
    modes with max(|k1|, |k2|) >= dealias_fraction * n_modes/2 are dropped
    by dealiasing (2/3-rule by default).
    """

    n_modes: int
    dealias_fraction: Fraction = Fraction(2, 3)

    def __post_init__(self):
        if self.n_modes < 8 or self.n_modes % 2 != 0:
            raise ValueError(f"n_modes must be even and >= 8, got {self.n_modes}")
        try:
            frac = Fraction(self.dealias_fraction)
        except (ZeroDivisionError, OverflowError):  # "1/0", or an infinite float
            frac = math.nan
        if not (0 < frac <= 1):
            raise ValueError(f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}")
        object.__setattr__(self, "dealias_fraction", frac)

    @cached_property
    def k1(self) -> np.ndarray:
        """Wavenumbers 0..n/2-1, -n/2..-1 in FFT order, as an (n, 1) column."""
        n = self.n_modes
        return ((np.arange(n) + n // 2) % n - n // 2)[:, None].astype(np.float64)

    @cached_property
    def k2(self) -> np.ndarray:
        return np.arange(self.n_modes // 2 + 1, dtype=np.float64)[None, :]

    @cached_property
    def k_sq(self) -> np.ndarray:
        return self.k1**2 + self.k2**2

    @cached_property
    def neg_inv_k_sq(self) -> np.ndarray:
        """The inverse Laplacian symbol -1/|k|^2, 0 at k = 0."""
        return np.divide(-1.0, self.k_sq, out=np.zeros(self.shape), where=self.k_sq > 0)

    def helmholtz_max(self, alpha: float) -> float:
        """The largest value of 1 + alpha^2 |k|^2 on the grid, at |k1| = k2 =
        n_modes/2; ValueError where it is not finite."""
        k_sq_max = 2 * (self.n_modes // 2) ** 2
        try:  # a float alpha**2 raises where it overflows
            top = 1.0 + alpha**2 * k_sq_max
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValueError(f"the Helmholtz symbol 1 + alpha^2 |k|^2 is not finite "
                             f"at |k|^2 = {k_sq_max} (alpha = {alpha!r}, "
                             f"n_modes = {self.n_modes})")
        return top

    def helmholtz(self, alpha: float) -> np.ndarray:
        """The symbol 1 + alpha^2 |k|^2 of I - alpha^2 Lap; ValueError where
        it is not finite (see ``helmholtz_max``)."""
        self.helmholtz_max(alpha)
        return 1.0 + alpha**2 * self.k_sq

    def check_size(self) -> None:
        """ValueError where a half-spectrum passes numpy's largest array, sys.maxsize bytes."""
        if (n := self.n_modes) * (n // 2 + 1) * 16 > sys.maxsize:
            raise ValueError(f"one complex half-spectrum, n_modes (n_modes/2 + 1) 16 bytes, "
                             f"exceeds the largest array of {sys.maxsize:,} bytes (n_modes = {n})")

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of a stored coefficient array (the rfft2 half-spectrum)."""
        return (self.n_modes, self.n_modes // 2 + 1)

    @cached_property
    def dealias_band(self) -> int:
        """m = ceil(dealias_fraction * n_modes/2), exact: the largest |k_i| kept
        is m - 1."""
        return math.ceil(self.dealias_fraction * self.n_modes / 2)

    def keeps(self, k1, k2):
        """Whether dealiasing keeps (k1, k2), integers or broadcast arrays."""
        return (abs(k1) < self.dealias_band) & (abs(k2) < self.dealias_band)

    @cached_property
    def _jacobian_symbols(self) -> tuple[np.ndarray, np.ndarray]:
        """Masked i k1 and i k2 on the dealias band k2 < m, which holds every
        kept mode: an (n, 1) column and an (n, m) array."""
        k2 = self.k2[:, :self.dealias_band]
        return (np.where(self.keeps(self.k1, 0), 1j * self.k1, 0j),
                np.where(self.keeps(self.k1, k2), 1j * k2, 0j))

    def index_of(self, k1: int, k2: int) -> tuple[int, int]:
        """Storage index of the wavevector (k1, k2), |k1| <= n/2, 0 <= k2 <= n/2."""
        n = self.n_modes
        if abs(k1) > n // 2 or not 0 <= k2 <= n // 2:
            raise ValueError(f"wavevector ({k1},{k2}) not stored at n_modes={n}")
        return (k1 % n, k2)


def _real_zero_mean(c: np.ndarray) -> None:
    """The half-spectrum rule, in place: check and pin the mean coefficient,
    then make the columns k2 = 0 and n/2 Hermitian."""
    # the tolerance _MEAN_TOL * max(1, max|c|) needs max|c| only above _MEAN_TOL
    scale = max(1.0, float(np.max(np.abs(c)))) if abs(c[0, 0]) > _MEAN_TOL else 1.0
    if abs(c[0, 0]) > _MEAN_TOL * scale:
        raise ValueError(f"mean coefficient {c[0, 0]} exceeds tolerance {_MEAN_TOL * scale}")
    c[0, 0] = 0.0
    # Columns k2 = 0 and k2 = n/2 hold both k and -k: the k1 > 0 half is
    # authoritative and copied, conjugated, onto k1 < 0; the modes that
    # are their own conjugate (k1 = 0, n/2) are real.
    half = c.shape[0] // 2
    edge = c[:, ::half]
    edge[half + 1:] = np.conj(edge[half - 1:0:-1])
    edge[::half] = edge[::half].real


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Zero-mean real scalar on the torus, stored spectrally.

    The (0,0) coefficient is pinned to exactly 0 at construction; inputs
    whose mean coefficient exceeds 1e-14 (relative) are rejected.
    """

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise ValueError(
                f"coeffs shape {c.shape} does not match grid {self.grid.shape}")
        _real_zero_mean(c)
        object.__setattr__(self, "coeffs", c)

    # -- constructors -------------------------------------------------

    @classmethod
    def harmonic(cls, grid: SpectralGrid, k1: int, k2: int,
                 amplitude: float = 1.0) -> "ScalarField":
        """amplitude * cos(k.x) as a field."""
        if (k1, k2) == (0, 0):
            raise ValueError("harmonic requires a nonzero wavevector")
        if not grid.keeps(k1, k2):
            raise ValueError(f"wavevector ({k1},{k2}) is outside the dealias band "
                             f"max(|k1|, |k2|) < {grid.dealias_band}")
        return cls.from_modes(grid, {(k1, k2): amplitude / 2.0})

    @classmethod
    def from_modes(cls, grid: SpectralGrid,
                   modes: dict[tuple[int, int], complex]) -> "ScalarField":
        """Build from coefficients c_k, one per conjugate pair, each stored at
        its pair's representative: k2 > 0, or k1 > 0 when k2 is 0 or n/2."""
        half = grid.n_modes // 2
        c = np.zeros(grid.shape, dtype=np.complex128)
        for (k1, k2), val in modes.items():
            if k2 < 0:
                k1, k2, val = -k1, -k2, np.conj(val)
            if k2 in (0, half) and k1 < 0:
                k1, val = -k1, np.conj(val)
            c[grid.index_of(k1, k2)] = val
        return cls(grid, c)

    @classmethod
    def random(cls, grid: SpectralGrid, rng: np.random.Generator,
               amplitude: float = 1.0, decay: float = 1.0) -> "ScalarField":
        """Random smooth real field, spectrum ~ exp(-decay * |k|)."""
        phys = rng.standard_normal((grid.n_modes, grid.n_modes))
        c = np.fft.rfft2(phys) / phys.size
        c *= np.exp(-decay * np.sqrt(grid.k_sq))
        c[0, 0] = 0.0
        c = np.where(grid.keeps(grid.k1, grid.k2), c, 0.0)
        f = cls(grid, c)
        l2 = norms(f).l2
        scale = amplitude / l2 if l2 > 0 else 1.0
        # an overflowing quotient would make the masked modes inf * 0 = nan
        return f * scale if math.isfinite(scale) else f * (1.0 / l2) * amplitude

    # -- arithmetic ---------------------------------------------------

    def _require_same_grid(self, other: "ScalarField") -> None:
        if self.grid != other.grid:
            raise ValueError(f"grids differ: {self.grid} vs {other.grid}")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._require_same_grid(other)
        return ScalarField(self.grid, self.coeffs + other.coeffs)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.grid, self.coeffs * scalar)


class FieldNorms(NamedTuple):
    l2: float
    h1_semi: float


# ---------------------------------------------------------------------
# Fourier-multiplier operators
# ---------------------------------------------------------------------

def _jacobian_buffers(grid: SpectralGrid) -> tuple[np.ndarray, ...]:
    """Work arrays of ``_jacobian``: a half-spectrum whose columns past the
    dealias band stay 0, and three physical arrays."""
    n = grid.n_modes
    return (np.zeros(grid.shape, dtype=np.complex128),
            np.empty((n, n)), np.empty((n, n)), np.empty((n, n)))


def _to_physical(d, c, spec, phys):
    """d c into spec's first c.shape[1] columns, ifft along k1 there, irfft along k2 to phys."""
    band = np.multiply(d, c, out=spec[:, :c.shape[1]])
    np.fft.ifft(band, axis=0, norm="forward", out=band)
    np.fft.irfft(spec, phys.shape[1], axis=1, norm="forward", out=phys)


def _jacobian(grid: SpectralGrid, a: np.ndarray, b: np.ndarray,
              buffers: tuple[np.ndarray, ...] | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Dealiased J(a, b) of coefficient arrays: the kernel of ``jacobian``.

    Only the band k2 < m of ``a`` and ``b`` is read.  Each 2-D transform is
    two 1-D passes, and the pass along k1 runs only on the band.  All work
    happens in ``buffers`` (from ``_jacobian_buffers``, allocated here if not
    given); the result, in ``out`` or a fresh array, has the modes outside
    the dealias mask and the mean set to 0.
    """
    d1, d2 = grid._jacobian_symbols
    n, m = grid.n_modes, grid.dealias_band
    spec, p, q, r = buffers or _jacobian_buffers(grid)
    a, b = a[:, :m], b[:, :m]
    _to_physical(d1, a, spec, p)
    _to_physical(d2, b, spec, q)
    p *= q
    _to_physical(d2, a, spec, q)
    _to_physical(d1, b, spec, r)
    q *= r
    p -= q
    res = np.fft.rfft(p, axis=1, norm="forward", out=out)
    band = res[:, :m]
    np.fft.fft(band, axis=0, norm="forward", out=band)
    # outside the mask: columns k2 >= m and rows |k1| >= m; then the mean
    res[:, m:] = 0
    res[m:n - m + 1] = 0
    res[0, 0] = 0
    return res


def jacobian(a: ScalarField, b: ScalarField) -> ScalarField:
    """Pseudospectral J(a,b) = d1(a) d2(b) - d2(a) d1(b), dealiased.

    Inputs are masked before the transform so that retained modes of the
    product are alias-free whenever the inputs are supported inside the
    cutoff; the mean of the result is pinned to exactly zero.
    """
    a._require_same_grid(b)
    return ScalarField(a.grid, _jacobian(a.grid, a.coeffs, b.coeffs))


def _full_sum(x: np.ndarray):
    """Sum over the full spectrum: interior k2 columns also stand for -k2."""
    return np.sum(x) + np.sum(x[:, 1:-1])


def norms(f: ScalarField) -> FieldNorms:
    """Parseval L2 norm and H1 seminorm (volume (2pi)^2)."""
    return _norms(f.grid, f.coeffs)


def _norms(grid: SpectralGrid, c: np.ndarray) -> FieldNorms:
    """``norms`` of the coefficient array c."""
    w = np.abs(c) ** 2
    vol = (2.0 * np.pi) ** 2
    return FieldNorms(
        l2=float(np.sqrt(vol * _full_sum(w))),
        h1_semi=float(np.sqrt(vol * _full_sum(grid.k_sq * w))),
    )


# ---------------------------------------------------------------------
# Serialization: self-describing JSON container, bit-exact round trip
# ---------------------------------------------------------------------

FIELD_FORMAT = "mla-field-v1"


def _field_json_chunks(f: ScalarField):
    """``save_field``'s text in pieces: the header, then each k2 column's modes."""
    n, half = f.grid.n_modes, f.grid.n_modes // 2
    yield json.dumps({"format": FIELD_FORMAT, "n_modes": n,
                      "dealias_fraction": str(f.grid.dealias_fraction),
                      "modes": []})[:-2]  # less the closing "]}"
    sep = ""
    for k2 in range(half + 1):
        k1 = np.arange(1 if k2 == 0 else -half, half + 1)
        vals = f.coeffs[k1 % n, k2]
        nz = vals != 0
        if nz.any():
            yield sep + json.dumps([[a, k2, re, im] for a, re, im in zip(
                k1[nz].tolist(), vals[nz].real.tolist(), vals[nz].imag.tolist())])[1:-1]
            sep = ", "
    yield "]}"


def field_from_json(text: str) -> ScalarField:
    """Read ``save_field``'s container.  ValueError where it is malformed: not
    an object of this format, nested too deep to parse, a key missing, a size or
    wavenumber that is not a JSON integer (int() would truncate it), an n_modes past
    ``check_size``, a dealias fraction outside (0, 1] such as "1/0", or a coefficient
    that is not a finite float (NaN, Infinity, -Infinity, or a literal such as 1e999)."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError(f"an {FIELD_FORMAT} container nested too deep to read") from None
    if not isinstance(doc, dict) or doc.get("format") != FIELD_FORMAT:
        raise ValueError(f"not an {FIELD_FORMAT} field container")
    n, frac, modes = (doc.get(k) for k in ("n_modes", "dealias_fraction", "modes"))
    if not (type(n) is int and isinstance(frac, str) and isinstance(modes, list) and all(
            isinstance(m, list) and len(m) == 4 and type(m[0]) is type(m[1]) is int
            and all(type(v) in (int, float) for v in m[2:]) for m in modes)):
        raise ValueError(f"an {FIELD_FORMAT} container needs an integer n_modes, a string "
                         "dealias_fraction and modes [k1, k2, re, im], k1 and k2 integers")
    for m in modes:  # NaN <= max is false, and an int compares exactly
        if not all(abs(v) <= sys.float_info.max for v in m[2:]):
            raise ValueError(f"{FIELD_FORMAT} mode {m}: a coefficient is not a finite float")
    grid = SpectralGrid(n, frac)
    grid.check_size()  # before from_modes makes the array
    return ScalarField.from_modes(grid, {
        (k1, k2): complex(re, im) for k1, k2, re, im in modes})


def save_field(f: ScalarField, path) -> None:
    """The nonzero half-spectrum, k2-major: k1 = 1..n/2 on k2 = 0, -n/2..n/2 (+-n/2
    twice) on k2 = 1..n/2.  Floats go through ``repr``: the round trip is bit-exact."""
    with _atomic_open(path) as fh:
        fh.writelines(_field_json_chunks(f))


def load_field(path) -> ScalarField:
    with open(path) as fh:
        return field_from_json(fh.read())
