"""Field operators that only the tests use: spectral derivatives, the
inverse Laplacian and Helmholtz operators, the L2 inner product, the
physical nodes and a coefficient read.  Each builds a new ``ScalarField`` or
array per call; the package's stepper works on coefficient arrays instead.

``wavenumbers``, ``dealias_cutoff`` and ``dealias_mask`` are the grid's
former float statement of the dealias rule: fftfreq's wavenumbers cast to
integers and the cutoff fraction * n/2 in floats.  They are the references
for ``SpectralGrid.k1`` and the integer band ``SpectralGrid.dealias_band``.
The float cutoff differs from the band only where fraction * n/2 is an
integer that its float product rounds above, as at (154, "9/11"); no grid
that reads it here is one of those.

Two are the independent references for the run's two-pass kernels:
``to_physical``, the whole-grid ``irfft2`` transform to node values, which
the Jacobian, ``dt_max`` and norm tests compare ``spectral._jacobian`` and
``dynamics._dt_max`` against, and ``velocity``, the products of u =
(-d2, d1) stream that ``dynamics._dt_max`` forms inline."""

import numpy as np

from mla import _MEAN_TOL
from mla.spectral import ScalarField, SpectralGrid, _full_sum


def deriv(f: ScalarField, axis: int) -> ScalarField:
    """Spectral partial derivative along axis 1 or 2."""
    if axis == 1:
        mult = 1j * f.grid.k1
    elif axis == 2:
        mult = 1j * f.grid.k2
    else:
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    return ScalarField(f.grid, f.coeffs * mult)


def inv_laplacian(f: ScalarField) -> ScalarField:
    """Inverse Laplacian on zero-mean fields: c_k -> -c_k / |k|^2."""
    if abs(f.coeffs[0, 0]) > _MEAN_TOL:
        raise ValueError("inv_laplacian requires a zero-mean field")
    return ScalarField(f.grid, f.coeffs * f.grid.neg_inv_k_sq)


def helmholtz_inv(f: ScalarField, alpha: float) -> ScalarField:
    """(I - alpha^2 Laplacian)^{-1}: c_k -> c_k / (1 + alpha^2 |k|^2)."""
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    return ScalarField(f.grid, f.coeffs / f.grid.helmholtz(alpha))


def inner(f: ScalarField, g: ScalarField) -> float:
    """L2 inner product of two real fields."""
    f._require_same_grid(g)
    vol = (2.0 * np.pi) ** 2
    return float(np.real(_full_sum(f.coeffs * np.conj(g.coeffs))) * vol)


def coeff(f: ScalarField, k1: int, k2: int) -> complex:
    """c_k of f for |k1|, |k2| <= n/2; k2 < 0 reads conj(c_{-k})."""
    if k2 < 0:
        return coeff(f, -k1, -k2).conjugate()
    return complex(f.coeffs[f.grid.index_of(k1, k2)])


def velocity(grid: SpectralGrid, stream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient arrays of u = (-d2, d1) stream."""
    return -1j * grid.k2 * stream, 1j * grid.k1 * stream


def to_physical(grid: SpectralGrid, c: np.ndarray) -> np.ndarray:
    """Values of the coefficient array c at the nodes 2 pi (i1, i2) / n."""
    n = grid.n_modes
    return np.fft.irfft2(c, s=(n, n)) * n**2


def field_values(f: ScalarField) -> np.ndarray:
    """``to_physical`` of a field's coefficients."""
    return to_physical(f.grid, f.coeffs)


def physical_nodes(grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """The (x1, x2) nodes of ``to_physical``, indexed [i1, i2]."""
    x = 2.0 * np.pi * np.arange(grid.n_modes) / grid.n_modes
    return np.meshgrid(x, x, indexing="ij")


def wavenumbers(grid: SpectralGrid) -> np.ndarray:
    """Integer wavenumbers in FFT order, shape (n_modes,)."""
    return np.fft.fftfreq(grid.n_modes, d=1.0 / grid.n_modes).astype(np.int64)


def dealias_cutoff(grid: SpectralGrid) -> float:
    """fraction * n/2 in floats: the largest |k_i| kept is the biggest integer
    strictly below it, where the product is exact."""
    return float(grid.dealias_fraction) * grid.n_modes / 2.0


def dealias_mask(grid: SpectralGrid) -> np.ndarray:
    """The modes kept below the float cutoff, in the stored layout."""
    c = dealias_cutoff(grid)
    k2 = np.arange(grid.n_modes // 2 + 1)
    return (np.abs(wavenumbers(grid))[:, None] < c) & (k2[None, :] < c)
