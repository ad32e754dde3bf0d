"""Spectral operator tests: eigenfunction identities, independent
finite-difference / convolution / quadrature oracles, and the Jacobian
identity suite."""

import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mla.dynamics import ForcingSpec, ModelParams, initial_state, kolmogorov_forcing, run
from mla.spectral import (
    FieldNorms,
    GridMismatchError,
    NonZeroMeanError,
    ScalarField,
    SpectralGrid,
    _jacobian,
    _jacobian_buffers,
    field_from_json,
    jacobian,
    load_field,
    norms,
    save_field,
)
from spectral_oracles import (
    coeff,
    dealias_cutoff,
    dealias_mask,
    deriv,
    field_values,
    helmholtz_inv,
    inner,
    inv_laplacian,
    physical_nodes,
    to_physical,
    velocity,
    wavenumbers,
)

GRID = SpectralGrid(32)
DATA = Path(__file__).parent / "data"


def rel_err(got, want):
    scale = np.max(np.abs(want))
    if scale == 0:
        return np.max(np.abs(got))
    return np.max(np.abs(got - want)) / scale


def field_dist(f, g):
    return norms(ScalarField(f.grid, f.coeffs - g.coeffs)).l2


# ---------------------------------------------------------------------
# grid and field construction
# ---------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(7)
    with pytest.raises(ValueError):
        SpectralGrid(6)
    with pytest.raises(ValueError):
        SpectralGrid(16, dealias_fraction=0)


def test_zero_mean_enforced_by_construction():
    c = np.zeros(GRID.shape, dtype=np.complex128)
    c[0, 0] = 1e-16
    f = ScalarField(GRID, c)
    assert f.coeffs[0, 0] == 0
    c[0, 0] = 0.5
    with pytest.raises(NonZeroMeanError):
        ScalarField(GRID, c)


@pytest.mark.parametrize("frac,n", [
    (frac, n) for frac in ("1", "2/3", "1/2", "1/1000") for n in (8, 10, 64, 96)
] + [
    # fraction * n/2 is the integer 63 (27), and its float product rounds above it
    ("9/11", 154), ("9/14", 84),
])
def test_dealias_band_gives_the_float_cutoff_rules(frac, n):
    # the band m against the exact cutoff c = fraction * n/2, in each form the
    # float cutoff took before: the largest kept wavenumber (dynamics._dt_max's
    # CFL wavenumber), the Jacobian's mask, and harmonic and the forcing check
    grid = SpectralGrid(n, frac)
    c = Fraction(frac) * n / 2
    k = wavenumbers(grid).tolist()
    assert grid.dealias_band - 1 == max(abs(k1) for k1 in k if abs(k1) < c)
    kept = [[abs(k1) < c and k2 < c for k2 in range(n // 2 + 1)] for k1 in k]
    assert np.array_equal(grid.keeps(grid.k1, grid.k2), kept)
    for k1 in range(-n // 2, n // 2 + 1):
        for k2 in range(-n // 2, n // 2 + 1):
            assert grid.keeps(k1, k2) is (abs(k1) < c and abs(k2) < c)


def test_k1_is_fftfreq_order_in_integers():
    for n in range(8, 4097, 2):
        grid = SpectralGrid(n)
        assert np.array_equal(grid.k1[:, 0], wavenumbers(grid))


def test_random_field_reaches_the_float_maximum():
    # amplitude / l2 overflows: scaled in one step, the masked modes were inf * 0 = nan
    f = ScalarField.random(GRID, np.random.default_rng(0), amplitude=1e308)
    assert np.all(np.isfinite(f.coeffs))
    assert np.all(f.coeffs[~dealias_mask(GRID)] == 0)
    assert np.max(np.abs(f.coeffs)) > 1e306


def test_harmonic_coefficients():
    f = ScalarField.harmonic(GRID, 1, 0)
    assert coeff(f, 1, 0) == pytest.approx(0.5)
    assert coeff(f, -1, 0) == pytest.approx(0.5)
    g = ScalarField.from_modes(GRID, {(0, 2): 3.0 / 2j})
    assert coeff(g, 0, 2) == pytest.approx(3.0 / 2j)
    x1, x2 = physical_nodes(GRID)
    assert rel_err(field_values(f), np.cos(x1)) < 1e-13
    assert rel_err(field_values(g), 3.0 * np.sin(2 * x2)) < 1e-13


def test_self_conjugate_columns_are_exact_mirrors():
    # k2 = 0 and k2 = n/2 store both k and -k: exact conjugates, not just close
    rng = np.random.default_rng(0)
    half = GRID.n_modes // 2
    noise = np.fft.rfft2(rng.standard_normal((GRID.n_modes, GRID.n_modes)))
    noise[0, 0] = 0.0
    fields = [
        ScalarField.random(GRID, rng),
        ScalarField(GRID, noise / GRID.n_modes**2),
        jacobian(ScalarField.random(GRID, rng), ScalarField.random(GRID, rng)),
    ]
    for f in fields:
        assert f.coeffs[0, 0] == 0
        for k2 in (0, half):
            for k1 in range(-half, half + 1):
                assert coeff(f, -k1, k2) == np.conj(coeff(f, k1, k2))
    assert np.count_nonzero(fields[1].coeffs[:, half]) > half  # Nyquist content


def test_grid_mismatch_raises():
    f = ScalarField.harmonic(SpectralGrid(16), 1, 0)
    g = ScalarField.harmonic(SpectralGrid(32), 1, 0)
    with pytest.raises(GridMismatchError):
        jacobian(f, g)
    with pytest.raises(GridMismatchError):
        f + g


# ---------------------------------------------------------------------
# laplacian / inverses: the Laplacian is the symbol -k_sq
# ---------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 32, 48])
def test_k_sq_matches_second_derivative_oracle(n):
    # the symbol the stepper's tables and the H1 norm read, on every mode but
    # the Nyquist row and column (a fraction of 1 keeps all the others): the
    # oracle's first derivative of their self-conjugate modes is pinned to 0
    f = ScalarField.random(SpectralGrid(n, 1), np.random.default_rng(n), decay=0.0)
    want = deriv(deriv(f, 1), 1) + deriv(deriv(f, 2), 2)
    assert rel_err(-f.grid.k_sq * f.coeffs, want.coeffs) < 1e-15


def test_laplacian_eigenfunction():
    f = ScalarField.harmonic(GRID, 1, 0)
    assert field_dist(ScalarField(GRID, -GRID.k_sq * f.coeffs), f * -1.0) < 1e-14


@pytest.mark.parametrize("s", [1, 2, 5])
def test_laplacian_kolmogorov_mode(s):
    # -nu Lap(psi_s) = F_s hinges on Lap cos(s x2) = -s^2 cos(s x2)
    f = ScalarField.harmonic(GRID, 0, s)
    assert field_dist(ScalarField(GRID, -GRID.k_sq * f.coeffs), f * -float(s * s)) < 1e-12


def test_laplacian_matches_finite_differences():
    # Oracle: second-order 5-point stencil on a 512^2 grid.
    n = 512
    grid = SpectralGrid(n)
    rng = np.random.default_rng(7)
    f = ScalarField.random(grid, rng, amplitude=1.0, decay=1.5)
    phys = field_values(f)
    h = 2 * np.pi / n
    fd = (
        np.roll(phys, 1, axis=0) + np.roll(phys, -1, axis=0)
        + np.roll(phys, 1, axis=1) + np.roll(phys, -1, axis=1)
        - 4 * phys
    ) / h**2
    spectral = to_physical(grid, -grid.k_sq * f.coeffs)
    err = np.linalg.norm(spectral - fd) / np.linalg.norm(spectral)
    assert err < 1e-4


def test_inv_laplacian_example():
    f = ScalarField.harmonic(GRID, 1, 1)  # cos(x1+x2), |k|^2 = 2
    assert field_dist(inv_laplacian(f), f * -0.5) < 1e-14


def test_inv_laplacian_roundtrip_random():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        f = ScalarField.random(GRID, rng)
        lap = ScalarField(GRID, -GRID.k_sq * f.coeffs)
        lap_of_inv = ScalarField(GRID, -GRID.k_sq * inv_laplacian(f).coeffs)
        worst = max(worst, field_dist(lap_of_inv, f))
        worst = max(worst, field_dist(inv_laplacian(lap), f))
    assert worst < 1e-13


def test_inv_laplacian_rejects_nonzero_mean():
    # mutate the coefficient array behind the constructor's pin to
    # exercise the operator-level guard
    g = ScalarField(GRID, np.zeros(GRID.shape, complex))
    g.coeffs[0, 0] = 1e-6
    with pytest.raises(NonZeroMeanError):
        inv_laplacian(g)


def test_helmholtz_inv_alpha0_is_identity():
    rng = np.random.default_rng(11)
    f = ScalarField.random(GRID, rng)
    assert field_dist(helmholtz_inv(f, 0.0), f) == 0


@pytest.mark.parametrize("k,alpha", [((3, 0), 0.5), ((2, 2), 1.0)])
def test_helmholtz_inv_symbol(k, alpha):
    f = ScalarField.harmonic(GRID, *k)
    ksq = k[0] ** 2 + k[1] ** 2
    assert field_dist(helmholtz_inv(f, alpha), f * (1.0 / (1 + alpha**2 * ksq))) < 1e-14


@pytest.mark.parametrize("n", [8, 10, 64])
def test_helmholtz_max_is_the_symbols_largest_value(n):
    grid = SpectralGrid(n)
    assert grid.helmholtz_max(0.3) == grid.helmholtz(0.3).max()
    # alpha**2 overflows at 1e200; alpha^2 |k|^2 alone at 1e154
    for alpha in (1e154, 1e200):
        with pytest.raises(ValueError, match=rf"not finite at \|k\|\^2 = {2 * (n // 2) ** 2} "):
            grid.helmholtz(alpha)


def test_helmholtz_roundtrip_random():
    alpha = 0.37
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(25):
        f = ScalarField.random(GRID, rng)
        g = helmholtz_inv(f, alpha)
        back = ScalarField(GRID, g.coeffs + alpha**2 * GRID.k_sq * g.coeffs)  # (I - a^2 Lap) g
        worst = max(worst, field_dist(back, f))
    assert worst < 1e-13


def test_diagonal_operators_commute():
    rng = np.random.default_rng(13)
    f = ScalarField.random(GRID, rng)
    a = helmholtz_inv(ScalarField(GRID, -GRID.k_sq * f.coeffs), 0.3).coeffs
    b = -GRID.k_sq * helmholtz_inv(f, 0.3).coeffs
    assert np.max(np.abs(a - b)) < 1e-15 * np.max(np.abs(a))


# ---------------------------------------------------------------------
# jacobian
# ---------------------------------------------------------------------

def test_jacobian_closed_form_cos_cos():
    # J(cos x1, cos x2) = sin x1 sin x2
    f = ScalarField.harmonic(GRID, 1, 0)
    g = ScalarField.harmonic(GRID, 0, 1)
    x1, x2 = physical_nodes(GRID)
    expected = np.sin(x1) * np.sin(x2)
    assert rel_err(field_values(jacobian(f, g)), expected) < 1e-13


@pytest.mark.parametrize("s,k1,k2", [(2, 1, 0), (3, 2, 1), (1, 4, -2)])
def test_jacobian_kolmogorov_coupling(s, k1, k2):
    # J(cos s x2, cos(k1 x1 + k2 x2)) = -k1 s sin(s x2) sin(k1 x1 + k2 x2)
    a = ScalarField.harmonic(GRID, 0, s)
    b = ScalarField.harmonic(GRID, k1, k2)
    x1, x2 = physical_nodes(GRID)
    expected = -k1 * s * np.sin(s * x2) * np.sin(k1 * x1 + k2 * x2)
    assert rel_err(field_values(jacobian(a, b)), expected) < 1e-12


def test_jacobian_self_is_zero():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = ScalarField.random(GRID, rng)
        assert norms(jacobian(a, a)).l2 < 1e-12 * norms(a).l2 ** 2


def _full_spectrum(f):
    """f's coefficients in the n x n fft2 layout, read through coeff."""
    wav = wavenumbers(f.grid).tolist()
    return np.array([[coeff(f, k1, k2) for k2 in wav] for k1 in wav])


def _convolution_jacobian(a, b):
    """Term-by-term convolution oracle: J_k = sum_{p+q=k} (p2 q1 - p1 q2) a_p b_q."""
    grid = a.grid
    out = {}
    full_a, full_b = _full_spectrum(a), _full_spectrum(b)
    nz_a = list(zip(*np.nonzero(full_a)))
    nz_b = list(zip(*np.nonzero(full_b)))
    wav = wavenumbers(grid)
    for ia in nz_a:
        p = (wav[ia[0]], wav[ia[1]])
        ca = full_a[ia]
        for ib in nz_b:
            q = (wav[ib[0]], wav[ib[1]])
            cb = full_b[ib]
            k = (p[0] + q[0], p[1] + q[1])
            out[k] = out.get(k, 0.0) + (p[1] * q[0] - p[0] * q[1]) * ca * cb
    cutoff = dealias_cutoff(grid)
    out = {(int(k1), int(k2)): val for (k1, k2), val in out.items()
           if (k1, k2) != (0, 0) and abs(k1) < cutoff and abs(k2) < cutoff}
    return ScalarField.from_modes(grid, out)


def _full_spectrum_jacobian(a, b):
    """Oracle: the full-spectrum implementation, fft2/ifft2 on n x n arrays
    with a 2-D Hermitian projection of the product."""
    grid = a.grid
    k = wavenumbers(grid).astype(np.float64)
    k1, k2 = k[:, None], k[None, :]
    mask = (np.abs(k1) < dealias_cutoff(grid)) & (np.abs(k2) < dealias_cutoff(grid))
    n_sq = grid.n_modes**2
    ca, cb = _full_spectrum(a), _full_spectrum(b)

    def phys(c):
        return np.real(np.fft.ifft2(np.where(mask, c, 0.0))) * n_sq

    prod = (phys(1j * k1 * ca) * phys(1j * k2 * cb)
            - phys(1j * k2 * ca) * phys(1j * k1 * cb))
    c = np.fft.fft2(prod) / n_sq
    c = 0.5 * (c + np.conj(np.roll(np.flip(c), (1, 1), axis=(0, 1))))
    c = np.where(mask, c, 0.0)
    c[0, 0] = 0.0
    return c


def _jacobian_2d(grid, a, b):
    """Oracle: the 2-D kernel, irfft2/rfft2 on every column, scaled by n^2
    on the way in and masked with mask / n^2 on the way out.  It builds its
    own full masked symbols, so it reads nothing of the kernel's."""
    mask = dealias_mask(grid)
    d1, d2 = (np.where(mask, 1j * k, 0j) for k in (grid.k1, grid.k2))
    out = np.where(mask & (grid.k_sq > 0), 1.0 / grid.n_modes**2, 0.0)
    a1, a2, b1, b2 = (to_physical(grid, d * c) for c in (a, b) for d in (d1, d2))
    return np.fft.rfft2(a1 * b2 - a2 * b1) * out


def _random_pair(grid, seed):
    rng = np.random.default_rng(seed)
    return (ScalarField.random(grid, rng, decay=0.2).coeffs,
            ScalarField.random(grid, rng, decay=0.2).coeffs)


FRACTIONS = [Fraction(2, 3), Fraction(1, 2), Fraction(1)]


@pytest.mark.parametrize("frac", FRACTIONS)
@pytest.mark.parametrize("n", [16, 64, 256])
def test_band_pruned_jacobian_is_bit_identical_to_2d_kernel(n, frac):
    # 1/n is exact for a power of two, so moving the scaling into the
    # transforms and pruning zero columns changes no bit of any nonzero
    # mode; the modes outside the mask are +0, where the 2-D kernel's
    # product with the mask left some -0
    grid = SpectralGrid(n, frac)
    a, b = _random_pair(grid, n)
    assert np.array_equal(_jacobian(grid, a, b), _jacobian_2d(grid, a, b))


@pytest.mark.parametrize("frac", FRACTIONS)
@pytest.mark.parametrize("n", [10, 48])
def test_band_pruned_jacobian_matches_2d_kernel_to_rounding(n, frac):
    grid = SpectralGrid(n, frac)
    a, b = _random_pair(grid, n)
    want = _jacobian_2d(grid, a, b)
    assert rel_err(_jacobian(grid, a, b), want) <= 1e-15


def test_jacobian_buffers_are_reused_without_allocation():
    grid = SpectralGrid(256)
    a, b = _random_pair(grid, 1)
    buffers = _jacobian_buffers(grid)
    first = _jacobian(grid, a, b, buffers)
    kept = first.copy()
    tracemalloc.start()
    try:
        second = _jacobian(grid, b, a, buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result array, plus the small bookkeeping of the FFT calls
    assert peak <= second.nbytes + 16 * 1024
    assert not any(np.shares_memory(second, buf) for buf in buffers)
    assert np.array_equal(first, kept)
    assert np.array_equal(second, _jacobian(grid, b, a))


def test_jacobian_into_out_allocates_no_half_spectrum():
    # only numpy's fixed ufunc buffers (3 x 8192 complex) for the strided
    # band products, and the small bookkeeping of the FFT calls
    grid = SpectralGrid(512)
    a, b = _random_pair(grid, 2)
    buffers, out = _jacobian_buffers(grid), np.empty(grid.shape, dtype=np.complex128)
    want = _jacobian(grid, a, b)
    tracemalloc.start()
    try:
        got = _jacobian(grid, a, b, buffers, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is out and np.array_equal(got, want)
    assert peak <= 3 * 8192 * 16 + 16 * 1024 < out.nbytes / 4


@pytest.mark.parametrize("n", [32, 64])
def test_jacobian_matches_full_spectrum_reference(n):
    grid = SpectralGrid(n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        a = ScalarField.random(grid, rng, decay=0.5)
        b = ScalarField.random(grid, rng, decay=0.5)
        want = _full_spectrum_jacobian(a, b)
        assert rel_err(_full_spectrum(jacobian(a, b)), want) < 1e-13


def test_jacobian_matches_convolution_oracle():
    # Fields supported well inside the cutoff: the dealiased product is exact.
    rng = np.random.default_rng(23)
    for _ in range(5):
        a = ScalarField.random(GRID, rng, decay=2.0)
        b = ScalarField.random(GRID, rng, decay=2.0)
        # truncate support to |k|_inf <= 4 so p+q stays inside the cutoff
        keep = (np.abs(GRID.k1) <= 4) & (np.abs(GRID.k2) <= 4)
        a = ScalarField(GRID, np.where(keep, a.coeffs, 0.0))
        b = ScalarField(GRID, np.where(keep, b.coeffs, 0.0))
        ref = _convolution_jacobian(a, b)
        got = jacobian(a, b)
        scale = norms(a).l2 * norms(b).l2
        assert field_dist(got, ref) < 1e-12 * max(1.0, scale)


def test_jacobian_identity_suite_small():
    # Antisymmetry, mean-zero pairings, cyclic identity on random fields.
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = ScalarField.random(GRID, rng)
        b = ScalarField.random(GRID, rng)
        c = ScalarField.random(GRID, rng)
        scale = norms(a).l2 * norms(b).l2
        assert norms(jacobian(a, b) + jacobian(b, a)).l2 < 1e-12 * scale

        # raw physical-space mean (the spectral mean is pinned by design)
        j_raw = (
            field_values(deriv(a, 1)) * field_values(deriv(b, 2))
            - field_values(deriv(a, 2)) * field_values(deriv(b, 1))
        )
        assert abs(np.mean(j_raw)) < 1e-12 * scale
        assert abs(inner(jacobian(a, b), b)) < 1e-12 * scale * norms(b).l2
        lhs = inner(jacobian(a, b), c)
        rhs = inner(jacobian(b, c), a)
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), abs(rhs), scale)


# ---------------------------------------------------------------------
# velocity / divergence
# ---------------------------------------------------------------------

def test_velocity_from_stream_example():
    psi = ScalarField.harmonic(GRID, 0, 1)  # cos x2
    u1, u2 = (to_physical(GRID, c) for c in velocity(GRID, psi.coeffs))
    x1, x2 = physical_nodes(GRID)
    assert rel_err(u1, np.sin(x2)) < 1e-13
    assert np.max(np.abs(u2)) < 1e-14


def test_velocity_divergence_free():
    # k1 u1 + k2 u2 = 0 on the symbols the stepper's CFL check uses, up to
    # the rounding of the products k1 k2 psi
    rng = np.random.default_rng(31)
    for _ in range(50):
        psi = ScalarField.random(GRID, rng)
        u1, u2 = velocity(GRID, psi.coeffs)
        div = GRID.k1 * u1 + GRID.k2 * u2
        assert np.all(np.abs(div) <= 1e-15 * GRID.k_sq * np.abs(psi.coeffs))


def test_kolmogorov_stream_velocity_profile():
    # psi_s is the vorticity of the stationary velocity: lifting through
    # the inverse Laplacian must reproduce the sinusoidal x1-directed flow.
    nu, lam, s = 0.7, 2.0, 3
    amp = nu * lam * s / (np.sqrt(2.0) * np.pi)
    psi_s = ScalarField.harmonic(GRID, 0, s, amplitude=-amp)
    u1, u2 = (to_physical(GRID, c) for c in velocity(GRID, inv_laplacian(psi_s).coeffs))
    x1, x2 = physical_nodes(GRID)
    v0 = nu * lam / (np.sqrt(2.0) * np.pi) * np.sin(s * x2)
    assert rel_err(u1, v0) < 1e-12
    assert np.max(np.abs(u2)) < 1e-13


# ---------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------

def test_norms_cosine_quadrature_oracle():
    f = ScalarField.harmonic(GRID, 1, 0)
    n = GRID.n_modes
    # trapezoid rule is exact for trigonometric polynomials on the torus
    quad = np.sum(field_values(f) ** 2) * (2 * np.pi / n) ** 2
    got = norms(f)
    assert got.l2**2 == pytest.approx(quad, rel=1e-13)
    assert got.l2**2 == pytest.approx(2 * np.pi**2, rel=1e-13)
    assert got.l2 == pytest.approx(np.sqrt(2.0) * np.pi, rel=1e-13)


def test_poincare_inequality():
    rng = np.random.default_rng(37)
    for _ in range(50):
        f = ScalarField.random(GRID, rng)
        m = norms(f)
        assert m.h1_semi >= m.l2 * (1 - 1e-12)


def test_norms_zero_field():
    assert norms(ScalarField(GRID, np.zeros(GRID.shape, complex))) == FieldNorms(0.0, 0.0)


def test_h_norms_quadrature_oracle():
    rng = np.random.default_rng(41)
    f = ScalarField.random(GRID, rng)
    n = GRID.n_modes
    w = (2 * np.pi / n) ** 2
    g1 = field_values(deriv(f, 1))
    g2 = field_values(deriv(f, 2))
    grad_sq = np.sum(g1**2 + g2**2) * w
    assert norms(f).h1_semi**2 == pytest.approx(grad_sq, rel=1e-12)


# ---------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------

def test_field_json_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(43)
    f = ScalarField.random(GRID, rng)
    save_field(f, tmp_path / "field.json")
    g = load_field(tmp_path / "field.json")
    assert g.grid == f.grid
    assert np.array_equal(g.coeffs, f.coeffs)


def test_field_fixture_reserializes_byte_identical(tmp_path):
    # written by the full-spectrum implementation's save_field: a random
    # field, unmasked noise, and modes on the k2 = 0 line, the k1 = n/2 row
    # and the k2 = n/2 column
    path = DATA / "field_n16_v1.json"
    save_field(load_field(path), tmp_path / "field.json")
    assert (tmp_path / "field.json").read_bytes() == path.read_bytes()


def _whole_document_field_json(f):
    """The serializer that built the whole document before writing it, kept
    as the byte oracle for the column-streamed ``save_field``."""
    half = f.grid.n_modes // 2
    k1, k2 = np.meshgrid(np.arange(-half, half + 1), np.arange(half + 1))
    keep = (k2 > 0) | (k1 > 0)
    k1, k2 = k1[keep], k2[keep]
    vals = f.coeffs[k1 % f.grid.n_modes, k2]
    nz = vals != 0
    modes = [list(m) for m in zip(k1[nz].tolist(), k2[nz].tolist(),
                                  vals[nz].real.tolist(), vals[nz].imag.tolist())]
    return json.dumps({
        "format": "mla-field-v1",
        "n_modes": f.grid.n_modes,
        "dealias_fraction": str(f.grid.dealias_fraction),
        "modes": modes,
    })


@pytest.fixture(scope="module")
def stepped_field_256():
    params = ModelParams(nu=1.0, alpha=0.1, grid=SpectralGrid(256))
    forcing = kolmogorov_forcing(ForcingSpec(s=4, lam=3.125), params)
    return run(initial_state(params, seed=3), 0.02, 0.005, forcing).final_state.psi


def _nan_field():
    f = ScalarField.random(SpectralGrid(16), np.random.default_rng(5))
    f.coeffs[3, 2] = complex(np.nan, 1.0)
    return f


@pytest.mark.parametrize("make", [
    lambda stepped: load_field(DATA / "field_n16_v1.json"),
    lambda stepped: ScalarField.random(SpectralGrid(64), np.random.default_rng(64)),
    lambda stepped: stepped,
    lambda stepped: ScalarField.from_modes(SpectralGrid(16), {}),
    lambda stepped: ScalarField.from_modes(SpectralGrid(16), {(1, 0): 0.5j, (8, 0): 2.0}),
    lambda stepped: _nan_field(),
], ids=["fixture-n16", "random-n64", "stepped-n256", "zero", "k2-0-only", "nan"])
def test_field_json_matches_whole_document_oracle(make, stepped_field_256, tmp_path):
    f = make(stepped_field_256)
    want = _whole_document_field_json(f)
    save_field(f, tmp_path / "field.json")
    assert (tmp_path / "field.json").read_bytes() == want.encode()


def test_save_field_memory_grows_with_one_column(stepped_field_256, tmp_path):
    # tracemalloc counts numpy buffers.  Building the whole document of the
    # 14.6k modes at n = 256 peaks near 7 MB; streaming by column, near 0.1 MB.
    tracemalloc.start()
    try:
        save_field(stepped_field_256, tmp_path / "field.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    assert len(load_field(tmp_path / "field.json").coeffs.nonzero()[0]) > 14_000


def test_field_json_rejects_unknown_format():
    with pytest.raises(ValueError):
        field_from_json('{"format": "something-else"}')


_FIELD_DOC = {"format": "mla-field-v1", "n_modes": 16, "dealias_fraction": "2/3",
              "modes": [[1, 0, 1.0, 0.0]]}


@pytest.mark.parametrize("doc,message", [
    # each raised KeyError, AttributeError, or was read as mode (1, 0) and n_modes 16
    ({k: v for k, v in _FIELD_DOC.items() if k != "modes"}, "needs an integer n_modes"),
    ([_FIELD_DOC], "not an mla-field-v1"),
    (dict(_FIELD_DOC, modes=[[1.5, 0, 1.0, 0.0]]), "k1 and k2 integers"),
    (dict(_FIELD_DOC, n_modes=16.7), "an integer n_modes"),
], ids=["missing-key", "not-an-object", "fractional-k1", "fractional-n_modes"])
def test_field_json_rejects_malformed_containers(doc, message):
    field_from_json(json.dumps(_FIELD_DOC))  # the well-formed twin reads
    with pytest.raises(ValueError, match=message):
        field_from_json(json.dumps(doc))


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_field_json_rejects_non_finite_coefficients(token, part):
    # json.loads reads each token, 1e999 as inf: each was stored as a coefficient
    mode = f"[1, 0, {token}, 0.0]" if part == "re" else f"[1, 0, 1.0, {token}]"
    text = json.dumps(_FIELD_DOC).replace("[1, 0, 1.0, 0.0]", mode)
    with pytest.raises(ValueError, match="a coefficient is not a finite float"):
        field_from_json(text)


def test_zero_denominator_fraction_is_a_value_error():
    # Fraction("1/0") raised ZeroDivisionError through the grid and the reader
    for call in (lambda: SpectralGrid(8, "1/0"),
                 lambda: field_from_json(json.dumps(dict(_FIELD_DOC, dealias_fraction="1/0")))):
        with pytest.raises(ValueError, match="dealias_fraction must lie in"):
            call()


def test_field_json_half_spectrum_axis_line(tmp_path):
    # modes on the k2 = 0 line keep only k1 > 0 representatives
    f = ScalarField.from_modes(GRID, {(3, 0): 2.0 / 2j})
    save_field(f, tmp_path / "field.json")
    g = load_field(tmp_path / "field.json")
    assert np.array_equal(g.coeffs, f.coeffs)
    doc = json.loads((tmp_path / "field.json").read_text())
    assert all(k2 > 0 or (k2 == 0 and k1 > 0) for k1, k2, _, _ in doc["modes"])


def test_wavevector_bounds_validation():
    with pytest.raises(ValueError):
        GRID.index_of(17, 0)  # beyond n/2 = 16
    assert GRID.index_of(-16, 16) == (16, 16)
