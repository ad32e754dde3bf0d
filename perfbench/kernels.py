"""Computed (not measured) kernel counts for ``spectral.jacobian``.

The counts follow the array operations of ``mla.spectral.jacobian`` at the
commit that defined the benchmark.  Each NumPy operation is taken to read
each operand once and write its result once; an FFT reads its input and
writes its output once, its internal passes are not counted.  Cache misses
are ignored, so these are bytes touched by the code, not bytes moved to
memory.  On a CPU sandbox there is no measured roofline, and every array at
n <= 256 (1 MiB per complex n x n array) fits in the last-level cache, so
no bandwidth figure is claimed.
"""

from __future__ import annotations

import math

C, R, B = 16, 8, 1  # bytes per complex128, float64 and bool element


def jacobian_ops(n: int) -> list[tuple[str, int, int]]:
    """(operation, bytes read, bytes written) for one call at n x n."""
    n2 = n * n
    derivative = [
        ("1j * k", R * n, C * n),
        ("(1j * k) * coeffs", C * n + C * n2, C * n2),
        ("where(mask, ., 0)", B * n2 + C * n2, C * n2),
        ("ifft2", C * n2, C * n2),
        ("real(.) * n^2", R * n2, R * n2),
    ]
    ops = [(f"d{i}: {name}", r, w) for i in range(4) for name, r, w in derivative]
    ops += [
        ("a1 * b2", 2 * R * n2, R * n2),
        ("a2 * b1", 2 * R * n2, R * n2),
        ("difference", 2 * R * n2, R * n2),
        ("fft2", R * n2, C * n2),
        ("/ n^2", C * n2, C * n2),
        ("hermitianize: roll", C * n2, C * n2),
        ("hermitianize: conj", C * n2, C * n2),
        ("hermitianize: add", 2 * C * n2, C * n2),
        ("hermitianize: * 0.5", C * n2, C * n2),
        ("where(mask, ., 0)", B * n2 + C * n2, C * n2),
        ("ScalarField: abs", C * n2, R * n2),
        ("ScalarField: max", R * n2, 0),
        ("ScalarField: copy", C * n2, C * n2),
    ]
    return ops


def jacobian_counts(n: int) -> tuple[int, int]:
    """(2-D FFTs per call, bytes touched per call) at n x n; (0, 0) for n = 0."""
    if n == 0:
        return 0, 0
    return 5, sum(r + w for _, r, w in jacobian_ops(n))


def jacobian_fft_flops(n: int) -> float:
    """Conventional 5 N log2 N flops per complex FFT of N = n^2 points, times 5."""
    return 5 * 5.0 * n * n * math.log2(n * n)
