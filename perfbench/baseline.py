"""Cross-check of the layer timings in the ROADMAP baseline table.

    python3 perfbench/baseline.py

Run from the root of a source checkout.  Times single layers in this
process with OPENBLAS_NUM_THREADS=1 (median of repeated batches), flags any
figure more than 15% away from the table, counts the calls made by
``lambda0_threshold(8, 3, 0, 0.1, 0.3)`` through the benchmark's tracer, and
prints the computed kernel counts of ``spectral.jacobian``.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import kernels  # noqa: E402
import spans  # noqa: E402
from mla import dynamics, spectral, stability  # noqa: E402

SCAN = {"s": 8, "alpha": 0.1, "delta": 0.3, "lambda": 120.0}


def per_call(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean seconds per call."""
    fn()
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def main() -> int:
    rng = np.random.default_rng(0)
    rows = []  # (what, ROADMAP seconds or None, measured seconds)
    for n, roadmap, calls in ((64, 0.83e-3, 200), (128, 4.30e-3, 50), (256, 13.3e-3, 20)):
        grid = spectral.SpectralGrid(n)
        a = spectral.ScalarField.random(grid, rng)
        b = spectral.ScalarField.random(grid, rng)
        rows.append((f"jacobian n={n}", roadmap,
                     per_call(lambda: spectral.jacobian(a, b), calls)))

    grid = spectral.SpectralGrid(64)
    params = dynamics.ModelParams(nu=1.0, alpha=0.1, grid=grid)
    spec = dynamics.ForcingSpec(s=4, lam=3.125)
    forcing = dynamics.kolmogorov_forcing(spec, params)
    state = dynamics.initial_state(params, seed=0)
    rows.append(("step_imex n=64 (table: simulate 17.4 s / 10k steps)", 1.74e-3,
                 per_call(lambda: dynamics.step_imex(state, 0.02, forcing), 200)))

    cap = stability.capital_lambda(SCAN["lambda"], SCAN["s"], SCAN["alpha"])
    prob = stability.RecurrenceProblem(s=8, t=3, r=0, capital_lambda=cap, alpha=0.1)
    used = stability.principal_sigma(prob).n_trunc_used
    rows.append((f"principal_sigma s=8 t=3 r=0 (n_trunc_used={used})", 28e-3,
                 per_call(lambda: stability.principal_sigma(prob), 10)))
    rows.append(("lambda0_threshold(8, 3, 0, 0.1, 0.3)", 0.92,
                 per_call(lambda: stability.lambda0_threshold(8, 3, 0, 0.1, 0.3), 1, 3)))

    print("| layer | ROADMAP | measured | ratio |")
    print("| --- | --- | --- | --- |")
    for what, roadmap, measured in rows:
        ratio = measured / roadmap
        flag = " (outside +-15%)" if abs(ratio - 1.0) > 0.15 else ""
        print(f"| {what} | {roadmap * 1e3:.3g} ms | {measured * 1e3:.3g} ms | "
              f"{ratio:.2f}{flag} |")

    tracer = spans.Tracer()
    spans.install(tracer)
    stability.lambda0_threshold(8, 3, 0, 0.1, 0.3)
    detail = tracer.summary(0, (0, 0))["thresholds"][0]
    print(f"\nlambda0_threshold(8, 3, 0, 0.1, 0.3): {detail['principal_sigma']} "
          f"principal_sigma calls, {detail['dense_eig']} dense eig calls "
          "(ROADMAP: 37 and 74)")

    print("\n| n | 2-D FFTs per jacobian | computed bytes per call | "
          "computed FFT flops per call |")
    print("| --- | --- | --- | --- |")
    for n in (64, 128, 256):
        ffts, nbytes = kernels.jacobian_counts(n)
        print(f"| {n} | {ffts} | {nbytes / 2**20:.2f} MiB | "
              f"{kernels.jacobian_fft_flops(n) / 1e6:.2f} M |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
