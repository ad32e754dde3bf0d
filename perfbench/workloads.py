"""The benchmark's workloads: which configs one run executes, and how much
work it does.

The configs are fixed here rather than read from ``configs/`` so that an
edit to the shipped examples cannot change what the benchmark measures.
``threshold-scan`` and the bounds configs of ``squire-lift`` are copies of
``configs/stability_scan.json``, ``configs/bounds_grid.json`` and
``configs/two_sided_report.json`` as they were when the benchmark was
defined; ``kolmogorov-256`` is ``configs/simulate_kolmogorov.json`` moved
to n = 256.  Runs last one to four seconds, so that the median of a window
rests on many.
"""

from __future__ import annotations

#: The simulate workload takes its initial-condition seed from the benchmark
#: seed modulo this; reference outputs are committed for each such seed.
SIMULATE_SEEDS = 10

_KOLMOGOROV = {
    "command": "simulate", "nu": 1.0, "alpha": 0.1, "n_modes": 64, "s": 4,
    "lambda": 3.125, "dt": 0.02, "t_final": 200.0, "sample_every": 100,
}
_STABILITY_SCAN = {
    "command": "stability", "s": 8, "alpha": 0.1, "delta": 0.3, "lambda": 120.0,
}
_SQUIRE = {
    "command": "squire", "s": 20, "alpha": 0.05, "max_lifts": 20,
    "count_s": [100, 400, 1600],
}
_BOUNDS_GRID = {
    "command": "bounds", "g_values": [100.0, 1000.0, 10000.0, 100000.0, 1000000.0],
    "alpha_values": [0.0, 0.001, 0.01, 0.1],
}
_TWO_SIDED_REPORT = {
    "command": "report", "g_values": [1000.0, 100000.0, 10000000.0],
    "alpha_values": [0.0, 0.01], "gamma": 0.6,
}


def _kolmogorov_256(seed: int) -> list[dict]:
    # dt 0.02 fails the advective check near t = 1 at n = 256.
    return [dict(_KOLMOGOROV, n_modes=256, dt=0.005, t_final=0.125, sample_every=5,
                 seed=seed % SIMULATE_SEEDS)]


def _fixed(*docs):
    def configs(seed: int) -> list[dict]:
        return [dict(d) for d in docs]
    return configs


#: name -> (configs(seed), unit of work counted by ``work_done``)
WORKLOADS = {
    "kolmogorov-256": (_kolmogorov_256, "steps"),
    "threshold-scan": (_fixed(_STABILITY_SCAN), "thresholds"),
    "squire-lift": (_fixed(_SQUIRE, _BOUNDS_GRID, _TWO_SIDED_REPORT), "lifts"),
}


def reference_key(name: str, seed: int) -> str:
    """Which committed reference a run of ``name`` at ``seed`` is checked against."""
    configs, _ = WORKLOADS[name]
    first = configs(seed)[0]
    return str(first["seed"]) if first["command"] == "simulate" else "all"


def work_done(configs: list[dict], cells: dict) -> int:
    """Units of work a run completed: ETD2RK steps, Lambda_0 thresholds
    found, or modes lifted, read from the configs and the checked outputs."""
    total = 0
    for i, cfg in enumerate(configs):
        if cfg["command"] == "simulate":
            total += round(cfg["t_final"] / cfg["dt"])
        elif cfg["command"] == "stability":
            total += sum(1 for key, (_, value) in cells.items()
                         if key.startswith(f"{i}.sweep[") and key.endswith(".lambda0")
                         and value is not None)
        elif cfg["command"] == "squire":
            total += sum(1 for key, (_, value) in cells.items()
                         if key.startswith(f"{i}.triples[") and key.endswith(".residual")
                         and value is not None)
    return total
