"""Benchmark of the mla laboratory: one workload, closed loop, one client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the program is imported from
``src/``).  Each run is a fresh interpreter executing the workload's
configs through ``mla.cli.parse_config`` and ``mla.cli.run_command`` with
``threads=1`` and ``OPENBLAS_NUM_THREADS=1``; the next run starts when the
previous one has ended, while the next one is expected to end within
``--seconds``.  Every run's
outputs are checked against ``perfbench/reference``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics as
medians over runs; every run sets up afresh, so ``setup_s`` is a median
over several set-ups too.  With ``--trace 1`` runs alternate untraced and
traced, and the line reports the per-layer metrics of the traced runs
(medians), with ``trace.overhead_s`` = traced minus untraced ``wall_s``.
Details, run metadata and any failed checks go to the lines before it.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, reference_key, work_done  # noqa: E402

#: End-to-end metrics and units, as named in BENCHMARK.json.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "work_per_s": "1/s", "setup_s": "s"}
#: Every run, and the whole benchmark, must end well inside 180 s.
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MLA_THREADS")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               MLA_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    return env


def run_child(root: Path, spec: dict, timeout: float) -> dict:
    """Spawn one run and wait for it; killed after ``timeout`` seconds.

    Returns the child's JSON result (or None), its exit code, set-up time,
    CPU time and peak RSS from its own rusage.
    """
    spawned = _now()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                            cwd=root, env=child_env(root), stdout=subprocess.PIPE)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    ended = _now()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and Path(result["mla_file"]).resolve().parent != root / "src" / "mla":
        result = None  # imported some other installation of mla
    return {
        "result": result,
        "returncode": proc.returncode,
        "elapsed_s": ended - spawned,
        "setup_s": result["ready"] - spawned if result else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def metadata(root: Path, seed: int, child: dict | None) -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu_model = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"),
                    key=lambda d: read(f"{d}/level"))
    llc = (f"L{read(caches[-1] + '/level')} {read(caches[-1] + '/size')}"
           if caches else "unknown")
    src_lines = 0
    for path in sorted((root / "src" / "mla").glob("*.py")):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    env = child_env(root)
    return {
        "python": platform.python_version(),
        "numpy": child.get("numpy") if child else None,
        "scipy": child.get("scipy") if child else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc": llc,
        "threads_env": {k: env.get(k) for k in THREAD_VARS},
        "seed": seed,
        "src_lines": src_lines,
    }


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.configs = WORKLOADS[workload][0](seed)
        self.work_unit = WORKLOADS[workload][1]
        self.reference, self.tolerances = check.load_reference(
            root, workload, reference_key(workload, seed))
        self.work_dir = root / ".perfbench_out" / workload
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.started = _now()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (_now() - self.started)

    def run(self, k: int, traced: bool) -> dict:
        out = self.work_dir / f"run-{k}"
        spec = {"configs": self.configs, "out": str(out), "trace": traced}
        r = run_child(self.root, spec, self.remaining())
        cells = check.extract(self.configs, out)
        failures = check.compare(cells, self.reference, self.tolerances)
        if r["returncode"] != 0 or r["result"] is None:
            errors = r["result"]["errors"] if r["result"] else []
            failures.insert(0, f"run {k}: exit code {r['returncode']} {errors}")
        self.attempted += 1 + len(self.reference)
        self.failed += len(failures)
        self.failures += failures
        r["work"] = work_done(self.configs, cells)
        if traced and (out / "spans.json").exists():
            shutil.copy(out / "spans.json", self.work_dir / "spans.json")
        shutil.rmtree(out, ignore_errors=True)
        return r


def _median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def measure(bench: Bench, seconds: int, trace: bool) -> list[dict]:
    """Back-to-back runs while the next one is expected to end within
    ``seconds``; at least one run, or one untraced and one traced."""
    runs = []
    start = _now()
    while True:
        runs.append(bench.run(len(runs), traced=trace and len(runs) % 2 == 1))
        typical = statistics.median(r["elapsed_s"] for r in runs)
        done = _now() - start + typical > seconds and (not trace or len(runs) >= 2)
        if done or bench.remaining() < 2 * max(r["elapsed_s"] for r in runs):
            return runs


def end_to_end(runs: list[dict]) -> dict:
    done = [r for r in runs if r["result"]]
    return {
        "wall_s": _median(r["result"]["wall_s"] for r in done),
        "cpu_s": _median(r["cpu_s"] for r in done),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in done),
        "work_per_s": _median(r["work"] / r["result"]["wall_s"] for r in done),
        "setup_s": _median(r["setup_s"] for r in done),
    }


def per_layer(runs: list[dict]) -> tuple[dict, list]:
    traced = [r for r in runs if r["result"] and "trace" in r["result"]]
    untraced = [r for r in runs if r["result"] and "trace" not in r["result"]]
    if not traced:
        return {name: 0.0 for name in spans.LAYER_METRICS}, []
    metrics = spans.median_metrics([r["result"]["trace"]["metrics"] for r in traced])
    traced_wall = _median(r["result"]["wall_s"] for r in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - _median(
        (r["result"]["wall_s"] for r in untraced), default=traced_wall)
    return metrics, traced[-1]["result"]["trace"]["thresholds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "mla" / "cli.py").is_file():
        print(f"error: no mla source under {root}/src; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    runs = measure(bench, args.seconds, bool(args.trace))
    if all(r["result"] is None for r in runs):
        for f in bench.failures[:5]:
            print(f"error: {f}", file=sys.stderr)
        print("error: no run of the workload produced a result", file=sys.stderr)
        return 3

    n_runs = len(runs)
    print(f"workload {args.workload}, seed {args.seed}: {n_runs} run(s), "
          f"work = {bench.work_unit}")
    if args.trace:
        values, thresholds = per_layer(runs)
        units = spans.LAYER_METRICS
        n_traced = sum(1 for r in runs if r["result"] and "trace" in r["result"])
        for name, unit in units.items():
            print(f"  {args.workload}  {name:36s} {values[name]:>14.6g} {unit}"
                  f"  (median of {n_traced} traced run(s))")
        for t in thresholds:
            print(f"  {args.workload}  lambda0_threshold({t['args']}): "
                  f"{t['principal_sigma']} principal_sigma, {t['dense_eig']} dense eig, "
                  f"{t['s']:.3f} s")
    else:
        values = end_to_end(runs)
        units = END_TO_END
        for name, unit in units.items():
            print(f"  {args.workload}  {name:12s} {values[name]:>12.6g} {unit}"
                  f"  (median of {n_runs} runs)")
    print(f"  {args.workload}  failed_share {bench.failed} / {bench.attempted} = "
          f"{bench.failed / bench.attempted:.6g}")
    for f in bench.failures[:20]:
        print(f"  failed: {f}")
    child = next((r["result"] for r in runs if r["result"]), None)
    print("meta " + json.dumps(metadata(root, args.seed, child), sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
