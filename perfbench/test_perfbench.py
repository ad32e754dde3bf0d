"""Tests of the benchmark itself, kept out of the tier-1 suite:

    python3 -m pytest perfbench/test_perfbench.py

They spawn benchmark runs, so they take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, reference_key  # noqa: E402

#: The simulate workload's physics with fewer steps, to keep the tests short.
SHORT_T_FINAL = {"kolmogorov-256": 0.05}


def _run(configs, out: Path, traced: bool) -> dict:
    spec = {"configs": configs, "out": str(out), "trace": traced}
    r = run.run_child(ROOT, spec, timeout=170)
    assert r["returncode"] == 0 and r["result"] is not None, r
    return r["result"]


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    """Two traced runs of every workload (the simulate one shortened)."""
    pairs = {}
    for name, (configs_of, _) in WORKLOADS.items():
        configs = configs_of(3)
        if name in SHORT_T_FINAL:
            configs = [dict(c, t_final=SHORT_T_FINAL[name]) for c in configs]
        out = tmp_path_factory.mktemp(name)
        pairs[name] = (configs, out / "a",
                       [_run(configs, out / k, traced=True)["trace"] for k in "ab"])
    return pairs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_between_traced_runs(traced_pairs, name):
    configs, _, (a, b) = traced_pairs[name]
    for key in spans.REPEATABLE_COUNTS:
        assert a["metrics"][key] == b["metrics"][key], key
    assert set(a["metrics"]) | {"trace.wall_s", "trace.overhead_s"} == set(spans.LAYER_METRICS)
    steps = sum(round(c["t_final"] / c["dt"]) for c in configs if c["command"] == "simulate")
    assert a["metrics"]["dynamics.step_imex.calls"] == steps


def test_traced_run_reproduces_roadmap_lambda0_counts(traced_pairs):
    _, _, (a, _) = traced_pairs["threshold-scan"]
    by_args = {t["args"]: t for t in a["thresholds"]}
    t = by_args["s=8,t=3,r=0,alpha=0.1,delta=0.3"]
    assert (t["principal_sigma"], t["dense_eig"]) == (37, 74)


@pytest.mark.parametrize("name", ["threshold-scan", "squire-lift"])
def test_traced_outputs_pass_the_reference(traced_pairs, name):
    configs, out, _ = traced_pairs[name]
    reference, tol = check.load_reference(ROOT, name, reference_key(name, 3))
    assert check.compare(check.extract(configs, out), reference, tol) == []


@pytest.fixture(scope="module")
def scan_cells(tmp_path_factory):
    configs = WORKLOADS["threshold-scan"][0](0)
    out = tmp_path_factory.mktemp("scan")
    _run(configs, out, traced=False)
    return check.extract(configs, out)


def _perturbed(reference, key, value):
    ref = dict(reference)
    ref[key] = (ref[key][0], value)
    return ref


def test_reference_check_passes_and_catches_perturbations(scan_cells):
    reference, tol = check.load_reference(ROOT, "threshold-scan", "all")
    assert check.compare(scan_cells, reference, tol) == []
    lam0 = "0.sweep[3,0].lambda0"
    value = reference[lam0][1]
    # round-off inside the 1e-8 window passes; a shift outside it fails
    assert check.compare(scan_cells, _perturbed(reference, lam0, value * (1 + 1e-10)), tol) == []
    failures = check.compare(scan_cells, _perturbed(reference, lam0, value * (1 + 1e-6)), tol)
    assert len(failures) == 1 and failures[0].startswith(lam0)
    # counts must match exactly, and a blank reference cell must stay blank
    assert len(check.compare(scan_cells, _perturbed(reference, "0.summary.d_s", 5), tol)) == 1
    assert len(check.compare(scan_cells, _perturbed(reference, "0.sweep[1,0].lambda0", 1.0),
                             tol)) == 1


def test_missing_and_nan_outputs_fail(scan_cells):
    reference, tol = check.load_reference(ROOT, "threshold-scan", "all")
    cells = dict(scan_cells)
    del cells["0.sweep[4,1].sigma_hat"]
    cells["0.sweep[4,0].sigma_hat"] = ("sigma", float("nan"))
    cells["0.manifest.status"] = ("exact", "error")
    assert len(check.compare(cells, reference, tol)) == 3


def test_benchmark_json_names_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.LAYER_METRICS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "threshold-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
