"""CLI tests: config validation (all errors at once, round trip),
artifact emission with manifest hashes, cross-module consistency of the
stability sweep, stationary-run flatness, determinism, plot files, and
exit codes."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mla
from mla import NumericalError, bounds, cli, dynamics, spectral, squire, stability
from mla.cli import (
    ConfigError,
    ExperimentConfig,
    emit_plot_data,
    parse_config,
    run_command,
    serialize_config,
)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


MINIMAL_SIMULATE = {
    "command": "simulate",
    "nu": 1.0, "s": 1, "lambda": 2.0, "dt": 0.05, "t_final": 1.0,
}


# ---------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------

def test_parse_minimal_simulate_fills_defaults():
    cfg = parse_config(json.dumps(MINIMAL_SIMULATE))
    assert cfg.command == "simulate"
    assert cfg.seed == 0
    assert cfg.parameters["n_modes"] == 64
    assert cfg.parameters["sample_every"] == 10
    assert cfg.parameters["dealias_fraction"] == "2/3"


def test_parse_rejects_negative_nu_by_name():
    doc = dict(MINIMAL_SIMULATE, nu=-1.0)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any(e.startswith("nu:") and "> 0" in e for e in err.value.errors)


def test_parse_collects_all_errors():
    doc = dict(MINIMAL_SIMULATE, nu=-1.0, dt=-0.1, bogus=3)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    msgs = err.value.errors
    assert len(msgs) == 3
    fields = {m.split(":")[0] for m in msgs}
    assert fields == {"nu", "dt", "bogus"}


def test_parse_syntax_error_has_position():
    with pytest.raises(ConfigError) as err:
        parse_config('{"command": "simulate",}')
    assert "line 1" in err.value.errors[0]


def test_parse_missing_required():
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"command": "stability", "s": 4}))
    assert any(e.startswith("delta:") for e in err.value.errors)
    assert any(e.startswith("lambda:") for e in err.value.errors)


def test_parse_rejects_negative_seed():
    # numpy's generator rejects it too, which made the run exit 3
    with pytest.raises(ConfigError, match="seed: must be a nonnegative integer"):
        parse_config(json.dumps(dict(MINIMAL_SIMULATE, seed=-1)))


@pytest.mark.parametrize("doc,error", [
    ({"command": "nope"}, "command: must be one of simulate, stability, bounds, squire, "
                          "report, got 'nope'"),
    ({"s": 4}, "command: must be one of simulate, stability, bounds, squire, report, "
               "got None"),
    (dict(MINIMAL_SIMULATE, output_dir=3), "output_dir: must be a string"),
    (dict(MINIMAL_SIMULATE, dealias_fraction="abc"),
     "dealias_fraction: must be a fraction in (0, 1] (got 'abc')"),
    (dict(MINIMAL_SIMULATE, dealias_fraction="1/0"),
     "dealias_fraction: must be a fraction in (0, 1] (got '1/0')"),
], ids=["unknown-command", "missing-command", "output_dir", "fraction-abc", "fraction-1/0"])
def test_parse_error_message_is_pinned(doc, error):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == [error]


# A valid document per command: generated overrides of its keys reach the
# cross-field checks as well as the per-field ones.
_VALID = {
    "simulate": MINIMAL_SIMULATE,
    "stability": {"command": "stability", "s": 4, "delta": 0.3, "lambda": 1.0},
    "bounds": {"command": "bounds", "g_values": [1e4], "alpha_values": [0.0]},
    "report": {"command": "report", "g_values": [1e4], "alpha_values": [0.0]},
    "squire": {"command": "squire", "s": 6},
}
_HUGE = 10**400  # an even integer past the float range
_NUMBERS = st.integers() | st.floats() | st.sampled_from([_HUGE, -_HUGE])
_SCALARS = (_NUMBERS | st.none() | st.booleans() | st.text(max_size=4)
            | st.sampled_from(["2/3", "1/0"]))
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3) | st.lists(_NUMBERS, max_size=3)
_DOCUMENTS = _VALUES | st.sampled_from(sorted(_VALID)).flatmap(
    lambda command: st.dictionaries(
        st.sampled_from(sorted(cli.DEFAULTS[command]) + ["seed", "bogus"]),
        _VALUES, max_size=3,
    ).map(lambda overrides: dict(_VALID[command], **overrides))
)


@settings(max_examples=400, deadline=None)
@given(_DOCUMENTS)
@example(dict(MINIMAL_SIMULATE, n_modes=_HUGE))
@example(dict(_VALID["bounds"], g_values=[_HUGE]))
@example(dict(_VALID["squire"], c2=_HUGE))
# delta^2 underflows to 0 in the Lambda_0 window: was a ZeroDivisionError
@example({"command": "stability", "s": 8, "alpha": 0.1,
          "delta": 1.9448369489134733e-188, "lambda": 120.0})
@example({"command": "squire", "s": 6, "delta_star": 1e-200})
# nu**2 of the forcing amplitude overflows: was an OverflowError traceback
@example(dict(MINIMAL_SIMULATE, nu=1e200))
@example(dict(MINIMAL_SIMULATE, s=2, start_from_stationary=True, **{"lambda": 1e308}))
# alpha^3 of the 3-D bound underflows: every lift ran, then exit 3
@example({"command": "squire", "s": 6, "alpha": 1e-120, "max_lifts": 1,
          "count_s": [50]})
@example({"command": "report", "g_values": [100.0], "alpha_values": [1e154]})
def test_parse_config_returns_or_raises_config_error(doc):
    try:
        parse_config(json.dumps(doc))
    except ConfigError:
        pass


def test_config_roundtrip_semantic_identity():
    doc = dict(MINIMAL_SIMULATE, seed=7, alpha=0.1, output_dir="x")
    cfg = parse_config(json.dumps(doc))
    again = parse_config(serialize_config(cfg))
    assert again == cfg


# ---------------------------------------------------------------------
# commands + manifest
# ---------------------------------------------------------------------

def test_bounds_grid_rows_and_manifest(tmp_path):
    doc = {
        "command": "bounds",
        "g_values": [1e3, 1e5, 1e7],
        "alpha_values": [0.0, 0.01, 0.1],
        "output_dir": str(tmp_path / "out"),
    }
    manifest = run_command(parse_config(json.dumps(doc)))
    _, rows = read_csv(tmp_path / "out" / "bounds.csv")
    assert len(rows) == 9
    for row in rows:
        assert float(row["lower"]) <= float(row["upper1"])
        assert float(row["lower"]) <= float(row["upper2"])
    # manifest lists every artifact with a correct hash
    listed = {o["path"]: o["sha256"] for o in manifest.outputs}
    for name in ("bounds.csv", "summary.json", "bounds_vs_g.csv",
                 "bounds_vs_g.svg"):
        assert name in listed
        digest = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        assert listed[name] == digest
    saved = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert saved["status"] == "ok"
    assert saved["tolerances"]["eigen_residual_tol"] == 1e-8
    # each reported tolerance is its one constant in mla, which the module
    # that enforces it imports rather than redefines
    owners = {
        "sigma_real_tol": ("SIGMA_REAL_TOL", stability),
        "decay_tail_tol": ("DECAY_TAIL_TOL", stability),
        "eigen_residual_tol": ("RESIDUAL_TOL", stability),
        "lambda0_rel_width": ("LAMBDA0_REL_WIDTH", stability),
        "lift_residual_tol": ("LIFT_RESIDUAL_TOL", squire),
        "field_mean_tol": ("_MEAN_TOL", spectral),
    }
    assert set(saved["tolerances"]) == set(owners)
    for key, (name, module) in owners.items():
        assert saved["tolerances"][key] == getattr(mla, name)
        assert getattr(module, name) is getattr(mla, name)


def test_manifest_lists_only_files_the_run_wrote(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "stale.txt").write_text("left by an earlier run\n")
    doc = {"command": "bounds", "g_values": [1e4], "alpha_values": [0.0]}
    manifest = run_command(parse_config(json.dumps(doc)), out_dir=out)
    listed = sorted(o["path"] for o in manifest.outputs)
    assert listed == ["bounds.csv", "bounds_vs_g.csv", "bounds_vs_g.svg",
                      "summary.json"]
    saved = json.loads((out / "manifest.json").read_text())
    assert "stale.txt" not in {o["path"] for o in saved["outputs"]}


def _one_row_then_failure():
    yield (1.0, 2.0)
    raise RuntimeError("row source failed")


def test_failed_writes_leave_no_file(tmp_path, monkeypatch):
    # each writer streams into a temp file and renames it only on success
    with pytest.raises(RuntimeError):
        cli._write_csv(tmp_path / "rows.csv", "x,y", _one_row_then_failure())
    with pytest.raises(TypeError):
        cli._write_json(tmp_path / "doc.json", {"a": 1.0, "z": object()})
    with pytest.raises(RuntimeError):
        with spectral._atomic_open(tmp_path / "plot.svg") as fh:
            fh.write("<svg")
            raise RuntimeError("plot failed")

    columns = spectral._field_json_chunks

    def fail_after_first_column(f):
        chunks = columns(f)
        yield next(chunks)  # the header
        first = next(chunks)
        assert first.startswith("[1, 0, ")  # the modes of column k2 = 0
        yield first
        assert (tmp_path / "field.json.tmp").exists()
        raise RuntimeError("encoding failed")

    field = spectral.ScalarField.random(spectral.SpectralGrid(16),
                                        np.random.default_rng(0))
    monkeypatch.setattr(spectral, "_field_json_chunks", fail_after_first_column)
    with pytest.raises(RuntimeError, match="encoding failed"):
        spectral.save_field(field, tmp_path / "field.json")
    assert list(tmp_path.iterdir()) == []


def test_failed_overwrite_keeps_the_old_file(tmp_path):
    path = cli._write_csv(tmp_path / "rows.csv", "x,y", [(1.0, 2.0)])
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        cli._write_csv(path, "x,y", _one_row_then_failure())
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_stability_sweep_matches_lattice_count(tmp_path):
    doc = {
        "command": "stability",
        "s": 6, "delta": 0.5, "lambda": 40.0,
        "compute_lambda0": True,
        "output_dir": str(tmp_path / "out"),
    }
    run_command(parse_config(json.dumps(doc)))
    _, rows = read_csv(tmp_path / "out" / "sweep.csv")
    in_region = [r for r in rows if r["in_region"] == "true"]
    assert len(in_region) == 1
    assert (in_region[0]["t"], in_region[0]["r"]) == ("3", "0")
    assert in_region[0]["lambda0"] != ""
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["d_s"] == 1
    assert summary["lower_bound_2d"]["value"] > 0


def test_sigma_grid_plot_crosses_zero_at_lambda0(tmp_path):
    doc = {
        "command": "stability",
        "s": 4, "delta": 0.3, "lambda": 40.0,
        "output_dir": str(tmp_path / "out"),
    }
    run_command(parse_config(json.dumps(doc)))
    _, sweep = read_csv(tmp_path / "out" / "sweep.csv")
    lam0 = next(float(r["lambda0"]) for r in sweep if r["in_region"] == "true")
    _, grid = read_csv(tmp_path / "out" / "sigma_vs_lambda.csv")
    caps = [float(r["capital_lambda"]) for r in grid]
    sigs = [float(r["sigma_hat"]) for r in grid]
    crossings = [
        (caps[i], caps[i + 1]) for i in range(len(sigs) - 1)
        if sigs[i] < 0 <= sigs[i + 1]
    ]
    assert len(crossings) == 1
    assert crossings[0][0] <= lam0 <= crossings[0][1]


def test_simulate_stationary_start_is_flat(tmp_path):
    doc = {
        "command": "simulate",
        "nu": 1.0, "alpha": 0.1, "n_modes": 32, "s": 2, "lambda": 2.0,
        "dt": 0.01, "t_final": 1.0, "sample_every": 10,
        "init_amplitude": 0.0, "start_from_stationary": True,
        "output_dir": str(tmp_path / "out"),
    }
    run_command(parse_config(json.dumps(doc)))
    _, rows = read_csv(tmp_path / "out" / "diagnostics.csv")
    phis = [float(r["phi_l2"]) for r in rows]
    assert max(abs(p - phis[0]) for p in phis) < 1e-10 * phis[0]
    report = json.loads((tmp_path / "out" / "bounds_report.json").read_text())
    assert report["ok"] is True


@pytest.mark.parametrize("stationary", [False, True])
def test_simulate_frees_the_initial_coefficients_after_one_step(monkeypatch, tmp_path,
                                                                 stationary):
    # only run holds the initial state, and it keeps just the array it steps
    first, alive = [], []
    step = dynamics._step

    def watched(psi, *args):
        if first:
            alive.append(first[0]() is not None)
        else:
            first.append(weakref.ref(psi))
        return step(psi, *args)

    monkeypatch.setattr(dynamics, "_step", watched)
    doc = dict(MINIMAL_SIMULATE, t_final=0.15, start_from_stationary=stationary,
               output_dir=str(tmp_path / "out"))
    run_command(parse_config(json.dumps(doc)))
    assert alive == [False, False]

def test_simulate_deterministic_outputs(tmp_path):
    doc = {
        "command": "simulate",
        "nu": 0.5, "n_modes": 32, "s": 2, "lambda": 3.0,
        "dt": 0.02, "t_final": 0.5, "sample_every": 5, "seed": 42,
    }
    for sub in ("a", "b"):
        cfg = parse_config(json.dumps(dict(doc, output_dir=str(tmp_path / sub))))
        run_command(cfg)
    a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert a == b
    fa = (tmp_path / "a" / "final_field.json").read_bytes()
    fb = (tmp_path / "b" / "final_field.json").read_bytes()
    assert fa == fb


def test_squire_command(tmp_path):
    doc = {
        "command": "squire",
        "s": 6, "max_lifts": 3, "count_s": [20, 40],
        "output_dir": str(tmp_path / "out"),
    }
    run_command(parse_config(json.dumps(doc)))
    _, rows = read_csv(tmp_path / "out" / "triples.csv")
    assert len(rows) == 3
    keys = [(int(r["a"]), int(r["b"]), int(r["r"])) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert float(r["sigma_hat"]) > 0
        assert float(r["residual"]) < 1e-8
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["c5_fullwindow"] == pytest.approx(2 * summary["c5_halfwindow"])
    assert "20" in summary["count"]


@pytest.mark.parametrize("doc,lifted,stable", [
    # every hat mode of this amplitude is stable: no row is lifted
    ({"command": "squire", "s": 6, "alpha": 0.05, "lambda": 50.0,
      "max_lifts": 10, "count_s": [50]}, 0, 5),
    ({"command": "squire", "s": 6, "max_lifts": 3, "count_s": [20]}, 3, 0),
], ids=["all-stable", "all-lifted"])
def test_squire_summary_counts_lifts_not_rows(tmp_path, doc, lifted, stable):
    run_command(parse_config(json.dumps(doc)), out_dir=tmp_path)
    _, rows = read_csv(tmp_path / "triples.csv")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["lifted"], summary["stable"]) == (lifted, stable)
    assert sum(r["residual"] != "" for r in rows) == lifted
    assert sum(float(r["sigma_hat"]) <= 0 for r in rows) == stable


def _skipped_matches_blank_rows(out, column="sigma_hat"):
    _, rows = read_csv(out / "sweep.csv")
    blank = sorted((int(r["t"]), int(r["r"])) for r in rows
                   if r[column] == "" and (column == "sigma_hat" or r["in_region"] == "true"))
    skipped = json.loads((out / "summary.json").read_text())["skipped"]
    assert sorted((e["t"], e["r"]) for e in skipped if e["column"] == column
                  and "capital_lambda" not in e) == blank
    assert all(e["error"] for e in skipped)
    return blank


def test_stability_blank_sigma_rows_are_explained(tmp_path):
    doc = {"command": "stability", "s": 6, "delta": 0.5, "lambda": 1e308,
           "output_dir": str(tmp_path / "huge")}
    run_command(parse_config(json.dumps(doc)))
    assert len(_skipped_matches_blank_rows(tmp_path / "huge")) > 0
    shipped = Path(__file__).parents[1] / "configs" / "stability_scan.json"
    run_command(parse_config(shipped.read_text()), out_dir=tmp_path / "shipped")
    assert _skipped_matches_blank_rows(tmp_path / "shipped") == []


def test_stability_at_tiny_lambda_solves_every_chain(tmp_path):
    # at Lambda ~ 7e-302 each chain is diagonal to rounding and its principal
    # sigma_hat is -(t^2 + r^2).  The shift of inverse iteration was an exact
    # eigenvalue there, so the solve overflowed (a NaN and a warning) and
    # each row was blank, blamed on "no real decaying eigenvalue".
    doc = {"command": "stability", "s": 8, "alpha": 0.1, "delta": 0.3,
           "lambda": 1e-300, "output_dir": str(tmp_path / "out")}
    run_command(parse_config(json.dumps(doc)))
    _, rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert [float(r["sigma_hat"]) for r in rows] == [
        pytest.approx(-(int(r["t"]) ** 2 + int(r["r"]) ** 2), rel=1e-12) for r in rows]
    assert _skipped_matches_blank_rows(tmp_path / "out") == []


def test_failed_lambda0_and_sigma_grid_cells_are_blank_and_explained(tmp_path,
                                                                     monkeypatch):
    # a failed Lambda_0 or sigma_vs_lambda solve blanks its cell, not the run
    threshold, principal = stability.lambda0_threshold, stability.principal_sigma

    def failing_threshold(s, t, r, alpha, delta):
        if r != 0:  # solved once for the mirrored pair (4, +-1)
            raise NumericalError("no Lambda_0 here")
        return threshold(s, t, r, alpha, delta)

    def failing_sigma(prob):  # the grid's top caps; the sweep stays below 20
        if prob.capital_lambda > 100.0:
            raise NumericalError("no sigma_hat here")
        return principal(prob)

    monkeypatch.setattr(stability, "lambda0_threshold", failing_threshold)
    monkeypatch.setattr(stability, "principal_sigma", failing_sigma)
    shipped = Path(__file__).parents[1] / "configs" / "stability_scan.json"
    run_command(parse_config(shipped.read_text()), out_dir=tmp_path)
    assert _skipped_matches_blank_rows(tmp_path) == []
    assert _skipped_matches_blank_rows(tmp_path, "lambda0") == [(4, -1), (4, 1)]
    _, grid = read_csv(tmp_path / "sigma_vs_lambda.csv")
    blank = [float(r["capital_lambda"]) for r in grid if r["sigma_hat"] == ""]
    skipped = json.loads((tmp_path / "summary.json").read_text())["skipped"]
    assert blank and [e["capital_lambda"] for e in skipped
                      if "capital_lambda" in e] == blank
    assert all(e["error"] == "NumericalError: no sigma_hat here"
               for e in skipped if "capital_lambda" in e)


def test_shipped_scan_solve_counts(tmp_path, monkeypatch):
    # 15 of the 25 box chains are solved, as row (t, -r) repeats row (t, r);
    # the 3 in the region add a mu chain and two sign checks each, and
    # sigma_vs_lambda 20 chains: each settles after one dense solve, at the
    # start truncation 16, and a warm-started confirmation at 32
    sizes, solves = [], []
    eigvals, gtsv = np.linalg.eigvals, stability._gtsv
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda m: sizes.append(len(m)) or eigvals(m))
    monkeypatch.setattr(stability, "_gtsv",
                        lambda dl, d, du, b: solves.append(len(d)) or gtsv(dl, d, du, b))
    shipped = Path(__file__).parents[1] / "configs" / "stability_scan.json"
    run_command(parse_config(shipped.read_text()), out_dir=tmp_path)
    assert sizes == [33] * 44
    assert sorted(solves) == [33] * 91 + [65] * 44


# name -> (shipped config, overrides): every shipped config, and simulate cut
# short (its 10,000 steps take seconds) at n = 64 and at kolmogorov-256's n = 256;
# squire at the squire-lift workload's s = 20 and at alpha = 0 (b = 0 triples,
# r != 0), and a stability scan at alpha = 0 with two singular-chain error rows
_HASHED_CONFIGS = {
    "stability_scan": ("stability_scan", {}),
    "bounds_grid": ("bounds_grid", {}),
    "two_sided_report": ("two_sided_report", {}),
    "squire_study": ("squire_study", {}),
    "squire_s20": ("squire_study", {"s": 20, "max_lifts": 20, "count_s": [100, 400, 1600]}),
    "squire_alpha0": ("squire_study", {"s": 12, "alpha": 0.0, "max_lifts": 60, "count_s": [50]}),
    "stability_alpha0": ("stability_scan", {"s": 10, "alpha": 0.0, "delta": 0.25,
                                            "lambda": 300.0}),
    "simulate_t2": ("simulate_kolmogorov", {"t_final": 2.0}),
    "simulate_n256": ("simulate_kolmogorov", {"n_modes": 256, "dt": 0.005, "t_final": 0.125,
                                              "sample_every": 5, "seed": 0}),
}
SHIPPED_SHA256 = Path(__file__).parent / "data" / "shipped_sha256.json"


def shipped_artifact_hashes(out_root) -> dict:
    """{config: {artifact: sha256}} of the shipped configs run into
    out_root, as each manifest.json lists them (itself left out).

    Regenerate the reference (only where outputs are meant to change) with
    ``PYTHONPATH=src python tests/test_cli.py <scratch dir>``."""
    configs = Path(__file__).parents[1] / "configs"
    hashes = {}
    for name, (shipped, overrides) in _HASHED_CONFIGS.items():
        out = Path(out_root) / name
        doc = json.loads((configs / f"{shipped}.json").read_text()) | overrides
        run_command(parse_config(json.dumps(doc)), out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text())
        hashes[name] = {o["path"]: o["sha256"] for o in manifest["outputs"]}
    return hashes


def test_shipped_artifacts_are_byte_identical(tmp_path):
    assert shipped_artifact_hashes(tmp_path) == json.loads(SHIPPED_SHA256.read_text())


def test_shipped_runs_call_no_field_wrapper(tmp_path, monkeypatch):
    # spectral.jacobian and dynamics.step_imex wrap the run kernels; only
    # perfbench/baseline.py calls them, and no shipped run does
    def off_the_run_path(*args, **kw):
        raise AssertionError("a shipped run called a field wrapper")

    for owner, name in ((spectral, "jacobian"), (dynamics, "step_imex")):
        monkeypatch.setattr(owner, name, off_the_run_path)
    want = json.loads(SHIPPED_SHA256.read_text())
    for name in ("stability_scan", "squire_study", "bounds_grid", "two_sided_report",
                 "simulate_kolmogorov"):
        doc = json.loads((Path(__file__).parents[1] / "configs" / f"{name}.json").read_text())
        if doc["command"] == "simulate":  # 200 steps, not the shipped 10,000
            doc["t_final"] = 200 * doc["dt"]
        manifest = run_command(parse_config(json.dumps(doc)), out_dir=tmp_path / name)
        assert manifest.status == "ok"
        if name in want:
            assert {o["path"]: o["sha256"] for o in manifest.outputs} == want[name]


def test_report_command(tmp_path):
    doc = {
        "command": "report",
        "g_values": [1e4], "alpha_values": [0.01], "gamma": 0.7,
        "output_dir": str(tmp_path / "out"),
    }
    run_command(parse_config(json.dumps(doc)))
    _, rows = read_csv(tmp_path / "out" / "two_sided.csv")
    assert len(rows) == 1
    assert float(rows[0]["ratio"]) >= 1.0


# ---------------------------------------------------------------------
# plots
# ---------------------------------------------------------------------

def test_emit_plot_data_empty(tmp_path):
    files = emit_plot_data([], "sigma_vs_lambda", tmp_path)
    csv_path, svg_path = files
    assert csv_path.read_text().strip() == "capital_lambda,sigma_hat"
    assert "<svg" in svg_path.read_text()


def test_emit_plot_data_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError):
        emit_plot_data([], "nope", tmp_path)


def test_emit_plot_data_leaves_non_finite_points_out_of_the_svg(tmp_path):
    rows = [{"capital_lambda": x, "sigma_hat": y}
            for x, y in ((1.0, -1.0), (math.nan, 0.5), (2.0, math.nan), (3.0, 1.0))]
    _, svg_path = emit_plot_data(rows, "sigma_vs_lambda", tmp_path)
    svg = svg_path.read_text()
    assert re.search(r"\b(inf|nan)\b", svg) is None
    assert len(re.search(r'points="([^"]*)"', svg).group(1).split()) == 2


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_infinite_csv_cell_is_a_numerical_error(tmp_path, value):
    # NaN is a blank cell; an infinite one names its file and column
    path = tmp_path / "t.csv"
    with pytest.raises(NumericalError, match=f"t.csv: column b holds {value}, "):
        cli._write_csv(path, "a,b", [(1.0, math.nan), (2.0, value)])
    assert list(tmp_path.iterdir()) == []
    cli._write_csv(path, "a,b", [(1.0, math.nan)])
    assert path.read_text() == "a,b\n1.0,\n"


def test_non_finite_json_number_is_refused(tmp_path):
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_json(tmp_path / "t.json", {"x": math.inf})
    assert list(tmp_path.iterdir()) == []


def test_stability_grashof_overflow_is_null_with_a_note(tmp_path):
    # G = lambda s^2 overflows to inf; summary.json held Infinity, not JSON
    doc = {"command": "stability", "s": 2, "delta": 0.5, "lambda": 1e308,
           "compute_lambda0": False}
    run_command(parse_config(json.dumps(doc)), out_dir=tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["grashof"] is None
    assert summary["lower_bound_2d"] == {"note": "G = lambda s^2 overflows a float"}


def test_bounds_plot_lower_below_upper(tmp_path):
    doc = {
        "command": "bounds",
        "g_values": [1e2, 1e4, 1e6], "alpha_values": [0.0, 0.05],
        "output_dir": str(tmp_path / "out"),
    }
    run_command(parse_config(json.dumps(doc)))
    _, rows = read_csv(tmp_path / "out" / "bounds_vs_g.csv")
    for r in rows:
        if r["upper1"]:
            assert float(r["lower"]) <= float(r["upper1"])
        if r["upper2"]:
            assert float(r["lower"]) <= float(r["upper2"])


# ---------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------

def test_main_success(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "bounds", "g_values": [1e4], "alpha_values": [0.0],
        "output_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["bounds", "--config", str(cfg)]) == 0


def test_main_validation_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(MINIMAL_SIMULATE, nu=-1.0)))
    assert cli.main(["simulate", "--config", str(cfg)]) == 2


def test_main_command_mismatch(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MINIMAL_SIMULATE))
    assert cli.main(["bounds", "--config", str(cfg)]) == 2


def test_main_numerical_failure(tmp_path):
    # dt far beyond the advective limit trips the CFL guard -> exit 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "simulate",
        "nu": 1e-4, "n_modes": 32, "s": 2, "lambda": 500.0,
        "dt": 5.0, "t_final": 50.0, "init_amplitude": 10.0,
        "start_from_stationary": True,
        "output_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["simulate", "--config", str(cfg)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"


@pytest.mark.parametrize("env,flags", [
    ("abc", []), ("1.5", []), ("0", []), ("-2", []),
    (None, ["--threads", "0"]), ("4", ["--threads", "-1"]),
])
def test_main_bad_threads_is_a_validation_error(tmp_path, capsys, monkeypatch,
                                                env, flags):
    # There is no thread count to set: --threads is an unknown argument, and
    # MLA_THREADS is not read, so even a malformed value changes nothing.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "bounds", "g_values": [1e4], "alpha_values": [0.0],
    }))
    args = ["bounds", "--config", str(cfg)]
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.delenv("MLA_THREADS", raising=False)
    assert cli.main(args + ["--out", str(a)]) == 0
    capsys.readouterr()
    if env is not None:
        monkeypatch.setenv("MLA_THREADS", env)
    if flags:
        with pytest.raises(SystemExit) as exc:
            cli.main(args + ["--out", str(b)] + flags)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
        assert not b.exists()
        return
    assert cli.main(args + ["--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name != "manifest.json":  # differs in its timestamps
            assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_main_unusable_out_is_a_validation_error(tmp_path, capsys, sub):
    # --out names an existing file, or a directory under one
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "bounds", "g_values": [1e4], "alpha_values": [0.0],
    }))
    assert cli.main(["bounds", "--config", str(cfg), "--out", str(taken / sub)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("doc", [
    # forcing wavenumber at or past the dealias cutoff 32/3
    dict(MINIMAL_SIMULATE, n_modes=32, s=30),
    dict(MINIMAL_SIMULATE, n_modes=32, s=11),
    {"command": "bounds", "g_values": [0.0], "alpha_values": [0.0]},
    {"command": "bounds", "g_values": [1e4], "alpha_values": [-0.1]},
    {"command": "report", "g_values": [-1e3], "alpha_values": [0.0]},
    {"command": "report", "g_values": [1e4], "alpha_values": [0.0, -0.5]},
    # window corners outside the instability region
    {"command": "squire", "s": 6, "c2": 0.4},
    {"command": "squire", "s": 6, "count_s": [0]},
    {"command": "squire", "s": 6, "count_s": [1.5]},
    # alpha^2 s^2 of the rescaled amplitude overflows a float
    {"command": "stability", "s": 4, "alpha": 1e200, "delta": 0.3,
     "lambda": 1.0},
    # alpha^2 s^2 turns to inf without raising: Lambda is 0, the driver inf
    {"command": "stability", "s": 4, "alpha": 1e154, "delta": 0.3,
     "lambda": 1.0},
    {"command": "squire", "s": 2, "alpha": 1e154, "lambda": 1.0,
     "max_lifts": 2, "count_s": [3]},
    {"command": "squire", "s": 2, "alpha": 1e154, "max_lifts": 2,
     "count_s": [3]},
], ids=["simulate-s30", "simulate-s11", "bounds-g0", "bounds-alpha",
        "report-g", "report-alpha", "squire-c2", "squire-count0",
        "squire-count1.5", "stability-alpha1e200", "stability-alpha1e154",
        "squire-alpha1e154-lambda", "squire-alpha1e154-driver"])
def test_main_cross_field_config_error(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(doc, output_dir=str(tmp_path / "out"))))
    assert cli.main([doc["command"], "--config", str(cfg)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc,field", [
    # (1 + alpha^2 s^2)^2 of the default driver amplitude overflows a float
    ({"s": 2, "alpha": 1e120, "max_lifts": 0, "count_s": [3]}, "too large"),
    ({"s": 2, "alpha": 1e200, "max_lifts": 0, "count_s": [3]}, "too large"),
    # and so does alpha^2 s^2 of a given amplitude
    ({"s": 2, "alpha": 1e200, "lambda": 1.0, "max_lifts": 0, "count_s": [30]},
     "too large"),
    ({"s": 2, "alpha": 1e200, "lambda": 1.0, "max_lifts": 2, "count_s": [30]},
     "too large"),
    # no triples at s = 1, so the default c6 would be 0
    ({"s": 6, "alpha": 0.1, "max_lifts": 0, "count_s": [1]}, "count_s:"),
    # the 3-D bound overflows: each exited 0 with Infinity in summary.json
    ({"s": 2, "alpha": 1e-105, "max_lifts": 0, "count_s": [30]},
     "alpha: raw_count = c6 / alpha^3 overflows a float"),
    ({"s": 2, "alpha": 1e-100, "gamma": 0.01, "c6": 1e20, "max_lifts": 0, "count_s": [30]},
     "alpha: value = c6 G^gamma / alpha^(3(1-gamma)) overflows a float"),
    # only delta_star moves the window's corners out of the region: the error
    # named c2/c3/c4 alone
    ({"s": 6, "delta_star": 0.5, "max_lifts": 0, "count_s": [10]},
     "config error: c2/c3/c4/delta_star: rectangle corner (0.46, -0.105) falls outside "
     "the region at delta=0.5\n"),
], ids=["alpha1e120", "alpha1e200", "alpha1e200-lambda", "alpha1e200-lambda-lifts",
        "c6-default-0", "bound3d-raw-count", "bound3d-value", "window-delta_star"])
def test_main_squire_config_at_fault_is_one_error_line(tmp_path, capsys, doc,
                                                        field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(doc, command="squire",
                                   output_dir=str(tmp_path / "out"))))
    assert cli.main(["squire", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert field in err
    assert not (tmp_path / "out").exists()


_NON_FINITE_DOCS = {
    "scalar": dict(MINIMAL_SIMULATE, t_final="@"),
    "list": {"command": "bounds", "g_values": ["@", 100.0], "alpha_values": [0.0]},
}


@pytest.mark.parametrize("where", ["scalar", "list"])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_main_non_finite_number_is_one_config_error(tmp_path, capsys, token, where):
    # json reads these tokens as floats, and 1e400 as inf
    doc = dict(_NON_FINITE_DOCS[where], output_dir=str(tmp_path / "out"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc).replace('"@"', token))
    assert cli.main([doc["command"], "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"config error: non-finite number {token}: every number must be finite\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc,field", [
    ({"command": "stability", "s": 8, "alpha": 0.1,
      "delta": 1.9448369489134733e-188, "lambda": 120.0}, "delta"),
    ({"command": "squire", "s": 6, "delta_star": 1e-200}, "delta_star"),
    # delta^2 is subnormal and 1/delta^2 overflows to inf
    ({"command": "stability", "s": 8, "delta": 1e-160, "lambda": 120.0}, "delta"),
    ({"command": "squire", "s": 6, "delta_star": 1e-160}, "delta_star"),
    (dict(MINIMAL_SIMULATE, t_final=1e300, dt=0.01), "t_final"),
    (dict(MINIMAL_SIMULATE, t_final=1e300, dt=1e-300), "t_final"),
    # each run ended in "internal error: ValueError: array is too big" or
    # "Maximum allowed dimension exceeded"; at 10**200 the Helmholtz check
    # blamed alpha = 0 as well
    *((dict(MINIMAL_SIMULATE, n_modes=n), "n_modes") for n in (2**40, 2**62, 10**30, 10**200)),
], ids=["delta", "delta_star", "delta_inf", "delta_star_inf", "steps", "steps_inf",
        "n_modes-2^40", "n_modes-2^62", "n_modes-10^30", "n_modes-10^200"])
def test_main_underflow_and_step_count_are_one_config_error(tmp_path, capsys,
                                                            doc, field):
    # parse_config only: none of these runs is started
    doc = dict(doc, output_dir=str(tmp_path / "out"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main([doc["command"], "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_half_spectrum_ceiling_is_inclusive():
    # parse only: at the ceiling the plan is built, and makes no array
    n = 2 * math.isqrt(sys.maxsize // 32)  # the largest even n within it
    assert n * (n // 2 + 1) * 16 <= sys.maxsize < (n + 2) * (n // 2 + 2) * 16
    assert parse_config(json.dumps(dict(MINIMAL_SIMULATE, n_modes=n))).plan["grid"].n_modes == n
    with pytest.raises(ConfigError, match="n_modes: one complex half-spectrum"):
        parse_config(json.dumps(dict(MINIMAL_SIMULATE, n_modes=n + 2)))


def test_step_count_ceiling_is_inclusive():
    at = dict(MINIMAL_SIMULATE, dt=0.5, t_final=0.5 * cli.MAX_STEPS)
    assert parse_config(json.dumps(at)).parameters["t_final"] == 0.5 * cli.MAX_STEPS
    with pytest.raises(ConfigError, match="t_final: t_final / dt"):
        parse_config(json.dumps(dict(at, t_final=0.5 * cli.MAX_STEPS + 1.0)))


@pytest.mark.parametrize("command", ["bounds", "report"])
@pytest.mark.parametrize("keys", [
    {"eps_g": 1e200}, {"alpha_values": [1e200]}, {"alpha_values": [1e154]},
], ids=["eps_g1e200", "alpha1e200", "alpha1e154"])
def test_main_bound_overflow_is_one_config_error(tmp_path, capsys, command, keys):
    # every input is finite and in range, but a bound formula overflows
    doc = {"command": command, "g_values": [100.0], "alpha_values": [0.0],
           "output_dir": str(tmp_path / "out"), **keys}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bounds", "report"])
@pytest.mark.parametrize("g", [1e100, 1e200, 1e300])
@pytest.mark.parametrize("alpha", [0.0, 0.01])
def test_main_upper_bound_overflow_is_one_config_error(tmp_path, capsys, command, g, alpha):
    # (4 + eps_g)^3 is finite at eps_g = 5e102, but upper1 is not: each of
    # these exited 0 with upper1 = inf in its CSV and inf/nan in its SVG
    doc = {"command": command, "g_values": [g], "alpha_values": [alpha], "eps_g": 5e102,
           "output_dir": str(tmp_path / "out")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: g_values/alpha_values: upper1 = ")
    assert err.count("\n") == 1 and "overflows a float" in err
    assert not (tmp_path / "out").exists()


_EPS_OVERFLOW = "config error: eps_g: (4 + eps_g)^3 overflows a float (eps_g=1e+200)\n"
_CAP_OVERFLOW = ("config error: alpha: capital_lambda = lambda / (2 sqrt2 pi "
                 "(1 + alpha^2 s^2)) is not finite and > 0: alpha^2 s^2 is too large ")


@pytest.mark.parametrize("doc,start", [
    ({"command": "bounds", "g_values": [100.0], "alpha_values": [0.0], "eps_g": 1e200},
     _EPS_OVERFLOW),
    ({"command": "report", "g_values": [100.0], "alpha_values": [0.0], "eps_g": 1e200},
     _EPS_OVERFLOW),
    ({"command": "stability", "s": 4, "delta": 0.3, "lambda": 1.0, "alpha": 1e200},
     _CAP_OVERFLOW),
    ({"command": "squire", "s": 4, "lambda": 1.0, "alpha": 1e200}, _CAP_OVERFLOW),
    ({"command": "squire", "s": 4, "alpha": 1e200},
     "config error: alpha: the default driver's (1 + alpha^2 s^2)^2 is too large (got 1e+200)\n"),
    # the driver is inf without raising, and was blamed on delta_star
    ({"command": "squire", "s": 2, "alpha": 5e76}, _CAP_OVERFLOW),
    ({"command": "squire", "s": 2, "lambda": 1.0, "alpha": 1e110, "count_s": [30]},
     "config error: alpha: alpha^3 overflows a float (got 1e+110)\n"),
    # alpha**2 of the run's Helmholtz symbol was an internal error (exit 1)
    (dict(MINIMAL_SIMULATE, alpha=1e200),
     "config error: alpha: the Helmholtz symbol 1 + alpha^2 |k|^2 is not finite at "
     "|k|^2 = 2048 (alpha = 1e+200, n_modes = 64)\n"),
], ids=["bounds-eps_g", "report-eps_g", "stability-alpha", "squire-alpha-lambda",
        "squire-alpha-driver", "squire-alpha-driver-inf", "squire-alpha-cubed",
        "simulate-alpha"])
def test_main_overflow_names_its_key_and_formula(tmp_path, capsys, doc, start):
    # each was "config error: a number is too large: (34, 'Numerical result
    # out of range')", from an OverflowError that named no key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(doc, output_dir=str(tmp_path / "out"))))
    assert cli.main([doc["command"], "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_main_out_of_memory_is_exit_3(tmp_path, capsys, monkeypatch):
    # a grid too large to allocate fails at its first array; no large array
    # is made here
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(dynamics, "kolmogorov_forcing", no_memory)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(MINIMAL_SIMULATE, output_dir=str(tmp_path / "out"))))
    assert cli.main(["simulate", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 8.00 TiB for an array\n")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def _stable_phase(monkeypatch):
    # the omega2 solve gets the phase speed of a decaying mode
    solve = squire.reconstruct_omega2
    monkeypatch.setattr(squire, "reconstruct_omega2",
                        lambda tr, q, setup, c, m_max: solve(tr, q, setup, -c, m_max))


_LIFT = {"command": "squire", "s": 6, "max_lifts": 1, "count_s": [20]}
_BOUNDS = {"command": "bounds", "g_values": [1e4], "alpha_values": [0.0]}
_BLOW_UP = {"command": "simulate", "nu": 2.00001, "n_modes": 8, "s": 2, "lambda": 49.0,
            "dt": 0.36693673811487604, "t_final": 4.4032408573785125, "sample_every": 18,
            "init_amplitude": 1.3376171418997522, "cfl": 0.7459191254852661}
_HUGE_INIT = {"command": "simulate", "nu": 1.0, "alpha": 0.1, "n_modes": 16, "s": 2,
              "lambda": 3.0, "dt": 0.01, "t_final": 0.05, "init_amplitude": 1e308}
_TINY_LAMBDA = {"command": "stability", "s": 8, "alpha": 0.0, "delta": 0.3, "lambda": 5e-324}
_TINY_L_CONST = {"command": "bounds", "g_values": [100.0], "alpha_values": [0.0],
                 "l_const": 5e-324}
_HUGE_NU_SQUIRE = {"command": "squire", "s": 1, "nu": 1e308, "max_lifts": 2, "count_s": [3]}


_CAUSES = {
    # cause: (config, patch, exit code, start of the one stderr line)
    "cfl": ({"command": "simulate", "nu": 1e-4, "n_modes": 32, "s": 2,
             "lambda": 500.0, "dt": 5.0, "t_final": 50.0, "init_amplitude": 10.0,
             "start_from_stationary": True}, None, 3,
            "numerical failure: dt=5.0 exceeds advective limit"),
    # a step blows up between CFL checks: numpy's overflow warnings came first
    "blow-up": (_BLOW_UP, None, 3, "numerical failure: non-finite coefficients after step"),
    "eigensolve": (_LIFT, lambda mp: mp.setattr(
        np.linalg, "eigvals", _raise(np.linalg.LinAlgError("no convergence"))), 3,
        "numerical failure: dense eigensolve failed: no convergence"),
    "singular-chain": (_LIFT, lambda mp: mp.setattr(
        squire, "hat_problem", lambda *args: stability.RecurrenceProblem(
            s=5, t=3, r=-1, capital_lambda=1.0)), 3,
        "numerical failure: singular chain"),
    "incompressibility": (_LIFT, lambda mp: mp.setattr(
        squire.Mode1DProfile, "incompressibility_residual", lambda mode: 1.0), 3,
        "numerical failure: mode is not incompressible"),
    "coercivity": (_LIFT, _stable_phase, 3,
                   "numerical failure: reconstruction requires Re(iac) < 0"),
    "memory": (MINIMAL_SIMULATE, lambda mp: mp.setattr(
        dynamics, "kolmogorov_forcing", _raise(MemoryError("no room"))), 3,
        "error: out of memory: no room"),
    "unusable-out": (_BOUNDS, None, 2, "error: cannot write output: "),
    "not-utf-8": (_BOUNDS, None, 2, "error: cannot read config: "),
    "nu-squared": (dict(MINIMAL_SIMULATE, nu=1e200), None, 2,
                   "config error: lambda: the forcing amplitude"),
    "forcing-inf": (dict(MINIMAL_SIMULATE, s=2, **{"lambda": 1e308}), None, 2,
                    "config error: lambda: the forcing amplitude"),
    "stationary": (dict(MINIMAL_SIMULATE, nu=1e200, start_from_stationary=True),
                   None, 2, "config error: lambda: the forcing amplitude"),
    # (nu^2 lambda s^2)^2 overflows, or nu^2 underflows to 0, in the
    # bounds_report.json bound: were OverflowError and ZeroDivisionError
    "bound-square": ({"command": "simulate", "nu": 1.0, "n_modes": 16, "s": 1,
                      "lambda": 1e200, "dt": 1e-300, "t_final": 1e-299,
                      "sample_every": 1}, None, 2,
                     "config error: lambda: the forcing amplitude"),
    "bound-nu-squared": ({"command": "simulate", "nu": 5e-324, "n_modes": 16,
                          "s": 1, "lambda": 1.0, "dt": 1e-300, "t_final": 1e-299,
                          "sample_every": 1}, None, 2,
                         "config error: nu: the forcing amplitude"),
    # the start passes, and the first sample's check names the limit it computed
    "cfl-mid-run": ({"command": "simulate", "nu": 0.01, "n_modes": 32, "s": 2,
                     "lambda": 1e6, "dt": 0.05, "t_final": 20.0, "sample_every": 1,
                     "init_amplitude": 0.0}, None, 3,
                    "numerical failure: dt=0.05 exceeds advective limit "
                    "0.011118318255143513 at t=0.05\n"),
    # amplitude / l2 overflowed: a RuntimeWarning, then a nan "non-finite" step
    "init-amplitude-max": (_HUGE_INIT, None, 3, "numerical failure: dt=0.01 exceeds "
                           "advective limit 0.0 at start\n"),
    # capital_lambda underflows to 0 under a finite 1 + alpha^2 s^2: was blamed on alpha
    "lambda-subnormal": (_TINY_LAMBDA, None, 2, "config error: lambda: capital_lambda = "
                         "lambda / (2 sqrt2 pi (1 + alpha^2 s^2)) is not finite and > 0: "
                         "lambda is too small (alpha = 0.0, s = 8, lambda = 5e-324)\n"),
    "squire-lambda-subnormal": (
        {"command": "squire", "s": 8, "lambda": 1e-323, "max_lifts": 0, "count_s": [3]},
        None, 2, "config error: lambda: capital_lambda = lambda / (2 sqrt2 pi (1 + "
        "alpha^2 s^2)) is not finite and > 0: lambda is too small (alpha = 0.0, s = 8, "
        "lambda = 1e-323)\n"),
    # L/2 underflows to 0 in upper1's log(L/2): was "math domain error"
    "l_const-subnormal": (_TINY_L_CONST, None, 2, "config error: l_const: L/2 underflows "
                          "to 0, so upper1's log(L/2) is not finite (got 5e-324)\n"),
    # the lifts pass or are stable, then the a = 0 spectrum -nu (1 + m^2)
    # overflowed: numpy's RuntimeWarning, an error in the tests, was exit 1
    "a0-spectrum": (_HUGE_NU_SQUIRE, None, 3, "numerical failure: the a = 0 spectrum "
                    "-nu (b^2 + m^2) overflows a float at |m| = 20 (nu = 1e+308)\n"),
    "alpha-cubed": ({"command": "squire", "s": 6, "alpha": 1e-120, "max_lifts": 1,
                     "count_s": [50]}, None, 2, "config error: alpha: alpha^3"),
    "bound-point": ({"command": "report", "g_values": [100.0],
                     "alpha_values": [1e154]}, None, 2,
                    "config error: g_values/alpha_values: L(1 + alpha^2 lambda1) "
                    "overflows a float (L=3.141592653589793, lambda1=1.0) at "
                    "(g, alpha) = (100.0, 1e+154)"),
    "value-error": (MINIMAL_SIMULATE, lambda mp: mp.setattr(
        dynamics, "kolmogorov_forcing", _raise(ValueError("a defect"))), 1,
        "internal error: ValueError: a defect"),
    "runtime-error": ({"command": "stability", "s": 4, "delta": 0.3, "lambda": 1.0},
                      lambda mp: mp.setattr(stability, "stability_sweep",
                                            _raise(RuntimeError("a defect"))), 1,
                      "internal error: RuntimeError: a defect"),
    "key-error": (_BOUNDS, lambda mp: mp.setattr(cli, "_write_csv",
                                                 _raise(KeyError("g"))), 1,
                  "internal error: KeyError: 'g'"),
}


@pytest.mark.parametrize("cause", sorted(_CAUSES))
def test_main_exit_code_names_the_cause(tmp_path, capsys, monkeypatch, cause):
    # 3: mla.NumericalError or MemoryError; 2: the config or --out is at
    # fault, and nothing is written; 1: any other exception, a defect
    doc, patch, code, start = _CAUSES[cause]
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_bytes((b"\xff\xfe" if cause == "not-utf-8" else b"")
                    + json.dumps(doc).encode())
    if cause == "unusable-out":
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "sub"
    if patch is not None:
        patch(monkeypatch)
    assert cli.main([doc["command"], "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1
    assert "Traceback" not in err
    if code == 2:
        assert not (tmp_path / "out").exists()
    else:  # the run started, and its manifest records the error
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        if code == 1:
            assert err == f"internal error: {manifest['error']}\n"


def test_singular_chains_are_skipped_as_numerical(tmp_path):
    doc = {"command": "stability", "s": 5, "delta": 0.3, "lambda": 40.0}
    run_command(parse_config(json.dumps(doc)), out_dir=tmp_path)
    skipped = json.loads((tmp_path / "summary.json").read_text())["skipped"]
    assert [(e["t"], e["r"], e["column"]) for e in skipped] == [
        (3, -1, "sigma_hat"), (3, 1, "sigma_hat")]
    assert all(e["error"].startswith("NumericalError: singular chain: ")
               for e in skipped)


def test_squire_builds_only_the_triples_it_lifts(tmp_path, monkeypatch):
    # s = 400 has 1,091,145 window triples; the window's corner checks pass
    # s = 1.0, so only the triples the run takes are counted
    checked, contains = [], squire.region_contains_point
    monkeypatch.setattr(squire, "region_contains_point",
                        lambda delta, s, t, r: (s == 400 and checked.append(t))
                        or contains(delta, s, t, r))
    doc = {"command": "squire", "s": 400, "max_lifts": 2, "count_s": [50]}
    run_command(parse_config(json.dumps(doc)), out_dir=tmp_path)
    _, rows = read_csv(tmp_path / "triples.csv")
    assert len(rows) == 2 and len(checked) <= 2


@pytest.mark.parametrize("doc,rows,solves", [
    # a = 7, b in (-7, -6, 6, 7), r in -2..2: 10 mirror pairs
    ({"s": 20, "alpha": 0.05, "max_lifts": 20}, 20, 10),
    ({"s": 20, "alpha": 0.05, "max_lifts": 13}, 13, 10),  # cut inside the b = 6 block
    ({"s": 20, "alpha": 0.05, "max_lifts": 8}, 8, 8),  # no partner inside the cut
    # (2, +-2, 0), (3, +-1, 0) and (3, 0, 0)
    (json.loads((Path(__file__).parents[1] / "configs" / "squire_study.json")
                .read_text()), 5, 3),
], ids=["lifts20", "lifts13", "lifts8", "squire_study"])
def test_squire_solves_each_mirror_pair_once(tmp_path, monkeypatch, doc, rows, solves):
    # every triple of these runs is unstable, so each solve is also a lift
    calls = {"solve_hat_mode": 0, "lift_mode": 0}
    for name in calls:
        def counted(*args, _fn=getattr(squire, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(squire, name, counted)
    run_command(parse_config(json.dumps({**doc, "command": "squire"})), out_dir=tmp_path)
    assert calls == {"solve_hat_mode": solves, "lift_mode": solves}
    _, written = read_csv(tmp_path / "triples.csv")
    assert len(written) == rows and all(r["residual"] for r in written)


def _squire_nu_doc(tmp_path, nu):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "squire", "s": 6, "alpha": 0.05,
                               "max_lifts": 10, "count_s": [3], "nu": nu,
                               "output_dir": str(tmp_path / "out")}))
    return cfg


@pytest.mark.parametrize("nu", [1e152, 1e300])
def test_main_squire_huge_nu_lifts_with_finite_norms(tmp_path, nu):
    # nu scales q and every term of the mode equations.  The squares of
    # their entries overflow, not their norms: at 1e300 numpy warned of an
    # overflow in a norm, and the failure blamed a near-singular solve
    assert cli.main(["squire", "--config", str(_squire_nu_doc(tmp_path, nu))]) == 0
    rows = (tmp_path / "out" / "triples.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    for row in rows:
        assert float(row.split(",")[-1]) <= squire.LIFT_RESIDUAL_TOL


@pytest.mark.parametrize("nu", [1e306, 1e308])
def test_main_squire_overflow_names_the_norm(tmp_path, capsys, nu):
    # here q itself overflows, and i b q holds inf * 0 = nan
    assert cli.main(["squire", "--config", str(_squire_nu_doc(tmp_path, nu))]) == 3
    assert capsys.readouterr().err == ("numerical failure: the norm of omega2's "
                                       "right-hand side i b q is not finite (got nan)\n")


def test_squire_default_c6_needs_triples_only_when_used(tmp_path):
    # alpha = 0 has no small-alpha bound, so c6 is unused and s = 1 is fine
    doc = {"command": "squire", "s": 6, "max_lifts": 0, "count_s": [1]}
    run_command(parse_config(json.dumps(doc)), out_dir=tmp_path)
    with pytest.raises(ConfigError):
        parse_config(json.dumps(dict(doc, alpha=0.1)))
    parse_config(json.dumps(dict(doc, alpha=0.1, c6=0.5)))


# Whole runs: each key is drawn from a bounded range around its valid one,
# and at most one key is replaced by a value out of range or of the wrong
# type, so that validation and the numerics both fail sometimes while every
# run stays small (n_modes <= 16, at most 20 steps, s <= 8, max_lifts <= 2,
# count_s <= 50; s <= 5 for stability, whose scans grow fastest with s).
_ODD = st.sampled_from([-1, 0, 1.5, None, "x", True, [1],
                        float("inf"), float("nan"), 1e308, 5e-324])


def _simulate_doc(steps, dt, **keys):
    # t_final = steps * dt keeps the step count at most 20 for any dt
    return dict(keys, command="simulate", dt=dt, t_final=steps * dt)


def _nums(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=3)


_RUNS = {
    "simulate": st.builds(
        _simulate_doc, steps=st.integers(1, 20), dt=st.floats(1e-3, 0.5),
        nu=st.floats(1e-3, 10.0), alpha=st.floats(0.0, 1.0),
        n_modes=st.sampled_from([8, 12, 16]), s=st.integers(1, 3),
        dealias_fraction=st.sampled_from(["2/3", "1/2", "1"]),
        sample_every=st.integers(1, 25), init_amplitude=st.floats(0.0, 10.0),
        cfl=st.floats(0.01, 2.0), start_from_stationary=st.booleans(),
        seed=st.integers(0, 5), **{"lambda": st.floats(1e-3, 200.0)}),
    "stability": st.fixed_dictionaries({
        "command": st.just("stability"), "s": st.integers(1, 5),
        "alpha": st.floats(0.0, 1.0), "delta": st.floats(0.01, 0.57),
        "lambda": st.floats(1e-3, 200.0), "compute_lambda0": st.booleans(),
        "sigma_grid_points": st.integers(2, 4)}),
    "squire": st.fixed_dictionaries({
        "command": st.just("squire"), "s": st.integers(1, 8),
        "nu": st.floats(1e-3, 10.0), "alpha": st.floats(0.0, 1.0),
        "lambda": st.none() | st.floats(1e-3, 200.0),
        "delta_star": st.floats(0.01, 0.57), "c2": st.floats(0.08, 0.12),
        "c3": st.floats(0.44, 0.48), "c4": st.floats(0.54, 0.58),
        "count_s": st.lists(st.integers(1, 50), min_size=1, max_size=3),
        "max_lifts": st.integers(0, 2), "gamma": st.floats(0.01, 0.99),
        "c6": st.none() | st.floats(1e-3, 10.0)}),
}
_BOUNDS_KEYS = {
    "g_values": _nums(1e-3, 1e8), "alpha_values": _nums(0.0, 1.0),
    "lambda1": st.floats(1e-3, 10.0), "l_const": st.floats(1e-3, 10.0),
    "eps_g": st.floats(0.0, 1.0)}
_RUNS["bounds"] = st.fixed_dictionaries(
    dict(_BOUNDS_KEYS, command=st.just("bounds")))
_RUNS["report"] = st.fixed_dictionaries(
    dict(_BOUNDS_KEYS, command=st.just("report"), gamma=st.floats(0.01, 0.99)))


def _with_one_odd_value(doc):
    # t_final stays valid so that an odd dt cannot ask for many steps
    keys = sorted(set(doc) - {"command", "t_final"})
    return st.dictionaries(st.sampled_from(keys), _ODD, max_size=1).map(
        lambda odd: dict(doc, **odd))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(_RUNS)).flatmap(lambda command: _RUNS[command])
       .flatmap(_with_one_odd_value))
# alpha^3 underflows to 0 in the 3-D bound: was a ZeroDivisionError traceback
@example({"command": "squire", "s": 7, "alpha": 5e-324, "max_lifts": 0,
          "count_s": [9]})
# alpha^2 overflows a Python float: was an OverflowError traceback
@example({"command": "stability", "s": 4, "alpha": 1e200, "delta": 0.3,
          "lambda": 1.0})
@example({"command": "squire", "s": 2, "alpha": 1e200, "lambda": 1.0,
          "max_lifts": 0, "count_s": [30]})
# the 3-D bound overflows: exited 0 with "raw_count": Infinity in summary.json
@example({"command": "squire", "s": 2, "alpha": 1e-105, "max_lifts": 0, "count_s": [30]})
@example({"command": "squire", "s": 2, "alpha": 1e-100, "gamma": 0.01, "c6": 1e20,
          "max_lifts": 0, "count_s": [30]})
# overflows inside a step: numpy's RuntimeWarning, an error in the tests, was exit 1
@example(_BLOW_UP)
# the float range's ends, each blamed on another key or on a nan step before
@example(_HUGE_INIT)
@example(_TINY_LAMBDA)
@example(_TINY_L_CONST)
@example(_HUGE_NU_SQUIRE)
def test_main_exit_code_on_any_run(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(doc))
        code = cli.main([doc["command"], "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 0:
            assert _non_finite_numbers(out) == []


def _non_finite_numbers(out: Path) -> list[str]:
    """Every inf, nan, Infinity or NaN number written in out's files."""
    found = []
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":  # strings, such as error reasons, may say inf
            json.loads(text, parse_constant=found.append)
        elif path.suffix == ".csv":
            found += [cell for line in text.splitlines() for cell in line.split(",")
                      if cell in ("inf", "-inf", "nan")]
        else:  # an SVG's coordinates and axis labels
            found += re.findall(r"\b(?:inf|nan)\b", text)
    return found


def test_cli_import_leaves_out_scipy():
    # no mla module imports scipy: scipy.integrate took about 0.3 s of every
    # run, scipy.linalg about 0.3 s more, and concurrent.futures about 0.01 s
    src = str(Path(cli.__file__).parents[1])
    subprocess.run([sys.executable, "-c", "import mla.cli, mla.bounds, mla.dynamics, "
                    "mla.spectral, mla.squire, mla.stability, sys; "
                    "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy'"
                    " or m.startswith('concurrent.futures')]; "
                    "assert not loaded, loaded"],
                   check=True, env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("module", [bounds, cli, dynamics, spectral, squire, stability],
                         ids=lambda module: module.__name__)
def test_every_public_name_resolves(module):
    # the benchmark's traced run wraps each name of __all__ through getattr,
    # so a name that moved away and stayed listed would break it
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


# the mla modules, besides cli, that parse_config loads for each command
_COMMAND_MODULES = {
    "simulate": ["dynamics", "spectral"],
    "stability": ["bounds", "stability"],
    "bounds": ["bounds"],
    "report": ["bounds"],
    "squire": ["bounds", "squire", "stability"],
}
# the commands that compute in plain math, and so never load numpy
_NUMPY_FREE = {"bounds", "report"}
# prints the mla modules loaded after import, parse and run, whether
# argparse was loaded after import and parse, and whether numpy was loaded
# after import and run
_LOADS = """
import json, sys
def loaded():
    return sorted(m.partition(".")[2] for m in sys.modules if m.startswith("mla."))
import mla.cli as cli
seen = [loaded(), "argparse" in sys.modules, "numpy" in sys.modules]
doc = json.loads(sys.argv[1])
config = cli.parse_config(json.dumps(doc))
seen += [loaded(), "argparse" in sys.modules]
if config.command == "simulate":  # 5 steps, not the shipped 10,000
    config = cli.parse_config(json.dumps(dict(doc, t_final=5 * doc["dt"], sample_every=1)))
cli.run_command(config, out_dir=sys.argv[2])
print(json.dumps(seen + [loaded(), "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("name", ["simulate_kolmogorov", "stability_scan", "bounds_grid",
                                  "two_sided_report", "squire_study"])
def test_each_command_loads_only_its_modules(tmp_path, name):
    # each run compiles only the modules it needs; set-up is most of every
    # shipped run but simulate, so no module may load before it is needed
    # or after parse_config, where it would count in the run's wall time
    doc = json.loads((Path(__file__).parents[1] / "configs" / f"{name}.json").read_text())
    src = str(Path(cli.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", _LOADS, json.dumps(doc), str(tmp_path)],
                            check=True, capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    (imported, argparse_imported, numpy_imported, parsed, argparse_parsed, ran,
     numpy_ran) = json.loads(result.stdout)
    assert imported == ["cli"] and not argparse_imported and not argparse_parsed
    assert parsed == sorted(["cli"] + _COMMAND_MODULES[doc["command"]])
    assert ran == parsed
    # numpy is about half of a closed-form run's time when it loads
    assert not numpy_imported
    assert numpy_ran == (doc["command"] not in _NUMPY_FREE)


_BOUNDS_GRID = {"g_values": [1e3, 1e5, 1e7], "alpha_values": [0.0, 0.01]}
_ONCE = {
    # config: (module, function, calls across parse_config and run_command)
    "bounds": (dict(_BOUNDS_GRID, command="bounds"), bounds, "two_sided_report", 6),
    "report": (dict(_BOUNDS_GRID, command="report"), bounds, "two_sided_report", 6),
    "squire-driver": ({"command": "squire", "s": 6, "alpha": 0.1, "max_lifts": 1,
                       "count_s": [20, 30]}, squire, "lambda3_driver", 1),
    "squire-counts": ({"command": "squire", "s": 6, "alpha": 0.1, "max_lifts": 1,
                       "count_s": [20, 30]}, squire, "count_triples", 2),
    "stability-window": ({"command": "stability", "s": 8, "alpha": 0.1, "delta": 0.3,
                          "lambda": 120.0, "compute_lambda0": False},
                         stability, "lu_interval", 1),
    "simulate-grid": (MINIMAL_SIMULATE, spectral.SpectralGrid, "__post_init__", 1),
}


@pytest.mark.parametrize("case", sorted(_ONCE))
def test_each_derived_value_is_computed_once(tmp_path, monkeypatch, case):
    # the plan built at parse holds what the run reads: each was computed
    # by the check and again by the run
    doc, owner, name, want = _ONCE[case]
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(1) or fn(*args, **kw))
    run_command(parse_config(json.dumps(doc)), out_dir=tmp_path)
    assert len(calls) == want
    if doc["command"] == "stability":  # the window was read by the sigma grid
        assert (tmp_path / "sigma_vs_lambda.csv").exists()


def test_plan_is_no_part_of_config_equality_or_repr():
    cfg = parse_config(json.dumps(MINIMAL_SIMULATE))
    twin = ExperimentConfig(cfg.command, cfg.parameters, cfg.output_dir, cfg.seed)
    assert cfg == twin and repr(cfg) == repr(twin)
    assert "plan" not in repr(cfg) and "plan" not in serialize_config(cfg)
    assert cfg.plan["grid"] == spectral.SpectralGrid(64)


if __name__ == "__main__":
    SHIPPED_SHA256.write_text(
        json.dumps(shipped_artifact_hashes(sys.argv[1]), indent=2, sort_keys=True) + "\n")
