"""Correctness gate: read a run's outputs into checked cells and compare them
with the committed reference.

A cell is ``key -> (rule, value)``.  Every reference cell is one checked
operation; it fails when it is missing, blank or NaN where the reference
has a value, or outside its rule:

- ``exact``: equal (counts, row sets, flags, status);
- ``rel``: within ``REL_TOL`` relative, element by element;
- ``sigma``: within ``eigen_residual_tol * (1 + |ref|)``;
- ``lambda0``: within ``lambda0_rel_width`` relative (the bisection window);
- ``residual``: a number no larger than ``lift_residual_tol``;
- ``notlooser``: every reference tolerance present and not larger.

The tolerances are the package's own (``mla.cli._TOLERANCES``), stored in
the reference file when it was generated.  Hashes are never compared, so a
round-off-level change that stays inside these tolerances passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

#: Relative tolerance for floats the package states no tolerance of its own
#: for (diagnostics, bounds, field norms, summaries); the same 1e-8 as its
#: eigen-residual, lift-residual and Lambda_0 tolerances.
REL_TOL = 1e-8


def _num(text: str):
    return None if text == "" else float(text)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _field_norms(doc: dict) -> list[float]:
    """Parseval L2, H1 and H2 seminorms of an mla-field-v1 document."""
    w = [(k1 * k1 + k2 * k2, re * re + im * im) for k1, k2, re, im in doc["modes"]]
    vol2 = 2.0 * (2.0 * math.pi) ** 2  # the stored half plus its conjugate
    return [math.sqrt(vol2 * math.fsum(a for _, a in w)),
            math.sqrt(vol2 * math.fsum(k * a for k, a in w)),
            math.sqrt(vol2 * math.fsum(k * k * a for k, a in w))]


def _simulate(out: Path, cell) -> None:
    rows = _rows(out / "diagnostics.csv")
    cell("diagnostics.rows", "exact", len(rows))
    for j, row in enumerate(rows):
        cell(f"diagnostics[{j}]", "rel", [_num(row[c]) for c in
                                          ("time", "phi_l2", "grad_phi_l2", "avg_grad_sq")])
    rep = _json(out / "bounds_report.json")
    cell("bounds_report.flags", "exact", [rep["ok"], rep["tail_count"]])
    cell("bounds_report.values", "rel", [rep[k] for k in (
        "phi_sq_tail_max", "phi_sq_bound", "avg_tail_max", "avg_bound")])
    field = _json(out / "final_field.json")
    cell("final_field.header", "exact",
         [field["format"], field["n_modes"], field["dealias_fraction"]])
    cell("final_field.norms", "rel", _field_norms(field))


def _stability(out: Path, cell) -> None:
    rows = _rows(out / "sweep.csv")
    cell("sweep.rows", "exact", [[int(r["t"]), int(r["r"])] for r in rows])
    for r in rows:
        key = f"sweep[{r['t']},{r['r']}]"
        cell(f"{key}.in_region", "exact", r["in_region"])
        cell(f"{key}.capital_lambda", "rel", _num(r["capital_lambda"]))
        cell(f"{key}.sigma_hat", "sigma", _num(r["sigma_hat"]))
        cell(f"{key}.lambda0", "lambda0", _num(r["lambda0"]))
    for j, r in enumerate(_rows(out / "sigma_vs_lambda.csv")):
        cell(f"sigma_vs_lambda[{j}].capital_lambda", "rel", _num(r["capital_lambda"]))
        cell(f"sigma_vs_lambda[{j}].sigma_hat", "sigma", _num(r["sigma_hat"]))
    s = _json(out / "summary.json")
    lower = s["lower_bound_2d"]
    cell("summary.d_s", "exact", s["d_s"])
    cell("summary.regime", "exact", [lower["coefficient"], lower["regime"]])
    cell("summary.values", "rel", [s["a_delta"], s["delta_star"],
                                   s["max_a_delta_scaled"], s["grashof"], lower["value"]])


def _bound_rows(out: Path, cell, name: str, columns: tuple) -> None:
    rows = _rows(out / f"{name}.csv")
    cell(f"{name}.rows", "exact", [[r["g"], r["alpha"]] for r in rows])
    for r in rows:
        cell(f"{name}[{r['g']},{r['alpha']}]", "rel", [_num(r[c]) for c in columns])
    cell("summary.points", "exact", _json(out / "summary.json")["points"])
    cell("bounds_vs_g.rows", "exact", len(_rows(out / "bounds_vs_g.csv")))


def _bounds(out: Path, cell) -> None:
    _bound_rows(out, cell, "bounds", ("upper1", "upper2", "lower", "ratio"))


def _report(out: Path, cell) -> None:
    _bound_rows(out, cell, "two_sided", ("lower", "upper1", "upper2", "upper_min", "ratio"))


def _squire(out: Path, cell) -> None:
    rows = _rows(out / "triples.csv")
    cell("triples.rows", "exact", [[int(r["a"]), int(r["b"]), int(r["r"])] for r in rows])
    for r in rows:
        key = f"triples[{r['a']},{r['b']},{r['r']}]"
        cell(f"{key}.a_hat", "rel", _num(r["a_hat"]))
        cell(f"{key}.sigma_hat", "sigma", _num(r["sigma_hat"]))
        cell(f"{key}.residual", "residual", _num(r["residual"]))
    s = _json(out / "summary.json")
    cell("summary.count", "exact", s["count"])
    cell("summary.lifted", "exact", s["lifted"])
    cell("summary.values", "rel", [s["lambda"], s["c5_halfwindow"], s["c5_fullwindow"],
                                   s["lower_bound_3d"]["value"]]
         + [s["c5_fit"][k] for k in sorted(s["c5_fit"], key=int)])
    density = _rows(out / "lattice_density.csv")
    cell("lattice_density", "rel", [_num(r[c]) for r in density for c in ("s", "density")])
    cell("a0_spectrum.rows", "exact", len(_rows(out / "a0_spectrum.csv")))


_EXTRACT = {"simulate": _simulate, "stability": _stability, "bounds": _bounds,
            "report": _report, "squire": _squire}


def extract(configs: list[dict], out_root: Path) -> dict:
    """Checked cells of every config's outputs, keyed ``<config index>.<cell>``.

    A file that is missing or unreadable leaves its cells out, so each of
    them counts as failed against the reference.
    """
    cells = {}
    for i, cfg in enumerate(configs):
        out = Path(out_root) / str(i)

        def cell(key, rule, value, _i=i):
            cells[f"{_i}.{key}"] = (rule, value)

        try:
            manifest = _json(out / "manifest.json")
            cell("manifest.status", "exact", manifest["status"])
            cell("manifest.tolerances", "notlooser", manifest["tolerances"])
            _EXTRACT[cfg["command"]](out, cell)
        except (OSError, KeyError, TypeError, ValueError):
            pass
    return cells


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _close(rule: str, got, ref, tol: dict) -> bool:
    if ref is None or got is None:
        return got is None and ref is None
    if not _finite(got):
        return False
    if rule == "sigma":
        return abs(got - ref) <= tol["eigen_residual_tol"] * (1.0 + abs(ref))
    if rule == "lambda0":
        return abs(got - ref) <= tol["lambda0_rel_width"] * abs(ref)
    return abs(got - ref) <= REL_TOL * abs(ref)


def agrees(rule: str, got, ref, tol: dict) -> bool:
    if rule == "exact":
        return got == ref
    if rule == "notlooser":
        return isinstance(got, dict) and all(
            _finite(got.get(k)) and got[k] <= v for k, v in ref.items())
    if rule == "residual":
        if ref is None or got is None:
            return got is None and ref is None
        return _finite(got) and got <= tol["lift_residual_tol"]
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(_close(rule, g, r, tol) for g, r in zip(got, ref)))
    return _close(rule, got, ref, tol)


def compare(cells: dict, reference: dict, tol: dict) -> list[str]:
    """One message per reference cell the run fails."""
    failures = []
    for key, (rule, ref) in reference.items():
        if key not in cells:
            failures.append(f"{key}: missing")
            continue
        got = cells[key][1]
        if not agrees(rule, got, ref, tol):
            failures.append(f"{key}: got {got!r}, reference {ref!r} ({rule})")
    return failures


def reference_path(root: Path, workload: str) -> Path:
    return Path(root) / "perfbench" / "reference" / f"{workload}.json"


def load_reference(root: Path, workload: str, key: str) -> tuple[dict, dict]:
    """(cells, tolerances) of the committed reference for one run."""
    doc = _json(reference_path(root, workload))
    cells = {k: (rule, value) for k, (rule, value) in doc["cells"][key].items()}
    return cells, doc["tolerances"]
