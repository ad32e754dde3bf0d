"""Batch CLI: validated JSON configs in, CSV/JSON artifacts plus a hashed
run manifest out.

    mla <command> --config <file> [--out <dir>]

Commands: simulate, stability, bounds, squire, report.  Exit codes: 0
success; 1 internal error, a defect (any exception not named here), in one
line; 2 validation error, an unreadable config or an unusable --out; 3
``mla.NumericalError`` (a result that could not be computed) or out of memory.
Identical config + seed produce bit-identical CSV outputs (floats are
written with repr, rows in fixed order).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import NumericalError, __version__
from . import bounds as bounds_mod
from . import dynamics, spectral, squire, stability

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunManifest",
    "parse_config",
    "serialize_config",
    "run_command",
    "emit_plot_data",
    "main",
    "DEFAULTS",
]

class ConfigError(ValueError):
    """Invalid configuration; ``errors`` lists every violation found."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _positive(x):
    return x > 0


def _nonneg(x):
    return x >= 0


def _fraction_ok(x):
    try:
        f = Fraction(x)
    except (ValueError, ZeroDivisionError):
        return False
    return 0 < f <= 1


def _num_list(x):
    return isinstance(x, list) and len(x) > 0 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in x
    )


def _positive_int_list(x):
    return _num_list(x) and all(isinstance(v, int) and v > 0 for v in x)


# One documented table of every parameter and default.  Entries are
# (type, default, check, constraint text); REQUIRED means no default.
REQUIRED = object()
#: Ceiling on the step count t_final / dt of a simulate run.
MAX_STEPS = 10**7
DEFAULTS: dict[str, dict[str, tuple]] = {
    "simulate": {
        "nu": ("number", REQUIRED, _positive, "must be > 0"),
        "alpha": ("number", 0.0, _nonneg, "must be >= 0"),
        "n_modes": ("integer", 64, lambda x: x >= 8 and x % 2 == 0,
                    "must be even and >= 8"),
        "dealias_fraction": ("string", "2/3", _fraction_ok,
                             "must be a fraction in (0, 1]"),
        "s": ("integer", REQUIRED, lambda x: x >= 1, "must be >= 1"),
        "lambda": ("number", REQUIRED, _positive, "must be > 0"),
        "dt": ("number", REQUIRED, _positive, "must be > 0"),
        "t_final": ("number", REQUIRED, _positive,
                    f"must be > 0, and t_final / dt at most {MAX_STEPS:,} steps"),
        "sample_every": ("integer", 10, lambda x: x >= 1, "must be >= 1"),
        "init_amplitude": ("number", 1e-3, _nonneg, "must be >= 0"),
        "cfl": ("number", 0.5, _positive, "must be > 0"),
        "start_from_stationary": ("boolean", False, lambda x: True, ""),
    },
    "stability": {
        "s": ("integer", REQUIRED, lambda x: x >= 1, "must be >= 1"),
        "alpha": ("number", 0.0, _nonneg, "must be >= 0"),
        "delta": ("number", REQUIRED,
                  lambda x: 0 < x < 1 / math.sqrt(3), "must lie in (0, 1/sqrt(3))"),
        "lambda": ("number", REQUIRED, _positive, "must be > 0"),
        "compute_lambda0": ("boolean", True, lambda x: True, ""),
        "sigma_grid_points": ("integer", 20, lambda x: x >= 2, "must be >= 2"),
    },
    "bounds": {
        "g_values": ("array", REQUIRED, _num_list, "must be a nonempty number list"),
        "alpha_values": ("array", REQUIRED, _num_list, "must be a nonempty number list"),
        "lambda1": ("number", 1.0, _positive, "must be > 0"),
        "l_const": ("number", math.pi, _positive, "must be > 0"),
        "eps_g": ("number", 0.0, _nonneg, "must be >= 0"),
    },
    "squire": {
        "s": ("integer", REQUIRED, lambda x: x >= 1, "must be >= 1"),
        "nu": ("number", 1.0, _positive, "must be > 0"),
        "alpha": ("number", 0.0, _nonneg, "must be >= 0"),
        "lambda": ("number", None, lambda x: x is None or x > 0,
                   "must be > 0 when given (default: the sqrt(2)-boosted driver)"),
        "delta_star": ("number", 0.2, lambda x: 0 < x < 1 / math.sqrt(3),
                       "must lie in (0, 1/sqrt(3))"),
        "c2": ("number", squire.DEFAULT_WINDOW.c2, _positive, "must be > 0"),
        "c3": ("number", squire.DEFAULT_WINDOW.c3, _positive, "must be > 0"),
        "c4": ("number", squire.DEFAULT_WINDOW.c4, _positive, "must be > 0"),
        "count_s": ("array", [50, 100, 200, 400], _positive_int_list,
                    "must be a nonempty list of positive integers"),
        "max_lifts": ("integer", 10, lambda x: x >= 0, "must be >= 0"),
        "gamma": ("number", 0.5, lambda x: 0 < x < 1, "must lie in (0,1)"),
        "c6": ("number", None, lambda x: x is None or x > 0,
               "must be > 0 when given (default: the measured c5 fit)"),
    },
}
# report takes the bounds keys, and a gamma that no output reads
DEFAULTS["report"] = {
    **DEFAULTS["bounds"],
    "gamma": ("number", 0.5, lambda x: 0 < x < 1, "must lie in (0,1)"),
}

_TYPE_CHECK = {
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
}


def _check_simulate(p: dict) -> list[str]:
    grid = spectral.SpectralGrid(p["n_modes"], Fraction(p["dealias_fraction"]))
    spec = dynamics.ForcingSpec(s=p["s"], lam=p["lambda"])
    errors = []
    try:
        dynamics._check_spec_on_grid(spec, grid)
    except ValueError as exc:
        errors.append(f"s: {exc}")
    # the forcing amplitude and bounds_report.json's |f|^2 / nu^2, evaluated as
    # _cmd_simulate does, may overflow (to inf or in **) or divide by a nu**2
    # that underflowed to 0.  The steady state's nu lam s is at most
    # max(lam, nu^2 lam s^3), so it is finite when both are.
    try:
        amplitude = dynamics._forcing_amplitude(spec, p["nu"])
        bound = (p["nu"]**2 * p["lambda"] * p["s"]**2)**2 / p["nu"]**2
    except (OverflowError, ZeroDivisionError):
        amplitude = bound = math.inf
    if not (math.isfinite(amplitude) and math.isfinite(bound)):
        errors.append(f"lambda: the forcing amplitude nu^2 lambda s^3 / (sqrt2 pi) "
                      f"or its bound (nu^2 lambda s^2)^2 / nu^2 is not finite "
                      f"(nu = {p['nu']!r}, lambda = {p['lambda']!r})")
    # run takes round(t_final / dt) steps; the quotient may overflow to inf
    if p["t_final"] / p["dt"] > MAX_STEPS:
        errors.append(f"t_final: t_final / dt = {p['t_final'] / p['dt']:.3g} "
                      f"exceeds the ceiling of {MAX_STEPS:,} steps")
    return errors


def _check_bounds(p: dict) -> list[str]:
    # each point's bounds are evaluated: finite inputs can still overflow
    # them.  Each cause is named once, at the first point that shows it.
    errors = {}
    for g in p["g_values"]:
        for alpha in p["alpha_values"]:
            try:
                bounds_mod.two_sided_report(_bound_inputs(p, g, alpha))
            except ValueError as exc:
                errors.setdefault(str(exc), (g, alpha))
    return [f"g_values/alpha_values: {cause} at (g, alpha) = ({g!r}, {alpha!r})"
            for cause, (g, alpha) in errors.items()]


def _amplitude_errors(lam: float, s: int, alpha: float) -> list[str]:
    # alpha^2 s^2 may turn to inf without raising: capital_lambda is then 0,
    # or nan for the default squire driver amplitude, itself inf
    cap = stability.capital_lambda(lam, s, alpha)
    if 0 < cap < math.inf:
        return []
    return [f"alpha: lambda = {lam!r} rescales to capital_lambda = {cap!r}, "
            "which is not finite and > 0 (alpha^2 s^2 is too large)"]


def _window_error(name: str, value: float) -> list[str]:
    return [f"{name}: the upper edge of the Lambda_0 window, which grows as "
            f"1/{name}^2, is not finite (got {value!r})"]


def _check_stability(p: dict) -> list[str]:
    # alpha^2 s^2 of the rescaled amplitude and its window may overflow a
    # float.  With the amplitude finite only 1/delta^2 can make the window
    # infinite, or divide by 0 where delta^2 underflows.
    errors = _amplitude_errors(p["lambda"], p["s"], p["alpha"])
    if not errors:
        try:
            upper = stability.lu_interval(p["s"], p["delta"], p["alpha"])[1]
        except ZeroDivisionError:
            upper = math.inf
        if upper == math.inf:
            errors = _window_error("delta", p["delta"])
    return errors


def _check_squire(p: dict) -> list[str]:
    try:
        window = _count_window(p)
    except ValueError as exc:
        return [f"c2/c3/c4: {exc}"]
    # the amplitude, given (then > 0) or the default driver, may overflow a
    # float; the driver also grows as 1/delta_star^2, which may divide by 0
    lam = p["lambda"]
    if lam is None:
        try:
            lam = squire.lambda3_driver(p["s"], p["alpha"], p["delta_star"])
        except ZeroDivisionError:
            lam = math.inf
        # an inf driver whose rescaled form is inf, not nan, has a finite
        # 1 + alpha^2 s^2: 1/delta_star^2 overflowed
        if stability.capital_lambda(lam, p["s"], p["alpha"]) == math.inf:
            return _window_error("delta_star", p["delta_star"])
    errors = _amplitude_errors(lam, p["s"], p["alpha"])
    if (not errors and p["c6"] is None and p["alpha"] > 0
            and squire.count_triples(p["count_s"][-1], window).count == 0):
        errors = [f"count_s: no triples at s={p['count_s'][-1]}, so the default "
                  "c6 (the c5 fit there) is 0; use a larger last s or set c6"]
    if p["alpha"] > 0 and p["alpha"] ** 3 == 0:  # the 3-D bound divides by it
        errors.append(f"alpha: alpha^3 underflows to 0 (got {p['alpha']!r})")
    return errors


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    parameters: dict
    output_dir: str
    seed: int


def _reject_non_finite(token: str):
    raise ConfigError([f"non-finite number {token}: every number must be finite"])


def _finite_float(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):  # a literal beyond the float range reads as inf
        _reject_non_finite(token)
    return x


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON config, reporting every violation at once."""
    try:
        doc = json.loads(text, parse_constant=_reject_non_finite,
                         parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a JSON object"])
    command = doc.get("command")
    if command not in COMMANDS:
        raise ConfigError(
            [f"command: must be one of {', '.join(COMMANDS)}, got {command!r}"]
        )
    schema = DEFAULTS[command]
    known = set(schema) | {"command", "output_dir", "seed"}
    for key in doc:
        if key not in known:
            errors.append(f"{key}: unknown key for command {command!r}")
    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        errors.append("output_dir: must be a string")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append("seed: must be a nonnegative integer")
    params = {}
    for name, (typ, default, check, constraint) in schema.items():
        if name in doc:
            val = doc[name]
            if val is None and default is None:
                params[name] = None
                continue
            if not _TYPE_CHECK[typ](val):
                errors.append(f"{name}: expected {typ}, got {val!r}")
                continue
            if not check(val):
                errors.append(f"{name}: {constraint} (got {val!r})")
                continue
            params[name] = val
        elif default is REQUIRED:
            errors.append(f"{name}: required for command {command!r}")
        else:
            params[name] = default
    if not errors:
        try:
            errors = _COMMAND_TABLE[command][0](params)
        except OverflowError as exc:
            errors = [f"a number is too large: {exc}"]
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(command=command, parameters=params,
                            output_dir=output_dir, seed=seed)


def serialize_config(config: ExperimentConfig) -> str:
    doc = {"command": config.command, "output_dir": config.output_dir,
           "seed": config.seed}
    doc.update(config.parameters)
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: str, rows) -> Path:
    with spectral._atomic_open(path) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _write_json(path: Path, payload) -> Path:
    with spectral._atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict
    version: str
    started_at: str
    finished_at: str
    tolerances: dict
    outputs: list[dict] = field(default_factory=list)
    status: str = "ok"
    error: str | None = None


_TOLERANCES = {
    "sigma_real_tol": stability.SIGMA_REAL_TOL,
    "decay_tail_tol": stability.DECAY_TAIL_TOL,
    "eigen_residual_tol": stability.RESIDUAL_TOL,
    # sigma_hat must change sign across this relative width around Lambda_0
    "lambda0_rel_width": stability.LAMBDA0_REL_WIDTH,
    "lift_residual_tol": squire.LIFT_RESIDUAL_TOL,
    "field_mean_tol": spectral._MEAN_TOL,
}


# ---------------------------------------------------------------------
# plot emission: CSV plus a dependency-free SVG
# ---------------------------------------------------------------------

_PLOT_KINDS = {
    "bounds_vs_g": ("g", ("lower", "upper1", "upper2"), "line", True),
    "sigma_vs_lambda": ("capital_lambda", ("sigma_hat",), "line", False),
    "lattice_density": ("s", ("density",), "line", False),
    "spectrum_scatter": ("re", ("im",), "scatter", False),
}


def _svg_polyline(points, color):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>')


def emit_plot_data(results: list[dict], kind: str, out_dir, basename=None):
    """Write <kind>.csv and <kind>.svg (line or scatter) from result rows.

    Empty results produce a header-only CSV and an axes-only SVG.  The
    log-scaled kinds plot log10 of positive values.
    """
    if kind not in _PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}")
    xfield, yfields, style, logscale = _PLOT_KINDS[kind]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = basename or kind
    csv_path = out_dir / f"{base}.csv"
    _write_csv(csv_path, ",".join((xfield,) + yfields),
               [tuple(row.get(f) for f in (xfield,) + yfields) for row in results])

    width, height, margin = 640, 480, 50
    colors = ("#1f6fb2", "#b23a1f", "#3ca13c")
    body = [f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
            f'height="{height - 2 * margin}" fill="none" stroke="black"/>']
    series = []
    for i, yf in enumerate(yfields):
        pts = [(row[xfield], row[yf]) for row in results
               if row.get(xfield) is not None and row.get(yf) is not None
               and not (isinstance(row[yf], float) and math.isnan(row[yf]))]
        if logscale:
            pts = [(math.log10(x), math.log10(y)) for x, y in pts
                   if x > 0 and y > 0]
        if pts:
            series.append((yf, pts, colors[i % len(colors)]))
    if series:
        xs = [p[0] for _, pts, _ in series for p in pts]
        ys = [p[1] for _, pts, _ in series for p in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        xspan = (x1 - x0) or 1.0
        yspan = (y1 - y0) or 1.0

        def to_px(p):
            return (margin + (p[0] - x0) / xspan * (width - 2 * margin),
                    height - margin - (p[1] - y0) / yspan * (height - 2 * margin))

        for name, pts, color in series:
            px = [to_px(p) for p in sorted(pts)]
            if style == "line":
                body.append(_svg_polyline(px, color))
            else:
                body.extend(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                            f'fill="{color}"/>' for x, y in px)
        body.append(f'<text x="{margin}" y="{height - margin + 30}" '
                    f'font-size="12">{xfield}: [{x0:.4g}, {x1:.4g}]'
                    f'{" (log10)" if logscale else ""}</text>')
        body.append(f'<text x="{margin}" y="{margin - 10}" font-size="12">'
                    f'{", ".join(s[0] for s in series)}: [{y0:.4g}, {y1:.4g}]'
                    f'{" (log10)" if logscale else ""}</text>')
    svg_path = out_dir / f"{base}.svg"
    with spectral._atomic_open(svg_path) as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                 f'height="{height}" viewBox="0 0 {width} {height}">\n')
        fh.write("\n".join(body))
        fh.write("\n</svg>\n")
    return [csv_path, svg_path]


# ---------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------

def _cmd_simulate(p: dict, out: Path, seed: int, written: list[Path]) -> None:
    grid = spectral.SpectralGrid(p["n_modes"], Fraction(p["dealias_fraction"]))
    params = dynamics.ModelParams(nu=p["nu"], alpha=p["alpha"], grid=grid)
    spec = dynamics.ForcingSpec(s=p["s"], lam=p["lambda"])
    forcing = dynamics.kolmogorov_forcing(spec, params)
    state = dynamics.initial_state(params, seed=seed,
                                   amplitude=p["init_amplitude"])
    if p["start_from_stationary"]:
        psi = dynamics.stationary_psi(spec, params) + state.psi
        state = dynamics.SolverState(psi=psi, time=0.0, params=params)
    diag = dynamics.run(state, p["t_final"], p["dt"], forcing,
                        sample_every=p["sample_every"], cfl=p["cfl"])
    written.append(_write_csv(
        out / "diagnostics.csv", dynamics.TrajectoryDiagnostics.CSV_HEADER,
        zip(diag.times, diag.phi_l2, diag.grad_phi_l2, diag.avg_grad_sq)))
    if len(diag):
        report = dynamics.check_asymptotic_bounds(
            diag, f_l2=params.nu**2 * spec.lam * spec.s**2, nu=params.nu)
        written.append(_write_json(out / "bounds_report.json",
                                   {**asdict(report), "ok": report.ok}))
    spectral.save_field(diag.final_state.psi, out / "final_field.json")
    written.append(out / "final_field.json")


def _sigma_grid_rows(s, alpha, delta, t, r, n_points) -> list[dict]:
    """sigma_hat of chain (t, r) across the Lambda_0 window; NaN, with its
    reason in ``error``, where it could not be computed."""
    lo, hi = stability.lu_interval(s, delta, alpha)
    rows = []
    for cap in np.geomspace(lo / 2, hi, n_points):
        sigma, error = stability._solve_or_reason(
            lambda: stability.principal_sigma(stability.RecurrenceProblem(
                s=s, t=t, r=r, capital_lambda=float(cap), alpha=alpha)).sigma_hat)
        rows.append({"capital_lambda": float(cap), "sigma_hat": sigma,
                     "error": error})
    return rows


def _cmd_stability(p: dict, out: Path, seed: int, written: list[Path]) -> None:
    s, alpha, delta, lam = p["s"], p["alpha"], p["delta"], p["lambda"]
    rows = stability.stability_sweep(s, alpha, delta, lam,
                                     compute_lambda0=p["compute_lambda0"])
    pairs = [(row["t"], row["r"]) for row in rows if row["in_region"]]
    header = "s,t,r,alpha,delta,lambda,capital_lambda,sigma_hat,lambda0,in_region"
    written.append(_write_csv(
        out / "sweep.csv", header,
        [(r["s"], r["t"], r["r"], r["alpha"], r["delta"], r["lambda"],
          r["capital_lambda"], r["sigma_hat"], r["lambda0"],
          r["in_region"]) for r in rows]))

    grid_rows = []
    if pairs:
        t, r = pairs[0]
        grid_rows = _sigma_grid_rows(s, alpha, delta, t, r,
                                     p["sigma_grid_points"])
    # one entry per blank cell: sweep.csv's sigma_hat and lambda0, and the
    # sigma_hat of sigma_vs_lambda.csv, which also names its capital_lambda
    skipped = [{"t": r["t"], "r": r["r"], "column": column, "error": error}
               for r in rows
               for column, error in (("sigma_hat", r["error"]),
                                     ("lambda0", r["lambda0_error"]))
               if error is not None]
    skipped += [{"t": pairs[0][0], "r": pairs[0][1],
                 "capital_lambda": row["capital_lambda"], "column": "sigma_hat",
                 "error": row["error"]} for row in grid_rows if row["error"] is not None]
    delta_star, adelta_max = stability.optimize_delta()
    g = dynamics.grashof(dynamics.ForcingSpec(s=s, lam=lam))
    summary = {
        "d_s": len(pairs),
        "a_delta": stability.region_area(delta),
        "delta_star": delta_star,
        "max_a_delta_scaled": adelta_max,
        "grashof": g,
        "lower_bound_2d": asdict(stability.lower_bound_dim2d(g, alpha)),
        "skipped": skipped,
    }
    written.append(_write_json(out / "summary.json", summary))
    if pairs:
        written += emit_plot_data(grid_rows, "sigma_vs_lambda", out)


def _bound_inputs(p: dict, g, alpha) -> bounds_mod.BoundInputs:
    return bounds_mod.BoundInputs(
        g=float(g), alpha=float(alpha), lambda1=p["lambda1"],
        l_const=p["l_const"], eps_g=p["eps_g"])


def _bounds_rows(p: dict) -> list[dict]:
    return [asdict(bounds_mod.two_sided_report(_bound_inputs(p, g, alpha)))
            for g in p["g_values"] for alpha in p["alpha_values"]]


def _cmd_bounds(p: dict, out: Path, seed: int, written: list[Path]) -> None:
    rows = _bounds_rows(p)
    written.append(_write_csv(
        out / "bounds.csv", "g,alpha,upper1,upper2,lower,ratio",
        [(r["g"], r["alpha"], r["upper1"], r["upper2"], r["lower"],
          r["ratio"]) for r in rows]))
    written += emit_plot_data(rows, "bounds_vs_g", out)
    notes = sorted({n for r in rows for n in r["notes"]})
    written.append(_write_json(out / "summary.json",
                               {"points": len(rows), "notes": notes}))


def _cmd_report(p: dict, out: Path, seed: int, written: list[Path]) -> None:
    rows = _bounds_rows(p)
    header = "g,alpha,lower,upper1,upper2,upper_min,ratio"
    written.append(_write_csv(
        out / "two_sided.csv", header,
        [(r["g"], r["alpha"], r["lower"], r["upper1"], r["upper2"],
          r["upper_min"], r["ratio"]) for r in rows]))
    written += emit_plot_data(rows, "bounds_vs_g", out)
    written.append(_write_json(out / "summary.json", {
        "points": len(rows),
        "alpha_regime_forms": rows[0]["alpha_regime_forms"] if rows else {},
        "notes": sorted({n for r in rows for n in r["notes"]}),
    }))


def _count_window(p: dict) -> squire.CountWindow:
    return squire.CountWindow(c2=p["c2"], c3=p["c3"], c4=p["c4"],
                              delta_star=p["delta_star"])


def _cmd_squire(p: dict, out: Path, seed: int, written: list[Path]) -> None:
    s, nu, alpha = p["s"], p["nu"], p["alpha"]
    window = _count_window(p)
    lam = p["lambda"]
    if lam is None:
        lam = squire.lambda3_driver(s, alpha, p["delta_star"])
    setup = squire.Setup3D(s, lam, nu, alpha)

    rows, stable = [], 0
    for tr in itertools.islice(squire.admissible_triples(s, window),
                               p["max_lifts"]):
        res2d = squire.solve_hat_mode(tr, setup)
        if res2d.sigma_hat > 0:
            mode = squire.lift_mode(tr, res2d, setup)
            residual = max(mode.residuals.values())
        else:  # a stable hat mode has no lift: its residual stays blank
            residual = math.nan
            stable += 1
        rows.append((s, tr.a, tr.b, tr.r, tr.a_hat, res2d.sigma_hat, residual))
    written.append(_write_csv(out / "triples.csv",
                              "s,a,b,r,a_hat,sigma_hat,residual", rows))

    counts = [squire.count_triples(cs, window) for cs in p["count_s"]]
    density_rows = [{"s": c.s, "density": c.c5_fit} for c in counts]
    written += emit_plot_data(density_rows, "lattice_density", out)
    a0_vals = squire.a0_stability_spectrum(1, nu, k_cutoff=4 * s + 16)
    written += emit_plot_data(
        [{"re": float(v.real), "im": float(v.imag)} for v in a0_vals],
        "spectrum_scatter", out, basename="a0_spectrum",
    )
    c6 = p["c6"] if p["c6"] is not None else counts[-1].c5_fit
    summary = {
        "lambda": lam,
        "count": {str(c.s): c.count for c in counts},
        "c5_fit": {str(c.s): c.c5_fit for c in counts},
        "c5_halfwindow": window.c5_halfwindow(),
        "c5_fullwindow": window.c5_fullwindow(),
        "lifted": len(rows) - stable,
        "stable": stable,
    }
    if alpha > 0:
        g = dynamics.grashof(dynamics.ForcingSpec(s=s, lam=lam))
        summary["lower_bound_3d"] = asdict(squire.lower_bound_dim3d(
            g, alpha, p["gamma"], c6))
    else:
        summary["lower_bound_3d"] = {
            "note": "small-alpha formula c6 G^gamma / alpha^(3(1-gamma)); "
                    "alpha = 0 outside its regime",
        }
    written.append(_write_json(out / "summary.json", summary))


# (check, run) of each command.  check applies the rules that involve several
# fields, through the code that owns each rule, once every field is valid on
# its own; run computes and writes the artifacts.
_COMMAND_TABLE = {
    "simulate": (_check_simulate, _cmd_simulate),
    "stability": (_check_stability, _cmd_stability),
    "bounds": (_check_bounds, _cmd_bounds),
    "squire": (_check_squire, _cmd_squire),
    "report": (_check_bounds, _cmd_report),
}
COMMANDS = tuple(_COMMAND_TABLE)


def run_command(config: ExperimentConfig, out_dir=None,
                threads: int = 1) -> RunManifest:
    """Dispatch a validated config; write artifacts and the manifest.

    Every file the command wrote, and no other file in the output
    directory, is listed in the manifest with its sha256.  Computation
    errors are recorded in the manifest (status "error", with the files
    written before the error) and re-raised after it is written.
    ``threads`` is accepted and ignored: commands run in one thread.
    """
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = RunManifest(
        command=config.command,
        config=json.loads(serialize_config(config)),
        version=__version__,
        started_at=started,
        finished_at="",
        tolerances=dict(_TOLERANCES),
    )
    error: Exception | None = None
    written: list[Path] = []
    try:
        _COMMAND_TABLE[config.command][1](config.parameters, out, config.seed, written)
    except Exception as exc:
        manifest.status = "error"
        manifest.error = f"{type(exc).__name__}: {exc}"
        error = exc
    manifest.finished_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    for path in sorted(written):
        manifest.outputs.append({
            "path": str(path.relative_to(out)),
            "sha256": _sha256(path),
        })
    _write_json(out / "manifest.json", asdict(manifest))
    if error is not None:
        raise error
    return manifest


def _main(args: argparse.Namespace) -> int:
    try:
        config = parse_config(Path(args.config).read_text())
        if config.command != args.command:
            raise ConfigError([f"config is for command {config.command!r}, "
                               f"invoked as {args.command!r}"])
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        manifest = run_command(config, out_dir=args.out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    print(f"ok: {len(manifest.outputs)} artifacts in "
          f"{args.out or config.output_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mla",
        description="Torus vorticity-model laboratory: simulation, "
                    "Kolmogorov-flow stability, and attractor dimension bounds.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory "
                        "(default: output_dir from the config)")
    try:
        return _main(parser.parse_args(argv))
    except Exception as exc:  # a defect: _main handles every expected cause
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
