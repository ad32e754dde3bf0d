"""Batch CLI: validated JSON configs in, CSV/JSON artifacts plus a hashed
run manifest out.

    mla <command> --config <file> [--out <dir>]

Commands: simulate, stability, bounds, squire, report.  Exit codes: 0
success; 1 internal error, a defect (any exception not named here), in one
line; 2 validation error, an unreadable config or an unusable --out; 3
``mla.NumericalError`` (a result that could not be computed) or out of memory.
Identical config + seed produce bit-identical CSV outputs (floats are
written with repr, rows in fixed order).

``parse_config`` checks every field, then builds the command's plan: the
derived values its run reads, each computed once.  A config error is a plan
that could not be built; the run reads the plan and recomputes none of it.

``import mla.cli`` loads no command module and no NumPy.  Parsing loads
``spectral`` and ``dynamics`` for simulate, ``stability`` and ``bounds``
for stability, ``bounds`` alone (so no NumPy) for bounds and report, and
``squire``, ``stability`` and ``bounds`` for squire; a run loads no more.
"""

from __future__ import annotations

import datetime
import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from . import _TOLERANCES, NumericalError, _atomic_open, __version__

__all__ = [
    "ConfigError",
    "ExperimentConfig",
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
    from fractions import Fraction
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
        # the count window's defaults.  c2 = 0.105 keeps the +-c2 s corners
        # inside the region (which needs c3 > sqrt(c2 (2 - c2)) = 0.446) while
        # the floor(c2 s) window stays nearly proportional across s; (0.46,
        # 0.56) is the widest annulus that then fits under sqrt(1/3 - c2^2).
        "delta_star": ("number", 0.2, lambda x: 0 < x < 1 / math.sqrt(3),
                       "must lie in (0, 1/sqrt(3))"),
        "c2": ("number", 0.105, _positive, "must be > 0"),
        "c3": ("number", 0.46, _positive, "must be > 0"),
        "c4": ("number", 0.56, _positive, "must be > 0"),
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


def _plan_simulate(p: dict) -> dict:
    from . import dynamics, spectral
    grid = spectral.SpectralGrid(p["n_modes"], p["dealias_fraction"])
    spec = dynamics.ForcingSpec(s=p["s"], lam=p["lambda"])
    errors = []
    if not grid.keeps(0, p["s"]):  # the forcing's mode
        errors.append(f"s: forcing wavenumber s={p['s']} is at or beyond the dealias "
                      f"band m = {grid.dealias_band}")
    # the forcing amplitude and bounds_report.json's bound may overflow (to inf
    # or in **) or divide by a nu**2 that underflowed to 0.  The steady state's
    # nu lam s is at most max(lam, nu^2 lam s^3), so it is finite when both are.
    try:
        amplitude = dynamics._forcing_amplitude(spec, p["nu"])
        f_l2 = dynamics._forcing_l2(spec, p["nu"])
        bound = dynamics._dissipative_bound(f_l2, p["nu"])
    except (OverflowError, ZeroDivisionError):
        amplitude = bound = math.inf
    if not (math.isfinite(amplitude) and math.isfinite(bound)):
        # an s^3 past the float range overflows whatever nu and lambda are
        cause = ("s" if p["s"] ** 3 > sys.float_info.max
                 else "nu" if p["nu"] * p["nu"] == 0.0 else "lambda")  # ** raises on an overflow
        if cause != "s" or grid.keeps(0, p["s"]):  # else the dealias line names s
            errors.append(f"{cause}: the forcing amplitude nu^2 lambda s^3 / (sqrt2 pi) "
                          f"or its bound (nu^2 lambda s^2)^2 / nu^2 is not finite "
                          f"(nu = {p['nu']!r}, lambda = {p['lambda']!r})")
    try:  # where no array fits, the Helmholtz |k|^2 may overflow whatever alpha is
        grid.check_size()
        try:  # the run divides by the Helmholtz symbol
            grid.helmholtz_max(p["alpha"])
        except ValueError as exc:
            errors.append(f"alpha: {exc}")
    except ValueError as exc:
        errors.append(f"n_modes: {exc}")
    # run takes round(t_final / dt) steps; the quotient may overflow to inf
    if p["t_final"] / p["dt"] > MAX_STEPS:
        errors.append(f"t_final: t_final / dt = {p['t_final'] / p['dt']:.3g} "
                      f"exceeds the ceiling of {MAX_STEPS:,} steps")
    if errors:
        raise ConfigError(errors)
    return {"grid": grid, "spec": spec, "f_l2": f_l2}


def _plan_bounds(p: dict) -> dict:
    from . import bounds
    try:  # upper1's factor (4 + eps_g)^3 and its log(L/2) are the same at every point
        bounds._slack_cubed(p["eps_g"])
    except ValueError as exc:
        raise ConfigError([f"eps_g: {exc}"]) from None
    if p["l_const"] / 2.0 == 0.0:
        raise ConfigError([f"l_const: L/2 underflows to 0, so upper1's log(L/2) is not "
                           f"finite (got {p['l_const']!r})"])
    # finite inputs can still overflow a point's bounds.  Each cause is
    # named once, at the first point that shows it.
    rows, errors = [], {}
    for g in p["g_values"]:
        for alpha in p["alpha_values"]:
            try:
                rows.append(bounds.two_sided_report(bounds.BoundInputs(
                    g=float(g), alpha=float(alpha), lambda1=p["lambda1"],
                    l_const=p["l_const"], eps_g=p["eps_g"])))
            except ValueError as exc:
                errors.setdefault(str(exc), (g, alpha))
    if errors:
        raise ConfigError([f"g_values/alpha_values: {cause} at (g, alpha) = ({g!r}, {alpha!r})"
                           for cause, (g, alpha) in errors.items()])
    return {"rows": rows}


def _check_s_squared(s: int) -> None:
    # alpha^2 s^2 overflows for every alpha, 0 included, once s^2 alone does
    if s * s > sys.float_info.max:
        raise ConfigError([f"s: s^2 overflows a float, and so does alpha^2 s^2 for every "
                           f"alpha, 0 included (s = {s})"])


def _check_amplitude(lam: float, s: int, alpha: float) -> None:
    from . import stability
    # alpha**2 may raise; alpha^2 s^2 = inf makes capital_lambda 0, or nan for an inf driver
    try:
        cap = stability.capital_lambda(lam, s, alpha)
    except OverflowError:
        cap = math.nan
    if not 0 < cap < math.inf:  # a 0 under a finite 1 + alpha^2 s^2 is lambda's
        key, cause = (("lambda", "lambda is too small") if cap == 0 and math.isfinite(
            1.0 + alpha**2 * s**2) else ("alpha", "alpha^2 s^2 is too large"))
        raise ConfigError([f"{key}: capital_lambda = lambda / (2 sqrt2 pi (1 + alpha^2 s^2)) "
                           f"is not finite and > 0: {cause} (alpha = {alpha!r}, "
                           f"s = {s}, lambda = {lam!r})"])


def _check_delta(key: str, delta: float, edge_at_max: float) -> None:
    """An upper edge of the Lambda_0 window, which grows as 1/delta^2, is not
    finite at ``key`` = delta.  That is the fault of delta only where the edge
    at the largest valid delta, 1/sqrt(3), is finite; otherwise it is alpha's."""
    if edge_at_max < math.inf:
        raise ConfigError([f"{key}: the upper edge of the Lambda_0 window, which grows as "
                           f"1/{key}^2, is not finite (got {delta!r})"])


def _plan_stability(p: dict) -> dict:
    from . import bounds, stability
    # alpha^2 s^2 of the rescaled amplitude and its window may overflow a
    # float, and the window's 1/delta^2 may too, or divide by 0
    s, alpha = p["s"], p["alpha"]
    _check_s_squared(s)
    _check_amplitude(p["lambda"], s, alpha)
    try:
        window = stability.lu_interval(s, p["delta"], alpha)
    except ZeroDivisionError:
        window = (0.0, math.inf)
    if window[1] == math.inf:
        _check_delta("delta", p["delta"], stability.lu_interval(s, 1 / math.sqrt(3), alpha)[1])
        raise ConfigError([f"alpha: the upper edge of the Lambda_0 window, which grows as "
                           f"s (1 + alpha^2 s^2) / delta^2, is not finite even at delta = "
                           f"1/sqrt(3) (alpha = {alpha!r}, s = {s})"])
    g = bounds.grashof(p["lambda"], s)
    if not math.isfinite(g):  # lambda s^2 may overflow a float to inf
        return {"window": window, "grashof": None,
                "lower_bound_2d": {"note": "G = lambda s^2 overflows a float"}}
    return {"window": window, "grashof": g,
            "lower_bound_2d": bounds.lower_bound_dim2d(g, alpha)}


def _plan_squire(p: dict) -> dict:
    from . import bounds, squire
    s, alpha = p["s"], p["alpha"]
    try:
        window = squire.CountWindow(p["c2"], p["c3"], p["c4"], p["delta_star"])
    except ValueError as exc:
        raise ConfigError([f"c2/c3/c4/delta_star: {exc}"]) from None
    _check_s_squared(s)
    # the amplitude, given (then > 0) or the default driver, may overflow a
    # float; the driver also grows as 1/delta_star^2, which may divide by 0
    lam = p["lambda"]
    if lam is None:
        try:
            lam = squire.lambda3_driver(s, alpha, p["delta_star"])
        except ZeroDivisionError:
            lam = math.inf
        except OverflowError:  # raised only by its factor (1 + alpha^2 s^2)^2
            raise ConfigError([f"alpha: the default driver's (1 + alpha^2 s^2)^2 is too "
                               f"large (got {alpha!r})"]) from None
        if lam == math.inf:  # where not delta_star's, alpha's fault, named below
            _check_delta("delta_star", p["delta_star"],
                         squire.lambda3_driver(s, alpha, 1 / math.sqrt(3)))
    _check_amplitude(lam, s, alpha)
    plan = {"window": window, "lambda": lam,
            "counts": [squire.count_triples(cs, window) for cs in p["count_s"]],
            "lower_bound_3d": {"note": "small-alpha formula c6 G^gamma / "
                               "alpha^(3(1-gamma)); alpha = 0 outside its regime"}}
    if alpha == 0:
        return plan
    try:  # the 3-D bound divides by alpha^3
        bounds._alpha_cubed(alpha)
    except ValueError as exc:
        raise ConfigError([f"alpha: {exc}"]) from None
    c6 = p["c6"] if p["c6"] is not None else plan["counts"][-1].c5_fit
    if c6 == 0:
        raise ConfigError([f"count_s: no triples at s={p['count_s'][-1]}, so the default "
                           "c6 (the c5 fit there) is 0; use a larger last s or set c6"])
    try:
        plan["lower_bound_3d"] = bounds.lower_bound_dim3d(
            bounds.grashof(lam, s), alpha, p["gamma"], c6)
    except ValueError as exc:
        raise ConfigError([f"alpha: {exc} (alpha = {alpha!r}, c6 = {c6!r})"]) from None
    return plan


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    parameters: dict
    output_dir: str
    seed: int

    @cached_property
    def plan(self) -> dict:
        """The derived values the run reads, built once; ConfigError where the
        fields do not fit together.  No field: not in ==, repr or serialization."""
        try:
            return _COMMAND_TABLE[self.command][0](self.parameters)
        except OverflowError as exc:
            raise ConfigError([f"a number is too large: {exc}"]) from exc


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
    except ConfigError:
        raise
    except (ValueError, RecursionError) as exc:  # an int past the digit limit, deep nesting
        raise ConfigError([f"cannot read the JSON: {exc}"]) from None
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
    if errors:
        raise ConfigError(errors)
    config = ExperimentConfig(command=command, parameters=params,
                              output_dir=output_dir, seed=seed)
    config.plan  # built here, so that a config error is raised at parse
    return config


def serialize_config(config: ExperimentConfig) -> str:
    doc = {"command": config.command, "output_dir": config.output_dir,
           "seed": config.seed}
    doc.update(config.parameters)
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------

def _fmt(v, path: Path, column: str) -> str:
    """One CSV cell: None and NaN blank, floats by repr; +-inf raises."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        if math.isinf(v):
            raise NumericalError(f"{path.name}: column {column} holds {float(v)}, "
                                 "not a finite number")
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: str, rows) -> Path:
    """Each row is the values of header's columns, or a dict keyed by them."""
    columns = header.split(",")
    with _atomic_open(path) as fh:
        fh.write(header + "\n")
        for row in rows:
            values = [row.get(c) for c in columns] if isinstance(row, dict) else row
            fh.write(",".join(_fmt(v, path, c) for v, c in zip(values, columns, strict=True))
                     + "\n")
    return path


def _write_json(path: Path, payload) -> Path:
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------
# plot emission: CSV plus a dependency-free SVG
# ---------------------------------------------------------------------

_PLOT_KINDS = {
    "bounds_vs_g": ("g", ("lower", "upper1", "upper2"), "line", True),
    "sigma_vs_lambda": ("capital_lambda", ("sigma_hat",), "line", False),
    "lattice_density": ("s", ("density",), "line", False),
    "a0_spectrum": ("re", ("im",), "scatter", False),
}


def emit_plot_data(results: list[dict], kind: str, out_dir):
    """Write <kind>.csv and <kind>.svg (line or scatter) from result rows.

    Empty results produce a header-only CSV and an axes-only SVG.  The SVG
    leaves out every point with a blank or non-finite coordinate, and the
    log-scaled kinds plot log10 of positive values.
    """
    if kind not in _PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}")
    xfield, yfields, style, logscale = _PLOT_KINDS[kind]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{kind}.csv"
    _write_csv(csv_path, ",".join((xfield,) + yfields), results)

    width, height, margin = 640, 480, 50
    colors = ("#1f6fb2", "#b23a1f", "#3ca13c")
    body = [f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
            f'height="{height - 2 * margin}" fill="none" stroke="black"/>']
    series = []
    for i, yf in enumerate(yfields):
        pts = [(row[xfield], row[yf]) for row in results
               if all(v is not None and math.isfinite(v)
                      for v in (row.get(xfield), row.get(yf)))]
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
                body.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                            f'points="{" ".join(f"{x:.2f},{y:.2f}" for x, y in px)}"/>')
            else:
                body.extend(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                            f'fill="{color}"/>' for x, y in px)
        body.append(f'<text x="{margin}" y="{height - margin + 30}" '
                    f'font-size="12">{xfield}: [{x0:.4g}, {x1:.4g}]'
                    f'{" (log10)" if logscale else ""}</text>')
        body.append(f'<text x="{margin}" y="{margin - 10}" font-size="12">'
                    f'{", ".join(s[0] for s in series)}: [{y0:.4g}, {y1:.4g}]'
                    f'{" (log10)" if logscale else ""}</text>')
    svg_path = out_dir / f"{kind}.svg"
    with _atomic_open(svg_path) as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                 f'height="{height}" viewBox="0 0 {width} {height}">\n')
        fh.write("\n".join(body))
        fh.write("\n</svg>\n")
    return [csv_path, svg_path]


# ---------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------

def _cmd_simulate(p: dict, plan: dict, out: Path, seed: int, written: list[Path]) -> None:
    from . import dynamics, spectral
    params = dynamics.ModelParams(nu=p["nu"], alpha=p["alpha"], grid=plan["grid"])
    forcing = dynamics.kolmogorov_forcing(plan["spec"], params)
    # built inline, so run holds the only reference to the initial state
    diag = dynamics.run(
        dynamics.initial_state(params, seed=seed, amplitude=p["init_amplitude"],
                               about=dynamics.stationary_psi(plan["spec"], params)
                               if p["start_from_stationary"] else None),
        p["t_final"], p["dt"], forcing, sample_every=p["sample_every"], cfl=p["cfl"])
    written.append(_write_csv(
        out / "diagnostics.csv", dynamics.TrajectoryDiagnostics.CSV_HEADER,
        zip(diag.times, diag.phi_l2, diag.grad_phi_l2, diag.avg_grad_sq)))
    if len(diag):
        report = dynamics.check_asymptotic_bounds(diag, f_l2=plan["f_l2"], nu=params.nu)
        written.append(_write_json(out / "bounds_report.json", report))
    spectral.save_field(diag.final_state.psi, out / "final_field.json")
    written.append(out / "final_field.json")


def _cmd_stability(p: dict, plan: dict, out: Path, seed: int, written: list[Path]) -> None:
    from . import stability
    s, alpha, delta, lam = p["s"], p["alpha"], p["delta"], p["lambda"]
    rows = stability.stability_sweep(s, alpha, delta, lam,
                                     compute_lambda0=p["compute_lambda0"])
    pairs = [(row["t"], row["r"]) for row in rows if row["in_region"]]
    header = "s,t,r,alpha,delta,lambda,capital_lambda,sigma_hat,lambda0,in_region"
    written.append(_write_csv(out / "sweep.csv", header, rows))

    grid_rows = []
    if pairs:
        t, r = pairs[0]
        grid_rows = stability.sigma_grid_rows(plan["window"], s, alpha, t, r,
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
    summary = {
        "d_s": len(pairs),
        "a_delta": stability.region_area(delta),
        "delta_star": stability.DELTA_STAR,
        "max_a_delta_scaled": stability.MAX_A_DELTA_SCALED,
        "grashof": plan["grashof"],
        "lower_bound_2d": plan["lower_bound_2d"],
        "skipped": skipped,
    }
    written.append(_write_json(out / "summary.json", summary))
    if pairs:
        written += emit_plot_data(grid_rows, "sigma_vs_lambda", out)


def _cmd_bounds(p: dict, plan: dict, out: Path, seed: int, written: list[Path]) -> None:
    rows = plan["rows"]
    written.append(_write_csv(out / "bounds.csv", "g,alpha,upper1,upper2,lower,ratio", rows))
    written += emit_plot_data(rows, "bounds_vs_g", out)
    notes = sorted({n for r in rows for n in r["notes"]})
    written.append(_write_json(out / "summary.json",
                               {"points": len(rows), "notes": notes}))


def _cmd_report(p: dict, plan: dict, out: Path, seed: int, written: list[Path]) -> None:
    rows = plan["rows"]
    header = "g,alpha,lower,upper1,upper2,upper_min,ratio"
    written.append(_write_csv(out / "two_sided.csv", header, rows))
    written += emit_plot_data(rows, "bounds_vs_g", out)
    written.append(_write_json(out / "summary.json", {
        "points": len(rows),
        "alpha_regime_forms": rows[0]["alpha_regime_forms"] if rows else {},
        "notes": sorted({n for r in rows for n in r["notes"]}),
    }))


def _cmd_squire(p: dict, plan: dict, out: Path, seed: int, written: list[Path]) -> None:
    from . import squire
    s, nu, window, counts = p["s"], p["nu"], plan["window"], plan["counts"]
    setup = squire.Setup3D(s, plan["lambda"], nu, p["alpha"])

    rows, stable = [], 0
    triples = itertools.islice(squire.admissible_triples(s, window), p["max_lifts"])
    for tr, sigma_hat, residuals in squire.lift_rows(triples, setup):
        stable += sigma_hat <= 0  # a stable hat mode's residual stays blank
        rows.append((s, tr.a, tr.b, tr.r, tr.a_hat, sigma_hat,
                     max(residuals.values(), default=math.nan)))
    written.append(_write_csv(out / "triples.csv",
                              "s,a,b,r,a_hat,sigma_hat,residual", rows))

    density_rows = [{"s": c.s, "density": c.c5_fit} for c in counts]
    written += emit_plot_data(density_rows, "lattice_density", out)
    a0_vals = squire.a0_stability_spectrum(1, nu, k_cutoff=4 * s + 16)
    written += emit_plot_data([{"re": float(v.real), "im": float(v.imag)} for v in a0_vals],
                              "a0_spectrum", out)
    written.append(_write_json(out / "summary.json", {
        "lambda": plan["lambda"],
        "count": {str(c.s): c.count for c in counts},
        "c5_fit": {str(c.s): c.c5_fit for c in counts},
        "c5_halfwindow": window.c5_halfwindow(),
        "c5_fullwindow": window.c5_fullwindow(),
        "lifted": len(rows) - stable,
        "stable": stable,
        "lower_bound_3d": plan["lower_bound_3d"],
    }))


# (plan, run) of each command.  plan applies the rules that involve several
# fields, through the code that owns each rule, once every field is valid on
# its own, and returns the derived values the run reads; a config error is
# plan raising ConfigError.  run computes the rest and writes the artifacts.
_COMMAND_TABLE = {
    "simulate": (_plan_simulate, _cmd_simulate),
    "stability": (_plan_stability, _cmd_stability),
    "bounds": (_plan_bounds, _cmd_bounds),
    "squire": (_plan_squire, _cmd_squire),
    "report": (_plan_bounds, _cmd_report),
}
COMMANDS = tuple(_COMMAND_TABLE)


def run_command(config: ExperimentConfig, out_dir=None, threads: int = 1) -> dict:
    """Dispatch a validated config; write artifacts and manifest.json, and
    return the manifest: the dict that file holds.

    Every file the command wrote, and no other file in the output
    directory, is listed in ``outputs`` with its sha256.  Computation
    errors are recorded in the manifest (``status`` "error" and ``error``
    naming the exception, with the files written before the error) and
    re-raised after it is written.  ``threads`` is accepted and ignored:
    commands run in one thread.
    """
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": config.command,
        "config": json.loads(serialize_config(config)),
        "version": __version__,
        "started_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tolerances": dict(_TOLERANCES),
        "status": "ok",
        "error": None,
    }
    error: Exception | None = None
    written: list[Path] = []
    try:
        _COMMAND_TABLE[config.command][1](config.parameters, config.plan, out,
                                          config.seed, written)
    except Exception as exc:
        manifest.update(status="error", error=f"{type(exc).__name__}: {exc}")
        error = exc
    manifest["finished_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest["outputs"] = [{"path": str(path.relative_to(out)), "sha256": _sha256(path)}
                           for path in sorted(written)]
    _write_json(out / "manifest.json", manifest)
    if error is not None:
        raise error
    return manifest


def _main(args) -> int:
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
    print(f"ok: {len(manifest['outputs'])} artifacts in "
          f"{args.out or config.output_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse
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
