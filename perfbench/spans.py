"""Layer tracing for the benchmark's traced run.

``install`` wraps every public function of the six mla modules, under each
name through which it can be called (``dynamics`` imports ``jacobian`` and
friends by name, ``squire`` imports ``principal_sigma``), plus
``scipy.linalg.eig``, and counts ``ScalarField`` constructions.  Each call
records a span: name, start, end, parent span and run id (the index of the
``run_command`` call it belongs to).  Spans stay in memory until ``write``.

Self time is a span's duration minus the durations of its direct children;
the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import time
from collections import Counter

N_TRUNC_BUCKETS = (64, 128, 256, 512, 1024)

#: Per-layer metrics of a traced run, in report order, with units.  A
#: p50/p99 reads 0 when the layer had fewer than 10 calls in the run.
LAYER_METRICS = {
    "spectral.jacobian.calls": "count",
    "spectral.jacobian.s": "s",
    "spectral.jacobian.self_s": "s",
    "spectral.jacobian.computed_ffts": "count",
    "spectral.jacobian.computed_bytes": "B",
    "spectral.fields": "count",
    "spectral.fields_per_step": "count",
    "spectral.save_field.s": "s",
    "dynamics.step_imex.calls": "count",
    "dynamics.step_imex.self_s": "s",
    "dynamics.step_imex.p50_ms": "ms",
    "dynamics.step_imex.p99_ms": "ms",
    "dynamics.run.s": "s",
    "dynamics.run.diag_s": "s",
    "dynamics.dt_max.calls": "count",
    "stability.lambda0_threshold.calls": "count",
    "stability.lambda0_threshold.s": "s",
    "stability.sigma_per_threshold": "count",
    "stability.principal_sigma.calls": "count",
    "stability.principal_sigma.s": "s",
    "stability.principal_sigma.self_s": "s",
    "stability.principal_sigma.p50_ms": "ms",
    "stability.principal_sigma.p99_ms": "ms",
    "stability.dense_eig.calls": "count",
    "stability.dense_eig.s": "s",
    "stability.eig_yield": "ratio",
    **{f"stability.n_trunc_used.{n}": "count" for n in N_TRUNC_BUCKETS},
    "stability.stability_sweep.s": "s",
    "bounds.two_sided_report.calls": "count",
    "bounds.two_sided_report.s": "s",
    "squire.solve_hat_mode.calls": "count",
    "squire.solve_hat_mode.s": "s",
    "squire.lift_mode.calls": "count",
    "squire.lift_mode.s": "s",
    "squire.lift_mode.self_s": "s",
    "squire.lift_mode.max_residual": "ratio",
    "squire.count_triples.s": "s",
    "squire.a0_stability_spectrum.s": "s",
    "cli.parse_config.s": "s",
    "cli.run_command.s": "s",
    "cli.run_command.self_s": "s",
    "cli.emit_plot_data.s": "s",
    "cli.bytes_written": "B",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

#: Counts that must repeat exactly between two traced runs of the same inputs.
REPEATABLE_COUNTS = (
    "stability.principal_sigma.calls",
    "stability.dense_eig.calls",
    *(f"stability.n_trunc_used.{n}" for n in N_TRUNC_BUCKETS),
    "spectral.fields",
    "dynamics.step_imex.calls",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name id, start ns, end ns, parent, run id]
        self.labels: dict[int, str] = {}
        self.run_id = 0
        self.fields = 0
        self.sigma_results = 0
        self.n_trunc_used = Counter()
        self.lift_residuals: list[float] = []
        self._stack = [-1]

    def wrap(self, name, fn, observe=None, label=False):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, labels = self.spans, self._stack, self.labels
        clock = time.perf_counter_ns
        signature = inspect.signature(fn) if label else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            span = [nid, clock(), 0, stack[-1], self.run_id]
            spans.append(span)
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                labels[i] = ",".join(f"{k}={v}" for k, v in bound.items())
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_sigma(self, result) -> None:
        self.sigma_results += 1
        self.n_trunc_used[result.n_trunc_used] += 1

    def _observe_lift(self, mode) -> None:
        self.lift_residuals.append(max(mode.residuals.values()))

    # -- aggregation ----------------------------------------------------

    def _nearest(self, i: int, nid: int) -> int:
        """Index of the nearest ancestor of span i named ``nid``, or -1."""
        p = self.spans[i][3]
        while p >= 0 and self.spans[p][0] != nid:
            p = self.spans[p][3]
        return p

    def summary(self, bytes_written: int, jacobian_counts: tuple[int, int]) -> dict:
        """Per-layer metrics (without the trace.wall_s/overhead_s pair,
        which need an untraced run) and the per-threshold breakdown."""
        ids = {n: i for i, n in enumerate(self.names)}
        dur = [e - s for _, s, e, _, _ in self.spans]
        child = [0] * len(self.spans)
        by_name: dict[int, list[int]] = {i: [] for i in range(len(self.names))}
        for i, sp in enumerate(self.spans):
            by_name[sp[0]].append(i)
            if sp[3] >= 0:
                child[sp[3]] += dur[i]

        def spans_of(name):
            return by_name.get(ids.get(name, -1), [])

        def calls(name):
            return len(spans_of(name))

        def total(name):
            return sum(dur[i] for i in spans_of(name)) / 1e9

        def self_s(name):
            return sum(dur[i] - child[i] for i in spans_of(name)) / 1e9

        def pct(name, q):
            d = sorted(dur[i] for i in spans_of(name))
            if len(d) < 10:
                return 0.0
            return d[max(0, math.ceil(q * len(d)) - 1)] / 1e6

        sigma_id = ids.get("stability.principal_sigma", -2)
        threshold_id = ids.get("stability.lambda0_threshold", -2)
        run_id = ids.get("dynamics.run", -2)
        eig_under_sigma = [i for i in spans_of("scipy.linalg.eig")
                           if self._nearest(i, sigma_id) >= 0]
        sigma_in_threshold = [i for i in spans_of("stability.principal_sigma")
                              if self._nearest(i, threshold_id) >= 0]
        steps_in_run = sum(dur[i] for i in spans_of("dynamics.step_imex")
                           if self.spans[i][3] >= 0
                           and self.spans[self.spans[i][3]][0] == run_id)
        steps = calls("dynamics.step_imex")
        thresholds = calls("stability.lambda0_threshold")
        ffts, nbytes = jacobian_counts
        m = {
            "spectral.jacobian.calls": calls("spectral.jacobian"),
            "spectral.jacobian.s": total("spectral.jacobian"),
            "spectral.jacobian.self_s": self_s("spectral.jacobian"),
            "spectral.jacobian.computed_ffts": ffts,
            "spectral.jacobian.computed_bytes": nbytes,
            "spectral.fields": self.fields,
            "spectral.fields_per_step": self.fields / steps if steps else 0.0,
            "spectral.save_field.s": total("spectral.save_field"),
            "dynamics.step_imex.calls": steps,
            "dynamics.step_imex.self_s": self_s("dynamics.step_imex"),
            "dynamics.step_imex.p50_ms": pct("dynamics.step_imex", 0.5),
            "dynamics.step_imex.p99_ms": pct("dynamics.step_imex", 0.99),
            "dynamics.run.s": total("dynamics.run"),
            "dynamics.run.diag_s": total("dynamics.run") - steps_in_run / 1e9,
            "dynamics.dt_max.calls": calls("dynamics.dt_max"),
            "stability.lambda0_threshold.calls": thresholds,
            "stability.lambda0_threshold.s": total("stability.lambda0_threshold"),
            "stability.sigma_per_threshold":
                len(sigma_in_threshold) / thresholds if thresholds else 0.0,
            "stability.principal_sigma.calls": calls("stability.principal_sigma"),
            "stability.principal_sigma.s": total("stability.principal_sigma"),
            "stability.principal_sigma.self_s": self_s("stability.principal_sigma"),
            "stability.principal_sigma.p50_ms": pct("stability.principal_sigma", 0.5),
            "stability.principal_sigma.p99_ms": pct("stability.principal_sigma", 0.99),
            "stability.dense_eig.calls": len(eig_under_sigma),
            "stability.dense_eig.s": sum(dur[i] for i in eig_under_sigma) / 1e9,
            "stability.eig_yield":
                self.sigma_results / len(eig_under_sigma) if eig_under_sigma else 0.0,
            **{f"stability.n_trunc_used.{n}": self.n_trunc_used[n]
               for n in N_TRUNC_BUCKETS},
            "stability.stability_sweep.s": total("stability.stability_sweep"),
            "bounds.two_sided_report.calls": calls("bounds.two_sided_report"),
            "bounds.two_sided_report.s": total("bounds.two_sided_report"),
            "squire.solve_hat_mode.calls": calls("squire.solve_hat_mode"),
            "squire.solve_hat_mode.s": total("squire.solve_hat_mode"),
            "squire.lift_mode.calls": calls("squire.lift_mode"),
            "squire.lift_mode.s": total("squire.lift_mode"),
            "squire.lift_mode.self_s": self_s("squire.lift_mode"),
            "squire.lift_mode.max_residual": max(self.lift_residuals, default=0.0),
            "squire.count_triples.s": total("squire.count_triples"),
            "squire.a0_stability_spectrum.s": total("squire.a0_stability_spectrum"),
            "cli.parse_config.s": total("cli.parse_config"),
            "cli.run_command.s": total("cli.run_command"),
            "cli.run_command.self_s": self_s("cli.run_command"),
            "cli.emit_plot_data.s": total("cli.emit_plot_data"),
            "cli.bytes_written": bytes_written,
            "trace.spans": len(self.spans),
        }
        thresholds_detail = []
        for j in spans_of("stability.lambda0_threshold"):
            thresholds_detail.append({
                "args": self.labels[j],
                "s": dur[j] / 1e9,
                "principal_sigma": sum(1 for i in sigma_in_threshold
                                       if self._nearest(i, threshold_id) == j),
                "dense_eig": sum(1 for i in eig_under_sigma
                                 if self._nearest(i, threshold_id) == j),
            })
        return {"metrics": m, "thresholds": thresholds_detail}

    def write(self, path) -> None:
        """Write every span as [name, start_ns, end_ns, parent, run id]."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "labels": {str(k): v for k, v in self.labels.items()}}, fh)


def install(tracer: Tracer) -> None:
    """Route every call into the mla layers through ``tracer``."""
    import scipy.linalg

    from mla import bounds, cli, dynamics, spectral, squire, stability

    modules = (spectral, dynamics, stability, bounds, squire, cli)
    observers = {"stability.principal_sigma": tracer._observe_sigma,
                 "squire.lift_mode": tracer._observe_lift}
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = tracer.wrap(
                    name, fn, observers.get(name),
                    label=name == "stability.lambda0_threshold")
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and id(val) in wrappers:
                setattr(mod, attr, wrappers[id(val)])
    scipy.linalg.eig = tracer.wrap("scipy.linalg.eig", scipy.linalg.eig)

    post_init = spectral.ScalarField.__post_init__

    def counted_post_init(field):
        tracer.fields += 1
        post_init(field)

    spectral.ScalarField.__post_init__ = counted_post_init


def median_metrics(summaries: list[dict]) -> dict:
    """Median of each per-layer metric over several traced runs."""
    return {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
