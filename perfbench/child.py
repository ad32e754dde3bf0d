"""One benchmark run in a fresh interpreter.

    python3 perfbench/child.py '<spec json>'

The spec names the configs to run, the output directory, and whether to
trace.  Set-up (import of ``mla.cli`` and ``parse_config`` of every config)
ends at the CLOCK_MONOTONIC time reported as ``ready``; the parent compares
it with the time it spawned this process.  ``wall_s`` sums, over configs,
the time from ``run_command`` start until it returns, which is after
``manifest.json`` is written.  The result is one JSON line on stdout; the
exit code is 3 if any config raised, as the CLI would exit.
"""

import json
import os
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    spec = json.loads(sys.argv[1])
    import mla.cli as cli

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    configs = [cli.parse_config(json.dumps(c)) for c in spec["configs"]]
    result = {"ready": _now(), "mla_file": cli.__file__}

    import numpy
    import scipy

    from kernels import jacobian_counts

    wall, errors, bytes_written = 0.0, [], 0
    for i, cfg in enumerate(configs):
        out = os.path.join(spec["out"], str(i))
        if tracer is not None:
            tracer.run_id = i
        start = _now()
        try:
            cli.run_command(cfg, out_dir=out, threads=1)
        except Exception as exc:  # recorded in the manifest; reported as a failed run
            errors.append(f"config {i} ({cfg.command}): {type(exc).__name__}: {exc}")
        wall += _now() - start
        bytes_written += sum(os.path.getsize(os.path.join(d, f))
                             for d, _, files in os.walk(out) for f in files)
    result.update(wall_s=wall, errors=errors, numpy=numpy.__version__,
                  scipy=scipy.__version__)
    if tracer is not None:
        n = max((c.parameters["n_modes"] for c in configs if c.command == "simulate"),
                default=0)
        result["trace"] = tracer.summary(bytes_written, jacobian_counts(n))
        tracer.write(os.path.join(spec["out"], "spans.json"))
    print(json.dumps(result))
    return 3 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
