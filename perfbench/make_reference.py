"""Regenerate the committed reference outputs in ``perfbench/reference``.

    python3 perfbench/make_reference.py [workload ...]

Run from the root of a source checkout.  Each reference is produced by the
same child process and extraction that the benchmark's checks use, and
stores the package's tolerances (``mla.cli._TOLERANCES``) beside the cells.
Simulate workloads get one reference per initial-condition seed.
"""

import json
import shutil
import sys
from pathlib import Path

import check
import run
from workloads import SIMULATE_SEEDS, WORKLOADS, reference_key


def main(names) -> int:
    root = Path.cwd().resolve()
    for name in names or sorted(WORKLOADS):
        configs_of = WORKLOADS[name][0]
        seeds = range(SIMULATE_SEEDS) if reference_key(name, 0) != "all" else [0]
        doc = {"tolerances": None, "cells": {}}
        for seed in seeds:
            configs = configs_of(seed)
            out = root / ".perfbench_out" / "reference" / name
            shutil.rmtree(out, ignore_errors=True)
            spec = {"configs": configs, "out": str(out), "trace": False}
            r = run.run_child(root, spec, timeout=600)
            if r["returncode"] != 0 or r["result"] is None:
                print(f"error: {name} seed {seed} failed: {r}", file=sys.stderr)
                return 1
            cells = check.extract(configs, out)
            doc["tolerances"] = cells["0.manifest.tolerances"][1]
            doc["cells"][reference_key(name, seed)] = {
                k: [rule, value] for k, (rule, value) in cells.items()}
            shutil.rmtree(out)
            print(f"{name} [{reference_key(name, seed)}]: {len(cells)} cells, "
                  f"{r['result']['wall_s']:.2f} s")
        path = check.reference_path(root, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
