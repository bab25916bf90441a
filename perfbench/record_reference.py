"""Record the reference outputs that check.py compares against.

    python3 perfbench/record_reference.py

Run from the root of a checkout, at the commit whose outputs are the
reference.  For every trajectory workload and config seed 0 ..
REFERENCE_SEEDS - 1 it runs one untraced iteration and stores a fingerprint
of each Monte Carlo CSV (see check.summarize) and the operation's
max |total action| in perfbench/reference.json.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import REFERENCE_PATH, Runner, environment
from check import MC_FILES, conservation_error, summarize
from workloads import REFERENCE_SEEDS, WORKLOADS


def _rounded(value):
    """Ten significant digits: far below REFERENCE_RTOL, and a smaller file."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def main() -> int:
    root = os.getcwd()
    recorded = {"environment": environment(root, 0)}
    for workload in WORKLOADS.values():
        if not workload.trajectory:
            continue
        per_seed = recorded[workload.name] = {}
        for seed in range(REFERENCE_SEEDS):
            work = os.path.join(root, ".perfbench_work", f"reference-{workload.name}-{seed}")
            shutil.rmtree(work, ignore_errors=True)
            try:
                runner = Runner(root, workload, seed, work)
                outcome = runner.iterate(trace=False)
                unexpected = [p for ps in outcome["problems"] for p in ps
                              if not p.startswith("no reference recorded")]
                if unexpected:
                    print(f"{workload.name} seed {seed}: {unexpected}", file=sys.stderr)
                    return 1
                entry = per_seed[str(seed)] = {}
                for op in workload.operations:
                    out = os.path.join(work, "out", op.name)
                    entry[op.name] = {
                        "conservation_err": conservation_error(os.path.join(out, "conservation.csv")),
                        "files": {name: summarize(os.path.join(out, name))
                                  for name in MC_FILES[op.subcommand]},
                    }
            finally:
                shutil.rmtree(work, ignore_errors=True)
            worst = max(e["conservation_err"] for e in entry.values())
            print(f"{workload.name} seed {seed}: max |total action| {worst:.6e}", flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(_rounded(recorded), handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
