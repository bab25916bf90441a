"""rsft benchmark: seeded CLI workloads, timed end to end and traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from `src/`.
Each workload iteration is a fresh child interpreter that runs the
workload's subcommands through `rsft.cli.main` one after another (a closed
loop of one client).  Iterations repeat until `--seconds` are used, with
at least MIN_ITERATIONS.  Every operation's outputs are checked
(see check.py).

--trace 0 reports the end-to-end metrics: medians over iterations of the
child's wall time after set-up (`wall_s`), its set-up time from spawn until
rsft is imported and the configs are parsed (`setup_s`), and its peak RSS.
--trace 1 interleaves untraced and traced iterations and reports the
per-layer metrics of the traced ones (see tracing.py) with the tracing
overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from check import check_operation  # noqa: E402
from tracing import LAYERS, layer_metrics, load_spans  # noqa: E402
from workloads import WORKLOADS, Workload, config_seed, write_configs  # noqa: E402

MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 150
REFERENCE_PATH = os.path.join(HERE, "reference.json")
# Recorded, never set: they change step and set-up costs.
RECORDED_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "PYTHONDONTWRITEBYTECODE")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_us_p50", "_us_p99", "us_per_step")):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_agreement", "_ok", "_yield", "_share")):
        return "fraction"
    if name.endswith("conservation_err"):
        return "action"
    return "count"


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{name: os.environ.get(name) for name in RECORDED_VARIABLES},
        "git_commit": _git_commit(root),
        "seed": seed,
        "config_seed": config_seed(seed),
    }


class Runner:
    """Runs iterations of one workload in a work directory of the checkout."""

    def __init__(self, root: str, workload: Workload, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.rsft_dir = os.path.join(root, "src", "rsft")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.configs = write_configs(workload, seed, os.path.join(work, "configs"))
        self.reference = self._load_reference()
        self.count = 0

    def _load_reference(self):
        try:
            with open(REFERENCE_PATH, encoding="utf-8") as handle:
                recorded = json.load(handle)
        except FileNotFoundError:
            return {}
        return recorded.get(self.workload.name, {}).get(str(config_seed(self.seed)), {})

    def warm_up(self) -> None:
        """Import rsft once so byte code and page cache are warm for the
        measured iterations, as they are for a user's repeated runs."""
        subprocess.run([sys.executable, "-c", "import rsft.cli"], cwd=self.work, env=self.env,
                       timeout=CHILD_TIMEOUT_S, capture_output=True)

    def iterate(self, trace: bool) -> dict:
        """One child run; returns its timings, each operation's problems
        and, when traced, its spans."""
        self.count += 1
        result_path = os.path.join(self.work, f"iteration-{self.count}.json")
        ops = [f"{op.subcommand}={path}" for op, path in zip(self.workload.operations, self.configs)]
        argv = [sys.executable, os.path.join(HERE, "child.py"), result_path, self.rsft_dir,
                "1" if trace else "0", f"{self.workload.name}-{self.seed}-{self.count}", *ops]
        spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        crash = None
        try:
            proc = subprocess.run(argv, cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                crash = f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        except subprocess.TimeoutExpired:
            crash = f"child exceeded {CHILD_TIMEOUT_S} s"
        elapsed = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn
        outcome = {"trace": trace, "elapsed": elapsed, "problems": [], "facts": {}}
        if crash is not None:
            outcome["problems"] = [[crash] for _ in self.workload.operations]
            return outcome
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        os.remove(result_path)
        outcome.update(
            setup_s=result["ready"] - spawn,
            wall_s=result["wall_s"],
            parse_s=result["parse_s"],
            peak_rss_mb=result["maxrss_kb"] / 1024.0,
            grid=result["grid"],
        )
        for op, record in zip(self.workload.operations, result["ops"]):
            problems, facts = check_operation(
                self.workload, op, record, os.path.join(self.work, "out", op.name),
                self.reference.get(op.name, {}).get("files"),
            )
            outcome["problems"].append(problems)
            for key, value in facts.items():
                outcome["facts"][key] = max(value, outcome["facts"].get(key, value))
        if trace:
            spans_path = os.path.splitext(result_path)[0] + ".spans.npz"
            outcome["spans"] = load_spans(spans_path)
            os.remove(spans_path)
        return outcome


def measure(root: str, workload_name: str, seed: int, seconds: float, trace: bool,
            min_iterations: int = MIN_ITERATIONS) -> dict:
    workload = WORKLOADS[workload_name]
    work = os.path.join(root, ".perfbench_work", f"{workload_name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = Runner(root, workload, seed, work)
        runner.warm_up()
        outcomes: list[dict] = []

        def enough() -> bool:
            traced = sum(o["trace"] for o in outcomes)
            untraced = len(outcomes) - traced
            return untraced >= min_iterations and (not trace or traced >= min_iterations)

        # Stop before an iteration that would likely end after `seconds`.
        # Traced runs go untraced, traced, traced, untraced, ... so that a
        # drift of the machine's speed does not load one kind.
        start = time.monotonic()
        while not (enough() and time.monotonic() - start + outcomes[-1]["elapsed"] > seconds):
            outcomes.append(runner.iterate(trace and len(outcomes) % 4 in (1, 2)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    return summarize(workload, seed, outcomes, trace, root)


def _spread(values):
    q1, q3 = _quartiles(values)
    spread = {"median": _median(values), "q1": q1, "q3": q3, "min": min(values),
              "max": max(values), "n": len(values)}
    if len(values) > 10:
        # the highest percentile with at least ten samples beyond it
        spread["tail_pct"] = 100.0 * (len(values) - 10) / len(values)
        spread["tail"] = sorted(values)[len(values) - 11]
    return spread


def summarize(workload: Workload, seed: int, outcomes: list[dict], trace: bool,
              root: str) -> dict:
    attempted = sum(len(o["problems"]) for o in outcomes)
    failed = sum(1 for o in outcomes for p in o["problems"] if p)
    problems = sorted({msg for o in outcomes for p in o["problems"] for msg in p})
    untraced = [o for o in outcomes if not o["trace"] and "wall_s" in o]
    traced = [o for o in outcomes if o["trace"] and "wall_s" in o]
    timed = {key: _spread([o[key] for o in untraced]) for key in END_TO_END_UNITS} if untraced else {}
    facts: dict[str, float] = {}
    for o in outcomes:
        for key, value in o["facts"].items():
            facts[key] = max(value, facts.get(key, value))
    summary = {
        "workload": workload.name,
        "environment": environment(root, seed),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": timed,
        "facts": facts,
        "per_layer": {},
    }
    if traced and untraced:
        per_iteration = []
        for o in traced:
            m = layer_metrics(o["spans"], workload, o["grid"], o["wall_s"])
            m["config.parse_s"] = o["parse_s"]
            m["dynamics.conservation_err"] = o["facts"].get("conservation_err", 0.0)
            for key in ("correlator_agreement", "variance_agreement", "block_agreement", "mgf_pairs_ok"):
                m[f"cli.{key}"] = o["facts"].get(key, 0.0)
            per_iteration.append(m)
        layer = {key: _median([m[key] for m in per_iteration]) for key in per_iteration[0]}
        layer["trace.overhead_frac"] = (
            _median([o["wall_s"] for o in traced]) / _median([o["wall_s"] for o in untraced]) - 1.0
        )
        summary["per_layer"] = layer
        summary["missing_hooks"] = sorted({str(h) for o in traced for h in o["spans"]["missing"]})
    return summary


def report_lines(summary: dict, trace: bool) -> list[str]:
    name = summary["workload"]
    env = summary["environment"]
    lines = [f"perfbench {name} seed={env['seed']} config_seed={env['config_seed']} trace={int(trace)}",
             "environment " + json.dumps(env, sort_keys=True)]
    for key, unit in END_TO_END_UNITS.items():
        s = summary["end_to_end"].get(key)
        if s:
            tail = f"  p{s['tail_pct']:.0f} {s['tail']:.4f}" if "tail" in s else ""
            lines.append(f"{key:<18} median {s['median']:.4f} {unit}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
                         f"{tail}  min {s['min']:.4f}  max {s['max']:.4f}  n={s['n']} untraced iterations")
    if "conservation_err" in summary["facts"]:
        lines.append(f"{'conservation_err':<18} {summary['facts']['conservation_err']:.6e} "
                     "(max |total action| over every operation's conservation.csv)")
    rate = summary["failed"] / summary["attempted"] if summary["attempted"] else 0.0
    lines.append(f"{'error_rate':<18} {rate:.4f} ({summary['failed']} failed of "
                 f"{summary['attempted']} CLI invocations)")
    for key in ("correlator_agreement", "variance_agreement", "block_agreement", "mgf_pairs_ok"):
        if key in summary["facts"]:
            lines.append(f"cli.{key:<14} {summary['facts'][key]:.3f} (fraction printed by the subcommand)")
    for problem in summary["problems"]:
        lines.append(f"FAILED: {problem}")
    layer = summary["per_layer"]
    if layer:
        wall = layer["trace.wall_s"]
        workload = WORKLOADS[name]
        for key in LAYERS:
            lines.append(f"layer {key:<17} self {layer[key + '.self_s']:.4f} s  "
                         f"share {layer[key + '.self_s'] / wall:6.1%}")
        for hook in summary.get("missing_hooks", []):
            lines.append(f"not observed: {hook} (name no longer exists)")
        share = layer["trace.target_share"]
        verdict = "confirmed" if share > 0.5 else "refuted"
        lines.append(f"design check: {'+'.join(workload.target_layers)} do {share:.1%} of the traced "
                     f"wall -> {verdict}")
        for key, value in layer.items():
            lines.append(f"  {key} = {value:.6g} {per_layer_unit(key)}")
    return lines


def result_json(summary: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in summary["per_layer"].items()}
    else:
        metrics = {k: {"value": s["median"], "unit": END_TO_END_UNITS[k]}
                   for k, s in summary["end_to_end"].items()}
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rsft", "cli.py")):
        print("error: run from the root of an rsft checkout (src/rsft/cli.py not found)",
              file=sys.stderr)
        return 2
    summary = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(summary, bool(args.trace)):
        print(line)
    print(json.dumps(result_json(summary, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
