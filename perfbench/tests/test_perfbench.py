"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The tiny runs execute one iteration of each real workload (about 10 s in
all) from the root of this checkout.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import rsft.dynamics  # noqa: E402
from check import check_operation  # noqa: E402
from rsft.config import parse_config  # noqa: E402
from rsft.estimators import MIN_BATCHES  # noqa: E402
from run import Runner, measure, per_layer_unit  # noqa: E402
from tracing import LAYERS, Tracer, install, self_times  # noqa: E402
from workloads import REFERENCE_SEEDS, WORKLOADS, write_configs  # noqa: E402


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 9.0]
        parent = [-1, 0, 1, 0]
        assert list(self_times(start, end, parent)) == [3.0, 2.0, 1.0, 4.0]

    def test_child_is_clipped_to_parent(self):
        assert list(self_times([0.0, 8.0], [10.0, 12.0], [-1, 0])) == [8.0, 4.0]

    def test_tracer_self_times_sum_to_root(self):
        tracer = Tracer("t")
        root = tracer.open("cli.main")
        for _ in range(3):
            child = tracer.open("dynamics.run")
            tracer.close(tracer.open("action.matter_grad"))
            tracer.close(child)
        tracer.close(root)
        own = self_times(tracer.start, tracer.end, tracer.parent)
        assert own.min() >= 0.0
        assert own.sum() == pytest.approx(tracer.end[0] - tracer.start[0], rel=1e-9)

    def test_missing_hook_is_reported_not_raised(self, monkeypatch):
        monkeypatch.delattr(rsft.dynamics, "matter_grad")
        tracer = Tracer("t")
        undo = install(tracer)
        undo()
        assert tracer.missing == ["rsft.dynamics.matter_grad"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7, REFERENCE_SEEDS + 7, 2**40, -3])
def test_generated_configs_parse(tmp_path, workload, seed):
    paths = write_configs(WORKLOADS[workload], seed, str(tmp_path))
    assert len(paths) == len(WORKLOADS[workload].operations)
    for op, path in zip(WORKLOADS[workload].operations, paths):
        with open(path) as handle:
            cfg = parse_config(handle.read())
        assert cfg.seed == seed % REFERENCE_SEEDS
        assert cfg.output_dir == f"out/{op.name}"
        if WORKLOADS[workload].trajectory:
            samples = cfg.sampling_steps // cfg.thin_stride
            assert samples // cfg.resolved_batch_len >= MIN_BATCHES


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_passes_the_check(workload):
    summary = measure(ROOT, workload, seed=5, seconds=0, trace=False, min_iterations=1)
    assert summary["problems"] == []
    assert (summary["attempted"], summary["failed"]) == (len(WORKLOADS[workload].operations), 0)
    assert summary["end_to_end"]["wall_s"]["median"] > 0


def test_traced_run_reports_every_per_layer_metric():
    summary = measure(ROOT, "desk-trajectory", seed=5, seconds=0, trace=True, min_iterations=1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    layer = summary["per_layer"]
    assert {name: per_layer_unit(name) for name in layer} == declared
    assert layer["trace.accounted_frac"] == pytest.approx(1.0, abs=0.01)
    assert sum(layer[f"{name}.self_s"] for name in LAYERS) == pytest.approx(
        layer["trace.wall_s"], rel=0.01)
    assert layer["dynamics.steps"] == 30000
    assert layer["estimators.correlator.flushes"] == 8


@pytest.fixture(scope="module")
def desk_outputs():
    """One desk-trajectory iteration whose outputs stay on disk."""
    work = os.path.join(ROOT, ".perfbench_work", f"test-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(ROOT, WORKLOADS["desk-trajectory"], 5, work)
    outcome = runner.iterate(trace=False)
    assert outcome["problems"] == [[], [], []]
    yield runner
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(work))


def _check_correlator(runner, record):
    workload = runner.workload
    op = workload.operations[0]
    return check_operation(workload, op, record, os.path.join(runner.work, "out", op.name),
                           runner.reference[op.name]["files"])[0]


def test_corrupted_csv_is_a_failed_operation(desk_outputs):
    honest = {"rc": 1, "stdout": "", "stderr": ""}
    assert _check_correlator(desk_outputs, honest) == []
    path = os.path.join(desk_outputs.work, "out", "correlator", "correlator_mc.csv")
    with open(path) as handle:
        lines = handle.read().splitlines(keepends=True)
    # scale the largest re_mean of the grid by 1 %
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    row = max(range(first, len(lines)), key=lambda i: abs(float(lines[i].split(",")[4])))
    fields = lines[row].split(",")
    fields[4] = repr(float(fields[4]) * 1.01)
    lines[row] = ",".join(fields)
    with open(path, "w") as handle:
        handle.writelines(lines)
    problems = _check_correlator(desk_outputs, honest)
    assert problems and all(p.startswith("correlator_mc.csv:re_mean") for p in problems)


@pytest.mark.parametrize("record", [
    {"rc": 2, "stdout": "", "stderr": "error: bad config\n"},
    {"rc": 0, "stdout": "", "stderr": "error: something\n"},
    {"rc": None, "stdout": "", "stderr": "", "exception": "Traceback\nValueError: boom\n"},
])
def test_errors_are_failed_operations(desk_outputs, record):
    assert _check_correlator(desk_outputs, record)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fock-algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
