"""Spans around calls into rsft's public functions, installed from outside.

`install` replaces each hooked name with a wrapper that opens a span on
entry and closes it on exit.  Spans are kept in memory as columns (name,
start, end, parent) and written once, with the run id, when the traced
child ends.  Nothing under `src/` is edited: the wrappers are bound in the
namespace the caller looks the name up in, so `matter_grad` is hooked as
`rsft.dynamics` sees it.

A span's name starts with its layer, which is the rsft module the work
belongs to: `action.matter_grad` is time spent in the `action` layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array

import numpy as np

from workloads import Workload

LAYERS = (
    "cli",
    "config",
    "lattice",
    "action",
    "dynamics",
    "estimators",
    "oracles",
    "operator_algebra",
    "storage",
)

ACCUMULATORS = {
    "correlator": "CorrelatorAccumulator",
    "variance": "VarianceAccumulator",
    "covariance": "CovarianceAccumulator",
    "mgf": "MgfAccumulator",
}


class Tracer:
    """In-memory span recorder for one single-threaded run.

    Spans nest as a stack, so the direct children of a span never overlap.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        # adds per live accumulator, keyed by (kind, id); see settle_flushes
        self.adds: dict[tuple[str, int], int] = {}

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(float("nan"))
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def settle_flushes(self, batch_len: int) -> None:
        """Count the completed batches of the accumulators fed since the
        last call; every accumulator of one CLI run shares its batch length."""
        for (acc, _instance), adds in self.adds.items():
            self.count(f"estimators.{acc}.flushes", adds // batch_len)
        self.adds.clear()

    def save(self, path: str) -> None:
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            counter_keys=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=float),
            missing=np.array(self.missing, dtype=str),
        )


def _spanned(tracer: Tracer, name: str, fn, after=None):
    """Wrap fn in a span; `after(args, kwargs, result)` records counters."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            try:
                after(args, kwargs, result)
            except (AttributeError, KeyError, TypeError, OSError) as err:
                # a refactored signature or result: the counters are lost,
                # the program's run is not
                note = f"{name} counters ({type(err).__name__}: {err})"
                if note not in tracer.missing:
                    tracer.missing.append(note)
        return result

    return traced


def _argument(fn, name: str):
    """Reader of argument `name` from a call's (args, kwargs); raises
    KeyError when the function no longer takes it."""
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments[name]


def _size_counter(tracer, fn, key):
    path_of = _argument(fn, "path")

    def after(args, kwargs, _result):
        tracer.count(key, os.path.getsize(path_of(args, kwargs)))

    return after


def _hooks(tracer: Tracer):
    """(module, class or None, attribute, wrapper factory) per hooked name."""

    def plain(name, after_factory=None):
        def factory(fn):
            after = after_factory(fn) if after_factory else None
            return _spanned(tracer, name, fn, after)

        return factory

    def observer(name):
        # The observer factories return closures that dynamics.run calls
        # once per step; their own work is cli time, their callees are not.
        def factory(make):
            @functools.wraps(make)
            def traced_make(*args, **kwargs):
                return _spanned(tracer, name, make(*args, **kwargs))

            return traced_make

        return factory

    def dynamics_run(fn):
        steps_of = _argument(fn, "n_steps")
        from rsft.dynamics import StepFailureError

        def steps(args, kwargs, _result):
            tracer.count("dynamics.steps", steps_of(args, kwargs))

        traced = _spanned(tracer, "dynamics.run", fn, steps)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            except StepFailureError:
                tracer.count("dynamics.step_failures")
                raise

        return counted

    def fock_built(_fn):
        def after(_args, _kwargs, rep):
            tracer.count("operator_algebra.fock_dim", rep.dim)
            tracer.count("operator_algebra.enumerated_tuples", (rep.n_max + 1) ** rep.d)
            tracer.counters["operator_algebra.ladder_bytes"] = max(
                tracer.counters.get("operator_algebra.ladder_bytes", 0), rep.d * rep.dim**2 * 8
            )

        return after

    def report_done(_fn):
        def after(_args, _kwargs, results):
            tracer.count("operator_algebra.identities_failed", sum(not r.passed for r in results))

        return after

    def accumulator_add(acc):
        def factory(fn):
            traced = _spanned(tracer, f"estimators.{acc}.add", fn)

            @functools.wraps(fn)
            def counted(self, *args, **kwargs):
                key = (acc, id(self))
                tracer.adds[key] = tracer.adds.get(key, 0) + 1
                return traced(self, *args, **kwargs)

            return counted

        return factory

    hooks = [
        ("rsft.cli", None, "config_from_file", plain("config.config_from_file")),
        ("rsft.cli", None, "_conservation_observer", observer("cli.observer.conservation")),
        ("rsft.cli", None, "_checkpoint_observer", observer("cli.observer.checkpoint")),
        ("rsft.cli", None, "_sampling_observer", observer("cli.observer.sampling")),
        ("rsft.dynamics", None, "run", dynamics_run),
        ("rsft.dynamics", None, "init_state", plain("dynamics.init_state")),
        ("rsft.dynamics", None, "matter_grad", plain("action.matter_grad")),
        ("rsft.dynamics", None, "matter_action", plain("action.matter_action")),
        ("rsft.dynamics", "ExtendedState", "total_action", plain("action.total_action")),
        ("rsft.estimators", None, "omega", plain("lattice.omega")),
        ("rsft.estimators", None, "effective_masses", plain("lattice.effective_masses")),
        ("rsft.oracles", None, "expected_correlator", plain("oracles.expected_correlator")),
        ("rsft.oracles", None, "exact_covariance", plain("oracles.exact_covariance")),
        ("rsft.cli", "HilbertContext", "from_covariance", plain("operator_algebra.context")),
        ("rsft.cli", "FockRep", "build", plain("operator_algebra.fock_build", fock_built)),
        ("rsft.cli", None, "algebra_report", plain("operator_algebra.report", report_done)),
        ("rsft.storage", None, "write_checkpoint",
         plain("storage.checkpoint", lambda fn: _size_counter(tracer, fn, "storage.checkpoint_bytes"))),
        ("rsft.storage", "ConservationLog", "record", plain("storage.log_record")),
        ("rsft.storage", None, "emit_correlator_csv",
         plain("storage.csv", lambda fn: _size_counter(tracer, fn, "storage.csv_bytes"))),
        ("rsft.storage", None, "emit_table_csv",
         plain("storage.csv", lambda fn: _size_counter(tracer, fn, "storage.csv_bytes"))),
    ]
    for acc, cls in ACCUMULATORS.items():
        hooks.append(("rsft.estimators", cls, "add", accumulator_add(acc)))
        hooks.append(("rsft.estimators", cls, "result", plain(f"estimators.{acc}.result")))
    return hooks


def install(tracer: Tracer):
    """Wrap every hooked name that exists; record the missing ones in
    `tracer.missing` instead of failing.  Returns a callable that restores
    the original bindings."""
    restore = []
    for module_name, cls_name, attr, factory in _hooks(tracer):
        where = f"{module_name}.{cls_name + '.' if cls_name else ''}{attr}"
        try:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(factory(raw.__func__))
            else:
                wrapped = factory(raw)
        except (ImportError, AttributeError, TypeError, ValueError):
            # gone or no longer a function (TypeError/ValueError come from
            # inspect.signature)
            tracer.missing.append(where)
            continue
        setattr(owner, attr, wrapped)
        restore.append((owner, attr, raw))

    def undo():
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)

    return undo


# --- analysis (runs in the benchmark process) ---------------------------


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its direct children
    cover.  Children are clipped to the parent's interval; siblings never
    overlap because spans of one thread nest as a stack."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    child = np.flatnonzero(parent >= 0)
    up = parent[child]
    covered = np.minimum(end[child], end[up]) - np.maximum(start[child], start[up])
    cover = np.bincount(up, weights=np.maximum(covered, 0.0), minlength=len(start))
    return duration - cover


def load_spans(path: str) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def _percentile_us(durations: np.ndarray, q: float) -> float:
    return float(np.percentile(durations, q) * 1e6) if durations.size else 0.0


def layer_metrics(spans: dict, workload: Workload, grid_size: tuple[int, int],
                  wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced child from its saved spans and
    counters; `grid_size` is the correlator's (time points, sites) and
    `wall_s` the child's traced wall time."""
    names = [str(n) for n in spans["names"]]
    name_id = spans["name_id"]
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    duration = end - start
    counters = dict(zip((str(k) for k in spans["counter_keys"]), spans["counter_values"]))
    by_name = {name: duration[name_id == i] for i, name in enumerate(names)}
    empty = np.empty(0)

    def calls(name):
        return float(by_name.get(name, empty).size)

    def busy(*span_names):
        return float(sum(by_name.get(n, empty).sum() for n in span_names))

    m: dict[str, float] = {}
    span_layer = np.array([n.split(".", 1)[0] for n in names] + [""])[name_id]
    own = self_times(start, end, parent)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(own[span_layer == layer].sum())

    # Integrator time per step: dynamics.run minus the observers it calls.
    runs = np.flatnonzero(name_id == (names.index("dynamics.run") if "dynamics.run" in names else -1))
    observed = np.isin(parent, runs) & np.char.startswith(span_layer, "cli")
    steps = counters.get("dynamics.steps", 0.0)
    integrate_s = float(duration[runs].sum() - duration[observed].sum())
    m["dynamics.steps"] = steps
    m["dynamics.us_per_step"] = integrate_s / steps * 1e6 if steps else 0.0
    m["dynamics.step_failures"] = counters.get("dynamics.step_failures", 0.0)

    m["action.grad_calls"] = calls("action.matter_grad")
    m["action.grad_s"] = busy("action.matter_grad")
    m["action.value_calls"] = calls("action.matter_action")
    m["action.value_s"] = busy("action.matter_action")
    m["action.total_action_s"] = busy("action.total_action")

    m["lattice.omega_calls"] = calls("lattice.omega")
    m["lattice.omega_s"] = busy("lattice.omega", "lattice.effective_masses")

    for acc in ACCUMULATORS:
        adds = by_name.get(f"estimators.{acc}.add", empty)
        m[f"estimators.{acc}.add_calls"] = float(adds.size)
        m[f"estimators.{acc}.add_s"] = float(adds.sum())
        m[f"estimators.{acc}.add_us_p50"] = _percentile_us(adds, 50)
        m[f"estimators.{acc}.add_us_p99"] = _percentile_us(adds, 99)
        m[f"estimators.{acc}.flushes"] = counters.get(f"estimators.{acc}.flushes", 0.0)
        m[f"estimators.{acc}.result_s"] = busy(f"estimators.{acc}.result")
    t_points, sites = grid_size
    m["estimators.correlator.phase_exps"] = (
        m["estimators.correlator.add_calls"] * t_points * sites if workload.dynamic_shell else 0.0
    )

    m["oracles.expected_correlator_s"] = busy("oracles.expected_correlator")
    m["oracles.exact_covariance_s"] = busy("oracles.exact_covariance")

    m["operator_algebra.context_s"] = busy("operator_algebra.context")
    m["operator_algebra.fock_build_s"] = busy("operator_algebra.fock_build")
    m["operator_algebra.fock_dim"] = counters.get("operator_algebra.fock_dim", 0.0)
    tuples = counters.get("operator_algebra.enumerated_tuples", 0.0)
    m["operator_algebra.enumerated_tuples"] = tuples
    m["operator_algebra.enumeration_yield"] = m["operator_algebra.fock_dim"] / tuples if tuples else 0.0
    m["operator_algebra.ladder_bytes"] = counters.get("operator_algebra.ladder_bytes", 0.0)
    m["operator_algebra.report_s"] = busy("operator_algebra.report")
    m["operator_algebra.identities_failed"] = counters.get("operator_algebra.identities_failed", 0.0)

    m["storage.checkpoint_writes"] = calls("storage.checkpoint")
    m["storage.checkpoint_s"] = busy("storage.checkpoint")
    m["storage.checkpoint_bytes"] = counters.get("storage.checkpoint_bytes", 0.0)
    m["storage.log_records"] = calls("storage.log_record")
    m["storage.log_s"] = busy("storage.log_record")
    m["storage.csv_s"] = busy("storage.csv")
    m["storage.csv_bytes"] = counters.get("storage.csv_bytes", 0.0)

    accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.wall_s"] = wall_s
    m["trace.accounted_frac"] = accounted / wall_s
    m["trace.target_share"] = sum(m[f"{layer}.self_s"] for layer in workload.target_layers) / wall_s
    m["trace.hooks_missing"] = float(spans["missing"].size)
    return m
