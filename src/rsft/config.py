"""Run configuration: key = value parsing, presets, and validation.

The format is one `key = value` per line with `#` comments.  A `preset`
line fills in a named parameter set first; explicit keys override it.
Unknown keys, type mismatches, and invariant violations are parse errors
naming the offending line and key.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from typing import Any

from .action import BathParams, MatterActionKind
from .dynamics import IntegratorParams
from .estimators import MAX_COVARIANCE_SITES, MAX_MGF_EPSILON, GridSpec, default_batch_len
from .lattice import (
    FixedShell,
    GlobalDynamicShell,
    LocalDynamicShell,
    MassShell,
    MomentumLattice,
)


class ConfigError(ValueError):
    pass


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        left, sep, right = chunk.partition(":")
        if not sep:
            raise ValueError(f"pair {chunk!r} must look like p:q")
        pairs.append((int(left), int(right)))
    return tuple(pairs)


# A check is a (test, message) pair: a set value that fails the test is
# rejected with the message.
_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")


def _one_of(choices) -> tuple:
    return (lambda v: v in choices, f"must be one of {sorted(choices)}")


# key -> (attribute, converter, check or None), in header order.  Float keys
# must also be finite; the checks that read more than one key are in
# `_validate`.
_SCHEMA: dict[str, tuple[str, Any, Any]] = {
    "lattice.n_per_axis": ("n_per_axis", int, (lambda v: v >= 1, "must be a positive integer")),
    "lattice.spacing": ("spacing", float, _POSITIVE),
    "physics.beta": ("beta", float, _POSITIVE),
    "physics.mass": ("mass", float, _NONNEGATIVE),
    "physics.m_s": ("m_s", float, _POSITIVE),
    "action.kind": ("action_kind", str, _one_of([kind.value for kind in MatterActionKind])),
    "shell.kind": ("shell_kind", str, _one_of(["fixed", "global_dynamic", "local_dynamic"])),
    "dynamics.dlambda": ("dlambda", float, (_POSITIVE[0], "dlambda must be positive")),
    "dynamics.equilibration_steps": ("equilibration_steps", int, _NONNEGATIVE),
    "dynamics.sampling_steps": ("sampling_steps", int, _NONNEGATIVE),
    "dynamics.thin_stride": ("thin_stride", int, _AT_LEAST_1),
    "dynamics.batch_len": ("batch_len", int, _AT_LEAST_1),
    "seed": ("seed", int, (lambda v: 0 <= v < 2**64, "must fit in 64 unsigned bits")),
    "grid.t_extent": ("grid_t_extent", float, _NONNEGATIVE),
    "grid.t_points": ("grid_t_points", int, _AT_LEAST_1),
    "grid.x_extent": ("grid_x_extent", float, _NONNEGATIVE),
    "grid.x_points": ("grid_x_points", int, _AT_LEAST_1),
    "grid.axis": ("grid_axis", int, (lambda v: v in (1, 2, 3), "must be 1, 2 or 3")),
    "covariance.n_sites": (
        "covariance_n_sites",
        int,
        (lambda v: 1 <= v <= MAX_COVARIANCE_SITES, f"must be between 1 and {MAX_COVARIANCE_SITES}"),
    ),
    "mgf.pairs": ("mgf_pairs", _parse_pairs, None),
    "mgf.epsilon": (
        "mgf_epsilon",
        float,
        (lambda v: 0 < v <= MAX_MGF_EPSILON, f"must be in (0, {MAX_MGF_EPSILON}]"),
    ),
    "micro.sigma_p": ("micro_sigma_p", float, _POSITIVE),
    "micro.separation": ("micro_separation", float, _POSITIVE),
    "micro.threshold": ("micro_threshold", float, _POSITIVE),
    "micro.source": ("micro_source", str, _one_of(["exact", "mc"])),
    "fock.n_observables": ("fock_n_observables", int, _AT_LEAST_1),
    "fock.n_max": ("fock_n_max", int, _AT_LEAST_1),
    "fock.tol": ("fock_tol", float, _POSITIVE),
    "output.dir": ("output_dir", str, None),
    "output.checkpoint_every": ("checkpoint_every", int, _AT_LEAST_1),
    "output.log_every": ("log_every", int, _AT_LEAST_1),
}

# Validation builds the grid's times to check them, so it bounds their count
# first: 8 MB of times.  A correlator over that many keeps about T/2 phase
# rows of N sites, far more than any run can hold.
_MAX_GRID_TIMES = 1 << 20

_FIGURE_SCALE = {
    "lattice.n_per_axis": "25",
    "lattice.spacing": "0.1",
    "physics.beta": "1.0",
    "physics.mass": "1.0",
    "dynamics.dlambda": "0.01",
    "dynamics.equilibration_steps": "1000000",
    "dynamics.sampling_steps": "1000000",
}

PRESETS: dict[str, dict[str, str]] = {
    "example1": {**_FIGURE_SCALE, "action.kind": "free", "shell.kind": "fixed"},
    "example2": {**_FIGURE_SCALE, "action.kind": "free_collective", "shell.kind": "fixed"},
    "example3": {**_FIGURE_SCALE, "action.kind": "free_collective", "shell.kind": "global_dynamic"},
    "example4": {**_FIGURE_SCALE, "action.kind": "free_collective", "shell.kind": "local_dynamic"},
    # Desk-scale default: minutes of runtime instead of figure-scale hours.
    "desk": {
        "lattice.n_per_axis": "9",
        "lattice.spacing": "0.1",
        "physics.beta": "1.0",
        "physics.mass": "1.0",
        "dynamics.dlambda": "0.01",
        "dynamics.equilibration_steps": "100000",
        "dynamics.sampling_steps": "400000",
        "action.kind": "free_collective",
        "shell.kind": "fixed",
    },
}


@dataclass(frozen=True)
class RunConfig:
    n_per_axis: int
    spacing: float
    beta: float
    mass: float
    action_kind: str
    shell_kind: str
    dlambda: float
    equilibration_steps: int
    sampling_steps: int
    m_s: float | None = None  # defaults to the site count
    thin_stride: int = 10
    batch_len: int | None = None  # defaults to sampling/(64 thin), floor 100
    seed: int = 1
    grid_t_extent: float = 3.0
    grid_t_points: int = 21
    grid_x_extent: float = 3.0
    grid_x_points: int = 21
    grid_axis: int = 1
    covariance_n_sites: int = 8
    mgf_pairs: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (2, 2), (3, 5))
    mgf_epsilon: float = 0.05
    micro_sigma_p: float = 0.3
    micro_separation: float = 1.5
    micro_threshold: float = 0.05
    micro_source: str = "exact"
    fock_n_observables: int = 3
    fock_n_max: int = 4
    fock_tol: float = 1e-10
    output_dir: str = "out"
    checkpoint_every: int = 100_000
    log_every: int = 1000
    preset: str | None = None

    @property
    def site_count(self) -> int:
        return self.n_per_axis**3

    @property
    def resolved_m_s(self) -> float:
        return float(self.site_count) if self.m_s is None else self.m_s

    @property
    def resolved_batch_len(self) -> int:
        if self.batch_len is not None:
            return self.batch_len
        return default_batch_len(self.sampling_steps, self.thin_stride)

    @property
    def total_steps(self) -> int:
        return self.equilibration_steps + self.sampling_steps

    def lattice(self) -> MomentumLattice:
        return MomentumLattice(self.n_per_axis, self.spacing)

    def bath(self) -> BathParams:
        return BathParams(self.beta, self.resolved_m_s, self.site_count)

    def matter_action_kind(self) -> MatterActionKind:
        return MatterActionKind(self.action_kind)

    def shell(self) -> MassShell:
        if self.shell_kind == "fixed":
            return FixedShell(self.mass)
        if self.shell_kind == "global_dynamic":
            return GlobalDynamicShell()
        return LocalDynamicShell()

    def integrator_params(self) -> IntegratorParams:
        return IntegratorParams(self.dlambda, self.bath(), self.matter_action_kind())

    def grid_spec(self) -> GridSpec:
        return GridSpec.plane(
            self.grid_t_extent,
            self.grid_t_points,
            self.grid_x_extent,
            self.grid_x_points,
            self.grid_axis,
        )

    def resolved_items(self) -> list[tuple[str, str]]:
        """Canonical (key, value) listing of the fully resolved configuration,
        suitable for embedding in output headers and reproducing the run."""
        items: list[tuple[str, str]] = []
        if self.preset is not None:
            items.append(("preset", self.preset))
        resolved = replace(self, m_s=self.resolved_m_s, batch_len=self.resolved_batch_len)
        for key, (attr, convert, _check) in _SCHEMA.items():
            value = getattr(resolved, attr)
            if convert is _parse_pairs:
                value = ",".join(f"{p}:{q}" for p, q in value)
            items.append((key, repr(value) if convert is float else str(value)))
        return items


# the keys of the RunConfig fields without a default, in schema order
_NO_DEFAULT = {field.name for field in fields(RunConfig) if field.default is MISSING}
_REQUIRED_KEYS = tuple(key for key, (attr, *_) in _SCHEMA.items() if attr in _NO_DEFAULT)


def _validate(cfg: RunConfig, located: dict[str, int]) -> None:
    def fail(key: str, message: str):
        lineno = located.get(key)
        where = f"line {lineno}: " if lineno is not None else ""
        raise ConfigError(f"{where}{key}: {message}")

    for key, (attr, convert, _check) in _SCHEMA.items():
        value = getattr(cfg, attr)
        if convert is float and value is not None and not math.isfinite(value):
            fail(key, f"must be finite, got {value!r}")
    for key, (attr, _convert, check) in _SCHEMA.items():
        value = getattr(cfg, attr)
        if check is not None and value is not None and not check[0](value):
            fail(key, check[1])
    if cfg.grid_t_points > _MAX_GRID_TIMES:
        fail("grid.t_points", f"must be at most {_MAX_GRID_TIMES}")
    try:
        # only the times can fail GridSpec's checks, so one spatial point will do
        GridSpec.plane(cfg.grid_t_extent, cfg.grid_t_points, 0.0, 1)
    except ValueError as err:
        t = cfg.grid_t_extent
        fail("grid.t_extent", f"{err}; got {cfg.grid_t_points} times over [-{t!r}, {t!r}]")
    n = cfg.site_count
    if cfg.covariance_n_sites > n:
        fail("covariance.n_sites", f"{cfg.covariance_n_sites} exceeds the lattice of {n} sites")
    for p, q in cfg.mgf_pairs:
        if not (0 <= p < n and 0 <= q < n):
            fail("mgf.pairs", f"site pair ({p},{q}) outside the lattice of {n} sites")


def parse_config(text: str) -> RunConfig:
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        content = line.split("#", 1)[0].strip()
        if not content:
            continue
        key, sep, value = content.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line.strip()!r}")
        key, value = key.strip(), value.strip()
        if key == "preset":
            if value not in PRESETS:
                raise ConfigError(
                    f"line {lineno}: preset: unknown preset {value!r}; "
                    f"choose from {sorted(PRESETS)}"
                )
        elif key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
        lines[key] = lineno

    preset = raw.pop("preset", None)
    merged: dict[str, str] = dict(PRESETS[preset]) if preset else {}
    merged.update(raw)

    missing = [key for key in _REQUIRED_KEYS if key not in merged]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    kwargs: dict[str, Any] = {"preset": preset}
    for key, value in merged.items():
        attr, convert, _check = _SCHEMA[key]
        try:
            kwargs[attr] = convert(value)
        except (TypeError, ValueError) as err:
            lineno = lines.get(key)
            where = f"line {lineno}: " if lineno is not None else ""
            raise ConfigError(f"{where}{key}: cannot parse {value!r} ({err})") from None

    cfg = RunConfig(**kwargs)
    _validate(cfg, lines)
    return cfg


def config_from_file(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
