"""Run configuration: key = value parsing, presets, and validation.

The format is one `key = value` per line with `#` comments.  A `preset`
line fills in a named parameter set first; explicit keys override it.
Unknown keys, type mismatches, and invariant violations are parse errors
naming the offending line and key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _format_pairs(pairs) -> str:
    return ",".join(f"{p}:{q}" for p, q in pairs)


# key -> (attribute, converter, formatter)
_SCHEMA: dict[str, tuple[str, Any, Any]] = {
    "lattice.n_per_axis": ("n_per_axis", int, str),
    "lattice.spacing": ("spacing", float, repr),
    "physics.beta": ("beta", float, repr),
    "physics.mass": ("mass", float, repr),
    "physics.m_s": ("m_s", float, repr),
    "action.kind": ("action_kind", str, str),
    "shell.kind": ("shell_kind", str, str),
    "dynamics.dlambda": ("dlambda", float, repr),
    "dynamics.equilibration_steps": ("equilibration_steps", int, str),
    "dynamics.sampling_steps": ("sampling_steps", int, str),
    "dynamics.thin_stride": ("thin_stride", int, str),
    "dynamics.batch_len": ("batch_len", int, str),
    "seed": ("seed", int, str),
    "grid.t_extent": ("grid_t_extent", float, repr),
    "grid.t_points": ("grid_t_points", int, str),
    "grid.x_extent": ("grid_x_extent", float, repr),
    "grid.x_points": ("grid_x_points", int, str),
    "grid.axis": ("grid_axis", int, str),
    "covariance.n_sites": ("covariance_n_sites", int, str),
    "mgf.pairs": ("mgf_pairs", _parse_pairs, _format_pairs),
    "mgf.epsilon": ("mgf_epsilon", float, repr),
    "micro.sigma_p": ("micro_sigma_p", float, repr),
    "micro.separation": ("micro_separation", float, repr),
    "micro.threshold": ("micro_threshold", float, repr),
    "micro.source": ("micro_source", str, str),
    "fock.n_observables": ("fock_n_observables", int, str),
    "fock.n_max": ("fock_n_max", int, str),
    "fock.tol": ("fock_tol", float, repr),
    "output.dir": ("output_dir", str, str),
    "output.checkpoint_every": ("checkpoint_every", int, str),
    "output.log_every": ("log_every", int, str),
}

_REQUIRED_KEYS = (
    "lattice.n_per_axis",
    "lattice.spacing",
    "physics.beta",
    "physics.mass",
    "action.kind",
    "shell.kind",
    "dynamics.dlambda",
    "dynamics.equilibration_steps",
    "dynamics.sampling_steps",
)

# Validation builds the grid's times to check them, so it bounds their count
# first: 8 MB of times.  A correlator over that many keeps about T/2 phase
# rows of N sites, far more than any run can hold.
_MAX_GRID_TIMES = 1 << 20

_SHELL_KINDS = ("fixed", "global_dynamic", "local_dynamic")
_MICRO_SOURCES = ("exact", "mc")

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
        for key, (attr, _conv, fmt) in _SCHEMA.items():
            if attr == "m_s":
                items.append((key, repr(self.resolved_m_s)))
            elif attr == "batch_len":
                items.append((key, str(self.resolved_batch_len)))
            else:
                items.append((key, fmt(getattr(self, attr))))
        return items


def _validate(cfg: RunConfig, located: dict[str, int]) -> None:
    def fail(key: str, message: str):
        lineno = located.get(key)
        where = f"line {lineno}: " if lineno is not None else ""
        raise ConfigError(f"{where}{key}: {message}")

    for key, (attr, convert, _fmt) in _SCHEMA.items():
        value = getattr(cfg, attr)
        if convert is float and value is not None and not math.isfinite(value):
            fail(key, f"must be finite, got {value!r}")
    if cfg.n_per_axis < 1:
        fail("lattice.n_per_axis", "must be a positive integer")
    if not cfg.spacing > 0:
        fail("lattice.spacing", "must be positive")
    if not cfg.beta > 0:
        fail("physics.beta", "must be positive")
    if cfg.mass < 0:
        fail("physics.mass", "must be nonnegative")
    if cfg.m_s is not None and not cfg.m_s > 0:
        fail("physics.m_s", "must be positive")
    action_kinds = sorted(kind.value for kind in MatterActionKind)
    if cfg.action_kind not in action_kinds:
        fail("action.kind", f"must be one of {action_kinds}")
    if cfg.shell_kind not in _SHELL_KINDS:
        fail("shell.kind", f"must be one of {sorted(_SHELL_KINDS)}")
    if not cfg.dlambda > 0:
        fail("dynamics.dlambda", "dlambda must be positive")
    if cfg.equilibration_steps < 0:
        fail("dynamics.equilibration_steps", "must be nonnegative")
    if cfg.sampling_steps < 0:
        fail("dynamics.sampling_steps", "must be nonnegative")
    if cfg.thin_stride < 1:
        fail("dynamics.thin_stride", "must be at least 1")
    if cfg.batch_len is not None and cfg.batch_len < 1:
        fail("dynamics.batch_len", "must be at least 1")
    if cfg.seed < 0 or cfg.seed >= 2**64:
        fail("seed", "must fit in 64 unsigned bits")
    if cfg.grid_t_extent < 0:
        fail("grid.t_extent", "must be nonnegative")
    if cfg.grid_x_extent < 0:
        fail("grid.x_extent", "must be nonnegative")
    if cfg.grid_t_points < 1:
        fail("grid.t_points", "must be at least 1")
    if cfg.grid_x_points < 1:
        fail("grid.x_points", "must be at least 1")
    if cfg.grid_axis not in (1, 2, 3):
        fail("grid.axis", "must be 1, 2 or 3")
    if cfg.grid_t_points > _MAX_GRID_TIMES:
        fail("grid.t_points", f"must be at most {_MAX_GRID_TIMES}")
    try:
        # only the times can fail GridSpec's checks, so one spatial point will do
        GridSpec.plane(cfg.grid_t_extent, cfg.grid_t_points, 0.0, 1)
    except ValueError as err:
        t = cfg.grid_t_extent
        fail("grid.t_extent", f"{err}; got {cfg.grid_t_points} times over [-{t!r}, {t!r}]")
    if cfg.covariance_n_sites < 1 or cfg.covariance_n_sites > MAX_COVARIANCE_SITES:
        fail("covariance.n_sites", f"must be between 1 and {MAX_COVARIANCE_SITES}")
    n = cfg.site_count
    if cfg.covariance_n_sites > n:
        fail("covariance.n_sites", f"{cfg.covariance_n_sites} exceeds the lattice of {n} sites")
    for p, q in cfg.mgf_pairs:
        if not (0 <= p < n and 0 <= q < n):
            fail("mgf.pairs", f"site pair ({p},{q}) outside the lattice of {n} sites")
    if not 0 < cfg.mgf_epsilon <= MAX_MGF_EPSILON:
        fail("mgf.epsilon", f"must be in (0, {MAX_MGF_EPSILON}]")
    if not cfg.micro_sigma_p > 0:
        fail("micro.sigma_p", "must be positive")
    if not cfg.micro_separation > 0:
        fail("micro.separation", "must be positive")
    if not cfg.micro_threshold > 0:
        fail("micro.threshold", "must be positive")
    if cfg.micro_source not in _MICRO_SOURCES:
        fail("micro.source", f"must be one of {list(_MICRO_SOURCES)}")
    if cfg.fock_n_observables < 1:
        fail("fock.n_observables", "must be at least 1")
    if cfg.fock_n_max < 1:
        fail("fock.n_max", "must be at least 1")
    if not cfg.fock_tol > 0:
        fail("fock.tol", "must be positive")
    if cfg.checkpoint_every < 1:
        fail("output.checkpoint_every", "must be at least 1")
    if cfg.log_every < 1:
        fail("output.log_every", "must be at least 1")


def parse_config(text: str) -> RunConfig:
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    preset: str | None = None
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
            preset = value
            continue
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
        lines[key] = lineno

    merged: dict[str, str] = dict(PRESETS[preset]) if preset else {}
    merged.update(raw)

    missing = [key for key in _REQUIRED_KEYS if key not in merged]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    kwargs: dict[str, Any] = {"preset": preset}
    for key, value in merged.items():
        attr, convert, _fmt = _SCHEMA[key]
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
