"""Checkpoint files, CSV emission, and the conservation log.

Checkpoint format, version 3: the ASCII header line `RSFT-CKPT v3`, then a
fixed-order little-endian binary payload, and a CRC-32 of the payload.  The
payload holds
- the site count N, the two field arrays, the bath scalar and momentum,
  the reference action and the step count;
- the generator algorithm identifier and its serialized state;
- the physics record: a length-prefixed UTF-8 JSON object of the config
  values the trajectory depends on beyond the site count (`action.kind`,
  `dynamics.dlambda`), so a resume under different physics, or from a
  record that lacks one of them, is refused;
- the basis the state is held in (see `dynamics`): its dimension k, then
  the k rows of the basis (N values each) and the k field and k momentum
  coordinates.
A state is its basis and coordinates, and those are what a version 3 file
is read back as: the stored field arrays are the state's lifts Q x and
Q y, and the reader only checks that they are, so round trips are
bit-exact and a resumed trajectory steps exactly as the unbroken one.  The
writer records k >= 1; a file with k = 0, and versions 2 (header
`RSFT-CKPT v2`, no basis) and 1 (header `RSFT-CKPT v1`, neither physics
record nor basis), stay readable: the state read is that of the stored
arrays in the basis derived from them (`ExtendedState.from_arrays`), and a
version 1 file carries no physics to check.  A stored basis must be
orthonormal with first row 1/sqrt(N), and the stored field and momentum
must be its lifted coordinates; a file that is not is refused.  A
checkpoint is written to a temporary file in the same directory and
renamed onto its path, so a crash mid-write leaves the previous checkpoint
intact.

Every CSV starts with `# key = value` comment lines carrying the fully
resolved configuration and seed; floating-point values use 17 significant
digits so re-emission of the same data is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .dynamics import SUBSPACE_RANK_TOLERANCE, ExtendedState, _lift
from .estimators import CorrelatorGrid

CHECKPOINT_MAGIC = b"RSFT-CKPT v3\n"
_CHECKPOINT_MAGIC_V2 = b"RSFT-CKPT v2\n"
_CHECKPOINT_MAGIC_V1 = b"RSFT-CKPT v1\n"
_MAX_SUBSPACE_DIM = 3
_SUPPORTED_GENERATORS = {"PCG64": np.random.PCG64}


class CheckpointError(RuntimeError):
    pass


# every float of a CSV: 17 significant digits, which round-trip
FLOAT_FORMAT = "%.17g"


def _json_bytes(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def write_checkpoint(
    path,
    state: ExtendedState,
    rng: np.random.Generator,
    physics: Mapping[str, str | float],
) -> None:
    """Write the state, its basis and the generator, with the physics
    record (config key to value) that a resume must match.  Each part goes
    to the file as it is, with the CRC-32 updated part by part, so the
    payload is never joined or copied."""
    algorithm = type(rng.bit_generator).__name__
    if algorithm not in _SUPPORTED_GENERATORS:
        raise CheckpointError(f"unsupported generator algorithm {algorithm!r}")
    rng_state = _json_bytes(rng.bit_generator.state)
    physics_record = _json_bytes(dict(physics))
    k, n = state.basis.shape
    parts = [
        struct.pack("<Q", n),
        np.ascontiguousarray(state.phi, dtype="<f8"),
        np.ascontiguousarray(state.pi_phi, dtype="<f8"),
        struct.pack("<ddd", state.s, state.pi_s, state.s0),
        struct.pack("<Q", state.step_count),
        struct.pack("<I", len(algorithm.encode())),
        algorithm.encode(),
        struct.pack("<I", len(rng_state)),
        rng_state,
        struct.pack("<I", len(physics_record)),
        physics_record,
        struct.pack("<I", k),
        np.ascontiguousarray(state.basis, dtype="<f8"),
        np.array(state.x[:k] + state.y[:k], dtype="<f8"),
    ]
    partial = f"{os.fspath(path)}.partial"
    try:
        with open(partial, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC)
            checksum = 0
            for part in parts:
                view = memoryview(part)
                checksum = zlib.crc32(view, checksum)
                handle.write(view)
            handle.write(struct.pack("<I", checksum))
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


class _Reader:
    def __init__(self, payload: bytes):
        self.payload = payload
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.payload):
            raise CheckpointError("truncated checkpoint payload")
        chunk = self.payload[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _check_basis(basis: np.ndarray, arrays) -> None:
    """Refuse a basis whose rows are not orthonormal or whose first row is
    not 1/sqrt(N), and stored (name, array, coordinates) that are not the
    lifted coordinates, each to SUBSPACE_RANK_TOLERANCE: the accuracy to
    which a state's arrays are held in its basis."""
    k, n = basis.shape
    with np.errstate(over="ignore", invalid="ignore"):
        off = np.abs(basis @ basis.T - np.eye(k)).max()
    if not off <= SUBSPACE_RANK_TOLERANCE:
        raise CheckpointError(f"checkpoint basis rows are not orthonormal (off by {off:.3g})")
    if not np.abs(math.sqrt(n) * basis[0] - 1.0).max() <= SUBSPACE_RANK_TOLERANCE:
        raise CheckpointError("checkpoint basis: the first row is not 1/sqrt(N)")
    for name, stored, coords in arrays:
        miss = np.linalg.norm(stored - _lift(basis, coords))
        if not miss <= SUBSPACE_RANK_TOLERANCE * np.linalg.norm(stored):
            raise CheckpointError(
                f"checkpoint {name} is not its basis coordinates lifted (off by {miss:.3g})"
            )


def read_checkpoint(
    path, expect: Mapping[str, str | float]
) -> tuple[ExtendedState, np.random.Generator]:
    """Read a version 1, 2 or 3 checkpoint.  The physics record of a
    version 2 or 3 file must hold every `expect` key with the same value; a
    version 1 file has no record and is not checked."""
    with open(path, "rb") as handle:
        blob = handle.read()
    versions = (CHECKPOINT_MAGIC, _CHECKPOINT_MAGIC_V2, _CHECKPOINT_MAGIC_V1)
    magic = next((m for m in versions if blob.startswith(m)), None)
    if magic is None:
        raise CheckpointError("not a checkpoint file or unsupported version")
    body = blob[len(magic) :]
    if len(body) < 4:
        raise CheckpointError("truncated checkpoint payload")
    payload, stored = body[:-4], struct.unpack("<I", body[-4:])[0]
    if zlib.crc32(payload) != stored:
        raise CheckpointError("checkpoint checksum mismatch")
    reader = _Reader(payload)
    physics = basis = None
    # Every part is decoded inside one guard, so a part that passed the CRC
    # but does not decode, or that the generator refuses, is a
    # CheckpointError naming it.
    part = "state"
    try:
        (n,) = reader.unpack("<Q")
        phi = np.frombuffer(reader.take(8 * n), dtype="<f8").copy()
        pi_phi = np.frombuffer(reader.take(8 * n), dtype="<f8").copy()
        s, pi_s, s0 = reader.unpack("<ddd")
        (step_count,) = reader.unpack("<Q")
        part = "generator name"
        (alg_len,) = reader.unpack("<I")
        algorithm = reader.take(alg_len).decode()
        part = "generator state"
        (state_len,) = reader.unpack("<I")
        rng_state = json.loads(reader.take(state_len).decode())
        if magic != _CHECKPOINT_MAGIC_V1:
            part = "physics record"
            (physics_len,) = reader.unpack("<I")
            physics = json.loads(reader.take(physics_len).decode())
            if not isinstance(physics, dict):
                raise CheckpointError("checkpoint physics record is not a JSON object")
        if magic == CHECKPOINT_MAGIC:
            part = "basis"
            (k,) = reader.unpack("<I")
            if k > _MAX_SUBSPACE_DIM:
                raise CheckpointError(f"subspace dimension {k} exceeds {_MAX_SUBSPACE_DIM}")
            if k > 0:
                basis = np.frombuffer(reader.take(8 * k * n), dtype="<f8").reshape(k, n)
                x, y = np.frombuffer(reader.take(16 * k), dtype="<f8").reshape(2, k)
        if reader.offset != len(payload):
            raise CheckpointError("trailing bytes in checkpoint payload")
        part = "physics record"
        for key, value in expect.items() if physics is not None else ():
            if key not in physics:
                raise CheckpointError(f"checkpoint records no {key}")
            if physics[key] != value:
                raise CheckpointError(
                    f"checkpoint was written with {key} = {physics[key]} "
                    f"but the config sets {key} = {value}"
                )
        if algorithm not in _SUPPORTED_GENERATORS:
            raise CheckpointError(f"unsupported generator algorithm {algorithm!r}")
        part = "generator state"
        bit_generator = _SUPPORTED_GENERATORS[algorithm]()
        bit_generator.state = rng_state
    except (KeyError, OverflowError, TypeError, ValueError) as err:
        # UnicodeDecodeError and json.JSONDecodeError are ValueErrors; the
        # generator's state setter raises any of the four
        raise CheckpointError(f"checkpoint {part} does not decode: {err}") from None
    floats = [phi, pi_phi, [s, pi_s, s0]] + ([] if basis is None else [basis, x, y])
    if not all(np.isfinite(values).all() for values in floats):
        raise CheckpointError("checkpoint holds a non-finite float")
    if not s > 0:
        raise CheckpointError(f"checkpoint bath variable s = {s!r} is not positive")
    if basis is None:
        state = ExtendedState.from_arrays(phi, pi_phi, s, pi_s, s0, step_count)
    else:
        _check_basis(basis, (("phi", phi, x), ("pi_phi", pi_phi, y)))
        state = ExtendedState(basis, x, y, s, pi_s, s0, step_count)
    return state, np.random.Generator(bit_generator)


def _write_header(handle: TextIO, header_items: Sequence[tuple[str, str]]) -> None:
    for key, value in header_items:
        handle.write(f"# {key} = {value}\n")


def emit_correlator_csv(
    grid: CorrelatorGrid, path, header_items: Sequence[tuple[str, str]] = ()
) -> None:
    """One row per grid point, in grid-spec order, each formatted by one
    template of FLOAT_FORMAT values."""
    missing = np.full(grid.points.shape[0], np.nan)
    columns = np.column_stack(
        (
            grid.points,
            grid.values.real,
            grid.values.imag,
            missing if grid.stderr_re is None else grid.stderr_re,
            missing if grid.stderr_im is None else grid.stderr_im,
        )
    )
    row = ",".join([FLOAT_FORMAT] * columns.shape[1]) + f",{grid.source}\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        _write_header(handle, header_items)
        handle.write("y0,y1,y2,y3,re_mean,im_mean,re_stderr,im_stderr,source\n")
        handle.writelines(row % tuple(values) for values in columns.tolist())


def emit_table_csv(
    path,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    header_items: Sequence[tuple[str, str]] = (),
) -> None:
    """Generic table writer: floats by FLOAT_FORMAT, everything else via
    str.  Each row is formatted by one template, built once per sequence of
    cell types."""
    templates: dict[tuple[type, ...], str] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        _write_header(handle, header_items)
        handle.write(",".join(columns) + "\n")
        for row in rows:
            cells = tuple(row)
            kinds = tuple(map(type, cells))
            template = templates.get(kinds)
            if template is None:
                template = templates[kinds] = ",".join(
                    FLOAT_FORMAT if issubclass(kind, float) else "%s" for kind in kinds
                ) + "\n"
            handle.write(template % cells)


class ConservationLog:
    """Incremental `step,lambda,total_action,s,pi_s` log."""

    COLUMNS = "step,lambda,total_action,s,pi_s"
    _ROW = ",".join(["%s"] + [FLOAT_FORMAT] * 4) + "\n"

    def __init__(self, path, header_items: Sequence[tuple[str, str]] = ()):
        self._handle = open(path, "w", encoding="utf-8", newline="\n")
        _write_header(self._handle, header_items)
        self._handle.write(self.COLUMNS + "\n")
        self.max_abs_total_action = 0.0

    def record(self, step: int, lam: float, total_action: float, s: float, pi_s: float) -> None:
        self.max_abs_total_action = max(self.max_abs_total_action, abs(total_action))
        self._handle.write(self._ROW % (step, lam, total_action, s, pi_s))

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "ConservationLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
