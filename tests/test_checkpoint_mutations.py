"""Seeded mutations of a valid version 3 checkpoint, each resumed through the CLI.

Every field of the file is corrupted to a value no writer produces and the
file is sealed again with a valid CRC, and the file is cut at every part
boundary and one byte either side, with and without a CRC over the cut
payload.  Each case must end as bad input does: exit 2, exactly one
`error:` line on stderr, no output file, and no large allocation on the
way.
"""

import json
import random
import struct
import tracemalloc
import zlib

import pytest

from rsft.cli import main
from rsft.storage import CHECKPOINT_MAGIC
from tests.test_cli import BASE, write_config

SEED = 20261022
# a resume of a 3^3 checkpoint reads a file of a few kilobytes
ALLOCATION_LIMIT = 1 << 20
# the step count the test checkpoint holds and the total a resume runs to
WRITTEN_AT, TOTAL = 6000, 10000


def file_parts(blob):
    """A version 3 checkpoint as its (name, bytes) parts in file order: the
    header, every field of the payload (each length prefix its own part),
    and the CRC."""
    (n,) = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC))
    parts, at = [], 0

    def take(name, size):
        nonlocal at
        parts.append((name, blob[at : at + size]))
        at += size

    take("header", len(CHECKPOINT_MAGIC))
    take("n", 8)
    take("phi", 8 * n)
    take("pi_phi", 8 * n)
    for name in ("s", "pi_s", "s0", "step"):
        take(name, 8)
    for name in ("generator name", "generator state", "physics record"):
        (size,) = struct.unpack_from("<I", blob, at)
        take(f"{name} length", 4)
        take(name, size)
    (k,) = struct.unpack_from("<I", blob, at)
    take("k", 4)
    take("basis", 8 * k * n)
    take("x", 8 * k)
    take("y", 8 * k)
    take("crc", 4)
    assert at == len(blob)
    return parts


def sealed(parts):
    """The file of the given parts, with the CRC of their payload."""
    payload = b"".join(value for name, value in parts if name not in ("header", "crc"))
    return parts[0][1] + payload + struct.pack("<I", zlib.crc32(payload))


def doubles(data):
    return list(struct.unpack(f"<{len(data) // 8}d", data))


def pack_doubles(values):
    return struct.pack(f"<{len(values)}d", *values)


def one_double_set(rng, data, value):
    values = doubles(data)
    values[rng.randrange(len(values))] = value
    return pack_doubles(values)


def one_double_shifted(rng, data, shift):
    values = doubles(data)
    at = rng.randrange(len(values))
    values[at] += shift
    return pack_doubles(values)


def non_finite(rng, data):
    return one_double_set(rng, data, rng.choice([float("nan"), float("inf"), -float("inf")]))


def flipped_byte(rng, data):
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1 :]


def replaced(value):
    return lambda rng, data: value


def bad_lengths(fmt, size):
    """Length prefixes that do not match their part: zero, off by one either
    way, the largest value, and two values drawn at random."""
    largest = (1 << (8 * struct.calcsize(fmt))) - 1
    fixed = [replaced(struct.pack(fmt, v)) for v in (0, size - 1, size + 1, largest)]
    drawn = lambda rng, data: struct.pack(fmt, rng.randrange(size + 2, largest))  # noqa: E731
    return fixed + [drawn] * 2


def bad_json(wrong_values):
    """Three proper prefixes of the text, three texts with a byte that is
    not UTF-8, and each JSON value in wrong_values, none of which is the
    object the reader expects."""

    def prefix(rng, data):
        return data[: rng.randrange(len(data))]

    def not_utf8(rng, data):
        at = rng.randrange(len(data))
        return data[:at] + b"\xff" + data[at + 1 :]

    return [prefix] * 3 + [not_utf8] * 3 + [replaced(value) for value in wrong_values]


def string_increment(data):
    record = json.loads(data)
    record["state"]["inc"] = str(record["state"]["inc"])
    return json.dumps(record).encode()


def other_physics(data):
    record = json.loads(data)
    record["dynamics.dlambda"] = 0.02
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def basis_rows(data, k):
    row = len(data) // k
    return [data[i * row : (i + 1) * row] for i in range(k)]


def bad_bases(k):
    """A non-finite entry, a huge entry, a shifted entry (two of each), a
    row over the next, the first row negated, a row doubled in scale, and
    the first two rows swapped."""

    def with_rows(change):
        def corrupt(rng, data):
            rows = basis_rows(data, k)
            change(rng, rows)
            return b"".join(rows)

        return corrupt

    def repeated(rng, rows):
        at = rng.randrange(1, k)
        rows[at] = rows[at - 1]

    def negated_first(rng, rows):
        rows[0] = pack_doubles([-v for v in doubles(rows[0])])

    def scaled(rng, rows):
        at = rng.randrange(1, k)
        rows[at] = pack_doubles([2.0 * v for v in doubles(rows[at])])

    def swapped(rng, rows):
        rows[0], rows[1] = rows[1], rows[0]

    huge = lambda rng, data: one_double_set(rng, data, rng.choice([1e300, -1e300]))  # noqa: E731
    shifted = lambda rng, data: one_double_shifted(rng, data, rng.choice([0.5, -0.5]))  # noqa: E731
    return [non_finite, huge, shifted] * 2 + [
        with_rows(change) for change in (repeated, negated_first, scaled, swapped)
    ]


def bad_arrays(shift):
    """A non-finite entry, and one entry moved by shift, three of each."""
    moved = lambda rng, data: one_double_shifted(rng, data, shift)  # noqa: E731
    return [non_finite, moved] * 3


def mutations(valid):
    """Part name -> the corruptions of that part of the valid file, each a
    function (rng, bytes) -> bytes that no writer produces."""
    parts = dict(valid)
    (n,) = struct.unpack("<Q", parts["n"])
    (k,) = struct.unpack("<I", parts["k"])
    nan, inf = float("nan"), float("inf")
    scalars = lambda *values: [replaced(pack_doubles([v])) for v in values]  # noqa: E731
    return {
        "header": [flipped_byte] * 6,
        "n": bad_lengths("<Q", n) + [replaced(struct.pack("<Q", 1 << 61))],
        "phi": bad_arrays(1.0),
        "pi_phi": bad_arrays(-1.0),
        "s": scalars(nan, inf, -inf, 0.0, -0.0, -1.0, -1e300),
        "pi_s": scalars(nan, inf, -inf),
        "s0": scalars(nan, inf, -inf),
        "step": [lambda rng, data: struct.pack("<Q", rng.randrange(TOTAL + 1, 1 << 64))] * 4,
        **{
            f"{name} length": bad_lengths("<I", len(parts[name]))
            for name in ("generator name", "generator state", "physics record")
        },
        "generator name": [
            replaced(value)
            for value in (b"MT19937", b"\xff" + parts["generator name"],
                          parts["generator name"][:-1], parts["generator name"].lower(), b"")
        ],
        "generator state": bad_json(
            [b"{}", b"[]", b"null", b"0", b'"PCG64"', string_increment(parts["generator state"])]
        ),
        "physics record": bad_json(
            [b"{}", b"[]", b"null", b"0", b'"action.kind dynamics.dlambda"',
             other_physics(parts["physics record"])]
        ),
        "k": [replaced(struct.pack("<I", v)) for v in (0, k - 1, k + 1, 4, (1 << 32) - 1)],
        "basis": bad_bases(k),
        "x": bad_arrays(1.0),
        "y": bad_arrays(-1.0),
        "crc": [flipped_byte] * 4,
    }


def field_cases(valid):
    """(label, file bytes) of every corruption of every part, each payload
    part sealed again with a valid CRC, in one seeded order."""
    rng = random.Random(SEED)
    cases = []
    for name, corruptions in mutations(valid).items():
        for i, corrupt in enumerate(corruptions):
            parts = dict(valid)
            parts[name] = corrupt(rng, parts[name])
            if f"{name} length" in parts:  # the prefix of a part follows its length
                parts[f"{name} length"] = struct.pack("<I", len(parts[name]))
            parts = list(parts.items())
            blob = b"".join(v for _, v in parts) if name in ("header", "crc") else sealed(parts)
            cases.append((f"{name} #{i}", blob))
    return cases


def truncation_cases(valid):
    """(label, file bytes) of the valid file cut at every part boundary and
    one byte either side: as it is, and with a CRC sealing the cut payload."""
    blob = b"".join(value for _, value in valid)
    header = len(CHECKPOINT_MAGIC)
    boundaries, at = [0], 0
    for _, value in valid:
        at += len(value)
        boundaries.append(at)
    cuts = sorted({c for b in boundaries for c in (b - 1, b, b + 1) if 0 <= c < len(blob)})
    cases = [(f"cut at {cut}", blob[:cut]) for cut in cuts]
    for cut in cuts:
        if header <= cut < len(blob) - 4:
            payload = blob[header:cut]
            crc = struct.pack("<I", zlib.crc32(payload))
            cases.append((f"sealed cut at {cut}", blob[:header] + payload + crc))
    return cases


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    """The parts of a checkpoint that `simulate` wrote at step WRITTEN_AT;
    as it is, it resumes to TOTAL."""
    root = tmp_path_factory.mktemp("mutations")
    short = BASE.replace("dynamics.sampling_steps = 8000", "dynamics.sampling_steps = 4000")
    made = write_config(root, short + f"output.dir = {root}/made\n", "made.cfg")
    assert main(["simulate", "--config", made]) == 0
    blob = (root / "made" / "checkpoint.ckpt").read_bytes()
    parts = file_parts(blob)
    assert dict(parts)["step"] == struct.pack("<Q", WRITTEN_AT)
    assert main(["resume", "--config", write_config(root, BASE + f"output.dir = {root}/ok\n"),
                 "--checkpoint", str(root / "made" / "checkpoint.ckpt")]) == 0
    return parts


def resume_outcomes(directory, cases, capsys):
    """The cases that did not end in exit 2 with one `error:` line, no
    output and a small allocation peak, each with what happened; each case
    is resumed from directory/case.ckpt."""
    path = directory / "case.ckpt"
    capsys.readouterr()
    wrong = []
    for i, (label, blob) in enumerate(cases):
        path.write_bytes(blob)
        out_dir = directory / f"out{i}"
        cfg = write_config(directory, BASE + f"output.dir = {out_dir}\n", "resume.cfg")
        tracemalloc.start()
        try:
            code = main(["resume", "--config", cfg, "--checkpoint", str(path)])
        except Exception as err:  # a traceback is the case's outcome
            code = f"{type(err).__name__}: {err}"
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        ok = (
            code == 2
            and len(lines) == 1
            and lines[0].startswith("error:")
            and captured.out == ""
            and not out_dir.exists()
            and peak <= ALLOCATION_LIMIT
        )
        if not ok:
            wrong.append((label, code, lines, out_dir.exists(), peak))
    return wrong


class TestCheckpointMutations:
    def test_every_corrupted_field_is_one_error_line(self, valid_checkpoint, tmp_path, capsys):
        cases = field_cases(valid_checkpoint)
        assert {label.split(" #")[0] for label, _ in cases} == {n for n, _ in valid_checkpoint}
        assert resume_outcomes(tmp_path, cases, capsys) == []

    def test_every_cut_is_one_error_line(self, valid_checkpoint, tmp_path, capsys):
        cases = truncation_cases(valid_checkpoint)
        assert len(cases) > 2 * len(valid_checkpoint)
        assert resume_outcomes(tmp_path, cases, capsys) == []

    def test_a_huge_site_count_is_refused_before_any_allocation(
        self, valid_checkpoint, tmp_path, capsys
    ):
        huge = [
            (name, struct.pack("<Q", 1 << 61) if name == "n" else value)
            for name, value in valid_checkpoint
        ]
        assert resume_outcomes(tmp_path, [("n = 2^61", sealed(huge))], capsys) == []
        main(["resume", "--config", str(tmp_path / "resume.cfg"),
              "--checkpoint", str(tmp_path / "case.ckpt")])
        assert capsys.readouterr().err == "error: truncated checkpoint payload\n"
