import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from rsft.action import BathParams, MatterActionKind, extended_action
from rsft.dynamics import ExtendedState, IntegratorParams, _advance, init_state, make_rng, run
from rsft.estimators import CorrelatorGrid
from rsft.lattice import MomentumLattice
from rsft.storage import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    ConservationLog,
    emit_correlator_csv,
    emit_table_csv,
    read_checkpoint,
    write_checkpoint,
)
from tests.test_dynamics import reference_run

COLLECTIVE = MatterActionKind.FREE_COLLECTIVE
PHYSICS = {"action.kind": "free_collective", "dynamics.dlambda": 0.01}
# Written by the version 1 and version 2 writers from the arrays that
# `setup_run()` draws, advanced 137 steps by the full-array leapfrog, which
# `stored_run` repeats.
CHECKPOINT_V1 = Path(__file__).parent / "data" / "checkpoint_v1.ckpt"
CHECKPOINT_V2 = Path(__file__).parent / "data" / "checkpoint_v2.ckpt"
# Written by the version 3 writer from `setup_run()` advanced 137 steps by
# `run`, with the S_0 of `stored_run`.
CHECKPOINT_V3 = Path(__file__).parent / "data" / "checkpoint_v3.ckpt"


def setup_run(n_per_axis=3, seed=5):
    lattice = MomentumLattice(n_per_axis, 0.1)
    bath = BathParams(1.0, float(lattice.site_count), lattice.site_count)
    params = IntegratorParams(0.01, bath, COLLECTIVE)
    state, rng = init_state(lattice, bath, COLLECTIVE, seed)
    return params, state, rng


def stored_run(n_steps, seed=5):
    """(phi, pi_phi, s, pi_s, s0) of the run the stored files were written
    from: the arrays `setup_run()` draws, S_0 their extended action by
    `action.extended_action`, advanced n_steps by the full-array leapfrog."""
    params, _, _ = setup_run(seed=seed)
    n = params.bath.n_f
    phi, pi_phi = np.zeros(n), make_rng(seed).uniform(-2.5, 2.5, n)
    s, pi_s = 1.0, 0.0
    s0 = extended_action(phi, pi_phi, s, pi_s, COLLECTIVE, params.bath)
    for _ in range(n_steps):
        s, pi_s = _advance(phi, pi_phi, s, pi_s, s0, params.dlambda, COLLECTIVE, params.bath)
    return phi, pi_phi, s, pi_s, s0


def write_checkpoint_joined(path, state, rng, physics):
    """`write_checkpoint` as it joined the payload before one write."""
    algorithm = type(rng.bit_generator).__name__
    rng_state = json.dumps(rng.bit_generator.state, sort_keys=True, separators=(",", ":")).encode()
    record = json.dumps(dict(physics), sort_keys=True, separators=(",", ":")).encode()
    k, n = state.basis.shape
    parts = [
        struct.pack("<Q", n),
        np.ascontiguousarray(state.phi, dtype="<f8").tobytes(),
        np.ascontiguousarray(state.pi_phi, dtype="<f8").tobytes(),
        struct.pack("<ddd", state.s, state.pi_s, state.s0),
        struct.pack("<Q", state.step_count),
        struct.pack("<I", len(algorithm.encode())),
        algorithm.encode(),
        struct.pack("<I", len(rng_state)),
        rng_state,
        struct.pack("<I", len(record)),
        record,
        struct.pack("<I", k),
        np.ascontiguousarray(state.basis, dtype="<f8").tobytes(),
        np.array(state.x[:k] + state.y[:k], dtype="<f8").tobytes(),
    ]
    payload = b"".join(parts)
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))


class TestCheckpoint:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_streamed_file_is_the_joined_payload(self, tmp_path, k):
        rng = np.random.default_rng(40 + k)
        n = 27
        basis = np.linalg.qr(rng.normal(size=(n, 3)))[0].T[:k]
        state = ExtendedState(basis, rng.normal(size=k), rng.normal(size=k), 1.25, -0.5, 3.0, 137)
        write_checkpoint(tmp_path / "streamed.ckpt", state, rng, PHYSICS)
        write_checkpoint_joined(tmp_path / "joined.ckpt", state, rng, PHYSICS)
        streamed = (tmp_path / "streamed.ckpt").read_bytes()
        assert streamed == (tmp_path / "joined.ckpt").read_bytes()
        assert len(streamed) > 16 * n

    def test_failed_write_mid_payload_leaves_no_partial_file(self, tmp_path, monkeypatch):
        params, state, rng = setup_run()
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, state, rng, PHYSICS)
        before = path.read_bytes()
        crc32, calls = zlib.crc32, []

        def crash(data, value=0):
            calls.append(len(data))
            if len(calls) == 3:
                raise OSError("simulated crash mid-payload")
            return crc32(data, value)

        monkeypatch.setattr(zlib, "crc32", crash)
        with pytest.raises(OSError, match="mid-payload"):
            write_checkpoint(path, run(state, params, 50), rng, PHYSICS)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["state.ckpt"]
        assert path.read_bytes() == before
        loaded, _ = read_checkpoint(path, PHYSICS)
        np.testing.assert_array_equal(loaded.pi_phi, state.pi_phi)

    def test_round_trip_is_bitwise(self, tmp_path):
        params, state, rng = setup_run()
        state = run(state, params, 137)
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, state, rng, PHYSICS)
        loaded, loaded_rng = read_checkpoint(path, PHYSICS)
        np.testing.assert_array_equal(loaded.phi, state.phi)
        np.testing.assert_array_equal(loaded.pi_phi, state.pi_phi)
        assert loaded.s == state.s
        assert loaded.pi_s == state.pi_s
        assert loaded.s0 == state.s0
        assert loaded.step_count == 137
        assert loaded_rng.bit_generator.state == rng.bit_generator.state

    def test_resume_equals_unbroken_run(self, tmp_path):
        params, state, rng = setup_run()
        whole = run(state, params, 400)
        part = run(state, params, 150)
        path = tmp_path / "mid.ckpt"
        write_checkpoint(path, part, rng, PHYSICS)
        resumed, _ = read_checkpoint(path, PHYSICS)
        rest = run(resumed, params, 250)
        np.testing.assert_array_equal(rest.phi, whole.phi)
        np.testing.assert_array_equal(rest.pi_phi, whole.pi_phi)
        assert rest.s == whole.s
        assert rest.pi_s == whole.pi_s
        assert rest.step_count == whole.step_count

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        params, state, rng = setup_run()
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, state, rng, PHYSICS)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            write_checkpoint(path, run(state, params, 50), rng, PHYSICS)
        monkeypatch.undo()
        assert path.read_bytes() == before
        loaded, _ = read_checkpoint(path, PHYSICS)
        np.testing.assert_array_equal(loaded.pi_phi, state.pi_phi)
        assert os.listdir(tmp_path) == ["state.ckpt"]

    def test_physics_record_is_checked_on_read(self, tmp_path):
        params, state, rng = setup_run()
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, state, rng, PHYSICS)
        loaded, _ = read_checkpoint(path, expect=PHYSICS)
        np.testing.assert_array_equal(loaded.pi_phi, state.pi_phi)
        with pytest.raises(CheckpointError, match="dynamics.dlambda = 0.01 .* 0.02"):
            read_checkpoint(path, expect={**PHYSICS, "dynamics.dlambda": 0.02})
        with pytest.raises(CheckpointError, match="action.kind"):
            read_checkpoint(path, expect={**PHYSICS, "action.kind": "free"})

    def test_record_without_an_expected_key_is_refused(self, tmp_path):
        params, state, rng = setup_run()
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, state, rng, {"action.kind": "free_collective"})
        with pytest.raises(CheckpointError, match="records no dynamics.dlambda"):
            read_checkpoint(path, expect=PHYSICS)

    def test_version_1_file_stays_readable(self):
        params, _, rng = setup_run()
        phi, pi_phi, s, pi_s, s0 = stored_run(137)
        state = ExtendedState.from_arrays(phi, pi_phi, s, pi_s, s0, 137)
        assert CHECKPOINT_V1.read_bytes().startswith(b"RSFT-CKPT v1\n")
        # a version 1 file records no physics, so there is nothing to refuse
        loaded, loaded_rng = read_checkpoint(CHECKPOINT_V1, expect=PHYSICS)
        # the state of the stored arrays: their basis and coordinates
        np.testing.assert_array_equal(loaded.basis, state.basis)
        assert (loaded.x, loaded.y) == (state.x, state.y)
        assert (loaded.s, loaded.pi_s, loaded.s0) == (state.s, state.pi_s, state.s0)
        assert loaded.step_count == 137
        assert loaded_rng.bit_generator.state == rng.bit_generator.state

    def test_round_trip_keeps_the_subspace_bitwise(self, tmp_path):
        params, state, rng = setup_run()
        state = run(state, params, 137)
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, state, rng, PHYSICS)
        assert path.read_bytes().startswith(CHECKPOINT_MAGIC)
        loaded, _ = read_checkpoint(path, PHYSICS)
        np.testing.assert_array_equal(loaded.basis, state.basis)
        assert (loaded.x, loaded.y) == (state.x, state.y)

    def test_subspace_dimension_above_three_is_refused(self, tmp_path):
        params, state, rng = setup_run()
        state = run(state, params, 10)
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, state, rng, PHYSICS)
        blob = path.read_bytes()
        k, n = state.basis.shape
        # the dimension field precedes the k x N basis and the 2k coordinates
        at = len(blob) - 4 - 8 * k * (n + 2) - 4
        payload = blob[len(CHECKPOINT_MAGIC) : at] + struct.pack("<I", 4) + blob[at + 4 : -4]
        path.write_bytes(CHECKPOINT_MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(CheckpointError, match="subspace dimension 4"):
            read_checkpoint(path, PHYSICS)

    def test_version_2_file_still_resumes(self):
        params, _, rng = setup_run()
        assert CHECKPOINT_V2.read_bytes().startswith(b"RSFT-CKPT v2\n")
        loaded, loaded_rng = read_checkpoint(CHECKPOINT_V2, expect=PHYSICS)
        with pytest.raises(CheckpointError, match="dynamics.dlambda"):
            read_checkpoint(CHECKPOINT_V2, expect={**PHYSICS, "dynamics.dlambda": 0.02})
        reference = ExtendedState.from_arrays(*stored_run(137), 137)
        np.testing.assert_array_equal(loaded.basis, reference.basis)
        assert (loaded.x, loaded.y, loaded.s0) == (reference.x, reference.y, reference.s0)
        assert (loaded.s, loaded.pi_s, loaded.step_count) == (reference.s, reference.pi_s, 137)
        assert loaded.basis.shape == (2, 27)
        assert loaded_rng.bit_generator.state == rng.bit_generator.state
        # the state read gets a derived basis, and its run follows the reference step
        resumed = run(loaded, params, 263)
        reference = reference_run(params, reference, 263)
        assert resumed.step_count == 400
        scale = np.abs(reference.pi_phi).max()
        assert np.abs(resumed.phi - reference.phi).max() <= 1e-12 * scale
        assert np.abs(resumed.pi_phi - reference.pi_phi).max() <= 1e-12 * scale
        assert resumed.s == pytest.approx(reference.s, rel=1e-12)

    def test_version_3_file_is_written_back_byte_for_byte(self, tmp_path):
        loaded, loaded_rng = read_checkpoint(CHECKPOINT_V3, expect=PHYSICS)
        path = tmp_path / "again.ckpt"
        write_checkpoint(path, loaded, loaded_rng, PHYSICS)
        assert path.read_bytes() == CHECKPOINT_V3.read_bytes()

    def test_version_3_file_resumes_as_the_unbroken_run(self):
        params, state, rng = setup_run()
        *_, s0 = stored_run(0)
        state = ExtendedState(state.basis, state.x, state.y, state.s, state.pi_s, s0)
        whole = run(state, params, 400)
        loaded, loaded_rng = read_checkpoint(CHECKPOINT_V3, expect=PHYSICS)
        assert loaded.step_count == 137 and loaded.s0 == s0
        assert loaded_rng.bit_generator.state == rng.bit_generator.state
        rest = run(loaded, params, 263)
        for name in ("basis", "phi", "pi_phi"):
            np.testing.assert_array_equal(getattr(rest, name), getattr(whole, name))
        assert (rest.x, rest.y, rest.s, rest.pi_s) == (whole.x, whole.y, whole.s, whole.pi_s)
        assert rest.step_count == whole.step_count

    def test_corrupted_byte_is_detected(self, tmp_path):
        params, state, rng = setup_run()
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, state, rng, PHYSICS)
        blob = bytearray(path.read_bytes())
        blob[len(CHECKPOINT_MAGIC) + 20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path, PHYSICS)

    def test_truncated_payload_is_detected(self, tmp_path):
        params, state, rng = setup_run()
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, state, rng, PHYSICS)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            read_checkpoint(path, PHYSICS)

    def test_wrong_magic_is_detected(self, tmp_path):
        path = tmp_path / "other.ckpt"
        path.write_bytes(b"SOMETHING ELSE\n" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path, PHYSICS)


def format_float(value):
    """One value as the CSV writers formatted each before their row templates."""
    return f"{value:.17g}"


def emit_correlator_csv_per_value(grid, path, header_items=()):
    """`emit_correlator_csv` as it formatted each value on its own."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for key, value in header_items:
            handle.write(f"# {key} = {value}\n")
        handle.write("y0,y1,y2,y3,re_mean,im_mean,re_stderr,im_stderr,source\n")
        for g in range(grid.points.shape[0]):
            point = grid.points[g]
            se_re = grid.stderr_re[g] if grid.stderr_re is not None else float("nan")
            se_im = grid.stderr_im[g] if grid.stderr_im is not None else float("nan")
            values = (*point, grid.values[g].real, grid.values[g].imag, se_re, se_im)
            handle.write(",".join(format_float(v) for v in values) + f",{grid.source}\n")


class TestCsvEmission:
    def one_point_grid(self):
        return CorrelatorGrid(
            points=np.array([[0.0, 0.0, 0.0, 0.0]]),
            values=np.array([1.25 + 0.5j]),
            stderr_re=np.array([0.01]),
            stderr_im=np.array([0.02]),
            source="mc",
            n_samples=100,
        )

    def test_one_point_grid_two_lines(self, tmp_path):
        path = tmp_path / "grid.csv"
        emit_correlator_csv(self.one_point_grid(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "y0,y1,y2,y3,re_mean,im_mean,re_stderr,im_stderr,source"
        assert len(lines) == 2
        assert lines[1].endswith(",mc")

    def test_source_column_reflects_origin(self, tmp_path):
        grid = self.one_point_grid()
        oracle = CorrelatorGrid(
            grid.points, grid.values, grid.stderr_re, grid.stderr_im, "oracle", 0
        )
        path = tmp_path / "oracle.csv"
        emit_correlator_csv(oracle, path)
        assert path.read_text().splitlines()[1].endswith(",oracle")

    def test_reemission_is_byte_identical(self, tmp_path):
        grid = self.one_point_grid()
        header = [("seed", "1"), ("lattice.n_per_axis", "3")]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_correlator_csv(grid, first, header)
        emit_correlator_csv(grid, second, header)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("with_stderr", [True, False])
    def test_rows_are_the_bytes_of_per_value_formatting(self, tmp_path, with_stderr):
        special = [np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2250738585072e-310, 1 / 3, -1e300]
        rng = np.random.default_rng(4)
        count = 3 * len(special)
        points = rng.normal(size=(count, 4))
        values = rng.normal(size=count) + 1j * rng.normal(size=count)
        stderr = np.abs(rng.normal(size=(2, count)))
        for column in (points[:, 0], points[:, 3], stderr[0], stderr[1]):
            column[: len(special)] = special
        values.real[len(special) : 2 * len(special)] = special
        values.imag[2 * len(special) :] = special
        points[:, 1] = np.arange(count) - 7  # integral points
        grid = CorrelatorGrid(
            points, values, *(stderr if with_stderr else (None, None)), "mc", count
        )
        header = [("seed", "1")]
        emit_correlator_csv(grid, tmp_path / "rows.csv", header)
        emit_correlator_csv_per_value(grid, tmp_path / "values.csv", header)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()

    def test_header_comments_carry_config(self, tmp_path):
        path = tmp_path / "grid.csv"
        emit_correlator_csv(self.one_point_grid(), path, [("seed", "9")])
        assert path.read_text().startswith("# seed = 9\n")

    def test_float_formatting_round_trips(self, tmp_path):
        values = (1 / 3, 1e-17, 123456.789, -0.1)
        emit_table_csv(tmp_path / "floats.csv", ("value",), [(v,) for v in values])
        lines = (tmp_path / "floats.csv").read_text().splitlines()
        assert tuple(float(line) for line in lines[1:]) == values

    def test_table_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        emit_table_csv(path, ("a", "b"), [(1, 0.5), (2, 1 / 3)], [("k", "v")])
        lines = path.read_text().splitlines()
        assert lines[0] == "# k = v"
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.5"
        assert float(lines[3].split(",")[1]) == 1 / 3


    def test_table_rows_are_the_bytes_of_per_cell_formatting(self, tmp_path):
        special = [np.nan, -0.0, np.inf, -np.inf, 5e-324, 1 / 3, -1e300, np.float64(0.1)]
        others = [7, np.int64(-3), True, np.bool_(False), "x,y", None, np.float32(0.1), 2**70]
        rows = [tuple(special), tuple(others), (*others[:4], *special[:4])]
        emit_table_csv(tmp_path / "rows.csv", ("c",) * 8, rows, [("k", "v")])
        cells = [
            ",".join(format_float(c) if isinstance(c, float) else str(c) for c in row)
            for row in rows
        ]
        expected = "# k = v\n" + ",".join(("c",) * 8) + "\n" + "".join(f"{c}\n" for c in cells)
        assert (tmp_path / "rows.csv").read_bytes() == expected.encode()


class TestConservationLog:
    def test_rows_are_the_bytes_of_per_value_formatting(self, tmp_path):
        records = [
            (0, 0.0, -0.0, 1.0, 0.0),
            (np.int64(2500), np.float64(25.0), 1 / 3, np.nan, -np.inf),
            (10**6, 1e4, 5e-324, np.float64(1.0000000000000002), 2),
        ]
        path = tmp_path / "log.csv"
        with ConservationLog(path) as log:
            for record in records:
                log.record(*record)
        rows = [
            ",".join([str(step)] + [format_float(v) for v in values])
            for step, *values in records
        ]
        assert path.read_text().splitlines()[1:] == rows

    def test_rows_and_max_tracking(self, tmp_path):
        path = tmp_path / "log.csv"
        with ConservationLog(path, [("seed", "1")]) as log:
            log.record(0, 0.0, 0.0, 1.0, 0.0)
            log.record(1000, 10.0, -3e-4, 1.01, 0.02)
            assert log.max_abs_total_action == 3e-4
        lines = path.read_text().splitlines()
        assert lines[1] == "step,lambda,total_action,s,pi_s"
        assert lines[2].startswith("0,0,0,1,")
        assert len(lines) == 4
