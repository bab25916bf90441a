import gc
import json
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from rsft import cli
from rsft.cli import main
from rsft.config import config_from_file
from rsft.dynamics import COORDINATE_BUFFER_LEN, init_state
from rsft.storage import CHECKPOINT_MAGIC, read_checkpoint

BASE = """
lattice.n_per_axis = 3
lattice.spacing = 0.1
physics.beta = 1.0
physics.mass = 1.0
action.kind = free_collective
shell.kind = fixed
dynamics.dlambda = 0.01
dynamics.equilibration_steps = 2000
dynamics.sampling_steps = 8000
dynamics.thin_stride = 10
dynamics.batch_len = 100
seed = 3
grid.t_points = 5
grid.x_points = 5
output.log_every = 1000
output.checkpoint_every = 5000
mgf.pairs = 0:0,0:1,2:2,3:5
"""


SMOKE_CFG = Path(__file__).parent.parent / "configs" / "smoke.cfg"


def smoke_config():
    """configs/smoke.cfg without its output directory."""
    return "".join(
        line for line in SMOKE_CFG.read_text().splitlines(keepends=True)
        if not line.startswith("output.dir")
    )


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def data_rows(path):
    """CSV rows with comments and the column-header line stripped."""
    rows = [line for line in open(path).read().splitlines() if not line.startswith("#")]
    return rows[1:]


class TestSimulate:
    def test_produces_log_and_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "max |total action|" in out
        log = tmp_path / "out" / "conservation.csv"
        assert log.exists()
        rows = data_rows(log)
        assert rows[0].startswith("0,0,0,")
        assert len(rows) == 11  # steps 0..10000 every 1000, no duplicated final row
        assert (tmp_path / "out" / "checkpoint.ckpt").exists()

    def test_output_dir_override(self, tmp_path):
        cfg = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/ignored\n")
        assert main(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "o2")]) == 0
        assert (tmp_path / "o2" / "conservation.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_calls_in_one_process_share_no_arguments(self, tmp_path):
        # the parser is built once per process; an --output-dir given to one
        # call must not reach the next
        cfg = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/configured\n")
        assert main(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "given")]) == 0
        assert main(["simulate", "--config", cfg]) == 0
        assert cli._build_parser() is cli._build_parser()
        for name in ("given", "configured"):
            assert (tmp_path / name / "conservation.csv").exists()

    def test_missing_config_file_errors(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_config_errors(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "lattice.n_per_axis = 3\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert "missing required keys" in capsys.readouterr().err


class TestResume:
    def test_checkpoint_resume_matches_unbroken_run(self, tmp_path):
        # Unbroken: 2000 + 8000 steps in one go.
        cfg_whole = write_config(
            tmp_path, BASE + f"output.dir = {tmp_path}/whole\n", "whole.cfg"
        )
        assert main(["simulate", "--config", cfg_whole]) == 0

        # Broken: first 4000 steps, checkpoint, then resume to 10000.
        part = BASE.replace(
            "dynamics.equilibration_steps = 2000", "dynamics.equilibration_steps = 0"
        ).replace("dynamics.sampling_steps = 8000", "dynamics.sampling_steps = 4000")
        cfg_part = write_config(tmp_path, part + f"output.dir = {tmp_path}/broken\n", "part.cfg")
        assert main(["simulate", "--config", cfg_part]) == 0
        cfg_rest = write_config(
            tmp_path, BASE + f"output.dir = {tmp_path}/broken\n", "rest.cfg"
        )
        assert (
            main(
                [
                    "resume",
                    "--config",
                    cfg_rest,
                    "--checkpoint",
                    str(tmp_path / "broken" / "checkpoint.ckpt"),
                ]
            )
            == 0
        )

        whole_ckpt = (tmp_path / "whole" / "checkpoint.ckpt").read_bytes()
        broken_ckpt = (tmp_path / "broken" / "checkpoint.ckpt").read_bytes()
        assert whole_ckpt == broken_ckpt

        whole_rows = data_rows(tmp_path / "whole" / "conservation.csv")
        part_rows = data_rows(tmp_path / "broken" / "conservation.csv")
        resume_rows = data_rows(tmp_path / "broken" / "conservation_resume.csv")
        assert part_rows + resume_rows == whole_rows

    def test_zero_step_checkpoint_reads_back_and_resumes(self, tmp_path):
        zero = BASE.replace(
            "dynamics.equilibration_steps = 2000", "dynamics.equilibration_steps = 0"
        ).replace("dynamics.sampling_steps = 8000", "dynamics.sampling_steps = 0")
        cfg_zero = write_config(tmp_path, zero + f"output.dir = {tmp_path}/zero\n", "zero.cfg")
        assert main(["simulate", "--config", cfg_zero]) == 0
        path = tmp_path / "zero" / "checkpoint.ckpt"
        cfg = config_from_file(cfg_zero)
        start, _ = init_state(cfg.lattice(), cfg.bath(), cfg.matter_action_kind(), cfg.seed)
        loaded, _ = read_checkpoint(path, cli._checkpoint_physics(cfg))
        # the drawn arrays, and the basis derived from them (k = 2 from phi = 0)
        assert loaded.basis.shape == (2, cfg.site_count)
        for name in ("phi", "pi_phi", "basis"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(start, name))
        assert (loaded.x, loaded.y, loaded.step_count) == (start.x, start.y, 0)

        cfg_whole = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/whole\n", "whole.cfg")
        assert main(["simulate", "--config", cfg_whole]) == 0
        cfg_rest = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/zero\n", "rest.cfg")
        assert main(["resume", "--config", cfg_rest, "--checkpoint", str(path)]) == 0
        assert path.read_bytes() == (tmp_path / "whole" / "checkpoint.ckpt").read_bytes()
        whole_rows = data_rows(tmp_path / "whole" / "conservation.csv")
        assert data_rows(tmp_path / "zero" / "conservation_resume.csv") == whole_rows[1:]

    @pytest.mark.parametrize(
        "key, change",
        [
            ("dynamics.dlambda", ("dynamics.dlambda = 0.01", "dynamics.dlambda = 0.02")),
            ("action.kind", ("action.kind = free_collective", "action.kind = free")),
        ],
    )
    def test_resume_under_other_physics_errors(self, tmp_path, capsys, key, change):
        part = BASE.replace("dynamics.sampling_steps = 8000", "dynamics.sampling_steps = 4000")
        cfg_part = write_config(tmp_path, part + f"output.dir = {tmp_path}/out\n", "part.cfg")
        assert main(["simulate", "--config", cfg_part]) == 0
        capsys.readouterr()
        other = BASE.replace(*change)
        cfg_other = write_config(tmp_path, other + f"output.dir = {tmp_path}/out\n", "other.cfg")
        checkpoint = str(tmp_path / "out" / "checkpoint.ckpt")
        assert main(["resume", "--config", cfg_other, "--checkpoint", checkpoint]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "conservation_resume.csv").exists()

    def test_resume_beyond_config_total_errors(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 0
        small = BASE.replace("dynamics.sampling_steps = 8000", "dynamics.sampling_steps = 1000")
        cfg_small = write_config(tmp_path, small + f"output.dir = {tmp_path}/out\n", "s.cfg")
        code = main(
            ["resume", "--config", cfg_small, "--checkpoint", str(tmp_path / "out" / "checkpoint.ckpt")]
        )
        assert code == 2
        assert "beyond" in capsys.readouterr().err


# the length-prefixed parts of a version 3 payload, in file order
PREFIXED_PARTS = ("generator name", "generator state", "physics record")


def checkpoint_parts(blob):
    """A version 3 checkpoint's payload as its named parts, the
    length-prefixed ones without their prefix."""
    payload = blob[len(CHECKPOINT_MAGIC) : -4]
    (n,) = struct.unpack_from("<Q", payload)
    parts, at = {}, 0
    sizes = {"n": 8, "phi": 8 * n, "pi_phi": 8 * n, "scalars": 24, "step": 8}
    sizes.update(dict.fromkeys(PREFIXED_PARTS))
    for name, size in sizes.items():
        if size is None:
            (size,) = struct.unpack_from("<I", payload, at)
            at += 4
        parts[name] = payload[at : at + size]
        at += size
    parts["basis"] = payload[at:]
    return parts


def sealed_checkpoint(parts):
    """The file of the given parts, with a valid CRC."""
    payload = b"".join(
        (struct.pack("<I", len(value)) if name in PREFIXED_PARTS else b"") + value
        for name, value in parts.items()
    )
    return CHECKPOINT_MAGIC + payload + struct.pack("<I", zlib.crc32(payload))


def generator_state_with_string_increment(state):
    record = json.loads(state)
    record["state"]["inc"] = "1"
    return json.dumps(record).encode()


def nan_first_site(phi):
    return struct.pack("<d", float("nan")) + phi[8:]


def first_site_off_by_one(phi):
    return struct.pack("<d", struct.unpack_from("<d", phi)[0] + 1.0) + phi[8:]


def basis_entry_at_1e300(basis):
    # after the dimension k, the first entry of the first row
    return basis[:4] + struct.pack("<d", 1e300) + basis[12:]


def basis_row_bytes(basis):
    (k,) = struct.unpack_from("<I", basis)
    return (len(basis) - 4 - 16 * k) // k


def doubled_basis_row(basis):
    """The first row of the basis over its second."""
    row = basis_row_bytes(basis)
    return basis[: 4 + row] + basis[4 : 4 + row] + basis[4 + 2 * row :]


def swapped_basis_rows(basis):
    """The first two rows of the basis swapped: still orthonormal."""
    row = basis_row_bytes(basis)
    first, second = basis[4 : 4 + row], basis[4 + row : 4 + 2 * row]
    return basis[:4] + second + first + basis[4 + 2 * row :]


def bath_at_minus_one(scalars):
    _s, pi_s, s0 = struct.unpack("<ddd", scalars)
    return struct.pack("<ddd", -1.0, pi_s, s0)


class TestCraftedCheckpoints:
    """A checkpoint whose CRC holds but whose contents do not decode, or
    hold values no trajectory reaches, ends in one `error:` line."""

    @pytest.mark.parametrize(
        "part, corrupt, message",
        [
            ("generator state", lambda state: state[:-5], "generator state"),
            ("physics record", lambda record: record[:-1], "physics record"),
            ("generator name", lambda name: b"\xff" + name, "generator name"),
            ("generator state", generator_state_with_string_increment, "generator state"),
            ("scalars", bath_at_minus_one, "s = -1.0"),
            ("phi", nan_first_site, "non-finite"),
            ("basis", basis_entry_at_1e300, "basis rows"),
            ("basis", doubled_basis_row, "basis rows"),
            ("basis", swapped_basis_rows, "first row"),
            ("phi", first_site_off_by_one, "checkpoint phi"),
        ],
    )
    def test_resume_errors(self, tmp_path, capsys, part, corrupt, message):
        short = BASE.replace("dynamics.sampling_steps = 8000", "dynamics.sampling_steps = 4000")
        cfg_short = write_config(tmp_path, short + f"output.dir = {tmp_path}/out\n", "short.cfg")
        assert main(["simulate", "--config", cfg_short]) == 0
        path = tmp_path / "out" / "checkpoint.ckpt"
        parts = checkpoint_parts(path.read_bytes())
        assert sealed_checkpoint(parts) == path.read_bytes()
        parts[part] = corrupt(parts[part])
        path.write_bytes(sealed_checkpoint(parts))
        capsys.readouterr()
        cfg = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/out\n")
        assert main(["resume", "--config", cfg, "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "conservation_resume.csv").exists()


def record_checkpoint_writes(monkeypatch):
    """The step count of every checkpoint the CLI writes, in order."""
    steps = []
    write = cli.storage.write_checkpoint

    def recorded(path, state, rng, physics):
        steps.append(state.step_count)
        write(path, state, rng, physics)

    monkeypatch.setattr(cli.storage, "write_checkpoint", recorded)
    return steps


class TestCheckpointWrites:
    @pytest.mark.parametrize("sampling, writes", [(8000, [5000, 10000]), (7000, [5000, 9000])])
    def test_each_state_is_written_once(self, tmp_path, monkeypatch, sampling, writes):
        text = BASE.replace("dynamics.sampling_steps = 8000", f"dynamics.sampling_steps = {sampling}")
        cfg = write_config(tmp_path, text + f"output.dir = {tmp_path}/out\n")
        steps = record_checkpoint_writes(monkeypatch)
        assert main(["simulate", "--config", cfg]) == 0
        assert steps == writes
        state, _ = read_checkpoint(
            tmp_path / "out" / "checkpoint.ckpt", cli._checkpoint_physics(config_from_file(cfg))
        )
        assert state.step_count == writes[-1]

    def test_zero_step_simulate_writes_its_checkpoint(self, tmp_path, monkeypatch):
        zero = BASE.replace(
            "dynamics.equilibration_steps = 2000", "dynamics.equilibration_steps = 0"
        ).replace("dynamics.sampling_steps = 8000", "dynamics.sampling_steps = 0")
        cfg = write_config(tmp_path, zero + f"output.dir = {tmp_path}/out\n")
        steps = record_checkpoint_writes(monkeypatch)
        assert main(["simulate", "--config", cfg]) == 0
        assert steps == [0]
        assert (tmp_path / "out" / "checkpoint.ckpt").exists()

    def test_resume_at_the_configured_total_writes_its_checkpoint(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 0
        source = tmp_path / "out" / "checkpoint.ckpt"
        steps = record_checkpoint_writes(monkeypatch)
        again = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/again\n", "again.cfg")
        assert main(["resume", "--config", again, "--checkpoint", str(source)]) == 0
        assert steps == [10000]
        assert (tmp_path / "again" / "checkpoint.ckpt").read_bytes() == source.read_bytes()


class TestCorrelator:
    def test_emits_mc_and_oracle_grids(self, tmp_path):
        cfg = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/out\n")
        code = main(["correlator", "--config", cfg])
        assert code in (0, 1)  # statistical gate; files must exist either way
        mc = tmp_path / "out" / "correlator_mc.csv"
        oracle = tmp_path / "out" / "correlator_oracle.csv"
        assert mc.exists() and oracle.exists()
        mc_rows = data_rows(mc)
        assert len(mc_rows) == 25
        assert mc_rows[0].endswith(",mc")
        assert data_rows(oracle)[0].endswith(",oracle")

    def test_same_seed_reruns_are_byte_identical(self, tmp_path):
        cfg_a = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/a\n", "a.cfg")
        cfg_b = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/b\n", "b.cfg")
        main(["correlator", "--config", cfg_a])
        main(["correlator", "--config", cfg_b])
        a = (tmp_path / "a" / "correlator_mc.csv").read_text()
        b = (tmp_path / "b" / "correlator_mc.csv").read_text()
        assert a.replace(f"{tmp_path}/a", "X") == b.replace(f"{tmp_path}/b", "X")

    def test_dynamic_shell_skips_oracle(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            BASE.replace("shell.kind = fixed", "shell.kind = global_dynamic")
            + f"output.dir = {tmp_path}/out\n",
        )
        assert main(["correlator", "--config", cfg]) == 0
        assert not (tmp_path / "out" / "correlator_oracle.csv").exists()
        assert "no closed-form reference" in capsys.readouterr().out


class TestCovariance:
    def test_emits_variance_and_block_tables(self, tmp_path):
        cfg = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/out\n")
        code = main(["covariance", "--config", cfg])
        assert code in (0, 1)
        variance = tmp_path / "out" / "mode_variance.csv"
        block = tmp_path / "out" / "covariance_block.csv"
        assert len(data_rows(variance)) == 27
        assert len(data_rows(block)) == 64


class TestMgfCheck:
    def test_mgf_agrees_with_direct_covariance(self, tmp_path):
        cfg = write_config(tmp_path, BASE + f"output.dir = {tmp_path}/out\n")
        assert main(["mgf-check", "--config", cfg]) == 0
        rows = data_rows(tmp_path / "out" / "mgf_check.csv")
        assert len(rows) == 4
        assert all(row.endswith(",True") for row in rows)


class TestFockCheck:
    def test_default_run_is_green(self, tmp_path, capsys):
        assert main(["fock-check", "--output-dir", str(tmp_path)]) == 0
        assert "PASS" in capsys.readouterr().out
        rows = data_rows(tmp_path / "fock_report.csv")
        assert len(rows) >= 9
        assert all(row.endswith(",True") for row in rows)

    def test_many_observables_at_n_max_one(self, tmp_path, capsys):
        # dimension 41, while the cube {0, 1}^40 has 2^40 tuples
        cfg = write_config(
            tmp_path,
            smoke_config() + f"fock.n_observables = 40\nfock.n_max = 1\noutput.dir = {tmp_path}\n",
        )
        assert main(["fock-check", "--config", cfg]) == 0
        assert "PASS" in capsys.readouterr().out
        header = (tmp_path / "fock_report.csv").read_text()
        assert "# one_particle_dim = 40" in header
        assert "# fock_dim = 41" in header

    def test_exact_algebra_passes_at_dimension_17550(self, tmp_path, capsys):
        # the adjoint pairing of two random vectors in 17 550 dimensions must
        # not carry round-off beyond the absolute identity tolerance
        cfg = write_config(
            tmp_path,
            smoke_config() + f"fock.n_observables = 23\nfock.n_max = 4\noutput.dir = {tmp_path}\n",
        )
        assert main(["fock-check", "--config", cfg]) == 0
        assert "PASS" in capsys.readouterr().out
        assert "# fock_dim = 17550" in (tmp_path / "fock_report.csv").read_text()

    def test_config_overrides_observable_count(self, tmp_path):
        cfg = write_config(tmp_path, BASE + f"fock.n_observables = 2\noutput.dir = {tmp_path}\n")
        assert main(["fock-check", "--config", cfg]) == 0
        header = (tmp_path / "fock_report.csv").read_text()
        assert "# one_particle_dim = 2" in header


class TestMicrocausality:
    def test_default_run_is_green(self, tmp_path, capsys):
        assert main(["microcausality", "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        rows = dict(
            line.split(",", 1) for line in data_rows(tmp_path / "microcausality.csv")
        )
        assert float(rows["ratio"]) <= 0.05
        assert abs(float(rows["ratio"]) - float(rows["oracle_ratio"])) <= 1e-10

    def test_small_lattice_config(self, tmp_path):
        cfg = write_config(
            tmp_path,
            BASE.replace("action.kind = free_collective", "action.kind = free")
            + f"output.dir = {tmp_path}\n",
        )
        assert main(["microcausality", "--config", cfg]) == 0

    def test_sampled_source_emits_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            BASE + f"micro.source = mc\nmicro.sigma_p = 0.5\noutput.dir = {tmp_path}\n",
        )
        code = main(["microcausality", "--config", cfg])
        assert code in (0, 1)  # statistical gate on a tiny lattice
        rows = dict(line.split(",", 1) for line in data_rows(tmp_path / "microcausality.csv"))
        assert np.isfinite(float(rows["ratio"]))
        assert np.isfinite(float(rows["se_ratio"]))
        # the sampled source runs a trajectory like every other estimator
        assert len(data_rows(tmp_path / "conservation.csv")) == 11
        assert (tmp_path / "checkpoint.ckpt").exists()

    def test_sampled_source_without_error_bars_says_so(self, tmp_path, capsys):
        # 800 samples in batches of 200: four batches, too few for error bars
        text = BASE.replace("dynamics.batch_len = 100", "dynamics.batch_len = 200")
        cfg = write_config(tmp_path, text + f"micro.source = mc\noutput.dir = {tmp_path}\n")
        assert main(["microcausality", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "microcausality: too few batches for error bars; stderr unavailable" in out
        rows = dict(line.split(",", 1) for line in data_rows(tmp_path / "microcausality.csv"))
        assert rows["se_ratio"] == "nan" and rows["passed"] == "False"


class TestErrors:
    """Failures that are not a failed check print one `error:` line and
    exit 2; exit 1 is reserved for a check that ran and failed."""

    @pytest.mark.parametrize(
        "subcommand, extra",
        [
            ("correlator", ""),
            ("covariance", ""),
            ("mgf-check", ""),
            ("microcausality", "micro.source = mc\n"),
        ],
    )
    def test_no_samples_errors(self, tmp_path, capsys, subcommand, extra):
        # fewer sampling steps than one thinning stride: nothing is sampled
        text = BASE.replace(
            "dynamics.sampling_steps = 8000", "dynamics.sampling_steps = 5"
        )
        cfg = write_config(tmp_path, text + extra + f"output.dir = {tmp_path}\n")
        assert main([subcommand, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no samples" in err
        assert err.count("\n") == 1

    def test_fock_space_over_limit_errors(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            BASE + f"fock.n_observables = 30\nfock.n_max = 4\noutput.dir = {tmp_path}\n",
        )
        assert main(["fock-check", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exceeds limit" in err

    def test_fock_products_over_limit_error(self, tmp_path, capsys):
        # 198 independent observables on 216 sites: dim 19 900 at n_max = 2
        # is within the dimension limit, the d^2 * dim products are not
        text = BASE.replace("lattice.n_per_axis = 3", "lattice.n_per_axis = 6")
        cfg = write_config(
            tmp_path,
            text + f"fock.n_observables = 198\nfock.n_max = 2\noutput.dir = {tmp_path}\n",
        )
        assert main(["fock-check", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "d^2 * dim" in err
        assert err.count("\n") == 1

    def test_covariance_sites_beyond_the_lattice_error_before_any_step(self, tmp_path, capsys):
        # 2^3 = 8 sites cannot hold a 9-site covariance block
        text = smoke_config().replace("lattice.n_per_axis = 5", "lattice.n_per_axis = 2")
        cfg = write_config(tmp_path, text + f"covariance.n_sites = 9\noutput.dir = {tmp_path}/out\n")
        assert main(["covariance", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "covariance.n_sites" in err
        line = len(text.splitlines()) + 1
        assert f"line {line}:" in err and "8 sites" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_non_finite_mass_errors_before_any_step(self, tmp_path, capsys):
        # a NaN mass used to integrate the whole run and fail every gate
        text = smoke_config().replace("physics.mass = 1.0", "physics.mass = nan")
        cfg = write_config(tmp_path, text + f"output.dir = {tmp_path}/out\n")
        assert main(["correlator", "--config", cfg]) == 2
        err = capsys.readouterr().err
        line = text.splitlines().index("physics.mass = nan") + 1
        assert err.startswith(f"error: line {line}: physics.mass: must be finite")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_unevenly_spaced_grid_times_error_before_any_step(self, tmp_path, capsys):
        # 1e-320 is subnormal: its 11 times are not evenly spaced to 1e-12
        cfg = write_config(
            tmp_path, smoke_config() + f"grid.t_extent = 1e-320\noutput.dir = {tmp_path}/out\n"
        )
        assert main(["correlator", "--config", cfg]) == 2
        err = capsys.readouterr().err
        line = len(smoke_config().splitlines()) + 1
        assert err.startswith(f"error: line {line}: grid.t_extent: grid times must be")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestObserverCadence:
    """The trajectory calls its observers every gcd(log_every,
    checkpoint_every) steps and hands the sampled coordinates over in one
    block per stretch; every output equals the one of a run that calls its
    observers, and hands over each sampled row, after every step."""

    @staticmethod
    def outputs(tmp_path, monkeypatch, stepwise):
        if stepwise:
            step_run = cli.dynamics.run
            monkeypatch.setattr(
                cli.dynamics,
                "run",
                lambda state, params, n_steps, observers, every, sampling: step_run(
                    state, params, n_steps, observers, 1, sampling
                ),
            )
        out = tmp_path / "out"
        smoke = write_config(tmp_path, smoke_config(), "smoke.cfg")
        half = smoke_config().replace(
            "dynamics.sampling_steps = 20000", "dynamics.sampling_steps = 5000"
        )
        half = write_config(tmp_path, half, "half.cfg")
        files = {}
        for subcommand in ("simulate", "correlator", "covariance", "mgf-check", "half"):
            config = half if subcommand == "half" else smoke
            name = "simulate" if subcommand == "half" else subcommand
            assert main([name, "--config", config, "--output-dir", str(out)]) in (0, 1)
            if subcommand == "half":
                assert main(
                    ["resume", "--config", smoke, "--checkpoint", str(out / "checkpoint.ckpt"),
                     "--output-dir", str(out)]
                ) == 0
            for path in out.iterdir():
                files[subcommand, path.name] = path.read_bytes()
                path.unlink()
        monkeypatch.undo()
        return files

    def test_smoke_outputs_equal_a_stepwise_run(self, tmp_path, monkeypatch):
        stepwise = self.outputs(tmp_path, monkeypatch, stepwise=True)
        coarse = self.outputs(tmp_path, monkeypatch, stepwise=False)
        assert sorted(coarse) == sorted(stepwise)
        assert ("half", "conservation_resume.csv") in coarse
        for key, data in stepwise.items():
            assert coarse[key] == data, key


class TestSampledBlocks:
    def test_observers_a_million_steps_apart_hand_over_bounded_blocks(self, tmp_path):
        # observers every 10^6 steps and every step sampled: unbounded, the
        # run's one stretch of 20 000 steps would hold 20 000 coordinate
        # rows, about 2.7 MB
        text = BASE.replace("dynamics.thin_stride = 10", "dynamics.thin_stride = 1")
        text = text.replace("output.log_every = 1000", "output.log_every = 1000000")
        text = text.replace("output.checkpoint_every = 5000", "output.checkpoint_every = 1000000")
        text = text.replace("dynamics.sampling_steps = 8000", "dynamics.sampling_steps = 20000")
        cfg = config_from_file(write_config(tmp_path, text + f"output.dir = {tmp_path}\n"))
        lengths = []

        class Recorder:
            def add(self, block):
                lengths.append(len(block.rows))

        tracemalloc.start()
        try:
            cli._run_trajectory(cfg, "simulate", [Recorder()])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(lengths) == 20_000
        assert max(lengths) == COORDINATE_BUFFER_LEN
        assert peak <= 150_000, peak


class TestReferenceCycles:
    @pytest.mark.parametrize(
        "subcommand, shell",
        [
            ("correlator", "fixed"),
            ("correlator", "local_dynamic"),
            ("covariance", "fixed"),
            ("mgf-check", "fixed"),
            ("simulate", "fixed"),
            ("fock-check", None),
            ("microcausality", None),
        ],
    )
    def test_a_warmed_up_run_leaves_nothing_to_the_cycle_collector(
        self, tmp_path, capsys, subcommand, shell
    ):
        # everything a run makes is freed by reference counting, so its
        # peak memory does not depend on when the collector runs
        if shell is None:
            args = [subcommand, "--output-dir", str(tmp_path / "out")]
        else:
            text = BASE.replace("shell.kind = fixed", f"shell.kind = {shell}")
            cfg = write_config(tmp_path, text + f"output.dir = {tmp_path}/out\n")
            args = [subcommand, "--config", cfg]
        main(args)  # imports and caches are made once per process
        gc.collect()
        gc.disable()
        try:
            main(args)
            assert gc.collect() == 0
        finally:
            gc.enable()
