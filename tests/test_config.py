import random
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from rsft.action import MatterActionKind
from rsft.cli import main
from rsft.config import _SCHEMA, ConfigError, PRESETS, RunConfig, parse_config
from rsft.lattice import FixedShell, GlobalDynamicShell, LocalDynamicShell

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
README = Path(__file__).resolve().parent.parent / "README.md"

MINIMAL = """
lattice.n_per_axis = 5
lattice.spacing = 0.1
physics.beta = 1.0
physics.mass = 1.0
action.kind = free
shell.kind = fixed
dynamics.dlambda = 0.01
dynamics.equilibration_steps = 100
dynamics.sampling_steps = 200
"""


class TestParsing:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.n_per_axis == 5
        assert cfg.site_count == 125
        assert cfg.seed == 1  # default
        assert cfg.thin_stride == 10
        assert cfg.resolved_m_s == 125.0
        assert isinstance(cfg.shell(), FixedShell)

    def test_empty_input_reports_missing_keys(self):
        with pytest.raises(ConfigError, match="missing required keys"):
            parse_config("")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config(MINIMAL + "\n# a comment\nseed = 7  # trailing comment\n")
        assert cfg.seed == 7

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'bogus.key'"):
            parse_config("\nbogus.key = 1\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="dynamics.dlambda"):
            parse_config(MINIMAL.replace("dynamics.dlambda = 0.01", "dynamics.dlambda = fast"))

    def test_negative_dlambda_rejected(self):
        with pytest.raises(ConfigError, match="dlambda must be positive"):
            parse_config(MINIMAL.replace("dynamics.dlambda = 0.01", "dynamics.dlambda = -0.01"))

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(MINIMAL + "\nseed = 1\nseed = 2\n")

    def test_second_preset_line_is_a_duplicate(self):
        with pytest.raises(ConfigError, match=r"^line 2: duplicate key 'preset'$"):
            parse_config("preset = desk\npreset = example1\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="expected `key = value`"):
            parse_config("seed 12\n")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config("preset = example9\n")

    def test_bad_action_kind(self):
        with pytest.raises(ConfigError, match="action.kind"):
            parse_config(MINIMAL.replace("action.kind = free", "action.kind = quartic"))

    def test_mgf_pairs_parsing_and_bounds(self):
        cfg = parse_config(MINIMAL + "mgf.pairs = 0:0,1:3\n")
        assert cfg.mgf_pairs == ((0, 0), (1, 3))
        with pytest.raises(ConfigError, match="mgf.pairs"):
            parse_config(MINIMAL + "mgf.pairs = 0:999\n")

    def test_covariance_sites_bounded_by_the_lattice(self):
        small = MINIMAL.replace("lattice.n_per_axis = 5", "lattice.n_per_axis = 2")
        assert parse_config(small + "covariance.n_sites = 8\n").covariance_n_sites == 8
        line = len(small.splitlines()) + 1
        with pytest.raises(ConfigError, match=f"line {line}: covariance.n_sites: 9 exceeds"):
            parse_config(small + "covariance.n_sites = 9\n")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("physics.mass", "nan", "must be finite"),
            ("physics.beta", "inf", "must be finite"),
            ("lattice.spacing", "inf", "must be finite"),
            ("grid.t_extent", "nan", "must be finite"),
            ("grid.t_extent", "-1.0", "must be nonnegative"),
            # subnormal: GridSpec finds its times unevenly spaced
            ("grid.t_extent", "1e-320", "grid times must be a nonempty, evenly spaced sequence"),
            # checked before validation builds the times
            ("grid.t_points", "10000000000000", "must be at most 1048576"),
            ("grid.x_extent", "-1.0", "must be nonnegative"),
        ],
    )
    def test_non_finite_floats_and_negative_extents_rejected_with_line(self, key, value, message):
        line = len(MINIMAL.splitlines()) + 1
        with pytest.raises(ConfigError, match=rf"^line {line}: {key}: {message}"):
            parse_config(MINIMAL.replace(f"{key} = ", "# ") + f"{key} = {value}\n")

    def test_grid_x_points_reported_under_its_own_key(self):
        lines = (CONFIG_DIR / "smoke.cfg").read_text().splitlines()
        lineno = next(n for n, line in enumerate(lines, 1) if line.startswith("grid.x_points"))
        lines[lineno - 1] = "grid.x_points = 0"
        with pytest.raises(ConfigError, match=rf"^line {lineno}: grid\.x_points: "):
            parse_config("\n".join(lines))


class TestPresets:
    def test_example1_matches_published_parameters(self):
        cfg = parse_config("preset = example1\n")
        assert cfg.n_per_axis == 25
        assert cfg.spacing == 0.1
        assert cfg.beta == 1.0
        assert cfg.mass == 1.0
        assert cfg.resolved_m_s == 25**3
        assert cfg.dlambda == 0.01
        assert cfg.equilibration_steps == 1_000_000
        assert cfg.sampling_steps == 1_000_000
        assert cfg.matter_action_kind() is MatterActionKind.FREE
        assert isinstance(cfg.shell(), FixedShell)

    def test_example_variants(self):
        ex2 = parse_config("preset = example2\n")
        assert ex2.matter_action_kind() is MatterActionKind.FREE_COLLECTIVE
        assert isinstance(ex2.shell(), FixedShell)
        ex3 = parse_config("preset = example3\n")
        assert isinstance(ex3.shell(), GlobalDynamicShell)
        ex4 = parse_config("preset = example4\n")
        assert isinstance(ex4.shell(), LocalDynamicShell)

    def test_desk_preset_is_small(self):
        cfg = parse_config("preset = desk\n")
        assert cfg.n_per_axis == 9
        assert cfg.equilibration_steps == 100_000
        assert cfg.sampling_steps == 400_000
        assert cfg.thin_stride == 10
        assert cfg.resolved_batch_len == 625

    def test_explicit_keys_override_preset(self):
        cfg = parse_config("preset = example1\nlattice.n_per_axis = 7\nseed = 42\n")
        assert cfg.n_per_axis == 7
        assert cfg.seed == 42
        assert cfg.spacing == 0.1

    def test_all_presets_parse(self):
        for name in PRESETS:
            cfg = parse_config(f"preset = {name}\n")
            assert cfg.preset == name


class TestResolvedItems:
    def test_round_trips_through_parser(self):
        cfg = parse_config("preset = desk\nseed = 33\n")
        text = "\n".join(f"{k} = {v}" for k, v in cfg.resolved_items())
        again = parse_config(text)
        assert again.seed == 33
        assert again.n_per_axis == cfg.n_per_axis
        assert again.resolved_m_s == cfg.resolved_m_s
        assert again.mgf_pairs == cfg.mgf_pairs
        assert again.resolved_batch_len == cfg.resolved_batch_len

    def test_contains_seed_and_batch_len(self):
        cfg = parse_config(MINIMAL)
        keys = dict(cfg.resolved_items())
        assert "seed" in keys
        assert "dynamics.batch_len" in keys


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
    def test_parses_and_resolves(self, path):
        cfg = parse_config(path.read_text())
        grid = cfg.grid_spec()
        assert len(grid.points()) == cfg.grid_t_points * cfg.grid_x_points
        assert cfg.integrator_params().dlambda == cfg.dlambda
        assert cfg.resolved_batch_len >= 1


# One failing value per check, set on the last line of MINIMAL, with the
# exact message; `{line}` is that line.
GOLDEN = [
    ("lattice.n_per_axis", "-1", "line {line}: lattice.n_per_axis: must be a positive integer"),
    ("lattice.n_per_axis", "1", "covariance.n_sites: 8 exceeds the lattice of 1 sites"),
    ("lattice.spacing", "-0.0", "line {line}: lattice.spacing: must be positive"),
    ("physics.beta", "nan", "line {line}: physics.beta: must be finite, got nan"),
    ("physics.beta", "0", "line {line}: physics.beta: must be positive"),
    ("physics.mass", "-1", "line {line}: physics.mass: must be nonnegative"),
    ("physics.m_s", "-0.0", "line {line}: physics.m_s: must be positive"),
    ("physics.m_s", "-inf", "line {line}: physics.m_s: must be finite, got -inf"),
    (
        "action.kind",
        "quartic",
        "line {line}: action.kind: must be one of ['free', 'free_collective']",
    ),
    (
        "shell.kind",
        "",
        "line {line}: shell.kind: must be one of ['fixed', 'global_dynamic', 'local_dynamic']",
    ),
    ("dynamics.dlambda", "0", "line {line}: dynamics.dlambda: dlambda must be positive"),
    (
        "dynamics.equilibration_steps",
        "-1",
        "line {line}: dynamics.equilibration_steps: must be nonnegative",
    ),
    ("dynamics.sampling_steps", "-1", "line {line}: dynamics.sampling_steps: must be nonnegative"),
    ("dynamics.thin_stride", "0", "line {line}: dynamics.thin_stride: must be at least 1"),
    (
        "dynamics.thin_stride",
        "junk",
        "line {line}: dynamics.thin_stride: cannot parse 'junk' "
        "(invalid literal for int() with base 10: 'junk')",
    ),
    ("dynamics.batch_len", "0", "line {line}: dynamics.batch_len: must be at least 1"),
    ("seed", "-1", "line {line}: seed: must fit in 64 unsigned bits"),
    ("seed", str(2**64), "line {line}: seed: must fit in 64 unsigned bits"),
    ("grid.t_extent", "-1", "line {line}: grid.t_extent: must be nonnegative"),
    (
        "grid.t_extent",
        "1e-320",
        "line {line}: grid.t_extent: grid times must be a nonempty, evenly spaced "
        "sequence; got 21 times over [-1e-320, 1e-320]",
    ),
    ("grid.t_points", "0", "line {line}: grid.t_points: must be at least 1"),
    ("grid.t_points", "1048577", "line {line}: grid.t_points: must be at most 1048576"),
    ("grid.x_extent", "-1", "line {line}: grid.x_extent: must be nonnegative"),
    ("grid.x_points", "0", "line {line}: grid.x_points: must be at least 1"),
    ("grid.axis", "4", "line {line}: grid.axis: must be 1, 2 or 3"),
    ("covariance.n_sites", "65", "line {line}: covariance.n_sites: must be between 1 and 64"),
    (
        "mgf.pairs",
        "0:0,1:125",
        "line {line}: mgf.pairs: site pair (1,125) outside the lattice of 125 sites",
    ),
    (
        "mgf.pairs",
        "junk",
        "line {line}: mgf.pairs: cannot parse 'junk' (pair 'junk' must look like p:q)",
    ),
    ("mgf.epsilon", "0.2", "line {line}: mgf.epsilon: must be in (0, 0.1]"),
    ("micro.sigma_p", "0", "line {line}: micro.sigma_p: must be positive"),
    ("micro.separation", "-1", "line {line}: micro.separation: must be positive"),
    ("micro.threshold", "0", "line {line}: micro.threshold: must be positive"),
    ("micro.source", "sampled", "line {line}: micro.source: must be one of ['exact', 'mc']"),
    ("fock.n_observables", "0", "line {line}: fock.n_observables: must be at least 1"),
    ("fock.n_max", "0", "line {line}: fock.n_max: must be at least 1"),
    ("fock.tol", "1e400", "line {line}: fock.tol: must be finite, got inf"),
    ("fock.tol", "0", "line {line}: fock.tol: must be positive"),
    (
        "output.checkpoint_every",
        "0",
        "line {line}: output.checkpoint_every: must be at least 1",
    ),
    ("output.log_every", "-1", "line {line}: output.log_every: must be at least 1"),
]


@pytest.mark.parametrize("key, value, message", GOLDEN)
def test_each_check_gives_its_exact_message(key, value, message):
    line = len(MINIMAL.splitlines()) + 1
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL.replace(f"{key} = ", "# ") + f"{key} = {value}\n")
    assert str(info.value) == message.format(line=line)


class TestMutations:
    """Seeded mutations of the shipped configs: a value set to an edge case,
    a line repeated, or a preset line added.  Each parses or raises a
    ConfigError naming a key (on the line that sets it, when a line is
    given); a repeated key, `preset` included, is always the error."""

    VALUES = [
        "0", "-1", "1e400", "nan", "inf", "-inf", "", "junk", "1e-320",
        "1048577", str(2**64), "9" * 30, "-0.0",
    ]
    NAMED = re.compile(r"^(?:line (\d+): )?(?:duplicate key '([\w.]+)'$|([\w.]+): )")

    @staticmethod
    def key_of(line: str) -> str:
        return line.split("#", 1)[0].partition("=")[0].strip()

    def cases(self):
        rng = random.Random(20261020)
        bases = [(CONFIG_DIR / name).read_text().splitlines() for name in ("desk.cfg", "smoke.cfg")]
        keys = list(_SCHEMA)
        for _ in range(480):
            lines = list(rng.choice(bases))
            kind = rng.choice(["set", "set", "set", "repeat", "preset"])
            if kind == "set":
                key = rng.choice(keys)
                lines = [line for line in lines if self.key_of(line) != key]
                lines.insert(rng.randrange(len(lines) + 1), f"{key} = {rng.choice(self.VALUES)}")
            elif kind == "repeat":
                lines.append(rng.choice([line for line in lines if self.key_of(line)]))
            else:
                preset = rng.choice(sorted(PRESETS))
                lines.insert(rng.randrange(len(lines) + 1), f"preset = {preset}")
            yield lines

    def first_duplicate(self, lines):
        seen = set()
        for lineno, line in enumerate(lines, start=1):
            key = self.key_of(line)
            if key in seen:
                return f"line {lineno}: duplicate key {key!r}"
            if key:
                seen.add(key)
        return None

    def rejected(self):
        """(text, message) of every rejected case, after checking each case."""
        out = []
        for lines in self.cases():
            text = "\n".join(lines) + "\n"
            duplicate = self.first_duplicate(lines)
            try:
                cfg = parse_config(text)
            except ConfigError as err:
                message = str(err)
                if duplicate is not None:
                    assert message == duplicate
                named = self.NAMED.match(message)
                assert named, message
                lineno, key = named.group(1), named.group(2) or named.group(3)
                assert key in _SCHEMA or key == "preset", message
                if lineno is not None:
                    assert self.key_of(lines[int(lineno) - 1]) == key, message
                out.append((text, message))
            else:
                assert duplicate is None, duplicate
                assert isinstance(cfg, RunConfig)
        return out

    def test_every_mutation_parses_or_names_a_key(self):
        # some cases parse, and enough are rejected for the CLI test below
        assert 24 <= len(self.rejected()) < 480

    def test_rejected_mutations_exit_2_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)  # the configs' output dirs are relative
        subcommands = ["simulate", "correlator", "covariance", "mgf-check", "fock-check",
                       "microcausality", "resume"]
        for i, (text, message) in enumerate(self.rejected()[:24]):
            path = tmp_path / f"case{i}.cfg"
            path.write_text(text)
            argv = [subcommands[i % len(subcommands)], "--config", str(path)]
            if argv[0] == "resume":
                argv += ["--checkpoint", str(tmp_path / "none.ckpt")]
            assert main(argv) == 2, text
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines() == [f"error: {message}"]
        assert list(run_dir.iterdir()) == []


def test_readme_lists_every_key_with_its_default():
    section = README.read_text().split("### Config keys\n", 1)[1].split("\n#", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    table = {key.strip("| `"): (default.strip("`"), rest) for key, default, rest in rows}
    assert list(table) == list(_SCHEMA)
    keys = {attr: key for key, (attr, _convert, _check) in _SCHEMA.items()}
    for field in fields(RunConfig):
        if field.name not in keys:
            continue
        documented, constraint = table[keys[field.name]]
        assert constraint.strip("| ")
        default = field.default
        if default is None:  # derived from other keys
            assert documented.startswith("(") and documented.endswith(")")
            continue
        if default is MISSING:
            expected = "required"
        elif isinstance(default, tuple):
            expected = ",".join(f"{p}:{q}" for p, q in default)
        else:
            expected = repr(default) if isinstance(default, float) else str(default)
        assert documented == expected, keys[field.name]
