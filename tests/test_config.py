from pathlib import Path

import pytest

from rsft.action import MatterActionKind
from rsft.config import ConfigError, PRESETS, parse_config
from rsft.lattice import FixedShell, GlobalDynamicShell, LocalDynamicShell

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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
