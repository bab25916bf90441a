"""Repository acceptance gates, one test per criterion.

Every criterion is asserted exactly at its stated tolerance and prints one
`ACCEPTANCE <k> (<name>): PASS|FAIL` line with the measured values.  Gates
that the system genuinely cannot meet (the absolute conservation bound at
the stated step size, and the ensemble-agreement gates that presuppose
ergodic trajectory averaging) fail honestly rather than being loosened;
the measured numbers appear in the printed line and the assertion message.
"""

import math

import numpy as np
import pytest

from rsft.action import BathParams, MatterActionKind
from rsft.cli import main
from rsft.dynamics import IntegratorParams, flip_momenta, init_state, run
from rsft.estimators import (
    CorrelatorAccumulator,
    CovarianceAccumulator,
    GridSpec,
    MgfAccumulator,
    VarianceAccumulator,
)
from rsft.lattice import (
    FixedShell,
    GlobalDynamicShell,
    LocalDynamicShell,
    MomentumLattice,
)
from rsft.operator_algebra import (
    FockRep,
    HilbertContext,
    LinearObservable,
    algebra_report,
    gram_exact,
    microcausality_ratio,
    packet_envelope,
    packet_observables,
    standard_packet_configuration,
)
from rsft.oracles import exact_covariance, expected_correlator, smeared_commutator

FREE = MatterActionKind.FREE
COLLECTIVE = MatterActionKind.FREE_COLLECTIVE

SEED = 1
DESK_N_PER_AXIS = 9
DESK_EQUILIBRATION = 100_000
DESK_SAMPLING = 400_000
DESK_THIN = 10
DESK_BATCH = 625  # sampling / (thin * 64)
MGF_PAIRS = ((0, 0), (0, 1), (2, 2), (3, 5))
MGF_EPSILON = 0.05


def report(capsys, number, name, passed, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")


def desk_system(n_per_axis, kind):
    lattice = MomentumLattice(n_per_axis, 0.1)
    n = lattice.site_count
    bath = BathParams(1.0, float(n), n)
    params = IntegratorParams(0.01, bath, kind)
    return lattice, bath, params


def sampled_run(kind, accumulators, n_per_axis=DESK_N_PER_AXIS, shellless=False):
    """Desk-scale trajectory: equilibrate, then feed thinned snapshots to
    every accumulator."""
    lattice, bath, params = desk_system(n_per_axis, kind)
    state, _ = init_state(lattice, bath, kind, SEED)
    state = run(state, params, DESK_EQUILIBRATION)

    def observer(live):
        if (live.step_count - DESK_EQUILIBRATION) % DESK_THIN == 0:
            for acc in accumulators:
                acc.add(live.phi)

    run(state, params, DESK_SAMPLING, [observer])


@pytest.fixture(scope="module")
def desk_grid_spec():
    return GridSpec.plane(3.0, 21, 3.0, 21, axis=1)


@pytest.fixture(scope="module")
def desk_collective(desk_grid_spec):
    """Shared desk-scale collective run with every estimator attached."""
    lattice, _, _ = desk_system(DESK_N_PER_AXIS, COLLECTIVE)
    n = lattice.site_count
    variance = VarianceAccumulator(n, DESK_BATCH)
    block = CovarianceAccumulator(range(8), DESK_BATCH)
    mgf = [MgfAccumulator(p, q, MGF_EPSILON, DESK_BATCH) for p, q in MGF_PAIRS]
    correlator = CorrelatorAccumulator(desk_grid_spec, lattice, FixedShell(1.0), DESK_BATCH)
    sampled_run(COLLECTIVE, [variance, block, correlator, *mgf])
    return {
        "lattice": lattice,
        "variance": variance.result(),
        "block": block.result(),
        "mgf": [acc.result() for acc in mgf],
        "grid": correlator.result(),
    }


@pytest.fixture(scope="module")
def desk_free_grid(desk_grid_spec):
    """Same budget and grid for the non-interacting action."""
    lattice, _, _ = desk_system(DESK_N_PER_AXIS, FREE)
    correlator = CorrelatorAccumulator(desk_grid_spec, lattice, FixedShell(1.0), DESK_BATCH)
    sampled_run(FREE, [correlator])
    return lattice, correlator.result()


def max_total_action(dlambda, n_steps, kind=COLLECTIVE, n_per_axis=7, seed=SEED):
    lattice, bath, _ = desk_system(n_per_axis, kind)
    params = IntegratorParams(dlambda, bath, kind)
    state, _ = init_state(lattice, bath, kind, seed)
    worst = 0.0

    def watch(live):
        nonlocal worst
        worst = max(worst, abs(live.total_action(kind, bath)))

    run(state, params, n_steps, [watch])
    return worst


def test_criterion_1_action_conservation(capsys):
    coarse = max_total_action(0.01, 100_000)
    halved = max_total_action(0.005, 100_000)
    fifth = max_total_action(0.002, 100_000)
    ratio = coarse / halved
    bound_ok = coarse <= 1e-3
    ratio_ok = 3.0 <= ratio <= 5.0
    report(
        capsys,
        1,
        "action conservation",
        bound_ok and ratio_ok,
        f"max|S|={coarse:.3e} vs bound 1e-3 at dl=0.01; halving ratio={ratio:.2f} "
        f"in [3,5]; at dl=0.002 max|S|={fifth:.3e} (meets the bound there)",
    )
    assert ratio_ok, f"halving ratio {ratio:.2f} outside [3, 5]"
    assert bound_ok, (
        f"max |total action| {coarse:.3e} exceeds 1e-3 at dlambda=0.01; the "
        f"second-order energy oscillation of this trajectory is ~2e-2 at this "
        f"step size (it meets the bound at dlambda=0.002: {fifth:.3e})"
    )


def test_criterion_2_reversibility(capsys):
    lattice, bath, params = desk_system(7, COLLECTIVE)
    state, _ = init_state(lattice, bath, COLLECTIVE, SEED)
    forward = run(state, params, 10_000)
    restored = flip_momenta(run(flip_momenta(forward), params, 10_000))
    error = max(
        float(np.abs(restored.phi - state.phi).max()),
        float(np.abs(restored.pi_phi - state.pi_phi).max()),
        abs(restored.s - state.s),
        abs(restored.pi_s - state.pi_s),
    )
    passed = error <= 1e-6
    report(capsys, 2, "reversibility", passed, f"max-norm error {error:.3e} vs 1e-6")
    assert passed, f"forward-flip-backward error {error:.3e} exceeds 1e-6"


def test_criterion_3_ensemble_covariances(capsys, desk_collective):
    n = desk_collective["lattice"].site_count
    cov = exact_covariance(COLLECTIVE, n, 1.0)

    variances, var_se, _ = desk_collective["variance"]
    assert var_se is not None
    var_frac = float(np.mean(np.abs(variances - cov.diag) <= 5.0 * var_se))

    block = desk_collective["block"]
    off = ~np.eye(8, dtype=bool)
    off_frac = float(
        np.mean(np.abs(block.matrix[off] - cov.offdiag) <= 5.0 * block.stderr[off])
    )
    passed = var_frac >= 0.95 and off_frac >= 0.95
    report(
        capsys,
        3,
        "ensemble correctness",
        passed,
        f"per-mode variance within 5se: {var_frac:.1%} (need 95%); "
        f"8x8 off-diagonal within 5se: {off_frac:.1%} (need 95%); "
        f"the trajectory does not mix the non-collective modes",
    )
    assert var_frac >= 0.95, (
        f"only {var_frac:.1%} of per-mode variances within 5 stderr of "
        f"{cov.diag:.6f}; trajectory averaging is not ergodic at this scale"
    )
    assert off_frac >= 0.95, (
        f"only {off_frac:.1%} of off-diagonal covariances within 5 stderr of "
        f"{cov.offdiag:.6f}"
    )


def test_criterion_4_mgf_cross_check(capsys, desk_collective):
    block = desk_collective["block"]
    details = []
    all_ok = True
    for (p, q), (estimate, est_se, _) in zip(MGF_PAIRS, desk_collective["mgf"]):
        direct = float(block.matrix[p, q])
        direct_se = float(block.stderr[p, q])
        combined = math.sqrt(est_se**2 + direct_se**2)
        ok = abs(estimate - direct) <= 5.0 * combined
        all_ok = all_ok and ok
        details.append(f"({p},{q}): |{estimate:.4f}-{direct:.4f}|<={5*combined:.4f} {ok}")
    report(capsys, 4, "mgf cross-check", all_ok, "; ".join(details))
    assert all_ok, "; ".join(details)


def test_criterion_5_correlator_reconstruction(capsys, desk_collective, desk_free_grid):
    lattice = desk_collective["lattice"]
    grid = desk_collective["grid"]
    oracle = expected_correlator(COLLECTIVE, lattice, 1.0, 1.0, grid.points)
    ok_re = np.abs(grid.values.real - oracle.real) <= 5.0 * grid.stderr_re
    ok_im = np.abs(grid.values.imag - oracle.imag) <= 5.0 * grid.stderr_im
    collective_frac = float((ok_re & ok_im).mean())

    free_lattice, free_grid = desk_free_grid
    free_oracle = expected_correlator(FREE, free_lattice, 1.0, 1.0, free_grid.points)
    with np.errstate(divide="ignore", invalid="ignore"):
        z_re = np.abs(free_grid.values.real - free_oracle.real) / free_grid.stderr_re
        z_im = np.abs(free_grid.values.imag - free_oracle.imag) / free_grid.stderr_im
    free_max_z = float(np.nanmax(np.maximum(z_re, z_im)))

    passed = collective_frac >= 0.95 and free_max_z > 10.0
    report(
        capsys,
        5,
        "correlator reconstruction",
        passed,
        f"collective grid within 5se: {collective_frac:.1%} (need 95%); "
        f"free-run max |z| = {free_max_z:.0f} (need one point > 10)",
    )
    assert free_max_z > 10.0, "free run shows no non-ergodic deviation"
    assert collective_frac >= 0.95, (
        f"only {collective_frac:.1%} of grid points within 5 stderr; the "
        f"collective-mode amplitude is frozen near its seed-dependent initial "
        f"value instead of the ensemble value"
    )


def test_criterion_6_fock_algebra(capsys):
    rng = np.random.Generator(np.random.PCG64(SEED))
    n = DESK_N_PER_AXIS**3
    observables = [
        LinearObservable(rng.normal(size=n) + 1j * rng.normal(size=n), label=f"o{i}")
        for i in range(3)
    ]
    covariance = exact_covariance(COLLECTIVE, n, 1.0)
    context = HilbertContext.from_covariance(observables, covariance)
    rep = FockRep.build(context.d, 4)
    results = algebra_report(context, rep, rng_seed=SEED)
    worst = max(r.deviation for r in results if r.name != "gram_positive")
    gram = context.gram.matrix
    hermitian_exact = float(np.abs(gram - gram.conj().T).max()) == 0.0
    psd = float(np.linalg.eigvalsh(gram).min()) >= -1e-12
    passed = all(r.passed for r in results) and worst <= 1e-12 and hermitian_exact and psd
    report(
        capsys,
        6,
        "fock algebra",
        passed,
        f"d={context.d}, n_max=4, worst identity deviation {worst:.3e} vs 1e-12, "
        f"gram hermitian exactly: {hermitian_exact}, psd: {psd}",
    )
    assert hermitian_exact and psd
    for result in results:
        assert result.passed, f"{result.name}: {result.deviation:.3e} > {result.tolerance:.3e}"
    assert worst <= 1e-12


def test_criterion_7_microcausality(capsys):
    lattice = MomentumLattice(25, 0.1)
    covariance = exact_covariance(FREE, lattice.site_count, 1.0)
    spacelike, timelike = standard_packet_configuration(separation=1.5, sigma_p=0.3)
    result = microcausality_ratio(
        gram_exact(packet_observables(spacelike, timelike, lattice, 1.0), covariance)
    )

    def oracle(pair):
        delta = np.asarray(pair[1].center) - np.asarray(pair[0].center)
        return smeared_commutator(
            lattice,
            1.0,
            1.0,
            packet_envelope(pair[0], lattice),
            packet_envelope(pair[1], lattice),
            delta,
        )

    oracle_ratio = abs(oracle(spacelike)) / abs(oracle(timelike))
    agreement = abs(result.ratio - oracle_ratio)
    passed = result.ratio <= 0.05 and agreement <= 1e-10
    report(
        capsys,
        7,
        "microcausality",
        passed,
        f"ratio {result.ratio:.3e} vs 0.05; |ratio - oracle| = {agreement:.3e} vs 1e-10",
    )
    assert result.ratio <= 0.05
    assert agreement <= 1e-10


def test_criterion_8_dynamic_shell_smoke(capsys):
    outcomes = []
    conservation_values = []
    for shell in (GlobalDynamicShell(), LocalDynamicShell()):
        lattice, bath, params = desk_system(7, COLLECTIVE)
        grid_spec = GridSpec.plane(3.0, 21, 3.0, 21, axis=1)

        def one_run():
            state, _ = init_state(lattice, bath, COLLECTIVE, SEED)
            state = run(state, params, 20_000)
            acc = CorrelatorAccumulator(grid_spec, lattice, shell, batch_len=1000)
            worst = 0.0

            def observer(live):
                nonlocal worst
                worst = max(worst, abs(live.total_action(COLLECTIVE, bath)))
                if (live.step_count - 20_000) % 10 == 0:
                    acc.add(live.phi)

            run(state, params, 100_000, [observer])
            return acc.result(), worst

        first, worst = one_run()
        second, _ = one_run()
        finite = bool(np.all(np.isfinite(first.values)))
        bitwise = bool(np.array_equal(first.values, second.values))
        conservation_values.append(worst)
        outcomes.append(
            f"{type(shell).__name__}: finite={finite}, bitwise-reproducible={bitwise}, "
            f"max|S|={worst:.3e}"
        )
        assert finite
        assert bitwise
    conservation_ok = all(v <= 1e-3 for v in conservation_values)
    report(capsys, 8, "dynamic-shell smoke", conservation_ok, "; ".join(outcomes))
    assert conservation_ok, (
        "runs complete, grids finite and bitwise-reproducible, but the "
        f"conservation bound 1e-3 is exceeded (max {max(conservation_values):.3e}) "
        "exactly as in criterion 1"
    )


BASE_CONFIG = """
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
"""


def test_criterion_9_reproducibility(capsys, tmp_path):
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE_CONFIG + f"output.dir = {out}\n")

    # Same-seed reruns into the same location must be byte-identical.
    main(["correlator", "--config", str(cfg_path)])
    first_grid = (out / "correlator_mc.csv").read_bytes()
    first_log = (out / "conservation.csv").read_bytes()
    main(["correlator", "--config", str(cfg_path)])
    rerun_identical = (
        first_grid == (out / "correlator_mc.csv").read_bytes()
        and first_log == (out / "conservation.csv").read_bytes()
    )

    # Checkpoint-resume mid-run must reproduce the unbroken outputs.
    whole_dir = tmp_path / "whole"
    cfg_whole = tmp_path / "whole.cfg"
    cfg_whole.write_text(BASE_CONFIG + f"output.dir = {whole_dir}\n")
    main(["simulate", "--config", str(cfg_whole)])

    part_dir = tmp_path / "part"
    cfg_part = tmp_path / "part.cfg"
    cfg_part.write_text(
        BASE_CONFIG.replace(
            "dynamics.equilibration_steps = 2000", "dynamics.equilibration_steps = 0"
        ).replace("dynamics.sampling_steps = 8000", "dynamics.sampling_steps = 4000")
        + f"output.dir = {part_dir}\n"
    )
    main(["simulate", "--config", str(cfg_part)])
    cfg_rest = tmp_path / "rest.cfg"
    cfg_rest.write_text(BASE_CONFIG + f"output.dir = {part_dir}\n")
    main(
        [
            "resume",
            "--config",
            str(cfg_rest),
            "--checkpoint",
            str(part_dir / "checkpoint.ckpt"),
        ]
    )

    def rows(path):
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        return lines[1:]

    ckpt_identical = (whole_dir / "checkpoint.ckpt").read_bytes() == (
        part_dir / "checkpoint.ckpt"
    ).read_bytes()
    log_rows_identical = rows(whole_dir / "conservation.csv") == (
        rows(part_dir / "conservation.csv") + rows(part_dir / "conservation_resume.csv")
    )
    passed = rerun_identical and ckpt_identical and log_rows_identical
    report(
        capsys,
        9,
        "reproducibility",
        passed,
        f"same-seed rerun byte-identical: {rerun_identical}; resume checkpoint "
        f"byte-identical: {ckpt_identical}; resumed log rows identical: {log_rows_identical}",
    )
    assert rerun_identical
    assert ckpt_identical
    assert log_rows_identical
