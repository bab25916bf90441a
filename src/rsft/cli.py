"""Command-line entry points.

Subcommands: simulate, correlator, covariance, mgf-check, fock-check,
microcausality, resume.  Every output file embeds the fully resolved
configuration and seed as comment headers.  Exit status is 0 when every
check passed its tolerance and 1 when one failed; errors print a single
machine-readable `error: ...` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import dynamics, estimators, oracles, storage
from .config import ConfigError, RunConfig, config_from_file
from .dynamics import CoordinateBlock, ExtendedState, StepFailureError
from .estimators import (
    CorrelatorAccumulator,
    CovarianceAccumulator,
    EstimatorError,
    MgfAccumulator,
    VarianceAccumulator,
)
from .operator_algebra import (
    AlgebraError,
    FockRep,
    GramAccumulator,
    HilbertContext,
    LinearObservable,
    algebra_report,
    gram_exact,
    microcausality_ratio,
    packet_envelope,
    packet_observables,
    standard_packet_configuration,
)

_FOCK_DEFAULTS = RunConfig(
    n_per_axis=5,
    spacing=0.1,
    beta=1.0,
    mass=1.0,
    action_kind="free_collective",
    shell_kind="fixed",
    dlambda=0.01,
    equilibration_steps=0,
    sampling_steps=0,
)

_MICRO_DEFAULTS = replace(_FOCK_DEFAULTS, n_per_axis=25, action_kind="free")

MICRO_ORACLE_AGREEMENT_TOL = 1e-10


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _header(cfg: RunConfig, subcommand: str, extra: list[tuple[str, str]] = ()) -> list:
    return [("subcommand", subcommand)] + cfg.resolved_items() + list(extra)


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def _conservation_observer(log, cfg: RunConfig, params, kind, bath):
    total = cfg.total_steps

    def observe(state: ExtendedState) -> None:
        if state.step_count % cfg.log_every == 0 or state.step_count == total:
            log.record(
                state.step_count,
                state.lam(params.dlambda),
                state.total_action(kind, bath),
                state.s,
                state.pi_s,
            )

    return observe


def _checkpoint_physics(cfg: RunConfig) -> dict:
    """The config values a checkpointed trajectory depends on beyond its
    site count; a resume must match them."""
    return {"action.kind": cfg.action_kind, "dynamics.dlambda": cfg.dlambda}


def _checkpoint_observer(cfg: RunConfig, rng, path):
    physics = _checkpoint_physics(cfg)

    def observe(state: ExtendedState) -> None:
        if state.step_count % cfg.checkpoint_every == 0:
            storage.write_checkpoint(path, state, rng, physics)

    return observe


def _sampling_observer(accumulators):
    def observe(block: CoordinateBlock) -> None:
        for acc in accumulators:
            acc.add(block)

    return observe


def _run_trajectory(cfg: RunConfig, subcommand: str, accumulators=(), resume_from=None):
    """Advance a trajectory to the configured total with the conservation
    log, periodic checkpoints and the sampled accumulators attached, then
    write the final checkpoint unless the periodic one holds it.  A fresh
    trajectory starts from the seeded initial state and logs its step-0
    row; `resume_from` is a checkpointed (state, rng) pair, logged to its
    own file."""
    bath = cfg.bath()
    kind = cfg.matter_action_kind()
    params = cfg.integrator_params()
    if resume_from is None:
        state, rng = dynamics.init_state(cfg.lattice(), bath, kind, cfg.seed)
        log_name, extra = "conservation.csv", []
    else:
        state, rng = resume_from
        log_name = "conservation_resume.csv"
        extra = [("resumed_from_step", str(state.step_count))]
    ckpt_path = _out_path(cfg, "checkpoint.ckpt")
    with storage.ConservationLog(_out_path(cfg, log_name), _header(cfg, subcommand, extra)) as log:
        if resume_from is None:
            log.record(0, 0.0, state.total_action(kind, bath), state.s, state.pi_s)
        observers = [
            _conservation_observer(log, cfg, params, kind, bath),
            _checkpoint_observer(cfg, rng, ckpt_path),
        ]
        sampling = dynamics.Sampling(
            cfg.equilibration_steps, cfg.thin_stride, _sampling_observer(accumulators)
        )
        # both observers act only at multiples of these, so run calls them
        # at multiples of their gcd
        every = math.gcd(cfg.log_every, cfg.checkpoint_every)
        n_steps = cfg.total_steps - state.step_count
        final = dynamics.run(state, params, n_steps, observers, every, sampling)
        # after a last step at a multiple of checkpoint_every, the periodic
        # observer has just written this state
        if n_steps == 0 or final.step_count % cfg.checkpoint_every:
            storage.write_checkpoint(ckpt_path, final, rng, _checkpoint_physics(cfg))
    return final, log.max_abs_total_action


def _agreement(value: float, target: float, stderr: float) -> bool:
    diff = abs(value - target)
    if stderr == 0.0:
        return diff <= 1e-12 * max(1.0, abs(target))
    return diff <= 5.0 * stderr


def cmd_simulate(cfg: RunConfig) -> int:
    final, max_abs = _run_trajectory(cfg, "simulate")
    print(
        f"simulate: {cfg.total_steps} steps completed; "
        f"max |total action| = {max_abs:.6e}; final s = {final.s:.6f}"
    )
    print(f"simulate: outputs in {cfg.output_dir}")
    return 0


def cmd_resume(cfg: RunConfig, checkpoint_path: str) -> int:
    state, rng = storage.read_checkpoint(checkpoint_path, expect=_checkpoint_physics(cfg))
    if state.basis.shape[1] != cfg.site_count:
        return _fail(
            f"checkpoint holds {state.basis.shape[1]} sites but the config "
            f"defines {cfg.site_count}"
        )
    remaining = cfg.total_steps - state.step_count
    if remaining < 0:
        return _fail(
            f"checkpoint is at step {state.step_count}, beyond the configured "
            f"total of {cfg.total_steps}"
        )
    final, max_abs = _run_trajectory(cfg, "resume", resume_from=(state, rng))
    print(
        f"resume: advanced {remaining} steps to {final.step_count}; "
        f"max |total action| = {max_abs:.6e}"
    )
    return 0


def cmd_correlator(cfg: RunConfig) -> int:
    grid_spec = cfg.grid_spec()
    lattice = cfg.lattice()
    acc = CorrelatorAccumulator(grid_spec, lattice, cfg.shell(), cfg.resolved_batch_len)
    _run_trajectory(cfg, "correlator", [acc])
    grid = acc.result(source="mc")
    storage.emit_correlator_csv(
        grid, _out_path(cfg, "correlator_mc.csv"), _header(cfg, "correlator", [("source", "mc")])
    )
    if cfg.shell_kind != "fixed":
        print("correlator: no closed-form reference for a dynamic mass shell; MC grid emitted")
        finite = bool(np.all(np.isfinite(grid.values)))
        print(f"correlator: grid finite -> {'PASS' if finite else 'FAIL'}")
        return 0 if finite else 1
    expected = oracles.expected_correlator(
        cfg.matter_action_kind(), lattice, cfg.mass, cfg.beta, grid.points
    )
    oracle_grid = estimators.CorrelatorGrid(
        grid.points,
        expected,
        np.zeros(expected.shape[0]),
        np.zeros(expected.shape[0]),
        "oracle",
        0,
    )
    storage.emit_correlator_csv(
        oracle_grid,
        _out_path(cfg, "correlator_oracle.csv"),
        _header(cfg, "correlator", [("source", "oracle")]),
    )
    if grid.stderr_re is None:
        print("correlator: too few batches for error bars; stderr unavailable")
        return 1
    agree = 0
    for g in range(grid.points.shape[0]):
        ok_re = _agreement(grid.values[g].real, expected[g].real, float(grid.stderr_re[g]))
        ok_im = _agreement(grid.values[g].imag, expected[g].imag, float(grid.stderr_im[g]))
        agree += ok_re and ok_im
    fraction = agree / grid.points.shape[0]
    passed = fraction >= 0.95
    print(
        f"correlator: {fraction:.1%} of grid points within 5 stderr of the "
        f"closed form -> {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


def cmd_covariance(cfg: RunConfig) -> int:
    sites = list(range(cfg.covariance_n_sites))
    var_acc = VarianceAccumulator(cfg.site_count, cfg.resolved_batch_len)
    cov_acc = CovarianceAccumulator(sites, cfg.resolved_batch_len)
    _run_trajectory(cfg, "covariance", [var_acc, cov_acc])
    cov = oracles.exact_covariance(cfg.matter_action_kind(), cfg.site_count, cfg.beta)

    variances, var_se, _count = var_acc.result()
    if var_se is None:
        print("covariance: too few batches for error bars; stderr unavailable")
        return 1
    var_rows = []
    var_agree = 0
    for site in range(cfg.site_count):
        ok = _agreement(float(variances[site]), cov.diag, float(var_se[site]))
        var_agree += ok
        var_rows.append((site, float(variances[site]), float(var_se[site]), cov.diag, ok))
    storage.emit_table_csv(
        _out_path(cfg, "mode_variance.csv"),
        ("site", "variance", "stderr", "oracle", "agrees"),
        var_rows,
        _header(cfg, "covariance", [("source", "mc")]),
    )

    block = cov_acc.result()
    block_rows = []
    block_agree = 0
    for i in range(len(sites)):
        for j in range(len(sites)):
            target = cov.diag if i == j else cov.offdiag
            se = float(block.stderr[i, j])
            ok = _agreement(float(block.matrix[i, j]), target, se)
            block_agree += ok
            block_rows.append((sites[i], sites[j], float(block.matrix[i, j]), se, target, ok))
    storage.emit_table_csv(
        _out_path(cfg, "covariance_block.csv"),
        ("site_i", "site_j", "covariance", "stderr", "oracle", "agrees"),
        block_rows,
        _header(cfg, "covariance", [("source", "mc")]),
    )

    var_fraction = var_agree / cfg.site_count
    block_fraction = block_agree / len(sites) ** 2
    passed = var_fraction >= 0.95 and block_fraction >= 0.95
    print(
        f"covariance: per-mode variance {var_fraction:.1%}, "
        f"{len(sites)}x{len(sites)} block {block_fraction:.1%} within 5 stderr "
        f"-> {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


def cmd_mgf_check(cfg: RunConfig) -> int:
    pair_sites = sorted({site for pair in cfg.mgf_pairs for site in pair})
    mgf_accs = [
        MgfAccumulator(p, q, cfg.mgf_epsilon, cfg.resolved_batch_len) for p, q in cfg.mgf_pairs
    ]
    cov_acc = CovarianceAccumulator(pair_sites, cfg.resolved_batch_len)
    _run_trajectory(cfg, "mgf-check", mgf_accs + [cov_acc])
    block = cov_acc.result()
    site_pos = {site: pos for pos, site in enumerate(pair_sites)}

    rows = []
    all_ok = True
    for acc, (p, q) in zip(mgf_accs, cfg.mgf_pairs):
        estimate, est_se, _count = acc.result()
        direct = float(block.matrix[site_pos[p], site_pos[q]])
        direct_se = (
            float(block.stderr[site_pos[p], site_pos[q]]) if block.stderr is not None else None
        )
        if est_se is None or direct_se is None:
            all_ok = False
            combined = None
        else:
            combined = math.sqrt(est_se**2 + direct_se**2)
        ok = combined is not None and abs(estimate - direct) <= 5.0 * combined
        all_ok = all_ok and ok
        rows.append(
            (
                p,
                q,
                estimate,
                float("nan") if est_se is None else est_se,
                direct,
                float("nan") if direct_se is None else direct_se,
                ok,
            )
        )
    storage.emit_table_csv(
        _out_path(cfg, "mgf_check.csv"),
        ("site_p", "site_q", "mgf_estimate", "mgf_stderr", "covariance", "cov_stderr", "agrees"),
        rows,
        _header(cfg, "mgf-check", [("source", "mc")]),
    )
    print(
        f"mgf-check: {sum(1 for r in rows if r[-1])}/{len(rows)} pairs within "
        f"5 stderr -> {'PASS' if all_ok else 'FAIL'}"
    )
    return 0 if all_ok else 1


def _random_observables(cfg: RunConfig) -> list[LinearObservable]:
    rng = dynamics.make_rng(cfg.seed)
    n = cfg.site_count
    return [
        LinearObservable(
            rng.normal(size=n) + 1j * rng.normal(size=n), label=f"random_{i}"
        )
        for i in range(cfg.fock_n_observables)
    ]


def cmd_fock_check(cfg: RunConfig) -> int:
    covariance = oracles.exact_covariance(cfg.matter_action_kind(), cfg.site_count, cfg.beta)
    context = HilbertContext.from_covariance(
        _random_observables(cfg), covariance, tol=cfg.fock_tol
    )
    rep = FockRep.build(context.d, cfg.fock_n_max)
    results = algebra_report(context, rep, rng_seed=cfg.seed)
    rows = [(r.name, r.deviation, r.tolerance, r.passed) for r in results]
    storage.emit_table_csv(
        _out_path(cfg, "fock_report.csv"),
        ("check", "deviation", "tolerance", "passed"),
        rows,
        _header(
            cfg,
            "fock-check",
            [("one_particle_dim", str(context.d)), ("fock_dim", str(rep.dim))],
        ),
    )
    all_ok = all(r.passed for r in results)
    worst = max(results, key=lambda r: r.deviation / max(r.tolerance, 1e-300))
    print(
        f"fock-check: {sum(r.passed for r in results)}/{len(results)} identities hold "
        f"(worst: {worst.name} at {worst.deviation:.3e}) -> {'PASS' if all_ok else 'FAIL'}"
    )
    return 0 if all_ok else 1


def cmd_microcausality(cfg: RunConfig) -> int:
    lattice = cfg.lattice()
    spacelike, timelike = standard_packet_configuration(cfg.micro_separation, cfg.micro_sigma_p)
    observables = packet_observables(spacelike, timelike, lattice, cfg.mass)
    if cfg.micro_source == "exact":
        covariance = oracles.exact_covariance(cfg.matter_action_kind(), cfg.site_count, cfg.beta)
        gram = gram_exact(observables, covariance)
    else:
        accumulator = GramAccumulator(observables, cfg.resolved_batch_len)
        _run_trajectory(cfg, "microcausality", [accumulator])
        gram = accumulator.result()
    result = microcausality_ratio(gram)

    # Independent reference: direct envelope-weighted kernel sums for the
    # free theory on the same lattice.
    def oracle_kernel(pair):
        delta = np.asarray(pair[1].center, dtype=float) - np.asarray(pair[0].center, dtype=float)
        return oracles.smeared_commutator(
            lattice,
            cfg.mass,
            cfg.beta,
            packet_envelope(pair[0], lattice),
            packet_envelope(pair[1], lattice),
            delta,
        )
    oracle_k_s = oracle_kernel(spacelike)
    oracle_k_t = oracle_kernel(timelike)
    oracle_ratio = abs(oracle_k_s) / abs(oracle_k_t)

    below_threshold = result.ratio <= cfg.micro_threshold
    if cfg.micro_source == "exact":
        matches_oracle = (
            cfg.action_kind != "free" or abs(result.ratio - oracle_ratio) <= MICRO_ORACLE_AGREEMENT_TOL
        )
    else:
        matches_oracle = result.se_ratio is not None and (
            abs(result.ratio - oracle_ratio) <= 5.0 * result.se_ratio
        )
    passed = below_threshold and matches_oracle
    rows = [
        ("k_spacelike", result.k_spacelike),
        ("k_timelike", result.k_timelike),
        ("ratio", result.ratio),
        ("se_ratio", float("nan") if result.se_ratio is None else result.se_ratio),
        ("oracle_k_spacelike", oracle_k_s),
        ("oracle_k_timelike", oracle_k_t),
        ("oracle_ratio", oracle_ratio),
        ("threshold", cfg.micro_threshold),
        ("passed", passed),
    ]
    storage.emit_table_csv(
        _out_path(cfg, "microcausality.csv"),
        ("quantity", "value"),
        rows,
        _header(cfg, "microcausality", [("source", cfg.micro_source)]),
    )
    if cfg.micro_source == "mc" and result.se_ratio is None:
        print("microcausality: too few batches for error bars; stderr unavailable")
        return 1
    print(
        f"microcausality: |K_spacelike|/|K_timelike| = {result.ratio:.3e} "
        f"(threshold {cfg.micro_threshold}) -> {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` keeps no
    state between calls, as each returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="rsft",
        description=(
            "Momentum-space lattice simulator for a thermostatted fluctuating "
            "scalar field: trajectory runs, correlator grids, covariance and "
            "moment-generating-function cross-checks, Fock-algebra identities, "
            "and microcausality ratios."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text, config_required=True):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "--config",
            required=config_required,
            help="path to a key = value configuration file",
        )
        cmd.add_argument("--output-dir", help="override output.dir from the config")
        return cmd

    add("simulate", "equilibrate and sample, writing a conservation log and checkpoints")
    add("correlator", "estimate the spacetime two-point grid and compare to the closed form")
    add("covariance", "estimate per-mode variances and a site-block covariance")
    add("mgf-check", "cross-check covariances against source-derivative estimates")
    add("fock-check", "run the operator-algebra identity suite", config_required=False)
    add("microcausality", "packet commutator ratio at spacelike vs timelike separation",
        config_required=False)
    resume = add("resume", "continue a trajectory from a checkpoint")
    resume.add_argument("--checkpoint", required=True, help="checkpoint file to resume from")
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "correlator": cmd_correlator,
    "covariance": cmd_covariance,
    "mgf-check": cmd_mgf_check,
    "fock-check": cmd_fock_check,
    "microcausality": cmd_microcausality,
}

_DEFAULT_CONFIGS = {
    "fock-check": _FOCK_DEFAULTS,
    "microcausality": _MICRO_DEFAULTS,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = config_from_file(args.config)
        else:
            # argparse requires --config of every other subcommand
            cfg = _DEFAULT_CONFIGS[args.subcommand]
        if args.output_dir is not None:
            cfg = replace(cfg, output_dir=args.output_dir)
        if args.subcommand == "resume":
            return cmd_resume(cfg, args.checkpoint)
        return _HANDLERS[args.subcommand](cfg)
    except (ConfigError, storage.CheckpointError, AlgebraError, EstimatorError, OSError) as err:
        return _fail(str(err))
    except StepFailureError as err:
        return _fail(f"integration step failed at stage {err.stage}: {err}")


if __name__ == "__main__":
    sys.exit(main())
