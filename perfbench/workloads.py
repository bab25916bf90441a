"""The benchmark's workloads: config files generated from the run seed.

Each workload is a closed loop of one client: its CLI subcommands run one
after another in a single child process, each after the previous one has
returned.  The program receives only the config files written here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# The run seed selects the config seed `seed % REFERENCE_SEEDS`: reference
# outputs of the Monte Carlo CSVs are recorded for config seeds
# 0 .. REFERENCE_SEEDS - 1, so every run seed is checked against one.
REFERENCE_SEEDS = 64


@dataclass(frozen=True)
class Operation:
    """One CLI invocation: `rsft <subcommand> --config <name>.cfg`."""

    name: str
    subcommand: str
    config: str  # config body without the seed and output.dir lines

    def config_text(self, config_seed: int) -> str:
        return f"{self.config}seed = {config_seed}\noutput.dir = out/{self.name}\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    operations: tuple[Operation, ...]
    trajectory: bool  # whether the operations integrate a trajectory
    dynamic_shell: bool
    # Most of the traced wall time should sit in these layers; the traced
    # run reports the share and whether it confirms the design.
    target_layers: tuple[str, ...]
    # A trajectory operation fails when max |total action| in its
    # conservation.csv exceeds this bound: about 1.4 times the largest value
    # recorded over the reference seeds (see reference.json).
    conservation_bound: float | None = None


_DESK = """\
preset = desk
dynamics.equilibration_steps = 2000
dynamics.sampling_steps = 8000
dynamics.batch_len = 100
output.checkpoint_every = 2500
"""

_FIGURE = """\
preset = example4
dynamics.equilibration_steps = 200
dynamics.sampling_steps = 800
dynamics.batch_len = 10
output.checkpoint_every = 250
"""

_FOCK_BASE = """\
lattice.n_per_axis = 5
lattice.spacing = 0.1
physics.beta = 1.0
physics.mass = 1.0
action.kind = free_collective
shell.kind = fixed
dynamics.dlambda = 0.01
dynamics.equilibration_steps = 0
dynamics.sampling_steps = 0
"""

WORKLOADS: dict[str, Workload] = {
    # Interpreter-bound regime: at 9^3 sites the leapfrog step and the
    # matter action/gradient calls dominate the wall time, so integrator
    # changes show here.  It is also the only workload that feeds all four
    # accumulators (correlator on the fixed shell, variance, covariance
    # block, MGF probes), so a shared batch-means refactor cannot slow one
    # of them unseen.  10^4 steps per subcommand, 800 samples in 8 batches.
    "desk-trajectory": Workload(
        name="desk-trajectory",
        why="interpreter-bound 9^3 leapfrog feeding all four accumulators (correlator, covariance, mgf-check)",
        operations=(
            Operation("correlator", "correlator", _DESK),
            Operation("covariance", "covariance", _DESK),
            Operation("mgf-check", "mgf-check", _DESK),
        ),
        trajectory=True,
        dynamic_shell=False,
        target_layers=("dynamics", "action"),
        conservation_bound=0.25,  # recorded 0.019 .. 0.18
    ),
    # At 25^3 sites on the local dynamic shell the per-sample rebuild of the
    # 21 x 15625 complex time phases dominates; the steps are vector/BLAS
    # bound and the accumulators (about 10 MB) exceed L2.  A dynamic-shell
    # estimator change shows here and not on desk-trajectory; an integrator
    # change moves this workload only by the share of its steps.
    # 1000 steps, 80 samples in 8 batches of 10.
    "figure-dynamic-shell": Workload(
        name="figure-dynamic-shell",
        why="25^3 local dynamic shell: per-sample phase rebuild of a 21 x 15625 grid dominates, steps are BLAS-bound",
        operations=(Operation("correlator", "correlator", _FIGURE),),
        trajectory=True,
        dynamic_shell=True,
        target_layers=("estimators", "lattice"),
        conservation_bound=2.5,  # recorded 0.34 .. 1.72
    ),
    # The only workload for operator_algebra, and it runs no dynamics.
    # Deep (5 observables, n_max 8, dim 1287) is dominated by the dense dim^3
    # products and the dense ladders of algebra_report; wide (11 observables,
    # n_max 3, dim 364) by enumerating (n_max+1)^d = 4.2 M occupation tuples
    # to keep 364.
    "fock-algebra": Workload(
        name="fock-algebra",
        why="operator algebra only: dense dim^3 ladders (deep, dim 1287) and 4.2 M-tuple basis enumeration (wide, dim 364)",
        operations=(
            Operation("deep", "fock-check", _FOCK_BASE + "fock.n_observables = 5\nfock.n_max = 8\n"),
            Operation("wide", "fock-check", _FOCK_BASE + "fock.n_observables = 11\nfock.n_max = 3\n"),
        ),
        trajectory=False,
        dynamic_shell=False,
        target_layers=("operator_algebra",),
    ),
}


def config_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def write_configs(workload: Workload, seed: int, directory: str) -> list[str]:
    """Write one config file per operation into `directory`; return the
    paths in operation order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for op in workload.operations:
        path = os.path.join(directory, f"{op.name}.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"# {workload.name}: {workload.why}\n")
            handle.write(op.config_text(config_seed(seed)))
        paths.append(path)
    return paths
