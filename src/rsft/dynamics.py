"""State initialization and the time-reversible generalized leapfrog flow.

The total action S = s * (S_x - S_0) is treated as a Hamiltonian on the
phase space (phi, pi_phi, s, pi_s).  Its flow,

    d(phi)/dl   =  pi_phi / s
    d(pi_phi)/dl = -s * dS_m/dphi
    d(s)/dl     =  s * pi_s / m_s
    d(pi_s)/dl  =  sum_p pi_phi^2 / s^2 - n_f/beta - (S_x - S_0),

is integrated with an explicit generalized leapfrog of the kind used for
scale-transformed thermostats.  Because pi_s enters its own force through
the pi_s^2/(2 m_s) term inside S_x, the first bath half-kick is implicit
and reduces to a scalar quadratic; the matching second half-kick is
explicit.  The scale factor is advanced by two symmetric rational (Cayley)
half-steps bracketing the field drift, which makes the whole step exactly
reversible under momentum flip.

`run` is the one loop over that step.  Everything that reads a trajectory
(the conservation log, periodic checkpoints, every sampled estimator) is an
observer it calls after each step, so a trajectory average is a streaming
accumulator fed each thinned snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .action import BathParams, MatterActionKind, extended_action, matter_action, matter_grad
from .lattice import MomentumLattice

INIT_MOMENTUM_HALF_WIDTH = 2.5


class StepFailureError(RuntimeError):
    """A leapfrog stage produced an invalid update (nonpositive scale factor
    or negative discriminant in the bath-momentum solve).  The caller may
    retry with a smaller step."""

    def __init__(self, stage: str, message: str, step_index: int | None = None):
        self.stage = stage
        self.step_index = step_index
        super().__init__(message)

    def with_step_index(self, step_index: int) -> "StepFailureError":
        return StepFailureError(self.stage, f"{self} (at step {step_index})", step_index)


@dataclass
class ExtendedState:
    """Point of the variational phase space plus bookkeeping.

    s0 is the extended action recorded once at initialization; step_count
    times the step size gives the flow parameter lambda.
    """

    phi: np.ndarray
    pi_phi: np.ndarray
    s: float
    pi_s: float
    s0: float
    step_count: int = 0

    def lam(self, dlambda: float) -> float:
        return self.step_count * dlambda

    def copy(self) -> "ExtendedState":
        return ExtendedState(
            self.phi.copy(), self.pi_phi.copy(), self.s, self.pi_s, self.s0, self.step_count
        )

    def extended_action(self, kind: MatterActionKind, bath: BathParams) -> float:
        return extended_action(self.phi, self.pi_phi, self.s, self.pi_s, kind, bath)

    def total_action(self, kind: MatterActionKind, bath: BathParams) -> float:
        return self.s * (self.extended_action(kind, bath) - self.s0)


@dataclass(frozen=True)
class IntegratorParams:
    dlambda: float
    bath: BathParams
    action_kind: MatterActionKind

    def __post_init__(self):
        if not self.dlambda > 0:
            raise ValueError("dlambda must be positive")


Observer = Callable[[ExtendedState], None]


def make_rng(seed: int) -> np.random.Generator:
    """The repository-wide seeded generator (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))


def init_state(
    lattice: MomentumLattice,
    bath: BathParams,
    action_kind: MatterActionKind,
    rng_seed: int,
) -> tuple[ExtendedState, np.random.Generator]:
    """Draw the standard initial state and return it with the generator.

    phi starts at zero everywhere; pi_phi is uniform on [-2.5, 2.5] drawn in
    lexicographic site order, so the mean kinetic energy per site starts
    near 25/24; s = 1 and pi_s = 0.  The extended action of this state is
    stored as s0, making the total action exactly zero at lambda = 0.
    """
    rng = make_rng(rng_seed)
    n = lattice.site_count
    phi = np.zeros(n)
    pi_phi = rng.uniform(-INIT_MOMENTUM_HALF_WIDTH, INIT_MOMENTUM_HALF_WIDTH, n)
    s, pi_s = 1.0, 0.0
    s0 = extended_action(phi, pi_phi, s, pi_s, action_kind, bath)
    return ExtendedState(phi, pi_phi, s, pi_s, s0), rng


def _advance(
    phi: np.ndarray,
    pi_phi: np.ndarray,
    s: float,
    pi_s: float,
    s0: float,
    dlambda: float,
    kind: MatterActionKind,
    bath: BathParams,
) -> tuple[float, float]:
    """One leapfrog step, mutating phi and pi_phi in place.

    Returns the updated (s, pi_s).
    """
    h = 0.5 * dlambda
    beta, m_s, n_f = bath.beta, bath.m_s, bath.n_f

    # Field-momentum half-kick at the current scale factor.
    pi_phi -= (h * s) * matter_grad(kind, phi)

    # Bath-momentum half-kick.  With u the updated value, the implicit
    # relation u = pi_s + h * (drive - u^2 / (2 m_s)) is a quadratic
    #   (h / (2 m_s)) u^2 + u - (pi_s + h * drive) = 0;
    # of its two roots, 2b / (1 + sqrt(1 + 4ab)) tends to the explicit
    # Euler value b as h -> 0 and is evaluated in cancellation-free form.
    kinetic = float(pi_phi @ pi_phi) / (s * s)
    drive = (
        0.5 * kinetic
        - n_f / beta
        - matter_action(kind, phi)
        - (n_f / beta) * math.log(s)
        + s0
    )
    a = h / (2.0 * m_s)
    b = pi_s + h * drive
    disc = 1.0 + 4.0 * a * b
    if disc < 0.0:
        raise StepFailureError(
            "bath-kick", f"negative discriminant {disc:.3e} in bath-momentum solve"
        )
    pi_s_half = 2.0 * b / (1.0 + math.sqrt(disc))

    # Scale-factor drift in two symmetric rational half-steps around the
    # field drift; the field drift averages the reciprocal scale factor at
    # the step endpoints.
    c = dlambda * pi_s_half / (4.0 * m_s)
    if not -1.0 < c < 1.0:
        raise StepFailureError("scale-drift", f"scale-factor update out of range (c={c:.3e})")
    ratio = (1.0 + c) / (1.0 - c)
    s_before = s
    s = (s * ratio) * ratio
    if not s > 0.0:
        raise StepFailureError("scale-drift", f"scale factor became nonpositive ({s:.3e})")
    phi += (h * (1.0 / s_before + 1.0 / s)) * pi_phi

    # Explicit second bath half-kick at the updated field and scale factor,
    # reusing the already-known pi_s_half^2.
    kinetic2 = float(pi_phi @ pi_phi) / (s * s)
    s_x = (
        0.5 * kinetic2
        + pi_s_half * pi_s_half / (2.0 * m_s)
        + matter_action(kind, phi)
        + (n_f / beta) * math.log(s)
    )
    pi_s = pi_s_half + h * (kinetic2 - n_f / beta - (s_x - s0))

    # Field-momentum half-kick at the updated field and scale factor.
    pi_phi -= (h * s) * matter_grad(kind, phi)
    return s, pi_s


def flip_momenta(state: ExtendedState) -> ExtendedState:
    """Negate both momenta; running forward from the flipped state retraces
    the trajectory."""
    out = state.copy()
    out.pi_phi = -out.pi_phi
    out.pi_s = -out.pi_s
    return out


def run(
    state: ExtendedState,
    params: IntegratorParams,
    n_steps: int,
    observers: Sequence[Observer] = (),
) -> ExtendedState:
    """Apply n_steps leapfrog steps, invoking every observer after each step;
    the input state is left untouched and the final state is returned.

    Observers receive a live view of the evolving state whose arrays are
    read-only; they must not hold mutable references across calls.  Step
    failures propagate with the offending step index attached.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    phi = state.phi.copy()
    pi_phi = state.pi_phi.copy()
    phi_view = phi.view()
    phi_view.flags.writeable = False
    pi_view = pi_phi.view()
    pi_view.flags.writeable = False
    live = ExtendedState(phi_view, pi_view, state.s, state.pi_s, state.s0, state.step_count)
    for _ in range(n_steps):
        try:
            live.s, live.pi_s = _advance(
                phi, pi_phi, live.s, live.pi_s, live.s0, params.dlambda,
                params.action_kind, params.bath,
            )
        except StepFailureError as err:
            raise err.with_step_index(live.step_count + 1) from None
        live.step_count += 1
        for observer in observers:
            observer(live)
    return ExtendedState(phi, pi_phi, live.s, live.pi_s, live.s0, live.step_count)
