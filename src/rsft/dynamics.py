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

`_advance` is that step on the full site arrays.  It is the reference
path: `run` does not call it, and the tests hold `run` to it.

Both matter actions are phi^T M phi / 2 with M = I + c ones ones^T, so the
force M phi stays in span{ones, phi}, and the flow never leaves the span of
the uniform vector 1/sqrt(N) and the parts phi_perp, pi_perp of the starting
field and momentum orthogonal to it.  A state (`ExtendedState`) is a point
of that subspace: an orthonormal basis Q (N x k, k <= 3, first column
1/sqrt(N)), held as Q^T, and the coordinates x = Q^T phi and y = Q^T pi_phi,
on which M = diag(1 + cN, 1, 1), with s, pi_s, S_0 and the step count.
That is all a state holds: phi = Q x and pi_phi = Q y are lifted anew on
each read, and its extended and total actions are read on the coordinates
(`_coordinate_action`), so no scalar of a state touches an (N,) array.
`ExtendedState.from_arrays` derives the basis of given arrays once; a
trajectory split into several runs, or resumed from a checkpoint, keeps its
basis and coordinates and so steps bitwise as the unbroken one does.

`run` steps the coordinates (`_reduced_steps`): the leapfrog of `_advance`
in a few scalar operations for any N, which evaluates the matter action
and its gradient once each, at its end, as the next step's start values.
It is the one loop over that step.  The conservation log and periodic
checkpoints are observers it calls after every `every`-th step; the steps
in between run in one call of the step function.  The thinned snapshots
that the estimators average are a `Sampling`: the step function records
the coordinates x of each sampled step, and `run` hands them on as one
block per stretch, so a trajectory average is a streaming accumulator fed
blocks of coordinates.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .action import BathParams, MatterActionKind, matter_action, matter_grad
from .lattice import MomentumLattice

INIT_MOMENTUM_HALF_WIDTH = 2.5
# A direction whose part outside the basis so far is at most this fraction
# of its norm adds no basis vector, so a state's arrays are held to this
# relative accuracy, and round-off never becomes a basis direction.
SUBSPACE_RANK_TOLERANCE = 1e-12
# sampled coordinate rows a run hands over in one block at most, and an
# accumulator holds before it sums them into its batch
COORDINATE_BUFFER_LEN = 256


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


def _readonly(array: np.ndarray) -> np.ndarray:
    view = np.asarray(array, dtype=float).view()
    view.flags.writeable = False
    return view


def _lift(basis: np.ndarray, coords, out=None, scratch=None) -> np.ndarray:
    """Q coords as a site array, summed row by row so that the same basis
    and coordinates give the same bits on any BLAS; in out, with each
    product in scratch, if they are given, else in new arrays."""
    out = np.multiply(coords[0], basis[0], out=out)
    for j in range(1, basis.shape[0]):
        out += np.multiply(coords[j], basis[j], out=scratch)
    return out


def _derive_basis(phi: np.ndarray, pi_phi: np.ndarray) -> np.ndarray:
    """Q^T for span{1/sqrt(N), phi_perp, pi_perp}: orthonormal rows by
    classical Gram-Schmidt, each direction orthogonalised twice."""
    n = phi.shape[0]
    rows = [np.full(n, 1.0 / math.sqrt(n))]
    for v in (phi, pi_phi):
        w = np.array(v, dtype=float)
        for _ in range(2):
            for q in rows:
                w -= float(q @ w) * q
        norm = math.sqrt(float(w @ w))
        if norm > SUBSPACE_RANK_TOLERANCE * math.sqrt(float(v @ v)):
            rows.append(w / norm)
    return np.array(rows)


def _padded(coords) -> tuple[float, float, float]:
    return tuple(float(v) for v in coords) + (0.0,) * (3 - len(coords))


class ExtendedState:
    """Point of the variational phase space plus bookkeeping.

    The field and its momentum are held in the invariant subspace of their
    trajectory (see the module docstring): `basis` is Q^T, 1 <= k <= 3
    orthonormal rows of length N, the first one 1/sqrt(N), and x and y are
    the coordinates of phi and pi_phi in it, three floats each, those past
    k zero.  s0 is the extended action recorded once at initialization;
    step_count times the step size gives the flow parameter lambda.

    phi and pi_phi are Q x and Q y, lifted on each read into a new
    read-only array; the actions are read on the coordinates.
    """

    def __init__(
        self, basis: np.ndarray, x, y, s: float, pi_s: float, s0: float, step_count: int = 0
    ):
        if np.ndim(basis) != 2 or not 1 <= len(basis) <= 3:
            raise ValueError(f"a state's basis needs 1 to 3 rows, not shape {np.shape(basis)}")
        self.basis = _readonly(basis)
        self.x, self.y = _padded(x), _padded(y)
        self.s, self.pi_s, self.s0 = s, pi_s, s0
        self.step_count = step_count

    @classmethod
    def from_arrays(
        cls,
        phi: np.ndarray,
        pi_phi: np.ndarray,
        s: float,
        pi_s: float,
        s0: float,
        step_count: int = 0,
    ) -> "ExtendedState":
        """The state of the given arrays in the basis derived from them;
        its phi and pi_phi match them to round-off."""
        basis = _derive_basis(phi, pi_phi)
        return cls(basis, basis @ phi, basis @ pi_phi, s, pi_s, s0, step_count)

    @property
    def phi(self) -> np.ndarray:
        return _readonly(_lift(self.basis, self.x))

    @property
    def pi_phi(self) -> np.ndarray:
        return _readonly(_lift(self.basis, self.y))

    def lam(self, dlambda: float) -> float:
        return self.step_count * dlambda

    def copy(self) -> "ExtendedState":
        """A state that steps apart from this one; the basis is shared, as
        it cannot be written."""
        return copy.copy(self)

    def extended_action(self, kind: MatterActionKind, bath: BathParams) -> float:
        collective = 1.0 + kind.coupling * self.basis.shape[1]
        return _coordinate_action(self.x, self.y, self.s, self.pi_s, collective, bath)

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


class CoordinateBlock(NamedTuple):
    """The coordinates x of consecutive sampled steps of one trajectory: the
    basis Q^T and one row of three floats per step, in step order."""

    basis: np.ndarray
    rows: Sequence[tuple[float, float, float]]


@dataclass(frozen=True)
class Sampling:
    """The steps a run samples, and where their coordinates go: every step
    whose step_count is start + j * stride for some j >= 1.  `take`
    receives them as CoordinateBlocks."""

    start: int
    stride: int
    take: Callable[[CoordinateBlock], None]

    def next_after(self, step_count: int) -> int:
        """The first sampled step_count above step_count."""
        done = max(0, step_count - self.start) // self.stride
        return self.start + (done + 1) * self.stride


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
    near 25/24; s = 1 and pi_s = 0.  The extended action of this state, read
    on its coordinates as every later one is, is stored as s0, making the
    total action exactly zero at lambda = 0.
    """
    rng = make_rng(rng_seed)
    n = lattice.site_count
    pi_phi = rng.uniform(-INIT_MOMENTUM_HALF_WIDTH, INIT_MOMENTUM_HALF_WIDTH, n)
    state = ExtendedState.from_arrays(np.zeros(n), pi_phi, 1.0, 0.0, 0.0)
    state.s0 = state.extended_action(action_kind, bath)
    return state, rng


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
    """Negate both momenta, y and pi_s; running forward from the flipped
    state retraces the trajectory."""
    return ExtendedState(
        state.basis, state.x, tuple(-v for v in state.y), state.s, -state.pi_s,
        state.s0, state.step_count,
    )


def _coordinate_action(x, y, s, pi_s, collective, bath) -> float:
    """The extended action S_x of `action.extended_action` on subspace
    coordinates, where M = diag(collective, 1, 1), in the expressions with
    which `_reduced_steps` forms the S_x of a step's end."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    n_f_beta = bath.n_f / bath.beta
    s_m = 0.5 * (collective * x0 * x0 + x1 * x1 + x2 * x2)
    kinetic = (y0 * y0 + y1 * y1 + y2 * y2) / (s * s)
    return 0.5 * kinetic + pi_s * pi_s / (2.0 * bath.m_s) + s_m + n_f_beta * math.log(s)


def _reduced_steps(
    x, y, s, pi_s, s0, collective, dlambda, bath, n_steps, rows=None, first=0, stride=1
):
    """n_steps steps of `_advance` on subspace coordinates; returns the new
    (x, y, s, pi_s).

    x and y are three coordinates (the unused ones zero, and they stay so);
    the first lies along 1/sqrt(N), where M has the eigenvalue
    `collective` = 1 + cN, and M is the identity on the others.  Each step
    starts from the matter action, its gradient, log s, s^2, 1/s and h s of
    the end of the step before, so a run split into several calls steps
    bitwise as one call does.  y does not change during the drift, so both
    kinetic terms of a step share one |y|^2.  The coordinates x after steps
    first, first + stride, ... of the call are appended to the list `rows`,
    three floats each; with first 0, as by default, none are.  Failures
    raise the stages of `_advance`, with the index of the failing step
    within the call.
    """
    h = 0.5 * dlambda
    m_s = bath.m_s
    n_f_beta = bath.n_f / bath.beta
    four_a = 4.0 * (h / (2.0 * m_s))
    two_m_s, four_m_s = 2.0 * m_s, 4.0 * m_s
    sqrt, log = math.sqrt, math.log
    x0, x1, x2 = x
    y0, y1, y2 = y
    g0 = collective * x0
    s_m = 0.5 * (g0 * x0 + x1 * x1 + x2 * x2)
    bath_log = n_f_beta * log(s)
    s_squared, inv_s, kick = s * s, 1.0 / s, h * s
    for step in range(1, n_steps + 1):
        y0 -= kick * g0
        y1 -= kick * x1
        y2 -= kick * x2

        y_squared = y0 * y0 + y1 * y1 + y2 * y2
        drive = 0.5 * (y_squared / s_squared) - n_f_beta - s_m - bath_log + s0
        b = pi_s + h * drive
        disc = 1.0 + four_a * b
        if disc < 0.0:
            raise StepFailureError(
                "bath-kick", f"negative discriminant {disc:.3e} in bath-momentum solve", step
            )
        pi_s_half = 2.0 * b / (1.0 + sqrt(disc))

        c = dlambda * pi_s_half / four_m_s
        if not -1.0 < c < 1.0:
            raise StepFailureError(
                "scale-drift", f"scale-factor update out of range (c={c:.3e})", step
            )
        ratio = (1.0 + c) / (1.0 - c)
        s = (s * ratio) * ratio
        if not s > 0.0:
            raise StepFailureError(
                "scale-drift", f"scale factor became nonpositive ({s:.3e})", step
            )
        inv_before, inv_s = inv_s, 1.0 / s
        drift = h * (inv_before + inv_s)
        x0 += drift * y0
        x1 += drift * y1
        x2 += drift * y2

        g0 = collective * x0
        s_m = 0.5 * (g0 * x0 + x1 * x1 + x2 * x2)
        bath_log = n_f_beta * log(s)
        s_squared = s * s
        kinetic2 = y_squared / s_squared
        s_x = 0.5 * kinetic2 + pi_s_half * pi_s_half / two_m_s + s_m + bath_log
        pi_s = pi_s_half + h * (kinetic2 - n_f_beta - (s_x - s0))

        kick = h * s
        y0 -= kick * g0
        y1 -= kick * x1
        y2 -= kick * x2
        if step == first:
            rows.append((x0, x1, x2))
            first += stride
    return (x0, x1, x2), (y0, y1, y2), s, pi_s


def run(
    state: ExtendedState,
    params: IntegratorParams,
    n_steps: int,
    observers: Sequence[Observer] = (),
    every: int = 1,
    sampling: Sampling | None = None,
) -> ExtendedState:
    """Apply n_steps leapfrog steps in the state's basis; the input state is
    left untouched and the final state is returned.

    Every observer is called after each step whose step_count is a multiple
    of `every`, and after the last step; the steps between two calls run in
    one stretch.  Observers receive the evolving state itself, which is
    also the returned one, so one that keeps it across calls must copy it;
    the arrays it reads never change.  The step function records the
    coordinates of the steps `sampling` selects, and each stretch that
    holds some hands them to `sampling.take` as one block before the
    observers are called; a stretch ends early once it holds
    COORDINATE_BUFFER_LEN of them.  Step failures propagate with the
    offending step index attached.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if every < 1:
        raise ValueError("every must be at least 1")
    live = state.copy()
    collective = 1.0 + params.action_kind.coupling * state.basis.shape[1]
    end = live.step_count + n_steps
    while live.step_count < end:
        stretch = min(every - live.step_count % every, end - live.step_count)
        rows, first, stride = None, 0, 1
        if sampling is not None:
            rows, stride = [], sampling.stride
            # index within the stretch of the next sampled step
            first = sampling.next_after(live.step_count) - live.step_count
            stretch = min(stretch, first + (COORDINATE_BUFFER_LEN - 1) * stride)
        try:
            live.x, live.y, live.s, live.pi_s = _reduced_steps(
                live.x, live.y, live.s, live.pi_s, live.s0, collective,
                params.dlambda, params.bath, stretch, rows, first, stride,
            )
        except StepFailureError as err:
            raise err.with_step_index(live.step_count + err.step_index) from None
        live.step_count += stretch
        if rows:
            sampling.take(CoordinateBlock(live.basis, rows))
        # a stretch cut short by a full buffer is not an observer call
        if live.step_count % every == 0 or live.step_count == end:
            for observer in observers:
                observer(live)
    return live
