"""Hilbert-space quotient, truncated bosonic Fock space, and field operators.

Observables of the form phi(J) = sum_p phi(p) J(p) carry the inner product
<O1, O2> = <conj(O1[phi]) O2[phi]>, estimated from a trajectory or evaluated
exactly from a closed-form covariance.  Diagonalizing the Gram matrix of a
finite observable family and discarding the (numerical) null directions
yields an orthonormal one-particle basis; the bosonic Fock space over it is
truncated by total occupation, making creation, annihilation and field
operators finite matrices.  All operator identities are asserted on the
interior subspace (total occupation at most n_max - 1), where truncation
artifacts vanish identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as _cartesian
from typing import Iterable, Sequence

import numpy as np

from .estimators import MIN_BATCHES, BatchMeans
from .lattice import MomentumLattice, omega
from .oracles import ExactCovariance

ALGEBRA_TOL = 1e-12
ORACLE_NULLSPACE_TOL = 1e-10
COORD_RESIDUAL_RTOL = 1e-8
FOCK_DIMENSION_LIMIT = 20_000


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class LinearObservable:
    """Observable phi(J) = sum_p phi(p) J(p) with complex coefficients J."""

    coeffs: np.ndarray
    label: str = ""

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.shape[0] == 0:
            raise ValueError("coefficients must form a nonempty vector")
        if not np.any(coeffs != 0):
            raise ValueError("observable needs at least one nonzero coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def evaluate(self, phi: np.ndarray) -> complex:
        return complex(self.coeffs @ phi)


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix of observable inner products with per-entry
    batch-means standard errors (zero in exact mode)."""

    matrix: np.ndarray
    stderr_re: np.ndarray
    stderr_im: np.ndarray
    n_samples: int | None = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def max_stderr(self) -> float:
        return float(max(self.stderr_re.max(), self.stderr_im.max()))


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


def gram_exact(
    observables: Sequence[LinearObservable], covariance: ExactCovariance
) -> GramMatrix:
    """Gram matrix conj(J_i)^T C J_j from a closed-form covariance (the
    sampled families are centered, so no mean subtraction is needed)."""
    if not observables:
        raise ValueError("observable list must be nonempty")
    k = len(observables)
    matrix = np.empty((k, k), dtype=complex)
    images = [covariance.matvec(obs.coeffs) for obs in observables]
    for i, obs_i in enumerate(observables):
        for j in range(k):
            matrix[i, j] = np.conj(obs_i.coeffs) @ images[j]
    zeros = np.zeros((k, k))
    return GramMatrix(_hermitize(matrix), zeros, zeros, None)


class GramAccumulator:
    """Streaming Gram-matrix estimator over trajectory snapshots: batch means
    of the products conj(O_i[phi]) O_j[phi] of linear observables."""

    def __init__(self, observables: Sequence[LinearObservable], batch_len: int):
        if not observables:
            raise ValueError("observable list must be nonempty")
        self.observables = list(observables)
        k = len(self.observables)
        self._acc = BatchMeans((k, k), batch_len, complex)

    def add(self, phi: np.ndarray) -> None:
        values = np.array([obs.evaluate(phi) for obs in self.observables], dtype=complex)
        self._acc.add(np.outer(np.conj(values), values))

    def merge(self, other: "GramAccumulator") -> None:
        if len(other.observables) != len(self.observables) or not all(
            np.array_equal(mine.coeffs, theirs.coeffs)
            for mine, theirs in zip(self.observables, other.observables)
        ):
            raise ValueError("cannot merge accumulators over different families")
        self._acc.merge(other._acc)

    def result(self) -> GramMatrix:
        matrix = _hermitize(self._acc.mean())
        se = self._acc.stderr()
        if se is None:
            k = len(self.observables)
            zeros = np.zeros((k, k))
            return GramMatrix(matrix, zeros, zeros, self._acc.count)
        return GramMatrix(matrix, se[0], se[1], self._acc.count)


def quotient_orthonormalize(
    gram_matrix: GramMatrix | np.ndarray, tol: float
) -> tuple[np.ndarray, int]:
    """Orthonormalize the observable family modulo its numerical null space.

    Eigendirections of the Gram matrix with eigenvalue at most tol times the
    largest eigenvalue are discarded; the rest are scaled so the transformed
    Gram is the identity.  Returns the (k, d) transform and d.
    """
    matrix = gram_matrix.matrix if isinstance(gram_matrix, GramMatrix) else gram_matrix
    eigvals, eigvecs = np.linalg.eigh(matrix)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    if eigvals[0] <= 0:
        raise AlgebraError("all observables lie in the null space of the inner product")
    keep = eigvals > tol * eigvals[0]
    d = int(np.count_nonzero(keep))
    if d == 0:
        raise AlgebraError("all observables lie in the null space of the inner product")
    transform = eigvecs[:, keep] / np.sqrt(eigvals[keep])
    return transform, d


class HilbertContext:
    """Observable family with its Gram matrix and orthonormal basis.

    Provides the inner product between arbitrary linear observables and the
    coordinates of an observable in the retained one-particle basis.  In
    exact mode inner products come from the closed-form covariance; in
    sampled mode an observable must lie in the span of the family, and its
    combination coefficients are recovered by least squares.
    """

    def __init__(
        self,
        observables: Sequence[LinearObservable],
        gram_matrix: GramMatrix,
        tol: float,
        covariance: ExactCovariance | None = None,
    ):
        self.observables = list(observables)
        self.gram = gram_matrix
        self.tol = tol
        self.covariance = covariance
        self.transform, self.d = quotient_orthonormalize(gram_matrix, tol)
        self._coeff_stack = np.stack([obs.coeffs for obs in self.observables], axis=1)

    @classmethod
    def from_covariance(
        cls,
        observables: Sequence[LinearObservable],
        covariance: ExactCovariance,
        tol: float = ORACLE_NULLSPACE_TOL,
    ) -> "HilbertContext":
        return cls(observables, gram_exact(observables, covariance), tol, covariance)

    @classmethod
    def from_samples(
        cls,
        observables: Sequence[LinearObservable],
        samples: Iterable[np.ndarray],
        batch_len: int,
        tol: float | None = None,
    ) -> "HilbertContext":
        acc = GramAccumulator(observables, batch_len)
        for phi in samples:
            acc.add(phi)
        gram_matrix = acc.result()
        if tol is None:
            if gram_matrix.n_samples is None or gram_matrix.max_stderr == 0.0:
                raise AlgebraError(
                    "cannot derive a noise-based null-space tolerance without "
                    f"at least {MIN_BATCHES} complete batches; pass tol explicitly"
                )
            max_eig = float(np.linalg.eigvalsh(gram_matrix.matrix)[-1])
            tol = 5.0 * gram_matrix.max_stderr / max_eig
        return cls(observables, gram_matrix, tol)

    def _combination(self, obs: LinearObservable) -> np.ndarray:
        coeffs, residual, *_ = np.linalg.lstsq(self._coeff_stack, obs.coeffs, rcond=None)
        reconstruction = self._coeff_stack @ coeffs
        misfit = float(np.linalg.norm(obs.coeffs - reconstruction))
        scale = float(np.linalg.norm(obs.coeffs))
        if misfit > 1e-10 * max(scale, 1.0):
            raise AlgebraError(
                "observable is not a combination of the sampled family "
                f"(residual {misfit:.3e})"
            )
        return coeffs

    def inner_product(self, obs_a: LinearObservable, obs_b: LinearObservable) -> complex:
        if self.covariance is not None:
            return self.covariance.quadratic_form(obs_a.coeffs, obs_b.coeffs)
        ca = self._combination(obs_a)
        cb = self._combination(obs_b)
        return complex(np.conj(ca) @ self.gram.matrix @ cb)

    def coords(self, obs: LinearObservable, rtol: float | None = None) -> np.ndarray:
        """Coordinates of an observable in the orthonormal one-particle basis.

        Fails if the observable keeps a component in the discarded null
        space (or outside the family span) beyond the relative tolerance,
        which by default scales with the quotient tolerance.
        """
        if rtol is None:
            rtol = max(COORD_RESIDUAL_RTOL, 10.0 * self.tol)
        overlaps = np.array(
            [self.inner_product(basis_obs, obs) for basis_obs in self.observables]
        )
        coords = self.transform.conj().T @ overlaps
        norm_sq = self.inner_product(obs, obs).real
        captured = float(np.real(np.conj(coords) @ coords))
        residual = norm_sq - captured
        if norm_sq <= ALGEBRA_TOL:
            return np.zeros(self.d, dtype=complex)
        if residual > rtol * norm_sq:
            raise AlgebraError(
                "observable has a component in the discarded null space "
                f"(relative residual {residual / norm_sq:.3e})"
            )
        return coords


@dataclass(frozen=True)
class FockRep:
    """Bosonic Fock space over a d-dimensional one-particle space, truncated
    by total occupation.

    The occupation basis lists every multi-index (n_1 .. n_d) with total at
    most n_max in graded lexicographic order, so the vacuum (0, ..., 0) is
    the first basis vector and the dimension is C(d + n_max, d).
    """

    d: int
    n_max: int
    occupations: np.ndarray
    _creation: tuple[np.ndarray, ...] = field(repr=False)

    @classmethod
    def build(cls, d: int, n_max: int) -> "FockRep":
        if d < 1:
            raise ValueError("one-particle dimension must be at least 1")
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        dim = math.comb(d + n_max, d)
        if dim > FOCK_DIMENSION_LIMIT:
            raise AlgebraError(f"truncated space dimension {dim} exceeds limit")
        occupations = sorted(
            (occ for occ in _cartesian(range(n_max + 1), repeat=d) if sum(occ) <= n_max),
            key=lambda occ: (sum(occ), occ),
        )
        occ_array = np.array(occupations, dtype=int).reshape(len(occupations), d)
        index = {occ: pos for pos, occ in enumerate(occupations)}
        ladders = []
        for mode in range(d):
            matrix = np.zeros((len(occupations), len(occupations)))
            for pos, occ in enumerate(occupations):
                if sum(occ) < n_max:
                    raised = list(occ)
                    raised[mode] += 1
                    matrix[index[tuple(raised)], pos] = math.sqrt(occ[mode] + 1)
            ladders.append(matrix)
        return cls(d, n_max, occ_array, tuple(ladders))

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    @property
    def vacuum_index(self) -> int:
        return 0

    def vacuum(self) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.vacuum_index] = 1.0
        return vec

    def total_occupations(self) -> np.ndarray:
        return self.occupations.sum(axis=1)

    def interior_indices(self) -> np.ndarray:
        """Basis indices with total occupation at most n_max - 1."""
        if self.n_max < 1:
            raise AlgebraError("interior subspace requires n_max >= 1")
        return np.flatnonzero(self.total_occupations() <= self.n_max - 1)


def creation_matrix(v: np.ndarray, rep: FockRep) -> np.ndarray:
    """Matrix of the creation operator for the one-particle vector v, linear
    in v; raising out of the truncated space maps to zero."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (rep.d,):
        raise ValueError(f"one-particle vector must have dimension {rep.d}")
    matrix = np.zeros((rep.dim, rep.dim), dtype=complex)
    for mode, amplitude in enumerate(v):
        if amplitude != 0:
            matrix += amplitude * rep._creation[mode]
    return matrix


def annihilation_matrix(v: np.ndarray, rep: FockRep) -> np.ndarray:
    """Conjugate transpose of the creation matrix; annihilates the vacuum."""
    return creation_matrix(v, rep).conj().T


def number_operator(rep: FockRep) -> np.ndarray:
    """Sum over modes of creation times annihilation."""
    total = np.zeros((rep.dim, rep.dim), dtype=complex)
    for mode in range(rep.d):
        ladder = rep._creation[mode]
        total += ladder @ ladder.conj().T
    return total


def field_operator(obs: LinearObservable, context: HilbertContext, rep: FockRep) -> np.ndarray:
    """Hermitian-structure matrix a*(v) + a(v) with v the coordinates of the
    observable in the orthonormal one-particle basis."""
    if rep.d != context.d:
        raise ValueError("Fock representation dimension differs from the context basis")
    v = context.coords(obs)
    raised = creation_matrix(v, rep)
    return raised + raised.conj().T


def commutator_check(
    obs_a: LinearObservable,
    obs_b: LinearObservable,
    context: HilbertContext,
    rep: FockRep,
) -> float:
    """Max deviation of [phi_hat(A), phi_hat(B)] from 2i Im<A, B> times the
    identity on the interior subspace."""
    interior = rep.interior_indices()
    op_a = field_operator(obs_a, context, rep)
    op_b = field_operator(obs_b, context, rep)
    expected = 2j * np.imag(context.inner_product(obs_a, obs_b)) * np.eye(rep.dim)
    deviation = op_a @ op_b - op_b @ op_a - expected
    return float(np.abs(deviation[np.ix_(interior, interior)]).max())


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian momentum-space packet carrying the on-shell phase of a
    spacetime center: J(p) = exp(-|p - carrier|^2 / (2 sigma_p^2))
    * exp(i (omega_p t - p . x)) for center (t, x)."""

    center: tuple[float, float, float, float]
    sigma_p: float
    carrier: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not self.sigma_p > 0:
            raise ValueError("sigma_p must be positive")


def packet_envelope(packet: GaussianPacket, lattice: MomentumLattice) -> np.ndarray:
    momenta = lattice.site_momenta()
    offset = momenta - np.asarray(packet.carrier, dtype=float)
    return np.exp(-np.sum(offset * offset, axis=1) / (2.0 * packet.sigma_p**2))


def packet_coefficients(
    packet: GaussianPacket, lattice: MomentumLattice, mass: float
) -> np.ndarray:
    momenta = lattice.site_momenta()
    freqs = omega(momenta, mass)
    center = np.asarray(packet.center, dtype=float)
    phase = freqs * center[0] - momenta @ center[1:]
    return packet_envelope(packet, lattice) * np.exp(1j * phase)


def standard_packet_configuration(
    separation: float = 1.5,
    sigma_p: float = 0.3,
    spatial_axis: int = 1,
) -> tuple[tuple[GaussianPacket, GaussianPacket], tuple[GaussianPacket, GaussianPacket]]:
    """Spacelike pair separated along one spatial axis and the timelike
    reference pair separated by the same interval along the time axis."""
    if spatial_axis not in (1, 2, 3):
        raise ValueError("spatial_axis must be 1, 2 or 3")
    half = separation / 2.0
    lo = [0.0, 0.0, 0.0, 0.0]
    hi = [0.0, 0.0, 0.0, 0.0]
    lo[spatial_axis] = -half
    hi[spatial_axis] = half
    spacelike = (
        GaussianPacket(tuple(lo), sigma_p),
        GaussianPacket(tuple(hi), sigma_p),
    )
    timelike = (
        GaussianPacket((-half, 0.0, 0.0, 0.0), sigma_p),
        GaussianPacket((half, 0.0, 0.0, 0.0), sigma_p),
    )
    return spacelike, timelike


@dataclass(frozen=True)
class MicrocausalityResult:
    k_spacelike: float
    k_timelike: float
    ratio: float
    se_spacelike: float | None = None
    se_timelike: float | None = None
    se_ratio: float | None = None


def packet_observables(
    spacelike_pair: tuple[GaussianPacket, GaussianPacket],
    timelike_pair: tuple[GaussianPacket, GaussianPacket],
    lattice: MomentumLattice,
    mass: float,
) -> list[LinearObservable]:
    """The four packet observables of a microcausality test: the spacelike
    pair, then the timelike pair."""
    return [
        LinearObservable(packet_coefficients(packet, lattice, mass))
        for pair in (spacelike_pair, timelike_pair)
        for packet in pair
    ]


def microcausality_ratio(
    spacelike_pair: tuple[GaussianPacket, GaussianPacket],
    timelike_pair: tuple[GaussianPacket, GaussianPacket],
    lattice: MomentumLattice,
    mass: float,
    *,
    covariance: ExactCovariance | None = None,
    gram: GramMatrix | None = None,
) -> MicrocausalityResult:
    """|K| at spacelike separation over |K| at the timelike reference.

    The kernel K = 2 Im <phi(J_A), phi(J_B)> is evaluated for both packet
    configurations either from a closed-form covariance or from the sampled
    Gram matrix of `packet_observables`.  A timelike reference below the
    numerical floor is an error rather than a huge ratio.
    """
    if (covariance is None) == (gram is None):
        raise ValueError("provide exactly one of covariance or gram")
    scale_t = 2.0 * float(
        np.sum(
            packet_envelope(timelike_pair[0], lattice)
            * packet_envelope(timelike_pair[1], lattice)
        )
    )
    if covariance is not None:
        obs = packet_observables(spacelike_pair, timelike_pair, lattice, mass)
        k_s, k_t = (
            2.0 * float(np.imag(covariance.quadratic_form(obs[i].coeffs, obs[i + 1].coeffs)))
            for i in (0, 2)
        )
        se_s = se_t = None
        scale_t /= covariance.beta
    else:
        k_s = 2.0 * float(np.imag(gram.matrix[0, 1]))
        k_t = 2.0 * float(np.imag(gram.matrix[2, 3]))
        if gram.max_stderr > 0:
            se_s = 2.0 * float(gram.stderr_im[0, 1])
            se_t = 2.0 * float(gram.stderr_im[2, 3])
        else:
            se_s = se_t = None
    if abs(k_t) <= 1e-12 * scale_t:
        raise AlgebraError(
            f"timelike reference kernel {k_t:.3e} below the numerical floor"
        )
    ratio = abs(k_s) / abs(k_t)
    se_ratio = None
    if se_s is not None and se_t is not None:
        se_ratio = math.sqrt(
            (se_s / abs(k_t)) ** 2 + (abs(k_s) * se_t / k_t**2) ** 2
        )
    return MicrocausalityResult(k_s, k_t, ratio, se_s, se_t, se_ratio)


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _max_abs(matrix: np.ndarray) -> float:
    return float(np.abs(matrix).max())


def algebra_report(
    context: HilbertContext, rep: FockRep, rng_seed: int = 0
) -> list[CheckResult]:
    """Run every operator identity at its stated tolerance.

    Covers Gram hermiticity and positivity, the ladder commutation
    relations, adjointness against a first-principles lowering ladder, the
    number operator, field-operator hermiticity and the field commutator
    identity, and the vacuum variance of a field operator.
    """
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    interior = rep.interior_indices()
    results: list[CheckResult] = []

    gram_matrix = context.gram.matrix
    results.append(
        CheckResult("gram_hermitian", _max_abs(gram_matrix - gram_matrix.conj().T), ALGEBRA_TOL)
    )
    eigvals = np.linalg.eigvalsh(gram_matrix)
    psd_tol = max(ALGEBRA_TOL * max(eigvals[-1], 1.0), 5.0 * context.gram.max_stderr)
    results.append(CheckResult("gram_positive", max(0.0, -float(eigvals[0])), psd_tol))

    u = rng.normal(size=rep.d) + 1j * rng.normal(size=rep.d)
    w = rng.normal(size=rep.d) + 1j * rng.normal(size=rep.d)
    a_u, a_w = annihilation_matrix(u, rep), annihilation_matrix(w, rep)
    c_u, c_w = creation_matrix(u, rep), creation_matrix(w, rep)
    results.append(CheckResult("ccr_annihilation_pair", _max_abs(a_u @ a_w - a_w @ a_u), ALGEBRA_TOL))
    results.append(CheckResult("ccr_creation_pair", _max_abs(c_u @ c_w - c_w @ c_u), ALGEBRA_TOL))
    mixed = a_u @ c_w - c_w @ a_u - complex(np.vdot(u, w)) * np.eye(rep.dim)
    results.append(
        CheckResult("ccr_mixed", _max_abs(mixed[np.ix_(interior, interior)]), ALGEBRA_TOL)
    )

    # Lowering ladder rebuilt from first principles: sqrt(n_i) on occupation i.
    lowering_dev = 0.0
    occupations = [tuple(occ) for occ in rep.occupations]
    index = {occ: pos for pos, occ in enumerate(occupations)}
    for mode in range(rep.d):
        direct = np.zeros((rep.dim, rep.dim))
        for pos, occ in enumerate(occupations):
            if occ[mode] > 0:
                lowered = list(occ)
                lowered[mode] -= 1
                direct[index[tuple(lowered)], pos] = math.sqrt(occ[mode])
        basis_vec = np.zeros(rep.d)
        basis_vec[mode] = 1.0
        lowering_dev = max(lowering_dev, _max_abs(annihilation_matrix(basis_vec, rep) - direct))
    vec_f = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    vec_g = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    pairing_dev = abs(np.vdot(c_u @ vec_f, vec_g) - np.vdot(vec_f, a_u @ vec_g))
    results.append(CheckResult("adjointness", max(lowering_dev, float(pairing_dev)), ALGEBRA_TOL))

    number_dev = _max_abs(number_operator(rep) - np.diag(rep.total_occupations()))
    results.append(CheckResult("number_operator", number_dev, ALGEBRA_TOL))

    # Random observables drawn inside the retained span, so the checks stay
    # valid when the quotient has discarded null directions.
    coeff_stack = np.stack([obs.coeffs for obs in context.observables], axis=1)
    span_basis = coeff_stack @ context.transform
    combo_real = LinearObservable(span_basis @ rng.normal(size=context.d))
    op_real = field_operator(combo_real, context, rep)
    results.append(CheckResult("field_hermitian", _max_abs(op_real - op_real.conj().T), ALGEBRA_TOL))

    mix = rng.normal(size=(2, context.d)) + 1j * rng.normal(size=(2, context.d))
    combo_a = LinearObservable(span_basis @ mix[0])
    combo_b = LinearObservable(span_basis @ mix[1])
    results.append(
        CheckResult("field_commutator", commutator_check(combo_a, combo_b, context, rep), ALGEBRA_TOL)
    )

    op_a = field_operator(combo_a, context, rep)
    vacuum = rep.vacuum()
    variance = complex(np.vdot(vacuum, op_a @ op_a @ vacuum))
    expected = context.inner_product(combo_a, combo_a)
    results.append(
        CheckResult(
            "vacuum_field_variance",
            abs(variance - expected),
            ALGEBRA_TOL * max(1.0, abs(expected)),
        )
    )
    return results
