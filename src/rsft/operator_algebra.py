"""Hilbert-space quotient, truncated bosonic Fock space, and field operators.

Observables of the form phi(J) = sum_p phi(p) J(p) carry the inner product
<O1, O2> = <conj(O1[phi]) O2[phi]>, estimated from a trajectory by the Gram
accumulator or evaluated exactly from the closed-form covariance.
Either way the result is a `GramMatrix`, and the microcausality ratio is
read from the Gram matrix of four packet observables alone: the field
commutator kernel 2 Im <A, B> of each pair, its floor from the
Cauchy-Schwarz bound of the same matrix, and its error bar when the
matrix carries them.
Diagonalizing the exact Gram matrix of a finite observable family and
discarding the (numerical) null directions yields an orthonormal
one-particle basis; the bosonic Fock space over it is
truncated by total occupation, making creation, annihilation and field
operators finite.  They are kept sparse: each mode ladder is an index map
with its amplitudes, and operators act on coordinate triples, so the
identity checks cost O(d^2 dim) rather than dense dim^3 products.
Identities that truncation breaks are asserted on the interior subspace
(total occupation at most n_max - 1), where its artifacts vanish
identically; their products are applied to the interior columns alone.
Commutators are applied to runs of identity columns and their maxima
combined.  A ladder applied to all columns, or to a dense vector, reads its
tables a few rows at a time and stores only the entries it keeps, and the
hermiticity check pairs those entries with their transposes in one sort, so
no check holds more than the O(d * dim) ladders themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement
from typing import Sequence

import numpy as np

from .estimators import BatchMeans, _SampleStream
from .lattice import MomentumLattice, omega
from .oracles import ExactCovariance

ALGEBRA_TOL = 1e-12
ORACLE_NULLSPACE_TOL = 1e-10
COORD_RESIDUAL_RTOL = 1e-8
FOCK_DIMENSION_LIMIT = 20_000
# The identity checks apply two ladder combinations to columns of the
# identity, up to about d^2 * dim candidate entries in all.  They are formed
# in runs of columns (PRODUCT_BLOCK_ENTRIES below), and a single ladder
# applied to all columns stores only the entries it keeps, so the products
# bound the time, not the memory: at the limit, d = 117, n_max = 2 (d^2 dim =
# 9.6e7) took 0.5 s, and the largest n_max = 3 space, d = 47 (dim 19 600,
# 4.3e7), 0.8 s.  The memory follows the O(d * dim) index maps and
# amplitudes and the kept entries of one ladder on all columns: peak RSS of
# `fock-check` measured 45 MB at d = 60, n_max = 2, 63 MB at d = 100, 76 MB
# at d = 117 and 87 MB at d = 47, n_max = 3, of which importing the CLI
# takes about 36 MB.
FOCK_PRODUCT_LIMIT = 100_000_000
# Candidate entries that the four ladder applications of one run of
# identity columns may form in a commutator check, and that one slice of a
# ladder application may form when dim is smaller.
PRODUCT_BLOCK_ENTRIES = 1 << 14


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
    batch-means standard errors of its real and imaginary parts, None when
    there are none (an exact matrix, or too few batches)."""

    matrix: np.ndarray
    stderr_re: np.ndarray | None = None
    stderr_im: np.ndarray | None = None


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
    return GramMatrix(_hermitize(matrix))


class GramAccumulator(_SampleStream):
    """Streaming Gram-matrix estimator over trajectory snapshots: batch means
    of the products conj(O_i[phi]) O_j[phi] of linear observables.  A
    snapshot is a field array or a block of sampled coordinates; each
    coordinate row is lifted to its field."""

    def __init__(self, observables: Sequence[LinearObservable], batch_len: int):
        if not observables:
            raise ValueError("observable list must be nonempty")
        self.observables = list(observables)
        k = len(self.observables)
        self._acc = BatchMeans((k, k), batch_len, complex)
        super().__init__(self._acc)

    def _add_site(self, phi: np.ndarray) -> None:
        values = np.array([obs.evaluate(phi) for obs in self.observables], dtype=complex)
        self._acc.add(np.outer(np.conj(values), values))

    def result(self) -> GramMatrix:
        self._sum_buffer()
        matrix = _hermitize(self._acc.mean())
        se = self._acc.stderr()
        return GramMatrix(matrix) if se is None else GramMatrix(matrix, *se)


def quotient_orthonormalize(matrix: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Orthonormalize the observable family modulo its numerical null space.

    Eigendirections of the Gram matrix with eigenvalue at most tol times the
    largest eigenvalue are discarded; the rest are scaled so the transformed
    Gram is the identity.  Returns the (k, d) transform and d.
    """
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

    Provides the inner product between arbitrary linear observables, from
    the closed-form covariance, and the coordinates of an observable in the
    retained one-particle basis.
    """

    def __init__(
        self,
        observables: Sequence[LinearObservable],
        gram_matrix: GramMatrix,
        tol: float,
        covariance: ExactCovariance,
    ):
        self.observables = list(observables)
        self.gram = gram_matrix
        self.tol = tol
        self.covariance = covariance
        self.transform, self.d = quotient_orthonormalize(gram_matrix.matrix, tol)

    @classmethod
    def from_covariance(
        cls,
        observables: Sequence[LinearObservable],
        covariance: ExactCovariance,
        tol: float = ORACLE_NULLSPACE_TOL,
    ) -> "HilbertContext":
        return cls(observables, gram_exact(observables, covariance), tol, covariance)

    def inner_product(self, obs_a: LinearObservable, obs_b: LinearObservable) -> complex:
        return self.covariance.quadratic_form(obs_a.coeffs, obs_b.coeffs)

    def coords(self, obs: LinearObservable) -> np.ndarray:
        """Coordinates of an observable in the orthonormal one-particle basis.

        Fails if the observable keeps a component in the discarded null
        space or outside the family span beyond a relative tolerance that
        scales with the quotient tolerance.
        """
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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Rows as uint16 byte strings (occupations stay below the dimension
    limit), so no integer key overflows at large d."""
    rows = np.ascontiguousarray(rows, np.uint16)
    return rows.view(np.dtype((np.void, 2 * rows.shape[1])))[:, 0]


def _row_lookup(table: np.ndarray):
    """A function giving the index of each of its rows among the rows of
    `table`, whose keys are sorted once, here."""
    keys = _row_keys(table)
    order = np.argsort(keys)
    return lambda rows: order.take(np.searchsorted(keys, _row_keys(rows), sorter=order))


@dataclass(frozen=True)
class FockRep:
    """Bosonic Fock space over a d-dimensional one-particle space, truncated
    by total occupation.

    The occupation basis lists every multi-index (n_1 .. n_d) with total at
    most n_max in graded lexicographic order, so the vacuum (0, ..., 0) is
    the first basis vector and the dimension is C(d + n_max, d).  Each mode
    ladder is stored as an index map with its amplitudes, O(d * dim) numbers
    in all: `_maps[0, m, j]` is the basis index of state j with one more
    quantum in mode m (-1 where that leaves the truncation), `_maps[1, m]`
    is the inverse map, and `_amplitudes[:, m, j]` are sqrt(n_m + 1) and
    sqrt(n_m) on state j, the amplitudes of those two steps.
    """

    d: int
    n_max: int
    occupations: np.ndarray
    _maps: np.ndarray = field(repr=False)
    _amplitudes: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, d: int, n_max: int) -> "FockRep":
        if d < 1:
            raise ValueError("one-particle dimension must be at least 1")
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        dim = math.comb(d + n_max, d)
        if dim > FOCK_DIMENSION_LIMIT:
            raise AlgebraError(f"truncated space dimension {dim} exceeds limit")
        if d * d * dim > FOCK_PRODUCT_LIMIT:
            raise AlgebraError(
                f"operator products of d^2 * dim = {d * d * dim} entries "
                f"(d = {d}, dim = {dim}) exceed the limit {FOCK_PRODUCT_LIMIT}"
            )
        # A state of total t is a multiset of t modes.  Combinations with
        # replacement list the multisets of each total in lexicographic
        # order, the reverse of the lexicographic order of the occupations.
        multisets = [
            modes
            for total in range(n_max + 1)
            for modes in reversed(list(combinations_with_replacement(range(d), total)))
        ]
        occupations = np.zeros((dim, d), dtype=int)
        rows = np.repeat(np.arange(dim), [len(modes) for modes in multisets])
        np.add.at(occupations, (rows, np.fromiter(chain.from_iterable(multisets), int)), 1)
        del multisets, rows
        # Every state below total n_max comes first and has a raised state
        # in every mode; each mode's raising map and its inverse are filled in
        # place from one sort of the occupation rows.
        below = math.comb(d + n_max - 1, d)
        index_of = _row_lookup(occupations)
        raised = occupations[:below].astype(np.uint16)
        source = np.arange(below)
        maps = np.full((2, d, dim), -1)
        for mode in range(d):
            raised[:, mode] += 1
            maps[0, mode, :below] = index_of(raised)
            raised[:, mode] -= 1
            maps[1, mode].put(maps[0, mode, :below], source)
        amplitudes = np.empty((2, d, dim))
        amplitudes[0] = occupations.T
        amplitudes[0] += 1.0
        amplitudes[1] = occupations.T
        np.sqrt(amplitudes, out=amplitudes)
        return cls(d, n_max, occupations, maps, amplitudes)

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


@dataclass(frozen=True)
class SparseOperand:
    """An operator or vector on a truncated Fock space as the sum of its
    entries value * |row><col|.  Entries may repeat a (row, col) pair and
    then add; a vector is a single column, col 0."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @classmethod
    def diagonal(cls, values: np.ndarray, index: np.ndarray | None = None) -> "SparseOperand":
        """Diagonal entries at the given basis indices, by default 0 .. n - 1."""
        values = np.asarray(values, dtype=complex)
        index = np.arange(values.shape[0]) if index is None else index
        return cls(index, index, values)

    @classmethod
    def vector(cls, values: np.ndarray) -> "SparseOperand":
        values = np.asarray(values, dtype=complex)
        return cls(np.arange(values.shape[0]), np.zeros(values.shape[0], dtype=int), values)

    @classmethod
    def concatenate(cls, parts: Sequence["SparseOperand"]) -> "SparseOperand":
        """The sum of the parts: all their entries."""
        return cls(
            np.concatenate([part.rows for part in parts]),
            np.concatenate([part.cols for part in parts]),
            np.concatenate([part.values for part in parts]),
        )

    def __neg__(self) -> "SparseOperand":
        return SparseOperand(self.rows, self.cols, -self.values)

    def __sub__(self, other: "SparseOperand") -> "SparseOperand":
        return SparseOperand.concatenate((self, -other))

    def to_vector(self, dim: int) -> np.ndarray:
        """The dense vector of a single-column operand."""
        return np.bincount(self.rows, self.values.real, dim) + 1j * np.bincount(
            self.rows, self.values.imag, dim
        )

    def max_abs(self, within: np.ndarray | None = None) -> float:
        """Largest |matrix element| once repeated entries are summed,
        over the (within, within) block when basis indices are given.

        One sort of (row, col) key and original entry position packed in an
        int64 (keys < dim^2 < 2^29, positions < 2^31 under the Fock limits):
        a key's entries keep their order, so each sum adds as unsorted, bit
        for bit."""
        rows, cols = self.rows, self.cols
        position = np.arange(rows.size)
        if within is not None and rows.size:
            mask = np.zeros(max(rows.max(), cols.max(), within.max(initial=0)) + 1, dtype=bool)
            mask[within] = True
            position = np.flatnonzero(mask[rows] & mask[cols])
            rows, cols = rows.take(position), cols.take(position)
        if position.size == 0:
            return 0.0
        packed = rows * (int(cols.max()) + 1)
        packed += cols
        del rows, cols
        packed <<= 31
        packed |= position
        del position
        return _largest_sum(packed, self.values)

    def hermitian_deviation(self) -> float:
        """Largest |matrix element| of the operand minus its adjoint.  The
        adjoint's entries take positions n .. 2n - 1, as in the difference's
        list of entries, which is never formed: one sort of the 2n packed
        keys pairs them (2n < 2^31 under the Fock limits, as n <= 2 d dim)."""
        n = self.rows.size
        if n == 0:
            return 0.0
        width = int(max(self.rows.max(), self.cols.max())) + 1
        packed = np.empty(2 * n, dtype=np.int64)
        np.multiply(self.rows, width, out=packed[:n])
        packed[:n] += self.cols
        np.multiply(self.cols, width, out=packed[n:])
        packed[n:] += self.rows
        packed <<= 31
        packed |= np.arange(2 * n)
        return _largest_sum(packed, self.values, adjoint_from=n)


def _largest_sum(packed: np.ndarray, values: np.ndarray, adjoint_from: int | None = None) -> float:
    """Largest |sum| over the entries of each key, where `packed` (which is
    overwritten) holds key << 31 | position for each entry, and the entry
    at a position has the value values[position], or from adjoint_from on,
    -conj(values[position - adjoint_from])."""
    packed.sort()
    position = packed & (2**31 - 1)
    packed >>= 31
    # each sorted entry's key number, written over its key
    starts = packed[1:] != packed[:-1]
    packed[0] = 0
    np.cumsum(starts, out=packed[1:])
    del starts
    # real and imaginary parts gathered in sorted order, one at a time
    real = values.real.take(position, mode="wrap")
    if adjoint_from is not None:
        np.negative(real, out=real, where=position >= adjoint_from)
    real_sum = np.bincount(packed, real)
    del real
    imag = values.imag.take(position, mode="wrap")
    del position
    summed = 1j * np.bincount(packed, imag)
    del imag
    summed += real_sum
    return float(np.abs(summed).max())


@dataclass(frozen=True)
class LadderOperator:
    """sum_m raising[m] a*_m + lowering[m] a_m on a truncated Fock space,
    applied to a sparse operand from the left in O(d * nnz); raising out of
    the truncated space maps to zero.

    A call forms one candidate per nonzero coefficient and operand entry,
    in slices of whole coefficient rows of at most max(PRODUCT_BLOCK_ENTRIES,
    dim) candidates or one row, and stores only those whose step stays in
    the truncation: a commutator run takes one pass, and the identity on all
    columns or a dense vector holds its kept entries and O(dim) candidates.
    The kept entries come coefficient by coefficient, raising first, each
    in operand order."""

    rep: FockRep
    raising: np.ndarray
    lowering: np.ndarray

    def __call__(self, operand: SparseOperand) -> SparseOperand:
        rep = self.rep
        coeffs = np.concatenate((self.raising, self.lowering))
        # (step, mode) rows of the (2, d, dim) tables of the nonzero
        # coefficients, raising first
        nonzero = np.flatnonzero(coeffs)
        size = operand.rows.size
        span = max(1, max(PRODUCT_BLOCK_ENTRIES, rep.dim) // max(size, 1))
        parts = []
        for start in range(0, nonzero.size or 1, span):  # one empty slice if all are zero
            at = (nonzero[start : start + span, None] * rep.dim + operand.rows).ravel()
            target = rep._maps.take(at)
            kept = np.flatnonzero(target >= 0)
            entry = kept % size
            at = at.take(kept)
            # coefficient times amplitude for the kept entries alone
            values = (
                coeffs.take(at // rep.dim) * rep._amplitudes.take(at) * operand.values.take(entry)
            )
            parts.append(SparseOperand(target.take(kept), operand.cols.take(entry), values))
        if len(parts) == 1:
            return parts[0]
        return SparseOperand.concatenate(parts)

    @property
    def width(self) -> int:
        """Candidate entries formed per operand entry: the nonzero coefficients."""
        return np.count_nonzero(self.raising) + np.count_nonzero(self.lowering)

    def kept_per_column(self, columns: np.ndarray) -> np.ndarray:
        """Entries kept from each of the identity's columns at the given
        basis indices: the candidates whose step stays in the truncation."""
        coeffs = np.concatenate((self.raising, self.lowering))
        maps = self.rep._maps.reshape(coeffs.size, self.rep.dim)
        kept = np.zeros(columns.size, dtype=np.int64)
        for index in np.flatnonzero(coeffs):
            kept += maps[index].take(columns) >= 0
        return kept


def _one_particle(v: np.ndarray, rep: FockRep) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (rep.d,):
        raise ValueError(f"one-particle vector must have dimension {rep.d}")
    return v


def creation_operator(v: np.ndarray, rep: FockRep) -> LadderOperator:
    """The creation operator a*(v) = sum_m v_m a*_m, linear in v."""
    v = _one_particle(v, rep)
    return LadderOperator(rep, v, np.zeros_like(v))


def annihilation_operator(v: np.ndarray, rep: FockRep) -> LadderOperator:
    """The adjoint of a*(v), antilinear in v; annihilates the vacuum."""
    v = _one_particle(v, rep)
    return LadderOperator(rep, np.zeros_like(v), v.conj())


def number_operator(rep: FockRep) -> SparseOperand:
    """Sum over modes of creation times annihilation, as sparse entries."""
    identity = SparseOperand.diagonal(np.ones(rep.dim))
    pairs = [(creation_operator(e, rep), annihilation_operator(e, rep)) for e in np.eye(rep.d)]
    return SparseOperand.concatenate([up(down(identity)) for up, down in pairs])


def field_operator(obs: LinearObservable, context: HilbertContext, rep: FockRep) -> LadderOperator:
    """Hermitian-structure operator a*(v) + a(v) with v the coordinates of
    the observable in the orthonormal one-particle basis."""
    if rep.d != context.d:
        raise ValueError("Fock representation dimension differs from the context basis")
    v = context.coords(obs)
    return LadderOperator(rep, v, v.conj())


def _commutator(
    op_a: LadderOperator, op_b: LadderOperator, columns: np.ndarray, expected: complex | None = None
) -> SparseOperand:
    """[op_a, op_b] - expected, as one list of entries, on the identity's
    columns at the given basis indices.  From an interior column no path of
    two ladder steps passes outside the truncation, so the result holds the
    (interior, interior) block of the full product in the same order."""
    identity = SparseOperand.diagonal(np.ones(columns.size), columns)
    parts = [op_a(op_b(identity)), -op_b(op_a(identity))]
    if expected is not None:
        parts.append(SparseOperand.diagonal(np.full(columns.size, -expected), columns))
    return SparseOperand.concatenate(parts)


def _commutator_deviation(
    op_a: LadderOperator,
    op_b: LadderOperator,
    columns: np.ndarray,
    expected: complex | None = None,
    within: np.ndarray | None = None,
) -> float:
    """Largest |matrix element| of `_commutator(op_a, op_b, columns,
    expected)`, over the (within, within) block when basis indices are
    given, taken over runs of the columns whose four ladder applications
    form at most PRODUCT_BLOCK_ENTRIES candidate entries (a column that
    alone forms more is its own run).  Every entry lies in the column it
    was applied to, and a run keeps its columns' entries in order, so each
    matrix element sums as over all columns at once, bit for bit, and the
    largest over the runs is the largest over all."""
    cost = (
        op_a.width * (1 + op_b.kept_per_column(columns))
        + op_b.width * (1 + op_a.kept_per_column(columns))
    )
    before = np.concatenate(([0], np.cumsum(cost)))
    deviations, start = [], 0
    while start < columns.size:
        stop = int(np.searchsorted(before, before[start] + PRODUCT_BLOCK_ENTRIES, "right")) - 1
        stop = max(stop, start + 1)
        deviations.append(
            _commutator(op_a, op_b, columns[start:stop], expected).max_abs(within)
        )
        start = stop
    return float(np.max(deviations, initial=0.0))


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
    expected = 2j * np.imag(context.inner_product(obs_a, obs_b))
    return _commutator_deviation(op_a, op_b, interior, expected, within=interior)


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian momentum-space packet carrying the on-shell phase of a
    spacetime center: J(p) = exp(-|p|^2 / (2 sigma_p^2))
    * exp(i (omega_p t - p . x)) for center (t, x)."""

    center: tuple[float, float, float, float]
    sigma_p: float

    def __post_init__(self):
        if not self.sigma_p > 0:
            raise ValueError("sigma_p must be positive")


def packet_envelope(packet: GaussianPacket, lattice: MomentumLattice) -> np.ndarray:
    momenta = lattice.site_momenta()
    return np.exp(-np.sum(momenta * momenta, axis=1) / (2.0 * packet.sigma_p**2))


def packet_coefficients(
    packet: GaussianPacket, lattice: MomentumLattice, mass: float
) -> np.ndarray:
    momenta = lattice.site_momenta()
    freqs = omega(momenta, mass)
    center = np.asarray(packet.center, dtype=float)
    phase = freqs * center[0] - momenta @ center[1:]
    return packet_envelope(packet, lattice) * np.exp(1j * phase)


def standard_packet_configuration(
    separation: float = 1.5, sigma_p: float = 0.3
) -> tuple[tuple[GaussianPacket, GaussianPacket], tuple[GaussianPacket, GaussianPacket]]:
    """Spacelike pair separated along the first spatial axis and the
    timelike reference pair separated by the same interval along the time
    axis."""
    half = separation / 2.0
    spacelike = (
        GaussianPacket((0.0, -half, 0.0, 0.0), sigma_p),
        GaussianPacket((0.0, half, 0.0, 0.0), sigma_p),
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


def microcausality_ratio(gram: GramMatrix) -> MicrocausalityResult:
    """|K| at spacelike separation over |K| at the timelike reference.

    `gram` is the Gram matrix of `packet_observables`, exact or sampled.
    The kernel K = 2 Im <phi(J_A), phi(J_B)> of each pair is read from it,
    with its error bar when the matrix has them.  A timelike reference at
    or below 1e-12 of its Cauchy-Schwarz bound 2 sqrt(G_22 G_33) is an
    error rather than a huge ratio.
    """
    matrix = gram.matrix
    k_s = 2.0 * float(np.imag(matrix[0, 1]))
    k_t = 2.0 * float(np.imag(matrix[2, 3]))
    bound_t = 2.0 * math.sqrt(float(matrix[2, 2].real) * float(matrix[3, 3].real))
    if abs(k_t) <= 1e-12 * bound_t:
        raise AlgebraError(
            f"timelike reference kernel {k_t:.3e} below the numerical floor"
        )
    ratio = abs(k_s) / abs(k_t)
    se_ratio = None
    if gram.stderr_im is not None:
        se_s = 2.0 * float(gram.stderr_im[0, 1])
        se_t = 2.0 * float(gram.stderr_im[2, 3])
        se_ratio = math.sqrt((se_s / abs(k_t)) ** 2 + (abs(k_s) * se_t / k_t**2) ** 2)
    return MicrocausalityResult(k_s, k_t, ratio, se_ratio)


def _adjointness_deviation(
    rep: FockRep,
    creation: LadderOperator,
    annihilation: LadderOperator,
    vec_f: np.ndarray,
    vec_g: np.ndarray,
) -> float:
    """The larger of two deviations: <creation f, g> from <f, annihilation
    g>, and each mode's annihilation ladder from its lowering ladder rebuilt
    from first principles, looked up in the occupations rather than the
    index maps (sqrt(n_m) from n to n - e_m).  No two modes lower a state
    to the same one, so the largest over the modes, taken one at a time, is
    that of one sum over all of them."""
    raised_f = creation(SparseOperand.vector(vec_f)).to_vector(rep.dim)
    lowered_g = annihilation(SparseOperand.vector(vec_g)).to_vector(rep.dim)
    pairing = abs(np.vdot(raised_f, vec_g) - np.vdot(vec_f, lowered_g))
    del raised_f, lowered_g
    identity = SparseOperand.diagonal(np.ones(rep.dim))
    index_of = _row_lookup(rep.occupations)
    lowering = []
    for mode, unit in enumerate(np.eye(rep.d)):
        source = np.flatnonzero(rep.occupations[:, mode])
        lowered = rep.occupations[source].astype(np.uint16)
        lowered[:, mode] -= 1
        amplitude = np.sqrt(rep.occupations[source, mode]).astype(complex)
        direct = SparseOperand(index_of(lowered), source, amplitude)
        lowering.append((annihilation_operator(unit, rep)(identity) - direct).max_abs())
    return max(float(np.max(lowering)), float(pairing))


def _number_deviation(rep: FockRep) -> float:
    """Largest |matrix element| of the number operator minus diag(total)."""
    return (number_operator(rep) - SparseOperand.diagonal(rep.total_occupations())).max_abs()


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


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
    gram_matrix = context.gram.matrix
    hermitian_dev = float(np.abs(gram_matrix - gram_matrix.conj().T).max())
    eigvals = np.linalg.eigvalsh(gram_matrix)
    psd_tol = ALGEBRA_TOL * max(eigvals[-1], 1.0)
    results = [
        CheckResult("gram_hermitian", hermitian_dev, ALGEBRA_TOL),
        CheckResult("gram_positive", max(0.0, -float(eigvals[0])), psd_tol),
    ]
    u = rng.normal(size=rep.d) + 1j * rng.normal(size=rep.d)
    w = rng.normal(size=rep.d) + 1j * rng.normal(size=rep.d)
    a_u, a_w = annihilation_operator(u, rep), annihilation_operator(w, rep)
    c_u, c_w = creation_operator(u, rep), creation_operator(w, rep)
    full = np.arange(rep.dim)
    mixed = _commutator_deviation(a_u, c_w, interior, complex(np.vdot(u, w)), within=interior)
    results += [
        CheckResult("ccr_annihilation_pair", _commutator_deviation(a_u, a_w, full), ALGEBRA_TOL),
        CheckResult("ccr_creation_pair", _commutator_deviation(c_u, c_w, full), ALGEBRA_TOL),
        CheckResult("ccr_mixed", mixed, ALGEBRA_TOL),
    ]

    # Unit vectors keep the pairing O(1), so its round-off does not grow with dim.
    vec_f = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    vec_g = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    vec_f /= np.linalg.norm(vec_f)
    vec_g /= np.linalg.norm(vec_g)
    adjoint_dev = _adjointness_deviation(rep, c_u, a_u, vec_f, vec_g)
    results.append(CheckResult("adjointness", adjoint_dev, ALGEBRA_TOL))
    results.append(CheckResult("number_operator", _number_deviation(rep), ALGEBRA_TOL))

    # Random observables drawn inside the retained span, so the checks stay
    # valid when the quotient has discarded null directions.
    coeff_stack = np.stack([obs.coeffs for obs in context.observables], axis=1)
    span_basis = coeff_stack @ context.transform
    combo_real = LinearObservable(span_basis @ rng.normal(size=context.d))
    op_real = field_operator(combo_real, context, rep)(SparseOperand.diagonal(np.ones(rep.dim)))
    results.append(CheckResult("field_hermitian", op_real.hermitian_deviation(), ALGEBRA_TOL))

    mix = rng.normal(size=(2, context.d)) + 1j * rng.normal(size=(2, context.d))
    combo_a = LinearObservable(span_basis @ mix[0])
    combo_b = LinearObservable(span_basis @ mix[1])
    results.append(
        CheckResult("field_commutator", commutator_check(combo_a, combo_b, context, rep), ALGEBRA_TOL)
    )

    op_a = field_operator(combo_a, context, rep)
    vacuum = rep.vacuum()
    # Applied to the vacuum's one nonzero entry: the zero ones add only signed zeros.
    excited = op_a(op_a(SparseOperand.vector(vacuum[:1]))).to_vector(rep.dim)
    variance = complex(np.vdot(vacuum, excited))
    expected = context.inner_product(combo_a, combo_a)
    variance_tol = ALGEBRA_TOL * max(1.0, abs(expected))
    results.append(CheckResult("vacuum_field_variance", abs(variance - expected), variance_tol))
    return results
