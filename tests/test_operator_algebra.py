import math
import tracemalloc
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, product

import numpy as np
import pytest

from rsft.action import MatterActionKind
from rsft import operator_algebra
from rsft.dynamics import CoordinateBlock, run
from rsft.lattice import MomentumLattice
from rsft.operator_algebra import (
    ALGEBRA_TOL,
    AlgebraError,
    FockRep,
    GaussianPacket,
    GramAccumulator,
    GramMatrix,
    HilbertContext,
    LinearObservable,
    SparseOperand,
    algebra_report,
    annihilation_operator,
    commutator_check,
    creation_operator,
    field_operator,
    gram_exact,
    microcausality_ratio,
    number_operator,
    packet_coefficients,
    packet_envelope,
    packet_observables,
    quotient_orthonormalize,
    standard_packet_configuration,
)
from rsft.oracles import exact_covariance, smeared_commutator
from tests.test_estimators import feed, synthetic_collective_samples, trajectory

FREE = MatterActionKind.FREE
COLLECTIVE = MatterActionKind.FREE_COLLECTIVE


def unit_site_observable(n, site, scale=1.0):
    coeffs = np.zeros(n, dtype=complex)
    coeffs[site] = scale
    return LinearObservable(coeffs)


class TestGram:
    def test_single_site_free_variance(self):
        cov = exact_covariance(FREE, 6, 2.0)
        result = gram_exact([unit_site_observable(6, 2)], cov)
        np.testing.assert_allclose(result.matrix, [[0.5]])

    def test_disjoint_sites_uncorrelated_in_free_theory(self):
        cov = exact_covariance(FREE, 6, 1.0)
        result = gram_exact(
            [unit_site_observable(6, 0), unit_site_observable(6, 3)], cov
        )
        assert result.matrix[0, 1] == 0.0

    def test_conjugate_linearity_in_first_slot(self):
        cov = exact_covariance(COLLECTIVE, 6, 1.0)
        base = unit_site_observable(6, 1)
        scaled = unit_site_observable(6, 1, scale=1j)
        result = gram_exact([base, scaled], cov)
        assert result.matrix[0, 1] == pytest.approx(1j * result.matrix[0, 0])
        assert result.matrix[1, 0] == pytest.approx(-1j * result.matrix[0, 0])

    def test_sesquilinearity_under_sums_and_scales(self):
        rng = np.random.default_rng(0)
        n = 10
        cov = exact_covariance(COLLECTIVE, n, 1.3)
        j1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        j2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        z = 0.7 - 0.4j
        obs = [
            LinearObservable(j1),
            LinearObservable(j2),
            LinearObservable(j1 + j2),
            LinearObservable(z * j1),
        ]
        g = gram_exact(obs, cov).matrix
        assert g[2, 1] == pytest.approx(g[0, 1] + g[1, 1])
        assert g[0, 2] == pytest.approx(g[0, 0] + g[0, 1])
        assert g[3, 1] == pytest.approx(np.conj(z) * g[0, 1])
        assert g[1, 3] == pytest.approx(z * g[1, 0])

    def test_hermitian_by_construction_and_real_diagonal(self):
        rng = np.random.default_rng(1)
        n = 12
        cov = exact_covariance(COLLECTIVE, n, 1.0)
        obs = [
            LinearObservable(rng.normal(size=n) + 1j * rng.normal(size=n))
            for _ in range(4)
        ]
        result = gram_exact(obs, cov)
        np.testing.assert_array_equal(result.matrix, result.matrix.conj().T)
        assert np.all(np.abs(result.matrix.diagonal().imag) == 0.0)
        assert np.all(result.matrix.diagonal().real > 0.0)

    def test_sampled_gram_matches_exact_within_errors(self):
        rng = np.random.default_rng(2)
        n, beta = 16, 1.0
        cov = exact_covariance(COLLECTIVE, n, beta)
        obs = [
            LinearObservable(rng.normal(size=n) + 1j * rng.normal(size=n))
            for _ in range(3)
        ]
        samples = synthetic_collective_samples(rng, n, beta, 12_800)
        sampled = feed(GramAccumulator(obs, batch_len=100), samples).result()
        exact = gram_exact(obs, cov)
        min_eig = float(np.linalg.eigvalsh(sampled.matrix).min())
        assert min_eig >= -5.0 * max(sampled.stderr_re.max(), sampled.stderr_im.max())
        for i in range(3):
            for j in range(3):
                assert abs(sampled.matrix[i, j].real - exact.matrix[i, j].real) <= (
                    5.0 * sampled.stderr_re[i, j]
                )
                assert abs(sampled.matrix[i, j].imag - exact.matrix[i, j].imag) <= (
                    5.0 * sampled.stderr_im[i, j]
                )


    def test_state_samples_read_the_field(self):
        lattice, params, state = trajectory(5, COLLECTIVE, seed=2)
        rng = np.random.default_rng(3)
        n = lattice.site_count
        obs = [LinearObservable(rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(3)]
        from_states = GramAccumulator(obs, batch_len=4)
        from_fields = GramAccumulator(obs, batch_len=4)

        def observe(live):
            from_states.add(CoordinateBlock(live.basis, (live.x,)))
            from_fields.add(live.phi)

        run(state, params, 50, [observe])
        got, want = from_states.result(), from_fields.result()
        np.testing.assert_array_equal(got.matrix, want.matrix)
        np.testing.assert_array_equal(got.stderr_re, want.stderr_re)


class TestQuotient:
    def test_identity_gram_keeps_everything(self):
        transform, d = quotient_orthonormalize(np.eye(4, dtype=complex), tol=1e-9)
        assert d == 4
        np.testing.assert_allclose(
            transform.conj().T @ np.eye(4) @ transform, np.eye(4), atol=1e-12
        )

    def test_duplicate_observable_drops_one_dimension(self):
        cov = exact_covariance(FREE, 5, 1.0)
        base = unit_site_observable(5, 2)
        result = gram_exact([base, base], cov)
        transform, d = quotient_orthonormalize(result.matrix, tol=1e-9)
        assert d == 1
        np.testing.assert_allclose(
            transform.conj().T @ result.matrix @ transform, np.eye(1), atol=1e-12
        )

    def test_threshold_discards_tiny_eigenvalue(self):
        matrix = np.diag([2.0, 1e-15]).astype(complex)
        _transform, d = quotient_orthonormalize(matrix, tol=1e-9)
        assert d == 1

    def test_everything_null_is_an_error(self):
        with pytest.raises(AlgebraError):
            quotient_orthonormalize(np.zeros((3, 3), dtype=complex), tol=1e-9)

    def test_transformed_gram_is_identity_generic(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        matrix = raw @ raw.conj().T
        transform, d = quotient_orthonormalize(matrix, tol=1e-12)
        np.testing.assert_allclose(
            transform.conj().T @ matrix @ transform, np.eye(d), atol=1e-10
        )


def symmetric_power_ladder_factor(n):
    """Norms of symmetric powers of a unit vector: <O^n, O^n> = n!, so the
    normalized raising matrix element is sqrt((n+1)!/n!)."""
    return math.sqrt(math.factorial(n + 1) / math.factorial(n))


def dense(operand, dim):
    """The dim x dim matrix of a sparse operand, repeated entries summed."""
    matrix = np.zeros((dim, dim), dtype=complex)
    np.add.at(matrix, (operand.rows, operand.cols), operand.values)
    return matrix


def identity(rep):
    return SparseOperand.diagonal(np.ones(rep.dim))


def matrix_of(operator, rep):
    return dense(operator(identity(rep)), rep.dim)


def apply_to_vector(operator, rep, vec):
    return operator(SparseOperand.vector(vec)).to_vector(rep.dim)


def brute_force_occupations(d, n_max):
    """Every tuple in {0..n_max}^d with total at most n_max, sorted by
    (total, tuple)."""
    return sorted(
        (occ for occ in product(range(n_max + 1), repeat=d) if sum(occ) <= n_max),
        key=lambda occ: (sum(occ), occ),
    )


def dense_creation_ladders(rep):
    """First-principles dense raising ladders, one per mode: the basis state
    with occupation n goes to n + e_mode with amplitude sqrt(n_mode + 1)
    while the total stays within n_max."""
    occupations = [tuple(int(x) for x in occ) for occ in rep.occupations]
    index = {occ: pos for pos, occ in enumerate(occupations)}
    ladders = []
    for mode in range(rep.d):
        matrix = np.zeros((rep.dim, rep.dim))
        for pos, occ in enumerate(occupations):
            if sum(occ) < rep.n_max:
                raised = list(occ)
                raised[mode] += 1
                matrix[index[tuple(raised)], pos] = math.sqrt(occ[mode] + 1)
        ladders.append(matrix)
    return ladders


class TestFockBasis:
    @pytest.mark.parametrize("d, n_max", list(product(range(1, 5), range(0, 5))))
    def test_direct_enumeration_matches_brute_force(self, d, n_max):
        rep = FockRep.build(d, n_max)
        assert [tuple(occ) for occ in rep.occupations.tolist()] == brute_force_occupations(d, n_max)

    def test_products_beyond_the_bound_are_rejected(self):
        # dim 19 900 is within the dimension limit, but the identity checks
        # would form about d^2 * dim = 7.8e8 candidate entries
        with pytest.raises(AlgebraError, match="d\\^2 \\* dim"):
            FockRep.build(198, 2)

    def test_enumeration_does_not_visit_the_cube(self):
        # (1 + 1)^40 tuples: the brute force would never finish.
        rep = FockRep.build(40, 1)
        assert rep.dim == 41
        np.testing.assert_array_equal(rep.occupations[1:], np.fliplr(np.eye(40, dtype=int)))

    def test_stored_arrays_are_linear_in_dimension(self):
        # the occupations, and the index maps and amplitudes of both steps
        rep = FockRep.build(4, 6)
        arrays = [value for value in vars(rep).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 3
        assert sorted(array.size for array in arrays) == [rep.d * rep.dim] + [2 * rep.d * rep.dim] * 2


class TestFockLadders:
    def test_dimension_is_binomial(self):
        rep = FockRep.build(3, 4)
        assert rep.dim == math.comb(3 + 4, 3)

    def test_occupations_graded_lexicographic(self):
        rep = FockRep.build(2, 2)
        listed = [tuple(row) for row in rep.occupations]
        assert listed == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert listed[rep.vacuum_index] == (0, 0)

    def test_single_mode_ladder_entries_match_factorial_oracle(self):
        rep = FockRep.build(1, 2)
        matrix = matrix_of(creation_operator(np.array([1.0 + 0.0j]), rep), rep)
        assert matrix[1, 0] == pytest.approx(symmetric_power_ladder_factor(0))  # 1
        assert matrix[2, 1] == pytest.approx(symmetric_power_ladder_factor(1))  # sqrt 2
        assert np.count_nonzero(matrix) == 2

    def test_annihilation_entries_are_transpose(self):
        rep = FockRep.build(1, 2)
        matrix = matrix_of(annihilation_operator(np.array([1.0 + 0.0j]), rep), rep)
        assert matrix[0, 1] == pytest.approx(1.0)
        assert matrix[1, 2] == pytest.approx(math.sqrt(2.0))

    def test_creation_on_vacuum_gives_one_particle_state(self):
        rep = FockRep.build(3, 3)
        v = np.array([0.3, -0.5j, 0.8])
        state = apply_to_vector(creation_operator(v, rep), rep, rep.vacuum())
        one_particle = np.flatnonzero(rep.total_occupations() == 1)
        np.testing.assert_allclose(np.delete(state, one_particle), 0.0, atol=1e-15)
        # one-particle block carries exactly v (occupation order is by mode
        # with the raised mode read off each unit multi-index)
        recovered = np.zeros(3, dtype=complex)
        for idx in one_particle:
            mode = int(np.flatnonzero(rep.occupations[idx])[0])
            recovered[mode] = state[idx]
        np.testing.assert_allclose(recovered, v, atol=1e-15)

    def test_creation_is_linear(self):
        rep = FockRep.build(2, 3)
        u = np.array([0.2, -1.1j])
        w = np.array([0.5j, 0.3])
        alpha = 1.7 - 0.2j
        lhs = matrix_of(creation_operator(alpha * u + w, rep), rep)
        rhs = alpha * matrix_of(creation_operator(u, rep), rep) + matrix_of(
            creation_operator(w, rep), rep
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_annihilation_kills_vacuum(self):
        rep = FockRep.build(3, 2)
        rng = np.random.default_rng(5)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        np.testing.assert_array_equal(
            apply_to_vector(annihilation_operator(v, rep), rep, rep.vacuum()), 0.0
        )

    def test_adjoint_pairing_identity(self):
        rep = FockRep.build(2, 3)
        rng = np.random.default_rng(6)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
        g = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
        lhs = np.vdot(apply_to_vector(creation_operator(v, rep), rep, f), g)
        rhs = np.vdot(f, apply_to_vector(annihilation_operator(v, rep), rep, g))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_ccr_on_interior_subspace(self):
        rep = FockRep.build(3, 4)
        rng = np.random.default_rng(7)
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        a_u = annihilation_operator(u, rep)
        a_w = annihilation_operator(w, rep)
        c_w = creation_operator(w, rep)
        one = identity(rep)
        interior = rep.interior_indices()
        assert (a_u(a_w(one)) - a_w(a_u(one))).max_abs() <= 1e-12
        mixed = a_u(c_w(one)) - c_w(a_u(one)) - SparseOperand.diagonal(
            np.full(rep.dim, np.vdot(u, w))
        )
        assert mixed.max_abs(within=interior) <= 1e-12

    def test_truncation_boundary_breaks_ccr_outside_interior(self):
        # On the full truncated space the mixed commutator must deviate:
        # the interior restriction is what makes it an exact identity.
        rep = FockRep.build(2, 3)
        u = np.array([1.0 + 0j, 0.0])
        a_u = annihilation_operator(u, rep)
        c_u = creation_operator(u, rep)
        one = identity(rep)
        mixed = a_u(c_u(one)) - c_u(a_u(one)) - one
        assert mixed.max_abs() > 0.5

    def test_number_operator_counts_total_occupation(self):
        rep = FockRep.build(3, 3)
        np.testing.assert_allclose(
            dense(number_operator(rep), rep.dim), np.diag(rep.total_occupations()), atol=1e-12
        )

    def test_interior_requires_positive_truncation(self):
        rep = FockRep.build(2, 0)
        with pytest.raises(AlgebraError):
            rep.interior_indices()


class TestSparseAgainstDenseReference:
    """The sparse ladders and their products against dense matrices built
    from first principles, on the full truncated space."""

    SHAPES = [(1, 3), (2, 1), (2, 4), (3, 3), (4, 2)]

    @pytest.mark.parametrize("d, n_max", SHAPES)
    def test_mode_ladders_equal_dense_reference(self, d, n_max):
        rep = FockRep.build(d, n_max)
        for unit, ladder in zip(np.eye(d), dense_creation_ladders(rep)):
            np.testing.assert_array_equal(matrix_of(creation_operator(unit, rep), rep), ladder)
            np.testing.assert_array_equal(
                matrix_of(annihilation_operator(unit, rep), rep), ladder.T
            )

    @pytest.mark.parametrize("d, n_max", SHAPES)
    def test_products_and_commutators_equal_dense_matmuls(self, d, n_max):
        rep = FockRep.build(d, n_max)
        rng = np.random.default_rng(13)
        u, w = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
        ladders = dense_creation_ladders(rep)
        c_dense = {
            "u": sum(coef * ladder for coef, ladder in zip(u, ladders)),
            "w": sum(coef * ladder for coef, ladder in zip(w, ladders)),
        }
        dense_ops = {
            "c_u": c_dense["u"],
            "c_w": c_dense["w"],
            "a_u": c_dense["u"].conj().T,
            "a_w": c_dense["w"].conj().T,
        }
        sparse_ops = {
            "c_u": creation_operator(u, rep),
            "c_w": creation_operator(w, rep),
            "a_u": annihilation_operator(u, rep),
            "a_w": annihilation_operator(w, rep),
        }
        one = identity(rep)
        for left, right in product(sparse_ops, repeat=2):
            product_sparse = dense(sparse_ops[left](sparse_ops[right](one)), rep.dim)
            product_dense = dense_ops[left] @ dense_ops[right]
            np.testing.assert_allclose(product_sparse, product_dense, rtol=0, atol=1e-14)
            commutator = sparse_ops[left](sparse_ops[right](one)) - sparse_ops[right](
                sparse_ops[left](one)
            )
            reference = product_dense - dense_ops[right] @ dense_ops[left]
            np.testing.assert_allclose(dense(commutator, rep.dim), reference, rtol=0, atol=1e-14)
            assert commutator.max_abs() == pytest.approx(np.abs(reference).max(), abs=1e-14)


@pytest.fixture
def oracle_context():
    rng = np.random.default_rng(8)
    n = 20
    cov = exact_covariance(COLLECTIVE, n, 1.0)
    observables = [
        LinearObservable(rng.normal(size=n) + 1j * rng.normal(size=n), label=f"o{i}")
        for i in range(3)
    ]
    return HilbertContext.from_covariance(observables, cov)


class TestFieldOperators:
    def test_field_operator_is_hermitian(self, oracle_context):
        rep = FockRep.build(oracle_context.d, 4)
        op = matrix_of(field_operator(oracle_context.observables[0], oracle_context, rep), rep)
        np.testing.assert_allclose(op, op.conj().T, atol=1e-13)

    def test_vacuum_variance_equals_norm(self, oracle_context):
        rep = FockRep.build(oracle_context.d, 4)
        obs = oracle_context.observables[1]
        op = field_operator(obs, oracle_context, rep)
        vacuum = rep.vacuum()
        variance = np.vdot(vacuum, apply_to_vector(op, rep, apply_to_vector(op, rep, vacuum)))
        assert variance == pytest.approx(
            oracle_context.inner_product(obs, obs), abs=1e-10
        )

    def test_commutator_identity_on_interior(self, oracle_context):
        rep = FockRep.build(oracle_context.d, 4)
        rng = np.random.default_rng(9)
        stack = np.stack([o.coeffs for o in oracle_context.observables], axis=1)
        obs_a = LinearObservable(stack @ (rng.normal(size=3) + 1j * rng.normal(size=3)))
        obs_b = LinearObservable(stack @ (rng.normal(size=3) + 1j * rng.normal(size=3)))
        assert commutator_check(obs_a, obs_b, oracle_context, rep) <= 1e-12

    def test_same_observable_commutes(self, oracle_context):
        rep = FockRep.build(oracle_context.d, 4)
        obs = oracle_context.observables[2]
        assert commutator_check(obs, obs, oracle_context, rep) <= 1e-13

    def test_real_scaled_pair_commutes(self, oracle_context):
        rep = FockRep.build(oracle_context.d, 4)
        obs = oracle_context.observables[0]
        scaled = LinearObservable(2.5 * obs.coeffs)
        assert commutator_check(obs, scaled, oracle_context, rep) <= 1e-12

    def test_observable_outside_span_is_rejected(self, oracle_context):
        rep = FockRep.build(oracle_context.d, 4)
        n = oracle_context.observables[0].coeffs.shape[0]
        rng = np.random.default_rng(10)
        outsider = LinearObservable(rng.normal(size=n) + 1j * rng.normal(size=n))
        with pytest.raises(AlgebraError):
            field_operator(outsider, oracle_context, rep)

    def test_dimension_mismatch_rejected(self, oracle_context):
        rep = FockRep.build(oracle_context.d + 1, 3)
        with pytest.raises(ValueError):
            field_operator(oracle_context.observables[0], oracle_context, rep)

    def test_report_all_green_on_oracle_context(self, oracle_context):
        rep = FockRep.build(oracle_context.d, 4)
        results = algebra_report(oracle_context, rep, rng_seed=123)
        names = {r.name for r in results}
        assert {"gram_hermitian", "ccr_mixed", "adjointness", "field_commutator"} <= names
        for result in results:
            assert result.passed, f"{result.name}: {result.deviation:.3e}"

    def test_report_flags_a_wrong_adjoint(self, oracle_context, monkeypatch):
        # c(2u) paired against a(u): the lowering-ladder half of the check
        # never builds a creation operator, so only the pairing can fail
        creation = operator_algebra.creation_operator
        monkeypatch.setattr(
            operator_algebra, "creation_operator", lambda v, rep: creation(2.0 * v, rep)
        )
        rep = FockRep.build(oracle_context.d, 4)
        results = {r.name: r for r in algebra_report(oracle_context, rep, rng_seed=123)}
        assert not results["adjointness"].passed
        assert results["adjointness"].deviation > 1e6 * results["adjointness"].tolerance


# Reference copies of the identity suite as it stood before the ladders read
# stored amplitudes and the commutator checks used interior columns: the
# loop-built index maps, the per-side ladders, the unique-key duplicate sum
# and the report with its loop-built lowering ladders.  The package must
# reproduce their maps and deviations bit for bit.


class ReferenceRep:
    def __init__(self, d, n_max):
        dim = math.comb(d + n_max, d)
        multisets = [
            modes
            for total in range(n_max + 1)
            for modes in reversed(list(combinations_with_replacement(range(d), total)))
        ]
        occupations = np.zeros((dim, d), dtype=int)
        rows = np.repeat(np.arange(dim), [len(modes) for modes in multisets])
        np.add.at(occupations, (rows, np.fromiter(chain.from_iterable(multisets), int)), 1)
        index = {modes: pos for pos, modes in enumerate(multisets)}
        raised = np.full((d, dim), -1)
        for pos in range(math.comb(d + n_max - 1, d)):  # the states below total n_max
            for mode in range(d):
                raised[mode, pos] = index[tuple(sorted(multisets[pos] + (mode,)))]
        lowered = np.full((d, dim), -1)
        mode_of, source = np.nonzero(raised >= 0)
        lowered[mode_of, raised[mode_of, source]] = source
        self.d, self.n_max, self.occupations = d, n_max, occupations
        self._raised, self._lowered = raised, lowered

    @property
    def dim(self):
        return self.occupations.shape[0]

    def vacuum(self):
        vec = np.zeros(self.dim, dtype=complex)
        vec[0] = 1.0
        return vec

    def total_occupations(self):
        return self.occupations.sum(axis=1)

    def interior_indices(self):
        return np.flatnonzero(self.total_occupations() <= self.n_max - 1)


def reference_max_abs(operand, within=None):
    rows, cols, values = operand.rows, operand.cols, operand.values
    if within is not None:
        inside = np.isin(rows, within) & np.isin(cols, within)
        rows, cols, values = rows[inside], cols[inside], values[inside]
    if values.size == 0:
        return 0.0
    _, entry = np.unique(rows * (int(cols.max()) + 1) + cols, return_inverse=True)
    summed = np.bincount(entry, values.real) + 1j * np.bincount(entry, values.imag)
    return float(np.abs(summed).max())


@dataclass(frozen=True)
class ReferenceLadder:
    rep: ReferenceRep
    raising: np.ndarray
    lowering: np.ndarray

    def __call__(self, operand):
        rep = self.rep
        return SparseOperand.concatenate(
            (
                self._ladders(self.raising, rep._raised, operand, up=True),
                self._ladders(self.lowering, rep._lowered, operand, up=False),
            )
        )

    def _ladders(self, coeffs, targets, operand, up):
        modes = np.flatnonzero(coeffs)
        target = targets[modes][:, operand.rows]
        keep = target >= 0
        # the amplitude sqrt(n_m + 1) of a ladder step belongs to its lower state
        lower = operand.rows[None, :] if up else target
        amplitude = np.sqrt(self.rep.occupations[lower, modes[:, None]] + 1.0)
        values = coeffs[modes, None] * amplitude * operand.values
        cols = np.broadcast_to(operand.cols, target.shape)
        return SparseOperand(target[keep], cols[keep], values[keep])


def reference_creation(v, rep):
    v = np.asarray(v, dtype=complex)
    return ReferenceLadder(rep, v, np.zeros_like(v))


def reference_annihilation(v, rep):
    v = np.asarray(v, dtype=complex)
    return ReferenceLadder(rep, np.zeros_like(v), v.conj())


def reference_field(obs, context, rep):
    v = context.coords(obs)
    return ReferenceLadder(rep, v, v.conj())


def reference_commutator(op_a, op_b, operand):
    return op_a(op_b(operand)) - op_b(op_a(operand))


def reference_commutator_check(obs_a, obs_b, context, rep):
    interior = rep.interior_indices()
    op_a = reference_field(obs_a, context, rep)
    op_b = reference_field(obs_b, context, rep)
    identity = SparseOperand.diagonal(np.ones(rep.dim))
    expected = 2j * np.imag(context.inner_product(obs_a, obs_b))
    deviation = reference_commutator(op_a, op_b, identity) - SparseOperand.diagonal(
        np.full(rep.dim, expected)
    )
    return reference_max_abs(deviation, within=interior)


def reference_report(context, rep, rng_seed):
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    interior = rep.interior_indices()
    results = []

    gram_matrix = context.gram.matrix
    results.append(
        ("gram_hermitian", float(np.abs(gram_matrix - gram_matrix.conj().T).max()), ALGEBRA_TOL)
    )
    eigvals = np.linalg.eigvalsh(gram_matrix)
    psd_tol = ALGEBRA_TOL * max(eigvals[-1], 1.0)
    results.append(("gram_positive", max(0.0, -float(eigvals[0])), psd_tol))

    identity = SparseOperand.diagonal(np.ones(rep.dim))
    u = rng.normal(size=rep.d) + 1j * rng.normal(size=rep.d)
    w = rng.normal(size=rep.d) + 1j * rng.normal(size=rep.d)
    a_u, a_w = reference_annihilation(u, rep), reference_annihilation(w, rep)
    c_u, c_w = reference_creation(u, rep), reference_creation(w, rep)
    results.append(
        (
            "ccr_annihilation_pair",
            reference_max_abs(reference_commutator(a_u, a_w, identity)),
            ALGEBRA_TOL,
        )
    )
    results.append(
        ("ccr_creation_pair", reference_max_abs(reference_commutator(c_u, c_w, identity)), ALGEBRA_TOL)
    )
    mixed = reference_commutator(a_u, c_w, identity) - SparseOperand.diagonal(
        np.full(rep.dim, complex(np.vdot(u, w)))
    )
    results.append(("ccr_mixed", reference_max_abs(mixed, within=interior), ALGEBRA_TOL))

    # Lowering ladder rebuilt from first principles: sqrt(n_i) on occupation i.
    lowering_dev = 0.0
    occupations = [tuple(occ) for occ in rep.occupations.tolist()]
    index = {occ: pos for pos, occ in enumerate(occupations)}
    for mode in range(rep.d):
        rows, cols, values = [], [], []
        for pos, occ in enumerate(occupations):
            if occ[mode] > 0:
                lowered = list(occ)
                lowered[mode] -= 1
                rows.append(index[tuple(lowered)])
                cols.append(pos)
                values.append(math.sqrt(occ[mode]))
        direct = SparseOperand(
            np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(values, dtype=complex)
        )
        basis_vec = np.zeros(rep.d)
        basis_vec[mode] = 1.0
        ladder = reference_annihilation(basis_vec, rep)(identity)
        lowering_dev = max(lowering_dev, reference_max_abs(ladder - direct))
    vec_f = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    vec_g = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    vec_f /= np.linalg.norm(vec_f)
    vec_g /= np.linalg.norm(vec_g)
    raised_f = c_u(SparseOperand.vector(vec_f)).to_vector(rep.dim)
    lowered_g = a_u(SparseOperand.vector(vec_g)).to_vector(rep.dim)
    pairing_dev = abs(np.vdot(raised_f, vec_g) - np.vdot(vec_f, lowered_g))
    results.append(("adjointness", max(lowering_dev, float(pairing_dev)), ALGEBRA_TOL))

    counted = SparseOperand.concatenate(
        [
            reference_creation(unit, rep)(reference_annihilation(unit, rep)(identity))
            for unit in np.eye(rep.d)
        ]
    ) - SparseOperand.diagonal(rep.total_occupations())
    results.append(("number_operator", reference_max_abs(counted), ALGEBRA_TOL))

    coeff_stack = np.stack([obs.coeffs for obs in context.observables], axis=1)
    span_basis = coeff_stack @ context.transform
    combo_real = LinearObservable(span_basis @ rng.normal(size=context.d))
    op_real = reference_field(combo_real, context, rep)(identity)
    adjoint = SparseOperand(op_real.cols, op_real.rows, op_real.values.conj())
    results.append(("field_hermitian", reference_max_abs(op_real - adjoint), ALGEBRA_TOL))

    mix = rng.normal(size=(2, context.d)) + 1j * rng.normal(size=(2, context.d))
    combo_a = LinearObservable(span_basis @ mix[0])
    combo_b = LinearObservable(span_basis @ mix[1])
    results.append(
        (
            "field_commutator",
            reference_commutator_check(combo_a, combo_b, context, rep),
            ALGEBRA_TOL,
        )
    )

    op_a = reference_field(combo_a, context, rep)
    vacuum = rep.vacuum()
    excited = op_a(op_a(SparseOperand.vector(vacuum))).to_vector(rep.dim)
    variance = complex(np.vdot(vacuum, excited))
    expected = context.inner_product(combo_a, combo_a)
    results.append(
        ("vacuum_field_variance", abs(variance - expected), ALGEBRA_TOL * max(1.0, abs(expected)))
    )
    return results


def random_context(d, seed):
    """A context of d random observables on enough sites to keep all d."""
    rng = np.random.default_rng(seed)
    n = d + 9
    cov = exact_covariance(COLLECTIVE, n, 1.0)
    observables = [LinearObservable(rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(d)]
    context = HilbertContext.from_covariance(observables, cov)
    assert context.d == d
    return context


def bits(value):
    return float(value).hex()


REFERENCE_SHAPES = [(1, 1), (1, 6), (2, 3), (3, 5), (5, 8), (7, 2), (11, 3), (40, 1)]


class TestAgainstLoopReference:
    @pytest.mark.parametrize("d, n_max", REFERENCE_SHAPES)
    def test_index_maps_equal_loop_built_maps(self, d, n_max):
        rep, reference = FockRep.build(d, n_max), ReferenceRep(d, n_max)
        np.testing.assert_array_equal(rep.occupations, reference.occupations)
        np.testing.assert_array_equal(rep._maps[0], reference._raised)
        np.testing.assert_array_equal(rep._maps[1], reference._lowered)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d, n_max", REFERENCE_SHAPES)
    def test_report_deviations_are_bitwise_the_reference(self, d, n_max, seed):
        context = random_context(d, seed)
        got = algebra_report(context, FockRep.build(d, n_max), rng_seed=seed)
        want = reference_report(context, ReferenceRep(d, n_max), rng_seed=seed)
        assert [r.name for r in got] == [name for name, _, _ in want]
        for result, (name, deviation, tolerance) in zip(got, want):
            assert result.tolerance == tolerance, name
            if (d, n_max, name) == (1, 1, "ccr_mixed") and bits(result.deviation) != bits(deviation):
                # The reference multiplied the lone entry of a_u c_w |0> as a
                # (1, 1) by (1,) broadcast, which numpy evaluates without a
                # fused multiply-add, unlike every larger product; the interior
                # column gives a one-entry 1-D product, which it fuses.  The
                # two may differ by one rounding of conj(u) w.
                u_re, u_im, w_re, w_im = np.random.Generator(np.random.PCG64(seed)).normal(size=4)
                product_size = abs(complex(u_re, -u_im) * complex(w_re, w_im))
                assert abs(result.deviation - deviation) <= 2 * np.finfo(float).eps * product_size
                continue
            assert bits(result.deviation) == bits(deviation), name


class TestInteriorColumns:
    @pytest.mark.parametrize("d, n_max", [(2, 1), (3, 4), (11, 3)])
    def test_field_commutator_on_interior_columns_is_the_interior_block(self, d, n_max):
        context = random_context(d, 5)
        rep = FockRep.build(d, n_max)
        op_a, op_b = (field_operator(obs, context, rep) for obs in context.observables[:2])
        interior = rep.interior_indices()
        full = operator_algebra._commutator(op_a, op_b, np.arange(rep.dim))
        block = np.isin(full.rows, interior) & np.isin(full.cols, interior)
        part = operator_algebra._commutator(op_a, op_b, interior)
        inside = np.isin(part.rows, interior)
        np.testing.assert_array_equal(part.rows[inside], full.rows[block])
        np.testing.assert_array_equal(part.cols[inside], full.cols[block])
        np.testing.assert_array_equal(part.values[inside].view(float), full.values[block].view(float))

    def test_commutator_check_memory_follows_the_interior(self):
        # Applied to all 364 columns of the identity at once, the products
        # and the duplicate sum peaked at 2.0 MB; on the 78 interior
        # columns, 1.0 MB; on runs of them, 0.34 MB.
        context = random_context(11, 5)
        rep = FockRep.build(11, 3)
        obs_a, obs_b = context.observables[:2]
        commutator_check(obs_a, obs_b, context, rep)
        tracemalloc.start()
        try:
            commutator_check(obs_a, obs_b, context, rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20


def count_commutator_runs(monkeypatch):
    """Record the columns and entries of every `_commutator` call."""
    runs = []
    commutator = operator_algebra._commutator

    def recorded(op_a, op_b, columns, expected=None):
        result = commutator(op_a, op_b, columns, expected)
        runs.append((columns.size, result.rows.size))
        return result

    monkeypatch.setattr(operator_algebra, "_commutator", recorded)
    return runs


class TestColumnRuns:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d, n_max", REFERENCE_SHAPES)
    def test_one_column_per_run_gives_the_bits_of_one_run(self, d, n_max, seed, monkeypatch):
        context = random_context(d, seed)
        rep = FockRep.build(d, n_max)
        runs = count_commutator_runs(monkeypatch)
        monkeypatch.setattr(operator_algebra, "PRODUCT_BLOCK_ENTRIES", 2**62)
        whole = algebra_report(context, rep, rng_seed=seed)
        assert len(runs) == 4  # both ladder pairs, the mixed pair and the fields
        monkeypatch.setattr(operator_algebra, "PRODUCT_BLOCK_ENTRIES", 1)
        del runs[:]
        single = algebra_report(context, rep, rng_seed=seed)
        interior = rep.interior_indices().size
        assert [columns for columns, _ in runs] == [1] * (interior + 2 * rep.dim + interior)
        assert [r.name for r in single] == [r.name for r in whole]
        for got, want in zip(single, whole):
            assert bits(got.deviation) == bits(want.deviation), got.name

    @pytest.mark.parametrize("d, n_max", [(5, 8), (11, 3), (47, 1)])
    def test_runs_hold_at_most_the_block_entries(self, d, n_max, monkeypatch):
        context = random_context(d, 3)
        rep = FockRep.build(d, n_max)
        runs = count_commutator_runs(monkeypatch)
        monkeypatch.setattr(operator_algebra, "PRODUCT_BLOCK_ENTRIES", 2**10)
        algebra_report(context, rep, rng_seed=3)
        assert any(columns > 1 for columns, _ in runs)
        # entries are the candidates kept, plus one expected value per column
        assert all(columns == 1 or entries <= 2**10 + columns for columns, entries in runs)

    def test_report_memory_is_bounded(self):
        # The deep benchmark shape: with every commutator applied to all its
        # columns at once the report peaked at 7.9 MiB; on runs of columns,
        # 2.2 MiB.
        context = random_context(5, 5)
        rep = FockRep.build(5, 8)
        algebra_report(context, rep)
        tracemalloc.start()
        try:
            algebra_report(context, rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


def traced_peak(compute):
    """The peak of memory traced while `compute()` runs, after one untraced
    call that leaves any lazily built state in place."""
    compute()
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneLadderMemory:
    """Each check that applies a ladder to all columns of the identity, or
    to a dense vector, holds its kept entries and O(dim) candidates; the
    basis build, its tables.  At d = 30, n_max = 3 (dim 5456) each bound
    lies between the peak measured here and the peak of the identity suite
    when its ladders formed width x operand candidate arrays (quoted)."""

    D, N_MAX = 30, 3

    @pytest.fixture(scope="class")
    def rep(self):
        return FockRep.build(self.D, self.N_MAX)

    def test_basis_build_holds_its_tables(self, rep):
        # 1.06 x the tables, against 1.83 x with a (d * below, d) tile of
        # raised rows and stacked amplitude copies
        tables = rep.occupations.nbytes + rep._maps.nbytes + rep._amplitudes.nbytes
        assert traced_peak(lambda: FockRep.build(self.D, self.N_MAX)) < 1.4 * tables

    def test_field_hermiticity_holds_its_kept_entries(self, rep):
        # 100 bytes per kept entry of the field operator, against 212 when
        # the operator minus its adjoint was formed as a list of entries
        context = random_context(self.D, 4)
        field = field_operator(context.observables[0], context, rep)
        kept = field(identity(rep)).rows.size
        peak = traced_peak(lambda: field(identity(rep)).hermitian_deviation())
        assert peak < 150 * kept

    def test_adjointness_holds_its_kept_entries(self, rep):
        # 0.20 x the tables, against 0.72 x with every mode's lowered rows
        # at once and width x dim candidates for the vector pairing
        rng = np.random.default_rng(4)
        u = rng.normal(size=self.D) + 1j * rng.normal(size=self.D)
        vec_f, vec_g = rng.normal(size=(2, rep.dim)) + 1j * rng.normal(size=(2, rep.dim))
        creation, annihilation = creation_operator(u, rep), annihilation_operator(u, rep)
        peak = traced_peak(
            lambda: operator_algebra._adjointness_deviation(
                rep, creation, annihilation, vec_f, vec_g
            )
        )
        tables = rep.occupations.nbytes + rep._maps.nbytes + rep._amplitudes.nbytes
        assert peak < 0.4 * tables

    def test_number_operator_check_holds_its_entries(self, rep):
        # 66 bytes per entry of the number operator minus the diagonal,
        # against 87 with a copy of each duplicate-sum operand
        entries = number_operator(rep).rows.size + rep.dim
        peak = traced_peak(lambda: operator_algebra._number_deviation(rep))
        assert peak < 76 * entries


def packet_gram(spacelike, timelike, lattice, cov):
    """The exact Gram matrix of the four packet observables."""
    return gram_exact(packet_observables(spacelike, timelike, lattice, 1.0), cov)


class TestMicrocausality:
    def lattice(self):
        return MomentumLattice(9, 0.25)

    def test_equal_centers_have_zero_kernel(self):
        lattice = self.lattice()
        cov = exact_covariance(FREE, lattice.site_count, 1.0)
        packet = GaussianPacket((0.3, 0.1, 0.0, 0.0), sigma_p=0.4)
        spacelike = (packet, packet)
        _, timelike = standard_packet_configuration(1.5, 0.4)
        result = microcausality_ratio(packet_gram(spacelike, timelike, lattice, cov))
        assert result.k_spacelike == 0.0
        assert result.ratio == 0.0

    def test_matches_direct_sum_oracle(self):
        lattice = self.lattice()
        beta = 1.0
        cov = exact_covariance(FREE, lattice.site_count, beta)
        spacelike, timelike = standard_packet_configuration(1.5, 0.4)
        result = microcausality_ratio(packet_gram(spacelike, timelike, lattice, cov))

        def oracle(pair):
            delta = np.asarray(pair[1].center) - np.asarray(pair[0].center)
            return smeared_commutator(
                lattice,
                1.0,
                beta,
                packet_envelope(pair[0], lattice),
                packet_envelope(pair[1], lattice),
                delta,
            )

        assert result.k_spacelike == pytest.approx(oracle(spacelike), abs=1e-12)
        assert result.k_timelike == pytest.approx(oracle(timelike), abs=1e-12)
        assert result.ratio == pytest.approx(
            abs(oracle(spacelike)) / abs(oracle(timelike)), abs=1e-10
        )

    def test_generic_spacelike_separation_is_suppressed(self):
        # Offset the pair in time as well, so the lattice sum is not exactly
        # zero by symmetry.  Packets of momentum width sigma_p have spatial
        # width ~1/sigma_p, so suppression requires the separation to exceed
        # the light cone by several spatial widths.
        lattice = MomentumLattice(25, 0.3)
        cov = exact_covariance(FREE, lattice.site_count, 1.0)
        spacelike = (
            GaussianPacket((0.0, -2.0, 0.0, 0.0), sigma_p=1.0),
            GaussianPacket((0.5, 2.0, 0.0, 0.0), sigma_p=1.0),
        )
        _, timelike = standard_packet_configuration(2.5, 1.0)
        result = microcausality_ratio(packet_gram(spacelike, timelike, lattice, cov))
        assert 0.0 < result.ratio <= 0.05

    def test_sampled_source_agrees_with_exact_source(self):
        rng = np.random.default_rng(12)
        lattice = MomentumLattice(3, 0.3)
        beta = 1.0
        cov = exact_covariance(COLLECTIVE, lattice.site_count, beta)
        spacelike, timelike = standard_packet_configuration(1.5, 0.5)
        exact = microcausality_ratio(packet_gram(spacelike, timelike, lattice, cov))
        samples = synthetic_collective_samples(rng, lattice.site_count, beta, 12_800)
        observables = packet_observables(spacelike, timelike, lattice, 1.0)
        gram = feed(GramAccumulator(observables, batch_len=100), samples).result()
        sampled = microcausality_ratio(gram)
        assert sampled.se_ratio is not None
        assert abs(sampled.ratio - exact.ratio) <= 5.0 * sampled.se_ratio

    @pytest.mark.parametrize("kind", [FREE, COLLECTIVE])
    def test_error_bars_leave_the_ratio_and_its_floor_alone(self, kind):
        # At beta = 1e13 the timelike kernel is ~3e-11.  The floor scales
        # with the Gram matrix, so the same matrix passes with or without
        # error bars, and gives the same ratio.
        lattice = MomentumLattice(25, 0.1)
        cov = exact_covariance(kind, lattice.site_count, 1e13)
        exact = packet_gram(*standard_packet_configuration(), lattice, cov)
        se = np.full((4, 4), 1e-22)
        sampled = microcausality_ratio(GramMatrix(exact.matrix, se, se))
        reference = microcausality_ratio(exact)
        assert reference.se_ratio is None and sampled.se_ratio > 0.0
        assert (sampled.k_spacelike, sampled.k_timelike, sampled.ratio) == (
            reference.k_spacelike,
            reference.k_timelike,
            reference.ratio,
        )
        assert reference.ratio <= 0.05

    def test_vanishing_timelike_reference_is_an_error(self):
        lattice = self.lattice()
        cov = exact_covariance(FREE, lattice.site_count, 1.0)
        packet = GaussianPacket((0.0, 0.0, 0.0, 0.0), sigma_p=0.3)
        degenerate = (packet, packet)  # zero separation: kernel identically 0
        with pytest.raises(AlgebraError):
            microcausality_ratio(packet_gram(degenerate, degenerate, lattice, cov))

    def test_packet_coefficients_carry_center_phase(self):
        lattice = MomentumLattice(3, 0.5)
        packet = GaussianPacket((0.7, 0.2, -0.1, 0.4), sigma_p=0.3)
        coeffs = packet_coefficients(packet, lattice, mass=1.0)
        from rsft.lattice import omega

        idx = 13
        p = lattice.site_momentum(idx)
        expected_phase = omega(p, 1.0) * 0.7 - p @ np.array([0.2, -0.1, 0.4])
        expected = np.exp(-(p @ p) / (2 * 0.3**2)) * np.exp(1j * expected_phase)
        assert coeffs[idx] == pytest.approx(expected, rel=1e-12)


class TestLinearObservable:
    def test_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            LinearObservable(np.zeros(4))

    def test_evaluate_is_plain_contraction(self):
        obs = LinearObservable(np.array([1.0, 2.0j]))
        assert obs.evaluate(np.array([0.5, 0.25])) == pytest.approx(0.5 + 0.5j)
