import math
import tracemalloc

import numpy as np
import pytest

from rsft.action import MatterActionKind
from rsft.estimators import GridSpec
from rsft.lattice import MomentumLattice, omega
from rsft.oracles import (
    PHASE_BLOCK_ELEMENTS,
    exact_covariance,
    expected_correlator,
    pauli_jordan_discrete,
    smeared_commutator,
)

FREE = MatterActionKind.FREE
COLLECTIVE = MatterActionKind.FREE_COLLECTIVE


def dense_matrix(cov):
    """The N x N matrix of a closed-form covariance, the dense reference for
    its matvec and for the correlator double sum."""
    out = np.full((cov.n_sites, cov.n_sites), cov.offdiag)
    np.fill_diagonal(out, cov.diag)
    return out


def gauss_legendre_moments_2d(beta, half_width=8.0, nodes=400):
    """Second moments of the two-site collective density
    exp(-beta/2 (x^2 + y^2) - beta/2 (x + y)^2) by product quadrature."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = x * half_width
    w = w * half_width
    xx, yy = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w)
    density = np.exp(-0.5 * beta * (xx**2 + yy**2) - 0.5 * beta * (xx + yy) ** 2)
    norm = np.sum(ww * density)
    second = np.sum(ww * density * xx * xx) / norm
    cross = np.sum(ww * density * xx * yy) / norm
    return second, cross


class TestExactCovariance:
    def test_free_is_diagonal(self):
        cov = exact_covariance(FREE, 10, 1.0)
        assert cov.diag == 1.0
        assert cov.offdiag == 0.0
        # +0.0, not -0.0: the covariance block CSV prints the sign
        assert math.copysign(1.0, cov.offdiag) == 1.0

    def test_free_beta_scaling(self):
        cov = exact_covariance(FREE, 10, 2.5)
        assert cov.diag == pytest.approx(0.4)

    def test_collective_two_sites_closed_form(self):
        cov = exact_covariance(COLLECTIVE, 2, 1.0)
        np.testing.assert_allclose(dense_matrix(cov), [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]])

    def test_collective_two_sites_against_quadrature(self):
        second, cross = gauss_legendre_moments_2d(beta=1.0)
        cov = exact_covariance(COLLECTIVE, 2, 1.0)
        assert second == pytest.approx(cov.diag, abs=1e-6)
        assert cross == pytest.approx(cov.offdiag, abs=1e-6)

    @pytest.mark.parametrize("kind, coupling", [(FREE, 0.0), (COLLECTIVE, 1.0)])
    @pytest.mark.parametrize("n", [2, 5, 33, 1000])
    def test_inverts_precision_matrix(self, kind, coupling, n):
        # C must invert beta M = beta (I + c ones ones^T); dense check at
        # small n, matvec identity at large n.
        beta = 1.3
        cov = exact_covariance(kind, n, beta)
        if n <= 64:
            precision = beta * (np.eye(n) + coupling * np.ones((n, n)))
            np.testing.assert_allclose(dense_matrix(cov) @ precision, np.eye(n), atol=1e-12)
        rng = np.random.default_rng(n)
        v = rng.normal(size=n)
        image = beta * (cov.matvec(v) + coupling * np.sum(cov.matvec(v)))
        np.testing.assert_allclose(image, v, atol=1e-10)

    def test_row_sum_identity(self):
        cov = exact_covariance(COLLECTIVE, 2, 1.0)
        assert cov.row_sum() == pytest.approx(1 / 3)
        cov_n = exact_covariance(COLLECTIVE, 99, 2.0)
        assert cov_n.row_sum() == pytest.approx(1.0 / (2.0 * 100))

    def test_matvec_matches_dense(self):
        cov = exact_covariance(COLLECTIVE, 17, 0.7)
        v = np.random.default_rng(3).normal(size=17)
        np.testing.assert_allclose(cov.matvec(v), dense_matrix(cov) @ v, atol=1e-13)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            exact_covariance(FREE, 0, 1.0)
        with pytest.raises(ValueError):
            exact_covariance(FREE, 3, 0.0)


def brute_force_correlator(cov_matrix, lattice, mass, points):
    """Literal double sum over site pairs: sum_{p',p} C_{p'p} e^{i theta_p}."""
    momenta = lattice.site_momenta()
    freqs = omega(momenta, mass)
    out = np.empty(len(points), dtype=complex)
    for g, y in enumerate(points):
        phases = np.exp(1j * (freqs * y[0] - momenta @ np.asarray(y[1:])))
        out[g] = np.sum(cov_matrix @ phases)
    return out


def direct_phase_angles(lattice, mass, points):
    """The whole (G, N) array of angles omega_p y0 - p . yvec at once: the
    reference for the oracles' blocked sums."""
    momenta = lattice.site_momenta()
    return np.outer(points[:, 0], omega(momenta, mass)) - points[:, 1:] @ momenta.T


class TestExpectedCorrelator:
    def grid(self):
        return np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [0.7, 0.0, 0.0, 0.0],
                [-0.7, 0.0, 0.0, 0.0],
                [0.4, 0.3, -0.2, 0.1],
                [1.5, -1.0, 0.0, 0.5],
            ]
        )

    def test_free_at_origin_counts_sites(self):
        lattice = MomentumLattice(5, 0.1)
        value = expected_correlator(FREE, lattice, 1.0, 2.0, np.zeros((1, 4)))[0]
        assert value == pytest.approx(lattice.site_count / 2.0)

    def test_time_reflection_conjugates(self):
        lattice = MomentumLattice(5, 0.1)
        grid = self.grid()
        values = expected_correlator(FREE, lattice, 1.0, 1.0, grid)
        assert values[2] == pytest.approx(np.conj(values[1]), rel=1e-12)

    @pytest.mark.parametrize("kind", [FREE, COLLECTIVE])
    def test_matches_brute_force_double_sum(self, kind):
        lattice = MomentumLattice(5, 0.13)
        beta, mass = 1.7, 0.8
        cov = exact_covariance(kind, lattice.site_count, beta)
        fast = expected_correlator(kind, lattice, mass, beta, self.grid())
        brute = brute_force_correlator(dense_matrix(cov), lattice, mass, self.grid())
        np.testing.assert_allclose(fast, brute, atol=1e-10)

    @pytest.mark.parametrize("kind", [FREE, COLLECTIVE])
    def test_blocked_sums_match_the_direct_sum(self, kind):
        lattice = MomentumLattice(11, 0.1)
        points = GridSpec.plane(3.0, 21, 3.0, 21).points()
        assert points.shape[0] * lattice.site_count > 2 * PHASE_BLOCK_ELEMENTS
        angles = direct_phase_angles(lattice, 1.0, points)
        direct = exact_covariance(kind, lattice.site_count, 1.0).row_sum() * np.exp(
            1j * angles
        ).sum(axis=1)
        got = expected_correlator(kind, lattice, 1.0, 1.0, points)
        assert np.abs(got - direct).max() <= 1e-12 * np.abs(direct).max()
        pj = pauli_jordan_discrete(lattice, 1.0, 1.0, points)
        direct_pj = np.sin(angles).sum(axis=1)
        assert np.abs(pj - direct_pj).max() <= 1e-12 * np.abs(direct_pj).max()

    def test_memory_stays_bounded_at_figure_scale(self):
        # a 21 x 21 grid at 25^3 sites: the whole complex (G, N) phase array
        # would take 110 MB
        lattice = MomentumLattice(25, 0.1)
        points = GridSpec.plane(3.0, 21, 3.0, 21).points()
        tracemalloc.start()
        try:
            expected_correlator(COLLECTIVE, lattice, 1.0, 1.0, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * PHASE_BLOCK_ELEMENTS * 8

    def test_collective_is_free_scaled_down(self):
        lattice = MomentumLattice(3, 0.2)
        grid = self.grid()
        free_vals = expected_correlator(FREE, lattice, 1.0, 1.0, grid)
        coll_vals = expected_correlator(COLLECTIVE, lattice, 1.0, 1.0, grid)
        np.testing.assert_allclose(coll_vals, free_vals / (lattice.site_count + 1), rtol=1e-12)


    @staticmethod
    def direct_sums(lattice, points):
        """sum_p exp(i(omega_p y0 - p . yvec)) point by point."""
        momenta = lattice.site_momenta()
        freqs = omega(momenta, 1.0)
        return np.array([np.exp(1j * (freqs * y[0] - momenta @ y[1:])).sum() for y in points])

    @pytest.mark.parametrize("n_per_axis", [9, 25])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize(
        "times",
        [np.linspace(-3.0, 3.0, 21), np.linspace(-3.0, 3.0, 20), 0.4 + 0.3 * np.arange(21)],
        ids=["odd", "even", "off_zero"],
    )
    def test_factorised_sums_match_the_direct_sum(self, times, axis, n_per_axis):
        lattice = MomentumLattice(n_per_axis, 0.1)
        points = GridSpec(times, GridSpec.plane(3.0, 1, 3.0, 11, axis=axis).spatial).points()
        direct = self.direct_sums(lattice, points)
        got = expected_correlator(FREE, lattice, 1.0, 1.0, points)
        assert np.abs(got - direct).max() <= 1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize("n_per_axis", [9, 25])
    def test_points_moving_on_every_axis_match_the_direct_sum(self, n_per_axis):
        # every site is its own momentum key, and the points are no product
        # grid: each has its own time
        lattice = MomentumLattice(n_per_axis, 0.1)
        points = np.random.default_rng(5).uniform(-3.0, 3.0, size=(40, 4))
        direct = self.direct_sums(lattice, points)
        got = expected_correlator(FREE, lattice, 1.0, 1.0, points)
        assert np.abs(got - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_memory_stays_bounded_with_every_axis_moving(self):
        # 101 times by 21 points moving on all three axes at 25^3: a dense
        # count of sites per frequency and momentum key would take 37 MB,
        # a complex (T, N) phase array 25 MB; the blocks peak near 10 MB
        lattice = MomentumLattice(25, 0.1)
        spatial = np.random.default_rng(6).uniform(-3.0, 3.0, size=(21, 3))
        points = GridSpec(np.linspace(-5.0, 5.0, 101), spatial).points()
        tracemalloc.start()
        try:
            expected_correlator(COLLECTIVE, lattice, 1.0, 1.0, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * PHASE_BLOCK_ELEMENTS * 8


class TestPauliJordan:
    def test_zero_at_origin(self):
        lattice = MomentumLattice(5, 0.1)
        assert pauli_jordan_discrete(lattice, 1.0, 1.0, np.zeros((1, 4)))[0] == 0.0

    def test_odd_in_time_on_axis(self):
        lattice = MomentumLattice(5, 0.1)
        grid = np.array([[0.9, 0.0, 0.0, 0.0], [-0.9, 0.0, 0.0, 0.0]])
        values = pauli_jordan_discrete(lattice, 1.0, 1.0, grid)
        assert values[0] == pytest.approx(-values[1], rel=1e-12)

    def test_exactly_zero_at_equal_time_separation(self):
        # p <-> -p cancellation on the centered lattice.
        lattice = MomentumLattice(5, 0.1)
        grid = np.array([[0.0, 1.5, 0.0, 0.0], [0.0, 0.3, -0.8, 0.2]])
        values = pauli_jordan_discrete(lattice, 1.0, 1.0, grid)
        np.testing.assert_allclose(values, 0.0, atol=1e-12)

    def test_is_imaginary_part_of_free_correlator(self):
        lattice = MomentumLattice(4, 0.17)
        grid = np.array([[0.4, 0.3, -0.2, 0.1], [1.1, 0.0, 0.5, 0.0]])
        free_vals = expected_correlator(FREE, lattice, 1.2, 0.9, grid)
        pj = pauli_jordan_discrete(lattice, 1.2, 0.9, grid)
        np.testing.assert_allclose(pj, free_vals.imag, atol=1e-12)

    def test_smeared_commutator_reduces_to_plain_sum(self):
        lattice = MomentumLattice(4, 0.17)
        ones = np.ones(lattice.site_count)
        delta = np.array([0.8, 0.1, 0.0, -0.3])
        plain = pauli_jordan_discrete(lattice, 1.0, 1.0, delta.reshape(1, 4))[0]
        assert smeared_commutator(lattice, 1.0, 1.0, ones, ones, delta) == pytest.approx(
            2.0 * plain, rel=1e-12
        )
