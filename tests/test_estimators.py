import gc
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rsft import dynamics, estimators
from rsft.action import BathParams, MatterActionKind
from rsft.dynamics import CoordinateBlock, ExtendedState, IntegratorParams, Sampling, init_state, run
from rsft.estimators import (
    COORDINATE_BUFFER_LEN,
    MIN_BATCHES,
    BatchMeans,
    CorrelatorAccumulator,
    CovarianceAccumulator,
    EstimatorError,
    GridSpec,
    MgfAccumulator,
    VarianceAccumulator,
    _Workspace,
    _phase_rows,
    _tangent_phase,
    default_batch_len,
)
from rsft.lattice import (
    FixedShell,
    GlobalDynamicShell,
    LocalDynamicShell,
    MomentumLattice,
    effective_masses,
    omega,
)
from rsft.operator_algebra import GramAccumulator, LinearObservable
from rsft.oracles import exact_covariance, expected_correlator

FREE = MatterActionKind.FREE
COLLECTIVE = MatterActionKind.FREE_COLLECTIVE


def synthetic_free_samples(rng, n_sites, beta, count):
    """Independent draws from the free ensemble: each site N(0, 1/beta)."""
    return rng.normal(scale=1.0 / np.sqrt(beta), size=(count, n_sites))


def synthetic_collective_samples(rng, n_sites, beta, count):
    """Independent draws from the collective ensemble.

    Free draws have unit-direction variance 1/beta; the collective density
    shrinks exactly that component's standard deviation by sqrt(N + 1).
    """
    z = synthetic_free_samples(rng, n_sites, beta, count)
    mean = z.mean(axis=1, keepdims=True)
    return z + (1.0 / np.sqrt(n_sites + 1.0) - 1.0) * mean


def feed(acc, samples):
    for phi in samples:
        acc.add(phi)
    return acc


def sample_run(add, state, params, n_steps, thin_stride):
    """Call add on every thin_stride-th field snapshot of a run, as the CLI's
    sampling observer does."""
    start = state.step_count

    def sample(live):
        if (live.step_count - start) % thin_stride == 0:
            add(live.phi)

    run(state, params, n_steps, [sample])


# Integer-valued samples keep every sum exact, so the batch bookkeeping can
# be compared bit for bit whatever order the additions happen in.
SHAPES = [((), float), ((3,), float), ((2, 2), complex)]


@st.composite
def streams(draw):
    """(values, batch_len) for a scalar, a vector or a complex matrix stream."""
    shape, dtype = draw(st.sampled_from(SHAPES))
    batch_len = draw(st.integers(1, 5))
    count = draw(st.integers(1, 12 * batch_len))
    parts = [
        draw(arrays(np.int64, (count,) + shape, elements=st.integers(-1000, 1000)))
        for _ in range(2 if dtype is complex else 1)
    ]
    values = parts[0] + 1j * parts[1] if dtype is complex else parts[0].astype(float)
    return values, batch_len


class DividingBatchMeans(BatchMeans):
    """Reference flush: each closed batch is divided into a new array and
    projected, then folded into the running total."""

    def add(self, value):
        self.count += 1
        self._batch_total += value
        self._batch_count += 1
        if self._batch_count == self.batch_len:
            mean = self._batch_total / self.batch_len
            self.batch_means.append(mean if self._project is None else self._project(mean))
            self.total += self._batch_total
            self._batch_total[...] = 0
            self._batch_count = 0


class TestBatchMeans:
    @given(streams())
    @settings(max_examples=60, deadline=None)
    def test_mean_is_plain_average_after_every_sample(self, stream):
        # every prefix of the stream, so most end inside an open batch
        values, batch_len = stream
        acc = BatchMeans(values.shape[1:], batch_len, values.dtype)
        for n, value in enumerate(values, 1):
            acc.add(value)
            assert acc.count == n
            np.testing.assert_array_equal(acc.mean(), values[:n].sum(axis=0) / n)

    @given(streams())
    @settings(max_examples=60, deadline=None)
    def test_batch_means_equal_reshape_mean(self, stream):
        values, batch_len = stream
        acc = feed(BatchMeans(values.shape[1:], batch_len, values.dtype), values)
        n_batches = len(values) // batch_len
        assert len(acc.batch_means) == n_batches
        if n_batches:
            expected = values[: n_batches * batch_len].reshape(
                (n_batches, batch_len) + values.shape[1:]
            ).mean(axis=1)
            np.testing.assert_array_equal(np.stack(acc.batch_means), expected)

    @given(streams())
    @settings(max_examples=60, deadline=None)
    def test_stderr_none_below_min_batches(self, stream):
        values, batch_len = stream
        acc = feed(BatchMeans(values.shape[1:], batch_len, values.dtype), values)
        if len(values) < MIN_BATCHES * batch_len:
            assert acc.stderr() is None
        else:
            se_re, se_im = acc.stderr()
            assert se_re.shape == se_im.shape == values.shape[1:]

    @given(streams())
    @settings(max_examples=60, deadline=None)
    def test_complex_pair_is_real_and_imaginary_parts(self, stream):
        values, batch_len = stream
        shape = values.shape[1:]
        both = feed(BatchMeans(shape, batch_len, complex), values.astype(complex))
        real = feed(BatchMeans(shape, batch_len), values.real)
        imag = feed(BatchMeans(shape, batch_len), values.imag)
        if both.stderr() is None:
            return
        se_re, se_im = both.stderr()
        # a complex batch total divides by batch_len through a reciprocal,
        # so the parts agree with the real streams to rounding only
        np.testing.assert_allclose(se_re, real.stderr()[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(se_im, imag.stderr()[0], rtol=1e-12, atol=1e-12)
        assert not np.any(real.stderr()[1])

    def test_projection_applies_to_batches_and_mean(self):
        acc = BatchMeans((2,), 2, project=lambda mean: mean.sum())
        feed(acc, [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])])
        assert acc.batch_means == [5.0]
        assert acc.mean() == 7.0

    def test_rejects_empty_batches_and_empty_streams(self):
        with pytest.raises(ValueError):
            BatchMeans((), 0)
        with pytest.raises(EstimatorError):
            BatchMeans((), 1).mean()

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("projected", [False, True])
    def test_in_place_flush_keeps_the_bits_of_a_fresh_division(self, dtype, projected):
        rng = np.random.default_rng(31)
        shape = (3, 4)
        values = rng.normal(size=(43,) + shape)
        if dtype is complex:
            values = values + 1j * rng.normal(size=values.shape)
        matrix = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        project = (lambda mean: mean @ matrix) if projected else None
        got = feed(BatchMeans(shape, 5, dtype, project), values)
        want = feed(DividingBatchMeans(shape, 5, dtype, project), values)
        np.testing.assert_array_equal(np.stack(got.batch_means), np.stack(want.batch_means))
        np.testing.assert_array_equal(got.mean(), want.mean())
        for mine, theirs in zip(got.stderr(), want.stderr()):
            np.testing.assert_array_equal(mine, theirs)

    def test_stored_batch_mean_is_not_the_open_batch(self):
        rng = np.random.default_rng(32)
        values = rng.normal(size=(7, 3))
        acc = feed(BatchMeans((3,), 2), values[:2])
        first = acc.batch_means[0].copy()
        feed(acc, values[2:])
        np.testing.assert_array_equal(acc.batch_means[0], first)
        np.testing.assert_array_equal(first, (values[0] + values[1]) / 2)

    def test_a_sum_of_samples_equals_the_samples_one_by_one(self):
        # integer values keep every sum exact; each chunk lies in one batch
        values = np.arange(1.0, 24.0)
        one_by_one = feed(BatchMeans((), batch_len=5), values)
        chunked = BatchMeans((), batch_len=5)
        for chunk in np.split(values, [3, 5, 10, 14, 15, 20]):
            chunked.add(chunk.sum(), len(chunk))
        assert (chunked.count, chunked.mean()) == (one_by_one.count, one_by_one.mean())
        np.testing.assert_array_equal(chunked.batch_means, one_by_one.batch_means)

    def test_a_sum_must_fit_the_open_batch(self):
        acc = BatchMeans((), batch_len=5)
        acc.add(3.0, 3)
        assert acc.room == 2
        with pytest.raises(ValueError, match="open batch"):
            acc.add(3.0, 3)
        with pytest.raises(ValueError, match="open batch"):
            acc.add(0.0, 0)
        assert (acc.count, acc.room) == (3, 2)


class TestRunningMoments:
    """BatchMeans over a scalar stream: the running mean and its error."""

    def test_constant_observable(self):
        acc = BatchMeans((), batch_len=5)
        for _ in range(80):
            acc.add(1.0)
        assert acc.mean() == 1.0
        assert acc.stderr()[0] == 0.0

    def test_stderr_unavailable_below_eight_batches(self):
        acc = BatchMeans((), batch_len=10)
        for value in range(70):
            acc.add(value)
        assert len(acc.batch_means) == 7
        assert acc.stderr() is None
        acc.add(1.0)  # mean still defined
        assert acc.count == 71

    def test_stderr_matches_known_variance_stream(self):
        # i.i.d. unit-variance stream: the batch-means standard error must
        # reproduce 1/sqrt(count) within 20%.
        rng = np.random.default_rng(11)
        acc = BatchMeans((), batch_len=50)
        count = 50 * 64
        for value in rng.normal(size=count):
            acc.add(value)
        assert acc.stderr()[0] == pytest.approx(1.0 / np.sqrt(count), rel=0.2)

    def test_stderr_shrinks_like_root_batches(self):
        rng = np.random.default_rng(12)
        small = BatchMeans((), batch_len=25)
        large = BatchMeans((), batch_len=25)
        for value in rng.normal(size=25 * 16):
            small.add(value)
        for value in rng.normal(size=25 * 256):
            large.add(value)
        assert small.stderr()[0] / large.stderr()[0] == pytest.approx(4.0, rel=0.35)

    def test_complex_observable_stderr_pair(self):
        rng = np.random.default_rng(13)
        acc = BatchMeans((), batch_len=20, dtype=complex)
        for re, im in rng.normal(size=(20 * 12, 2)):
            acc.add(re + 1j * im)
        se_re, se_im = acc.stderr()
        assert se_re > 0 and se_im > 0


class TestAverage:
    """Trajectory averages of scalar functions of the field via BatchMeans."""

    def test_constant_callable(self):
        samples = [np.zeros(3) for _ in range(40)]
        acc = feed(BatchMeans((), batch_len=5), (1.0 for phi in samples))
        assert acc.mean() == 1.0
        assert acc.stderr()[0] == 0.0

    def test_single_mode_mean_vanishes_on_trajectory(self):
        # Equilibrated collective run: the field mean oscillates around zero.
        lattice = MomentumLattice(3, 0.1)
        bath = BathParams(1.0, float(lattice.site_count), lattice.site_count)
        params = IntegratorParams(0.01, bath, COLLECTIVE)
        state, _ = init_state(lattice, bath, COLLECTIVE, 4)
        state = run(state, params, 5000)
        acc = BatchMeans((), batch_len=100)
        sample_run(lambda phi: acc.add(float(phi[0])), state, params, 40_000, thin_stride=5)
        assert acc.stderr() is not None
        assert abs(acc.mean().real) <= 5.0 * acc.stderr()[0]

    def test_mode_square_matches_oracle_on_synthetic_stream(self):
        rng = np.random.default_rng(14)
        n, beta = 8, 1.0
        cov = exact_covariance(COLLECTIVE, n, beta)
        samples = synthetic_collective_samples(rng, n, beta, 6400)
        acc = feed(BatchMeans((), batch_len=100), (float(phi[0]) ** 2 for phi in samples))
        assert abs(acc.mean().real - cov.diag) <= 5.0 * acc.stderr()[0]


class TestModeCovariance:
    def test_site_bound_enforced(self):
        with pytest.raises(ValueError):
            CovarianceAccumulator(range(65), batch_len=10)

    def test_matches_collective_oracle_on_synthetic_stream(self):
        rng = np.random.default_rng(15)
        n, beta = 27, 2.0
        cov = exact_covariance(COLLECTIVE, n, beta)
        samples = synthetic_collective_samples(rng, n, beta, 12_800)
        result = feed(CovarianceAccumulator(range(8), batch_len=100), samples).result()
        assert result.stderr is not None
        for i in range(8):
            for j in range(8):
                target = cov.diag if i == j else cov.offdiag
                assert abs(result.matrix[i, j] - target) <= 5.0 * result.stderr[i, j]

    def test_matrix_symmetric_and_near_positive(self):
        rng = np.random.default_rng(16)
        samples = synthetic_free_samples(rng, 12, 1.0, 4000)
        result = feed(CovarianceAccumulator(range(12), batch_len=50), samples).result()
        np.testing.assert_array_equal(result.matrix, result.matrix.T)
        min_eig = np.linalg.eigvalsh(result.matrix).min()
        assert min_eig >= -5.0 * result.stderr.max()


class TestVarianceAccumulator:
    def test_matches_free_oracle_on_synthetic_stream(self):
        rng = np.random.default_rng(18)
        n, beta = 64, 0.5
        samples = synthetic_free_samples(rng, n, beta, 6400)
        acc = VarianceAccumulator(n, batch_len=100)
        for phi in samples:
            acc.add(phi)
        variances, stderr, count = acc.result()
        assert count == 6400
        within = np.abs(variances - 1.0 / beta) <= 5.0 * stderr
        assert within.mean() >= 0.95


class TestMgf:
    def test_diagonal_matches_covariance_on_synthetic_stream(self):
        rng = np.random.default_rng(19)
        n, beta = 8, 1.0
        cov = exact_covariance(COLLECTIVE, n, beta)
        samples = synthetic_collective_samples(rng, n, beta, 12_800)
        estimate, se, _ = feed(MgfAccumulator(0, 0, 0.05, batch_len=100), samples).result()
        assert se is not None
        assert abs(estimate - cov.diag) <= 5.0 * se

    def test_uncorrelated_pair_vanishes_in_free_stream(self):
        rng = np.random.default_rng(20)
        samples = synthetic_free_samples(rng, 8, 1.0, 12_800)
        estimate, se, _ = feed(MgfAccumulator(1, 5, 0.05, batch_len=100), samples).result()
        assert abs(estimate) <= 5.0 * se

    def test_halving_epsilon_changes_estimate_within_stderr(self):
        rng = np.random.default_rng(21)
        samples = synthetic_free_samples(rng, 4, 1.0, 12_800)
        e_full, se_full, _ = feed(MgfAccumulator(2, 2, 0.08, batch_len=100), samples).result()
        e_half, _, _ = feed(MgfAccumulator(2, 2, 0.04, batch_len=100), samples).result()
        assert abs(e_full - e_half) <= se_full

    @pytest.mark.parametrize("sites", [(2, 2), (1, 5)])
    def test_exponents_match_the_per_pattern_sum(self, sites):
        rng = np.random.default_rng(33)
        samples = synthetic_free_samples(rng, 8, 1.0, 1000)
        p, q = sites
        eps = 0.07
        patterns = ((1, 1), (1, -1), (-1, 1), (-1, -1))
        got = feed(MgfAccumulator(p, q, eps, batch_len=100), samples)
        project = partial(MgfAccumulator._finite_difference, eps)
        want = BatchMeans((2 if p == q else 4,), 100, project=project)
        for phi in samples:
            if p == q:
                exponents = np.array([eps * phi[p], -eps * phi[p]])
            else:
                exponents = np.array([eps * (s1 * phi[p] + s2 * phi[q]) for s1, s2 in patterns])
            want.add(np.exp(exponents))
        assert got.result() == (want.mean(), float(want.stderr()[0]), 1000)

    def test_overflow_raises_with_advice(self):
        acc = MgfAccumulator(0, 1, 0.1, batch_len=10)
        with pytest.raises(EstimatorError, match="eps"):
            acc.add(np.array([1e6, 1e6, 0.0]))

    def test_overflow_check_accepts_large_exponents_and_refuses_nan(self):
        acc = MgfAccumulator(0, 0, 0.1, batch_len=10)
        acc.add(np.array([7000.0, 0.0]))  # exp(700) is finite
        assert np.isfinite(acc.result()[0])
        with pytest.raises(EstimatorError, match="eps"):
            acc.add(np.array([np.nan, 0.0]))

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            MgfAccumulator(0, 1, 0.2, batch_len=10)
        with pytest.raises(ValueError):
            MgfAccumulator(0, 1, 0.0, batch_len=10)


class TestGridSpec:
    def test_plane_points_order_and_shape(self):
        grid = GridSpec.plane(1.0, 3, 2.0, 2, axis=1)
        points = grid.points()
        assert points.shape == (6, 4)
        # times-major enumeration
        np.testing.assert_allclose(points[0], [-1.0, -2.0, 0.0, 0.0])
        np.testing.assert_allclose(points[1], [-1.0, 2.0, 0.0, 0.0])
        np.testing.assert_allclose(points[-1], [1.0, 2.0, 0.0, 0.0])

    def test_axis_selects_spatial_component(self):
        grid = GridSpec.plane(1.0, 1, 3.0, 3, axis=3)
        points = grid.points()
        assert np.all(points[:, 1] == 0.0)
        assert np.all(points[:, 2] == 0.0)
        np.testing.assert_allclose(points[:, 3], [-3.0, 0.0, 3.0])

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            GridSpec.plane(1.0, 2, 1.0, 2, axis=0)

    @pytest.mark.parametrize("times", [[0.0, 1.0, 3.0], [-1.0, 0.0, 0.5, 1.0], []])
    def test_rejects_uneven_or_missing_times(self, times):
        with pytest.raises(ValueError, match="evenly spaced"):
            GridSpec(np.array(times), np.zeros((1, 3)))


class DirectCorrelator:
    """Reference correlator: the (T, N) phased vector from T * N direct
    exponentials per sample, the spatial phases applied to each batch mean."""

    def __init__(self, grid, lattice, shell, batch_len):
        self.grid, self.shell = grid, shell
        self.momenta = lattice.site_momenta()
        spatial_phase = np.exp(-1j * self.momenta @ grid.spatial.T)
        self.sums = BatchMeans(
            (grid.times.size, lattice.site_count), batch_len, complex,
            project=lambda mean: mean @ spatial_phase,
        )

    def add(self, phi):
        freqs = omega(self.momenta, effective_masses(self.shell, phi))
        self.sums.add(np.exp(1j * np.outer(self.grid.times, freqs)) * (np.sum(phi) * phi))

    def result(self):
        se_re, se_im = self.sums.stderr()
        return self.sums.mean().reshape(-1), se_re.reshape(-1), se_im.reshape(-1)


def assert_matches_direct(grid_spec, lattice, shell, samples, batch_len, rtol):
    got = feed(CorrelatorAccumulator(grid_spec, lattice, shell, batch_len), samples).result()
    values, se_re, se_im = feed(DirectCorrelator(grid_spec, lattice, shell, batch_len), samples).result()
    for mine, direct in ((got.values, values), (got.stderr_re, se_re), (got.stderr_im, se_im)):
        assert np.abs(mine - direct).max() <= rtol * np.abs(direct).max()


def assert_matches_direct_at_25(times, shell, seed):
    """The grid at 25^3 on a plane along axis 1 matches direct exponentials
    within 1e-12 of the largest magnitude."""
    rng = np.random.default_rng(seed)
    lattice = MomentumLattice(25, 0.1)
    samples = synthetic_free_samples(rng, lattice.site_count, 1.0, 16)
    grid_spec = GridSpec(times, GridSpec.plane(3.0, 1, 3.0, 5, axis=1).spatial)
    assert_matches_direct(grid_spec, lattice, shell, samples, batch_len=2, rtol=1e-12)


class TestCorrelator:
    def grid(self):
        return GridSpec.plane(2.0, 5, 2.0, 5, axis=1)

    def test_converges_to_closed_form_on_synthetic_stream(self):
        rng = np.random.default_rng(22)
        lattice = MomentumLattice(3, 0.2)
        beta, mass = 1.0, 1.0
        samples = synthetic_collective_samples(rng, lattice.site_count, beta, 12_800)
        grid = feed(
            CorrelatorAccumulator(self.grid(), lattice, FixedShell(mass), batch_len=100), samples
        ).result()
        expected = expected_correlator(COLLECTIVE, lattice, mass, beta, grid.points)
        assert grid.stderr_re is not None
        ok_re = np.abs(grid.values.real - expected.real) <= 5.0 * grid.stderr_re
        ok_im = np.abs(grid.values.imag - expected.imag) <= 5.0 * grid.stderr_im
        assert (ok_re & ok_im).mean() >= 0.95

    def test_origin_value_counts_modes_in_free_stream(self):
        rng = np.random.default_rng(23)
        lattice = MomentumLattice(3, 0.2)
        beta = 2.0
        samples = synthetic_free_samples(rng, lattice.site_count, beta, 12_800)
        origin_grid = GridSpec(np.array([0.0]), np.zeros((1, 3)))
        grid = feed(
            CorrelatorAccumulator(origin_grid, lattice, FixedShell(1.0), batch_len=100), samples
        ).result()
        target = lattice.site_count / beta
        assert abs(grid.values[0].real - target) <= 5.0 * grid.stderr_re[0]
        assert abs(grid.values[0].imag) <= 5.0 * grid.stderr_im[0]

    def test_time_reflection_conjugates_exactly_per_stream(self):
        # B(-y) = conj(B(y)) holds per sample for a real field, so the
        # estimates at mirrored grid points are exact conjugates.
        rng = np.random.default_rng(24)
        lattice = MomentumLattice(3, 0.2)
        samples = synthetic_free_samples(rng, lattice.site_count, 1.0, 500)
        mirror = GridSpec(np.array([-0.7, 0.7]), np.array([[0.4, 0.0, -0.2]]))
        grid = feed(
            CorrelatorAccumulator(mirror, lattice, FixedShell(1.0), batch_len=50), samples
        ).result()
        plus, minus = grid.values[1], grid.values[0]
        # spatial point is the same for both rows; mirrored spatial part
        # requires the paired grid below.
        paired = GridSpec(np.array([0.7]), np.array([[0.4, 0.0, -0.2], [-0.4, 0.0, 0.2]]))
        rng2 = np.random.default_rng(24)
        samples2 = synthetic_free_samples(rng2, lattice.site_count, 1.0, 500)
        grid2 = feed(
            CorrelatorAccumulator(paired, lattice, FixedShell(1.0), batch_len=50), samples2
        ).result()
        value_pos = grid2.values[0]
        assert minus == pytest.approx(np.conj(grid2.values[1]), abs=1e-10)
        assert plus == pytest.approx(value_pos, abs=1e-12)

    def test_dynamic_shell_stream_is_finite_and_deterministic(self):
        lattice = MomentumLattice(3, 0.1)
        bath = BathParams(1.0, float(lattice.site_count), lattice.site_count)
        params = IntegratorParams(0.01, bath, COLLECTIVE)

        def run_once():
            state, _ = init_state(lattice, bath, COLLECTIVE, 6)
            state = run(state, params, 1000)
            acc = CorrelatorAccumulator(self.grid(), lattice, GlobalDynamicShell(), batch_len=50)
            sample_run(acc.add, state, params, 4000, thin_stride=10)
            return acc.result()

        first, second = run_once(), run_once()
        assert np.all(np.isfinite(first.values))
        np.testing.assert_array_equal(first.values, second.values)

    @pytest.mark.parametrize("shell", [FixedShell(1.0), GlobalDynamicShell(), LocalDynamicShell()])
    def test_phase_recurrence_matches_direct_exponentials_at_figure_scale(self, shell):
        rng = np.random.default_rng(28)
        lattice = MomentumLattice(25, 0.1)
        samples = synthetic_free_samples(rng, lattice.site_count, 1.0, 16)
        grid_spec = GridSpec.plane(3.0, 21, 3.0, 5, axis=1)
        assert_matches_direct(grid_spec, lattice, shell, samples, batch_len=2, rtol=1e-12)

    @pytest.mark.parametrize("shell", [GlobalDynamicShell(), LocalDynamicShell()])
    def test_phase_recurrence_holds_over_a_long_grid(self, shell):
        rng = np.random.default_rng(29)
        lattice = MomentumLattice(5, 0.1)
        samples = synthetic_free_samples(rng, lattice.site_count, 1.0, 16)
        grid_spec = GridSpec.plane(300.0, 2001, 3.0, 3, axis=2)
        assert_matches_direct(grid_spec, lattice, shell, samples, batch_len=2, rtol=1e-10)

    @pytest.mark.parametrize("shell", [FixedShell(1.0), GlobalDynamicShell(), LocalDynamicShell()])
    @pytest.mark.parametrize(
        "times",
        [np.linspace(-3.0, 3.0, 20), 0.4 + 0.3 * np.arange(21), np.array([0.7])],
        ids=["even_count", "off_zero", "single"],
    )
    def test_recurrence_anchored_off_zero_matches_direct_exponentials(self, times, shell):
        # no grid time is 0, so the anchor row takes its own phase: the
        # positive time of the pair around 0 (20 times) or the first time
        assert_matches_direct_at_25(times, shell, seed=34)

    @pytest.mark.parametrize("shell", [FixedShell(1.0), GlobalDynamicShell(), LocalDynamicShell()])
    def test_middle_time_off_zero_by_round_off_still_folds(self, shell):
        # the middle one of 95 times over [-3, 3] is -4e-16, within
        # TIME_RTOL of 0, so the rows from 0 on are formed, 48 of them
        times = np.linspace(-3.0, 3.0, 95)
        assert times[47] != 0.0
        grid_spec = GridSpec(times, np.zeros((1, 3)))
        acc = CorrelatorAccumulator(grid_spec, MomentumLattice(2, 0.1), shell, batch_len=2)
        assert acc._phases.n_rows == 48
        assert_matches_direct_at_25(times, shell, seed=40)

    @pytest.mark.parametrize("shell", [GlobalDynamicShell(), LocalDynamicShell()])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize(
        "times",
        [np.linspace(-3.0, 3.0, 21), np.linspace(-3.0, 3.0, 20), 0.4 + 0.3 * np.arange(21)],
        ids=["odd", "even", "off_zero"],
    )
    def test_grouped_sites_match_direct_exponentials_on_every_axis(self, times, axis, shell):
        # a plane grid groups the 15 625 sites by their coordinate on its
        # axis; the odd grid also folds its mirrored times
        rng = np.random.default_rng(36)
        lattice = MomentumLattice(25, 0.1)
        samples = synthetic_free_samples(rng, lattice.site_count, 1.0, 16)
        grid_spec = GridSpec(times, GridSpec.plane(3.0, 1, 3.0, 5, axis=axis).spatial)
        assert_matches_direct(grid_spec, lattice, shell, samples, batch_len=2, rtol=1e-12)

    def test_dynamic_shell_peaks_below_one_time_by_site_array(self):
        # a sample's rows are summed over the 25 site groups of the plane
        # grid as they are formed, and only the 11 rows from t = 0 on are
        # kept, so no (T, N) array is ever built
        lattice = MomentumLattice(25, 0.1)
        grid_spec = GridSpec.plane(3.0, 21, 3.0, 21, axis=1)
        samples = synthetic_free_samples(np.random.default_rng(35), lattice.site_count, 1.0, 4)
        tracemalloc.start()
        try:
            acc = CorrelatorAccumulator(grid_spec, lattice, LocalDynamicShell(), batch_len=2)
            feed(acc, samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert acc._sums.total.shape == (11, 25)
        assert peak < grid_spec.times.size * lattice.site_count * 16

    @pytest.mark.parametrize("shell", [FixedShell(1.0), LocalDynamicShell()])
    @pytest.mark.parametrize(
        "times, n_rows",
        [
            (np.linspace(3.0, -3.0, 20), 10),
            (np.linspace(3.0, -3.0, 21), 11),
            (-0.9 + 0.3 * np.arange(12), 9),
            (-0.75 + 0.5 * np.arange(9), 7),
            (np.array([-0.2, 0.2]), 1),
            (np.array([0.0]), 1),
            (0.1 + 0.3 * np.arange(5), 5),
        ],
        ids=["descending_even", "descending_odd", "lopsided_zero", "lopsided_pair", "pair",
             "zero", "off_zero"],
    )
    def test_fold_forms_the_rows_from_the_anchor_on(self, times, n_rows, shell):
        # times below the anchor are read as conjugates wherever they mirror
        # those above it, whichever way the grid runs
        rng = np.random.default_rng(42)
        lattice = MomentumLattice(5, 0.1)
        samples = synthetic_free_samples(rng, lattice.site_count, 1.0, 16)
        grid_spec = GridSpec(times, GridSpec.plane(3.0, 1, 3.0, 5, axis=1).spatial)
        acc = CorrelatorAccumulator(grid_spec, lattice, shell, batch_len=2)
        assert acc._phases.n_rows == n_rows
        assert_matches_direct(grid_spec, lattice, shell, samples, batch_len=2, rtol=1e-12)

    @pytest.mark.parametrize("t_points", [21, 201])
    def test_fixed_shell_flush_peaks_below_four_megabytes(self, t_points):
        # a fixed shell keeps its frequencies, not (R, N) time rows, and
        # phases a batch mean in (N,) buffers, as one dynamic-shell sample
        lattice = MomentumLattice(25, 0.1)
        phi = synthetic_free_samples(np.random.default_rng(41), lattice.site_count, 1.0, 1)[0]
        grid_spec = GridSpec.plane(3.0, t_points, 3.0, 21, axis=1)
        tracemalloc.start()
        try:
            acc = CorrelatorAccumulator(grid_spec, lattice, FixedShell(1.0), batch_len=1)
            acc.add(phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(acc._sums.batch_means) == 1
        assert peak < 4e6, peak

    @pytest.mark.parametrize("shell", [FixedShell(1.0), GlobalDynamicShell(), LocalDynamicShell()])
    @pytest.mark.parametrize("t_points", [21, 20, 95])
    def test_mirrored_times_are_bitwise_conjugates(self, t_points, shell):
        # the fold rests on this: with real weights the grid at -t is read
        # as the conjugate of the row at t, on odd grids (the middle time of
        # 95 points is 4e-16, not 0) and even ones alike; at the spatial
        # origin the group phase is 1, so the grid is that row's sum
        rng = np.random.default_rng(37)
        lattice = MomentumLattice(5, 0.1)
        samples = synthetic_free_samples(rng, lattice.site_count, 1.0, 16)
        grid_spec = GridSpec.plane(3.0, t_points, 0.0, 1, axis=1)
        got = feed(CorrelatorAccumulator(grid_spec, lattice, shell, batch_len=2), samples).result()
        assert np.any(got.values.imag != 0.0) and np.any(got.stderr_im != 0.0)
        np.testing.assert_array_equal(got.values[::-1], np.conj(got.values))
        np.testing.assert_array_equal(got.stderr_re[::-1], got.stderr_re)
        np.testing.assert_array_equal(got.stderr_im[::-1], got.stderr_im)

    @pytest.mark.parametrize("t_extent", [3.0, 0.7])
    def test_every_plane_grid_forms_half_its_rows(self, t_extent):
        lattice = MomentumLattice(2, 0.1)
        for t_points in range(1, 401):
            grid_spec = GridSpec.plane(t_extent, t_points, 3.0, 5, axis=1)
            acc = CorrelatorAccumulator(grid_spec, lattice, LocalDynamicShell(), batch_len=2)
            assert acc._sums.total.shape == ((t_points + 1) // 2, 2), t_points

    @pytest.mark.parametrize("shell", [GlobalDynamicShell(), LocalDynamicShell()])
    def test_dynamic_shell_frequencies_are_omega_bitwise(self, shell):
        # the accumulator sums |p|^2 once; every sample's frequencies must
        # still be omega's, bit for bit.  The spatial points move on all
        # three axes, so every site is its own group, and the grid equals
        # the (T, N) rows unfolded from t = 0, to the bit
        rng = np.random.default_rng(30)
        lattice = MomentumLattice(5, 0.1)
        samples = synthetic_free_samples(rng, lattice.site_count, 1.0, 40)
        spatial = np.array([[0.0, 0.0, 0.0], [1.5, -0.5, 3.0], [-3.0, 2.0, 0.5]])
        grid_spec = GridSpec(np.linspace(-3.0, 3.0, 7), spatial)
        got = feed(CorrelatorAccumulator(grid_spec, lattice, shell, batch_len=5), samples).result()
        momenta = lattice.site_momenta()
        spatial_phase = np.exp(-1j * (momenta @ spatial.T))
        rows = np.empty((4, lattice.site_count), dtype=complex)
        reference = BatchMeans(
            (7, rows.shape[1]), 5, complex, project=lambda mean: mean @ spatial_phase
        )
        work = _Workspace(lattice.site_count)
        for phi in samples:
            freqs = omega(momenta, effective_masses(shell, phi))
            _phase_rows(0.0, 1.0, 4, freqs, float(np.sum(phi)) * phi, rows.__setitem__, work)
            # times -3 .. -1 are the conjugates of 3 .. 1
            reference.add(np.concatenate((np.conj(rows[:0:-1]), rows)))
        np.testing.assert_array_equal(got.values, reference.mean().reshape(-1))
        for mine, want in zip((got.stderr_re, got.stderr_im), reference.stderr()):
            np.testing.assert_array_equal(mine, want.reshape(-1))

    def test_tangent_step_is_within_a_few_ulp_of_cos_and_sin(self):
        # the one-step phase comes from t = tan(angle / 2); near odd
        # multiples of pi t is huge, and the parts must stay finite
        rng = np.random.default_rng(38)
        odd_pi = np.pi * (2 * np.arange(-318, 319) + 1)
        angles = np.concatenate(
            (
                rng.uniform(-1e3, 1e3, 200_000),
                np.linspace(-1e3, 1e3, 200_001),
                [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi],
                odd_pi,
                np.nextafter(odd_pi, np.inf),
                np.nextafter(odd_pi, -np.inf),
            )
        )
        out = np.empty(angles.size, dtype=complex)
        tangent = np.empty(angles.size)
        with np.errstate(all="raise"):
            _tangent_phase(angles, 1.0, out, tangent)
        assert np.all(np.isfinite(out))
        ulp = np.finfo(float).eps
        assert np.abs(out.real - np.cos(angles)).max() <= 4 * ulp
        assert np.abs(out.imag - np.sin(angles)).max() <= 4 * ulp
        mirrored = np.empty_like(out)
        _tangent_phase(-angles, 1.0, mirrored, tangent)
        np.testing.assert_array_equal(mirrored, np.conj(out))
        # dt halves exactly, so the step of (freqs, dt) is that of dt freqs
        scaled = np.empty_like(out)
        _tangent_phase(angles / 0.3, 0.3, scaled, tangent)
        stepped = np.empty_like(out)
        _tangent_phase(0.3 * (angles / 0.3), 1.0, stepped, tangent)
        np.testing.assert_array_equal(scaled, stepped)

    @pytest.mark.parametrize("shell", [GlobalDynamicShell(), LocalDynamicShell()])
    def test_dynamic_shell_block_peak_does_not_grow_with_its_rows(self, shell):
        # a block shares one workspace over its rows and frees it at its end
        lattice, _, state = trajectory(9, COLLECTIVE, seed=3)
        grid_spec = GridSpec.plane(2.0, 5, 2.0, 4, axis=1)
        rows = [tuple(x) for x in np.random.default_rng(39).normal(size=(20, 3))]

        def block_memory(count):
            acc = CorrelatorAccumulator(grid_spec, lattice, shell, batch_len=40)
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                acc.add(CoordinateBlock(state.basis, rows[:count]))
                acc._sum_buffer()
                after, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert acc._sums.count == count
            return peak - before, after - before

        (one_peak, one_kept), (twenty_peak, twenty_kept) = block_memory(1), block_memory(20)
        site_array = 8 * lattice.site_count
        assert one_peak >= 6 * site_array
        assert twenty_peak <= one_peak + 4096
        assert max(one_kept, twenty_kept) < site_array

    def test_grid_row_order_matches_points(self):
        rng = np.random.default_rng(26)
        lattice = MomentumLattice(2, 0.3)
        samples = synthetic_free_samples(rng, lattice.site_count, 1.0, 100)
        grid_spec = self.grid()
        grid = feed(
            CorrelatorAccumulator(grid_spec, lattice, FixedShell(1.0), batch_len=10), samples
        ).result()
        np.testing.assert_array_equal(grid.points, grid_spec.points())
        assert grid.values.shape == (len(grid_spec.points()),)

    def test_batches_are_stored_as_time_by_space_grids(self):
        # a batch mean of site or group sums is projected onto the grid at
        # flush, so each stored batch costs T * S, not T * N
        rng = np.random.default_rng(27)
        lattice = MomentumLattice(3, 0.2)
        grid_spec = GridSpec.plane(2.0, 5, 2.0, 3, axis=1)
        samples = synthetic_free_samples(rng, lattice.site_count, 1.0, 45)
        for shell in (FixedShell(1.0), LocalDynamicShell()):
            acc = feed(CorrelatorAccumulator(grid_spec, lattice, shell, batch_len=10), samples)
            assert len(acc._sums.batch_means) == 4
            for batch_grid in acc._sums.batch_means:
                assert batch_grid.shape == (5, 3)


class TestDefaultBatchLen:
    def test_floor_and_scaling(self):
        assert default_batch_len(400_000, 10) == 625
        assert default_batch_len(1000, 10) == 100
        assert default_batch_len(1_000_000, 1) == 15_625


def trajectory(n_per_axis, kind, seed):
    """An equilibrated desk-style trajectory start: lattice, params, state."""
    lattice = MomentumLattice(n_per_axis, 0.1)
    bath = BathParams(1.0, float(lattice.site_count), lattice.site_count)
    params = IntegratorParams(0.01, bath, kind)
    state, _ = init_state(lattice, bath, kind, seed)
    return lattice, params, run(state, params, 1000)


def coordinate_path_accumulators(lattice, batch_len):
    """The four accumulators that take the coordinate path, MGF twice."""
    n = lattice.site_count
    return [
        VarianceAccumulator(n, batch_len),
        CovarianceAccumulator((0, 3, 17, n - 1), batch_len),
        MgfAccumulator(5, 5, 0.05, batch_len),
        MgfAccumulator(3, n - 1, 0.05, batch_len),
        CorrelatorAccumulator(GridSpec.plane(2.0, 5, 2.0, 4, axis=1), lattice, FixedShell(1.0), batch_len),
    ]


def reported(acc):
    """(the arrays an accumulator reports, its sample count)."""
    out = acc.result()
    if isinstance(acc, CorrelatorAccumulator):
        return (out.values, out.stderr_re, out.stderr_im), out.n_samples
    if isinstance(acc, CovarianceAccumulator):
        return (out.matrix, out.stderr), out.n_samples
    return out[:2], out[2]


def assert_paths_agree(coordinate, site, rtol=1e-10):
    for mine, reference in zip(coordinate, site):
        got, count = reported(mine)
        want, want_count = reported(reference)
        assert count == want_count
        for value, target in zip(got, want):
            if target is None:
                assert value is None
                continue
            scale = np.abs(target).max()
            assert np.abs(np.asarray(value) - target).max() <= rtol * scale


def one_row(state):
    """The state's coordinates x as a block of one sampled row."""
    return CoordinateBlock(state.basis, (state.x,))


def sampler(coordinate, site, stride=10, field_every=0):
    """Observer feeding, at every stride-th step, the field to `site` and
    the live state's coordinates to `coordinate`, or instead its field at
    every field_every-th sample when field_every is set."""

    def observe(live):
        if live.step_count % stride == 0:
            as_field = field_every and (live.step_count // stride) % field_every == 0
            for acc in coordinate:
                acc.add(live.phi if as_field else one_row(live))
            for acc in site:
                acc.add(live.phi)

    return observe


class TestCoordinatePath:
    """Fed the coordinates of states, the variance, covariance, MGF and
    fixed-shell correlator accumulators work on them; fed fields, on
    sites."""

    @pytest.mark.parametrize("n_per_axis", [9, 25])
    @pytest.mark.parametrize("kind", [FREE, COLLECTIVE])
    def test_matches_site_path_with_a_mid_batch_read(self, kind, n_per_axis):
        lattice, params, state = trajectory(n_per_axis, kind, seed=3)
        coordinate = coordinate_path_accumulators(lattice, batch_len=7)
        site = coordinate_path_accumulators(lattice, batch_len=7)
        # 60 samples: 8 batches of 7 and 4 samples of the ninth
        state = run(state, params, 600, [sampler(coordinate, site)], every=10)
        assert all(acc._buffer for acc in coordinate)
        assert_paths_agree(coordinate, site)
        # 47 more from the returned state, which keeps its basis object:
        # 15 batches and 2 samples of the sixteenth
        run(state, params, 470, [sampler(coordinate, site)], every=10)
        assert all(acc._basis is not None for acc in coordinate)
        assert_paths_agree(coordinate, site)

    @pytest.mark.parametrize("then", ["other_basis", "arrays", "interleaved"])
    def test_second_basis_or_an_array_continues_on_site_path(self, then):
        lattice, params, state = trajectory(9, COLLECTIVE, seed=3)
        coordinate = coordinate_path_accumulators(lattice, batch_len=7)
        site = coordinate_path_accumulators(lattice, batch_len=7)
        # 30 samples: 4 batches and 2 samples of the fifth
        run(state, params, 300, [sampler(coordinate, site)], every=10)
        if then == "other_basis":
            _, _, other = trajectory(9, COLLECTIVE, seed=4)
            run(other, params, 500, [sampler(coordinate, site)], every=10)
        else:
            # every sample a field, or every third one between states
            field_every = 1 if then == "arrays" else 3
            run(state, params, 500, [sampler(coordinate, site, field_every=field_every)], every=10)
        assert_paths_agree(coordinate, site)

    @pytest.mark.parametrize("shell", [GlobalDynamicShell(), LocalDynamicShell()])
    def test_dynamic_shell_fed_states_has_the_bits_of_fed_fields(self, shell):
        lattice, params, state = trajectory(9, COLLECTIVE, seed=3)
        grid = GridSpec.plane(2.0, 5, 2.0, 4, axis=1)
        states, fields = (CorrelatorAccumulator(grid, lattice, shell, 7) for _ in range(2))
        run(state, params, 600, [sampler([states], [fields])], every=10)
        (got, got_count), (want, want_count) = reported(states), reported(fields)
        assert got_count == want_count == 60
        for value, target in zip(got, want):
            assert np.array_equal(value, target)

    def test_coordinate_path_builds_no_field(self, monkeypatch):
        lattice, params, state = trajectory(9, FREE, seed=5)
        coordinate = coordinate_path_accumulators(lattice, batch_len=7)
        site = coordinate_path_accumulators(lattice, batch_len=7)
        run(state, params, 650, [sampler([], site)], every=10)

        def no_field(live):
            raise AssertionError("the coordinate path read phi")

        monkeypatch.setattr(ExtendedState, "phi", property(no_field))
        run(state, params, 650, [sampler(coordinate, [])], every=10)
        monkeypatch.undo()
        assert_paths_agree(coordinate, site)

    def test_buffer_stays_bounded_at_a_huge_batch_len(self):
        lattice, params, state = trajectory(9, COLLECTIVE, seed=6)
        accs = coordinate_path_accumulators(lattice, batch_len=10**6)
        tracemalloc.start()
        try:
            run(state, params, 4000, [sampler(accs, [], stride=1)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(0 < len(acc._buffer) <= COORDINATE_BUFFER_LEN for acc in accs)
        # 4000 buffered samples would hold 4000 coordinate tuples of about
        # 130 bytes each, over 0.5 MB
        assert peak <= 150_000, peak
        assert all(reported(acc)[1] == 4000 for acc in accs)

    def test_state_returned_by_run_takes_the_coordinate_path(self):
        lattice, params, state = trajectory(5, COLLECTIVE, seed=7)
        coordinate = coordinate_path_accumulators(lattice, batch_len=3)
        site = coordinate_path_accumulators(lattice, batch_len=3)
        for _ in range(30):
            state = run(state, params, 10)
            for mine, reference in zip(coordinate, site):
                mine.add(one_row(state))
                reference.add(state.phi)
        assert all(acc._basis is not None for acc in coordinate)
        assert_paths_agree(coordinate, site)

    def test_state_returned_by_run_is_never_lifted(self, monkeypatch):
        lattice, params, state = trajectory(9, COLLECTIVE, seed=7)
        accs = coordinate_path_accumulators(lattice, batch_len=3)
        lift, lifts = dynamics._lift, []

        def counted(basis, coords):
            lifts.append(coords)
            return lift(basis, coords)

        monkeypatch.setattr(dynamics, "_lift", counted)
        monkeypatch.setattr(estimators, "_lift", counted)
        for _ in range(30):
            state = run(state, params, 10)
            for acc in accs:
                acc.add(one_row(state))
        for acc in accs:
            reported(acc)
        assert lifts == []

    def test_overflow_is_raised_when_the_buffer_is_summed(self):
        n = 8
        basis = np.full((1, n), 1.0 / np.sqrt(n))
        x = np.array([1e6])
        state = ExtendedState(basis, x, np.zeros(1), 1.0, 0.0, 0.0)
        acc = MgfAccumulator(0, 1, 0.1, batch_len=10)
        acc.add(one_row(state))
        with pytest.raises(EstimatorError, match="eps"):
            acc.result()


def every_accumulator(lattice, batch_len):
    """One accumulator of each kind that takes sampled blocks: variance,
    covariance, MGF, the fixed, global and local shell correlators, and
    Gram."""
    n = lattice.site_count
    grid = GridSpec.plane(2.0, 5, 2.0, 4, axis=1)
    rng = np.random.default_rng(8)
    observables = [LinearObservable(rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(3)]
    return [
        VarianceAccumulator(n, batch_len),
        CovarianceAccumulator((0, 3, 17, n - 1), batch_len),
        MgfAccumulator(3, n - 1, 0.05, batch_len),
        CorrelatorAccumulator(grid, lattice, FixedShell(1.0), batch_len),
        CorrelatorAccumulator(grid, lattice, GlobalDynamicShell(), batch_len),
        CorrelatorAccumulator(grid, lattice, LocalDynamicShell(), batch_len),
        GramAccumulator(observables, batch_len),
    ]


def every_output(acc):
    """Every array and count an accumulator reports."""
    if isinstance(acc, GramAccumulator):
        out = acc.result()
        return (out.matrix, out.stderr_re, out.stderr_im), acc._acc.count
    return reported(acc)


class TestBlockPath:
    """Blocks of sampled coordinates, as `run` hands them over, give the
    bits of the same samples fed one state's row at a time."""

    @pytest.mark.parametrize("every", [1000, 10**6], ids=["blocks_of_100", "blocks_of_256"])
    @pytest.mark.parametrize("batch_len", [7, 1000])
    def test_block_fed_equals_state_fed(self, batch_len, every):
        lattice, params, state = trajectory(9, COLLECTIVE, seed=3)
        by_state = every_accumulator(lattice, batch_len)
        by_block = every_accumulator(lattice, batch_len)
        cuts = []
        add_block = by_block[0]._add_block
        by_block[0]._add_block = lambda basis, coords: (
            cuts.append(coords.shape[0]), add_block(basis, coords)
        )

        def observe(live):
            if (live.step_count - state.step_count) % 10 == 0:
                for acc in by_state:
                    acc.add(one_row(live))

        def take(block):
            for acc in by_block:
                acc.add(block)

        # 1000 samples, every tenth step
        run(state, params, 10_000, [observe])
        start = Sampling(state.step_count, 10, take)
        run(state, params, 10_000, every=every, sampling=start)
        if batch_len == 1000:
            assert cuts == [256, 256, 256, 232]
        for mine, reference in zip(by_block, by_state):
            (got, count), (want, want_count) = every_output(mine), every_output(reference)
            assert count == want_count == 1000
            for value, target in zip(got, want):
                assert np.array_equal(value, target), type(mine).__name__


KINDS = ["variance", "covariance", "mgf", "fixed_shell", "global_shell", "local_shell", "gram"]


class TestReferenceCycles:
    @pytest.mark.parametrize("kind", range(len(KINDS)), ids=KINDS)
    def test_accumulator_is_freed_without_the_cycle_collector(self, kind):
        # a batch projection holds only the arrays it reads, never its
        # accumulator, so the accumulator and its batches go with its last
        # reference, and peak memory does not wait for the collector
        lattice, _, state = trajectory(3, COLLECTIVE, seed=3)
        acc = every_accumulator(lattice, 2)[kind]
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                acc.add(one_row(state))
                acc.add(state.phi)
            every_output(acc)
            freed = weakref.ref(acc)
            del acc
            assert freed() is None
            assert gc.collect() == 0
        finally:
            gc.enable()
