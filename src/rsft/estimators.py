"""Trajectory-average estimators with batch-means error bars.

All estimators are streaming accumulators fed a bounded block of
snapshots at a time, so figure-scale runs never hold the sample history in
memory.  Each one maps
a snapshot to an observable (squares, a product block, exponential source
moments, phased field sums) and feeds it to BatchMeans, the single
batch-means core: contiguous fixed-length batches folded into a running
total as they close, an optional projection of each batch mean, and a
standard error that is reported only once at least eight complete batches
exist.  A projection holds only the arrays it reads, never its accumulator,
so an accumulator is freed by reference counting alone.

A snapshot is a field array or a trajectory state, and `run` hands the
sampled states of a trajectory over as blocks of their coordinates.  A
state is held in the basis Q of its trajectory's subspace (phi = Q x, at
most three coordinates); its x is buffered, and a block of buffered
samples is summed at once into the same site-form batch sums that fields
feed (`_SampleStream`).  The variance, covariance, MGF and fixed-shell
correlator accumulators sum a block on its coordinates and map the sum to
sites through Q, so they never build a field; a dynamic-shell correlator
lifts each row of a block to its field, in buffers the block shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .dynamics import COORDINATE_BUFFER_LEN, CoordinateBlock, ExtendedState, _lift
from .lattice import MomentumLattice, MassShell, FixedShell, effective_masses, omega

MIN_BATCHES = 8
MAX_COVARIANCE_SITES = 64
MAX_MGF_EPSILON = 0.1
# log of the largest float: the exponential of anything below it is finite
MAX_EXPONENT = float(np.log(np.finfo(float).max))
# grid times agree to this fraction of their largest |t|: even spacing, 0, mirrors
TIME_RTOL = 1e-12


class EstimatorError(RuntimeError):
    pass


def default_batch_len(sampling_steps: int, thin_stride: int) -> int:
    """Batch length in samples: sampling_steps / 64 with a floor of 100,
    converted through the thinning stride."""
    return max(100, sampling_steps // (64 * max(1, thin_stride)))


class BatchMeans:
    """Streaming mean of an array-valued, possibly complex, observable with
    batch-means standard errors; every accumulator in the package is an
    observable map over this one core.

    Each sample goes only into the current batch of batch_len consecutive
    samples, so it is summed once; a completed batch is folded into the
    running total, then divided in place into its mean, which is passed
    through the optional projection before it is stored, so the
    correlator's (N,) or (R, G) sums keep (T, S) batch grids.  A projection
    must return a new object; without one a copy of the mean is stored.  mean() applies the
    same projection to the running mean over the closed batches and the
    open one.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        batch_len: int,
        dtype=float,
        project: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if batch_len < 1:
            raise ValueError("batch_len must be at least 1")
        self.batch_len = batch_len
        self._project = project
        self.count = 0
        self.total = np.zeros(shape, dtype=dtype)
        self._batch_total = np.zeros(shape, dtype=dtype)
        self._batch_count = 0
        self.batch_means: list[np.ndarray] = []

    def _projected(self, mean: np.ndarray) -> np.ndarray:
        return mean if self._project is None else self._project(mean)

    def add(self, value, n: int = 1) -> None:
        """Take value as the sum of n samples, all of which fall in the open
        batch (n is at most `room`)."""
        self._batch_total += value
        self._count_samples(n)

    @property
    def room(self) -> int:
        """Samples the open batch takes before it closes."""
        return self.batch_len - self._batch_count

    def _count_samples(self, n: int) -> None:
        if not 0 < n <= self.room:
            raise ValueError(f"{n} samples do not fit the open batch")
        self.count += n
        self._batch_count += n
        if self._batch_count == self.batch_len:
            batch = self._batch_total
            self.total += batch
            np.divide(batch, self.batch_len, out=batch)
            self.batch_means.append(
                batch.copy() if self._project is None else self._project(batch)
            )
            batch[...] = 0
            self._batch_count = 0

    def mean(self) -> np.ndarray:
        if self.count == 0:
            raise EstimatorError("no samples accumulated")
        return self._projected((self.total + self._batch_total) / self.count)

    def stderr(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Batch-means standard errors of the real and the imaginary part of
        the (projected) mean, or None below MIN_BATCHES complete batches."""
        n = len(self.batch_means)
        if n < MIN_BATCHES:
            return None
        stack = np.stack(self.batch_means)
        root_n = np.sqrt(n)
        return (
            np.std(stack.real, axis=0, ddof=1) / root_n,
            np.std(stack.imag, axis=0, ddof=1) / root_n,
        )


class _SampleStream:
    """The sample interface of the accumulators: `add` takes a field array,
    a block of sampled coordinates (`CoordinateBlock`) or a state, which is
    the block of its one row x.

    An array is a site sample, passed to `_add_site(phi)` as the (N,)
    field.  The rows of a block are appended to a buffer, and no field is
    read.  `_add_block(basis, coords)` adds the site-form sum of the
    buffered (b, k) coordinates to the open batch when the buffer holds
    COORDINATE_BUFFER_LEN rows or fills the open batch of `batches` (an
    accumulator's batch sums all close together), when a block in another
    basis object or a site sample comes, and before a result is read.  So
    a block is cut at the same rows whatever blocks its rows came in, every
    batch holds site-form sums, and samples of both kinds mix in any order.
    The default `_add_block` lifts each row to its field, bitwise the phi of
    a stepped state, and adds it as a site sample.
    """

    def __init__(self, batches: BatchMeans):
        self._batches = batches
        self._basis: np.ndarray | None = None
        self._buffer: list[tuple[float, float, float]] = []

    def add(self, sample) -> None:
        if isinstance(sample, ExtendedState):
            sample = CoordinateBlock(sample.basis, (sample.x,))
        elif not isinstance(sample, CoordinateBlock):
            self._sum_buffer()
            self._add_site(sample)
            return
        basis, rows = sample
        if basis is not self._basis:
            self._sum_buffer()
            self._basis = basis
        buffer = self._buffer
        taken = 0
        while taken < len(rows):
            if not buffer:  # a block starts after every sum and site sample
                self._room = min(COORDINATE_BUFFER_LEN, self._batches.room)
            more = min(self._room - len(buffer), len(rows) - taken)
            buffer.extend(rows[taken : taken + more])
            taken += more
            if len(buffer) == self._room:
                self._sum_buffer()

    def _sum_buffer(self) -> None:
        if self._buffer:
            basis = self._basis
            coords = np.array(self._buffer)[:, : basis.shape[0]]
            self._buffer.clear()
            self._add_block(basis, coords)

    def _add_block(self, basis: np.ndarray, coords: np.ndarray) -> None:
        for x in coords:
            self._add_site(_lift(basis, x))


@dataclass
class CovarianceResult:
    """Centered covariance estimates for a site subset, with the batch-means
    standard error of the underlying product averages."""

    sites: tuple[int, ...]
    matrix: np.ndarray
    stderr: np.ndarray | None
    n_samples: int


class CovarianceAccumulator(_SampleStream):
    """Covariance of field values over a bounded site subset.

    Entries are trajectory averages of phi(p) phi(q) minus the product of
    the mean values; the error bar is the batch-means standard error of the
    product average, whose noise dominates for near-centered ensembles.
    """

    def __init__(self, sites: Sequence[int], batch_len: int):
        sites = tuple(int(i) for i in sites)
        if not sites:
            raise ValueError("site subset must be nonempty")
        if len(sites) > MAX_COVARIANCE_SITES:
            raise ValueError(f"site subset limited to {MAX_COVARIANCE_SITES} sites")
        self.sites = sites
        self._index = np.asarray(sites, dtype=int)
        self._products = BatchMeans((len(sites), len(sites)), batch_len)
        self._values = BatchMeans((len(sites),), batch_len)
        super().__init__(self._products)

    def _add_site(self, phi: np.ndarray) -> None:
        sub = phi[self._index]
        self._products.add(np.outer(sub, sub))
        self._values.add(sub)

    def _add_block(self, basis: np.ndarray, coords: np.ndarray) -> None:
        q = basis[:, self._index]
        block = q.T @ ((coords.T @ coords) @ q)
        # symmetric to the bit, as np.outer is
        self._products.add(0.5 * (block + block.T), coords.shape[0])
        self._values.add(coords.sum(axis=0) @ q, coords.shape[0])

    def result(self) -> CovarianceResult:
        self._sum_buffer()
        means = self._values.mean()
        matrix = self._products.mean() - np.outer(means, means)
        se = self._products.stderr()
        return CovarianceResult(
            self.sites, matrix, None if se is None else se[0], self._products.count
        )


class VarianceAccumulator(_SampleStream):
    """Per-site variance of the field over all lattice sites at once."""

    def __init__(self, n_sites: int, batch_len: int):
        self._products = BatchMeans((n_sites,), batch_len)
        self._values = BatchMeans((n_sites,), batch_len)
        super().__init__(self._products)

    def _add_site(self, phi: np.ndarray) -> None:
        self._products.add(phi * phi)
        self._values.add(phi)

    def _add_block(self, basis: np.ndarray, coords: np.ndarray) -> None:
        squares = ((coords.T @ coords) @ basis) * basis
        self._products.add(squares.sum(axis=0), coords.shape[0])
        self._values.add(coords.sum(axis=0) @ basis, coords.shape[0])

    def result(self) -> tuple[np.ndarray, np.ndarray | None, int]:
        """(variances, stderr of the square averages or None, sample count)."""
        self._sum_buffer()
        variances = self._products.mean() - self._values.mean() ** 2
        se = self._products.stderr()
        return variances, None if se is None else se[0], self._products.count


class MgfAccumulator(_SampleStream):
    """Second derivative of the log moment generating function by central
    finite differences in the source amplitude.

    For distinct sites the four source patterns (+,+), (+,-), (-,+), (-,-)
    at amplitude eps give d^2 ln Z / dj_p dj_q up to O(eps^2); for p = q the
    two patterns +eps, -eps suffice because ln Z(0) = 0 identically.
    Each batch mean of the exponential moments is projected straight onto
    its finite difference, so the error bar is that of the estimate itself.
    For a block of coordinates X the field at the probed sites is X times
    their columns of Q, and the block's exponentials are summed before they
    enter the batch.
    """

    def __init__(self, site_p: int, site_q: int, eps: float, batch_len: int):
        if not 0 < eps <= MAX_MGF_EPSILON:
            raise ValueError(f"eps must be in (0, {MAX_MGF_EPSILON}]")
        self.site_p = int(site_p)
        self.site_q = int(site_q)
        self.eps = float(eps)
        # one row of source signs per pattern, over the distinct sites; the
        # signs are +-1, so each exponent is the same sum of exact products
        # whatever order the product takes
        if self.site_p == self.site_q:
            self._sites = np.array([self.site_p])
            self._signs = np.array([[1.0], [-1.0]])
        else:
            self._sites = np.array([self.site_p, self.site_q])
            self._signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        # a projection that held self would close a reference cycle
        self._moments = BatchMeans(
            (len(self._signs),), batch_len, project=partial(self._finite_difference, self.eps)
        )
        super().__init__(self._moments)

    def _add_site(self, phi: np.ndarray) -> None:
        self._moments.add(self._exponentials(self.eps * self._signs.dot(phi[self._sites])))

    def _add_block(self, basis: np.ndarray, coords: np.ndarray) -> None:
        fields = coords @ basis[:, self._sites]
        exponentials = self._exponentials(self.eps * fields.dot(self._signs.T))
        self._moments.add(exponentials.sum(axis=0), coords.shape[0])

    @staticmethod
    def _exponentials(exponents: np.ndarray) -> np.ndarray:
        # exp stays finite below MAX_EXPONENT; a NaN fails the test too
        if not exponents.max() < MAX_EXPONENT:
            raise EstimatorError(
                "overflow in exponential source average; reduce the probe amplitude eps"
            )
        return np.exp(exponents)

    @staticmethod
    def _finite_difference(eps: float, moments: np.ndarray) -> float:
        logs = np.log(moments)
        if logs.size == 2:
            return float((logs[0] + logs[1]) / eps**2)
        return float((logs[0] - logs[1] - logs[2] + logs[3]) / (4.0 * eps**2))

    def result(self) -> tuple[float, float | None, int]:
        """(estimate, batch-means stderr or None, sample count)."""
        self._sum_buffer()
        estimate = self._moments.mean()
        se = self._moments.stderr()
        return estimate, None if se is None else float(se[0]), self._moments.count


def _time_step(times: np.ndarray) -> float:
    """Spacing of an arithmetic sequence of times, from its end points."""
    return float(times[-1] - times[0]) / (times.size - 1) if times.size > 1 else 0.0


def _tangent_phase(freqs, dt: float, out: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """exp(i dt freqs) in out, from t = tan(dt freqs / 2) in tangent:
    cos = 2 / (1 + t^2) - 1 and sin = 2 t / (1 + t^2).

    Each part lies within a few ulp of cos and sin, and is finite at every
    finite angle: at the float nearest an odd multiple of pi, t is large
    but finite (1.6e16 at pi), so cos is -1 and sin about 2 / t.  tan is
    odd, so -dt gives the conjugate.  numpy runs float64 cos and sin on
    scalar libm, about 150 us each over 15 625 angles on a 2-vCPU Xeon VM,
    and its tan vectorised, about 40 us.
    """
    np.multiply(freqs, 0.5 * dt, out=tangent)
    np.tan(tangent, out=tangent)
    cos, sin = out.real, out.imag
    np.multiply(tangent, tangent, out=cos)
    np.add(cos, 1.0, out=cos)
    np.divide(tangent, cos, out=sin)
    np.multiply(sin, 2.0, out=sin)
    np.divide(2.0, cos, out=cos)
    np.subtract(cos, 1.0, out=cos)
    return out


class _Workspace:
    """The (N,) buffers of one phasing of site weights: field, weights,
    frequencies and tangent (real), and the row and step of `_phase_rows`
    (complex).  A dynamic-shell block shares one; a fixed-shell mean takes
    its own."""

    def __init__(self, n: int):
        self.field, self.weights, self.freqs, self.tangent = (np.empty(n) for _ in range(4))
        self.row = np.empty(n, dtype=complex)
        self.step = np.empty(n, dtype=complex)


def _phase_rows(anchor_time, dt, n_rows, freqs, weights, put, work) -> None:
    """put(j, row) for j = 0 .. n_rows - 1, where row is
    weights * exp(i (anchor_time + j dt) freqs).

    A forward recurrence: row 0 is the weights, times exp(i anchor_time
    freqs) unless that time is 0, and each later row is the one before it
    times exp(i dt freqs).  Both phases come from tangents, so the rows cost
    N tangents (2N off a zero anchor) however many there are, and the
    round-off grows by a few ulp per row.  Each row is formed in the
    `_Workspace` work, and put must not keep it.
    """
    row, step = work.row, work.step
    if anchor_time == 0.0:
        row[...] = weights
    else:
        np.multiply(weights, _tangent_phase(freqs, anchor_time, row, work.tangent), out=row)
    _tangent_phase(freqs, dt, step, work.tangent)
    put(0, row)
    for j in range(1, n_rows):
        np.multiply(row, step, out=row)
        put(j, row)


@dataclass(frozen=True)
class GridSpec:
    """Spacetime evaluation grid: the outer product of a set of times and a
    set of spatial points, enumerated times-major."""

    times: np.ndarray
    spatial: np.ndarray

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        # the correlator builds its time phases by a recurrence in the
        # spacing, so the times must be an arithmetic sequence
        even = times[:1] + _time_step(times) * np.arange(times.size)
        if times.size == 0 or np.abs(times - even).max() > TIME_RTOL * np.abs(times).max():
            raise ValueError("grid times must be a nonempty, evenly spaced sequence")
        object.__setattr__(self, "times", times)
        spatial = np.asarray(self.spatial, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "spatial", spatial)

    @classmethod
    def plane(
        cls,
        t_extent: float,
        t_points: int,
        x_extent: float,
        x_points: int,
        axis: int = 1,
    ) -> "GridSpec":
        """Rectangular grid on the (y0, y_axis) plane through the origin."""
        if axis not in (1, 2, 3):
            raise ValueError("axis must be 1, 2 or 3")
        times = np.linspace(-t_extent, t_extent, t_points)
        spatial = np.zeros((x_points, 3))
        spatial[:, axis - 1] = np.linspace(-x_extent, x_extent, x_points)
        return cls(times, spatial)

    def points(self) -> np.ndarray:
        """(G, 4) rows (y0, y1, y2, y3) in grid order."""
        t = np.repeat(self.times, self.spatial.shape[0])
        x = np.tile(self.spatial, (self.times.shape[0], 1))
        return np.column_stack([t, x])


@dataclass
class CorrelatorGrid:
    """Estimated two-point correlator on a spacetime grid."""

    points: np.ndarray
    values: np.ndarray
    stderr_re: np.ndarray | None
    stderr_im: np.ndarray | None
    source: str
    n_samples: int


class _GridPhases:
    """How a correlator phases site weights onto its grid, holding no
    accumulator, so that a projection through it closes no reference cycle.

    The spatial phase exp(-i p . yvec) depends on p only through its
    integer coordinates on the axes where some spatial point is nonzero
    (one axis on a plane grid: 25 groups of sites at 25^3).  `sums` forms
    the time-phased rows of weights and frequencies in group `order` and
    sums each over the G groups; `on_grid` maps (R, G) sums to the grid.
    With real weights the row at -t is the conjugate of the one at t, so
    where the times below the anchor mirror those above it (to TIME_RTOL)
    only the R rows from the anchor on are formed: from 0 when a time is 0,
    from t_a when t_{a-1} = -t_a, so R = ceil(T/2) on every plane grid;
    otherwise from the first time, R = T.
    """

    def __init__(self, grid: GridSpec, momenta: np.ndarray, n: int):
        moving = np.any(grid.spatial != 0.0, axis=0)
        coords = np.indices((n, n, n)).reshape(3, -1) * moving[:, None]
        key = np.ravel_multi_index(tuple(coords), (n, n, n))
        order = np.argsort(key, kind="stable")
        # sites are already in group order unless the moving axes are minor
        self.order = slice(None) if np.all(np.diff(order) == 1) else order
        key = key[self.order]
        self.starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        # (G, S) phases exp(-i p . x) of one site of each group
        self._group_phase = np.exp(-1j * (momenta[self.order][self.starts] @ grid.spatial.T))
        times, dt = grid.times, _time_step(grid.times)
        tol = TIME_RTOL * np.abs(times).max()
        a = int(np.argmin(np.abs(times)))
        b = a + (1 if times[a] * dt < 0 else -1)  # t_a's neighbour across 0
        # grid times i and pair - i are opposite
        if abs(times[a]) <= tol:
            anchor, pair = 0.0, 2 * a
        elif 0 <= b < times.size and abs(times[a] + times[b]) <= tol:
            anchor, pair = times[max(a, b)], a + b
        else:
            anchor, pair = times[0], 0
        self._mirrored = (pair + 1) // 2  # the grid index of the anchor
        i = np.arange(times.size)
        self._time_index = np.where(i < self._mirrored, pair - i, i) - self._mirrored
        self.n_rows = int(self._time_index.max()) + 1
        self._span = (anchor, dt, self.n_rows)

    def grouped(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """values in group order, put in out unless they are in it already."""
        return values if isinstance(self.order, slice) else np.take(values, self.order, out=out)

    def sums(self, freqs: np.ndarray, weights: np.ndarray, work: _Workspace) -> np.ndarray:
        """(R, G) group sums of weights * exp(i t freqs), all in group order."""
        sums = np.empty((self.n_rows, self.starts.size), dtype=complex)

        def put(j: int, row: np.ndarray) -> None:
            np.add.reduceat(row, self.starts, out=sums[j])

        _phase_rows(*self._span, freqs, weights, put, work)
        return sums

    def on_grid(self, sums: np.ndarray) -> np.ndarray:
        """(T, S) grid of (R, G) group sums."""
        grid = sums[self._time_index]
        mirrored = grid[: self._mirrored]
        np.conjugate(mirrored, out=mirrored)
        return grid @ self._group_phase

    def sites_on_grid(self, freqs: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """(T, S) grid of an (N,) site mean at frequencies in group order."""
        work = _Workspace(mean.shape[0])
        return self.on_grid(self.sums(freqs, self.grouped(mean, work.weights), work))


class CorrelatorAccumulator(_SampleStream):
    """Spacetime two-point correlator estimator.

    Per snapshot the estimator accumulates A(l) * B(y, l) with
    A = sum_{p'} phi(p') and B(y) = sum_p phi(p) exp(i(omega_p y0 - p . yvec)),
    the factorized form of the double sum over site pairs, phasing the
    weights A * phi through a `_GridPhases`.  On a fixed shell omega_p is
    constant: only the (N,) vector A * phi is accumulated (a block of
    coordinates adds (sum_b c_b) Q, with c_j = sqrt(N) x_0 x_j since the
    first row of Q is 1/sqrt(N)), and each batch mean, and the final mean,
    is phased as one sample is.  A dynamic shell re-evaluates omega_p from
    the snapshot's field, so each sample forms its R rows, O(R N) work, in
    the `_Workspace` its block shares and with no other (N,) array.
    """

    def __init__(
        self,
        grid: GridSpec,
        lattice: MomentumLattice,
        shell: MassShell,
        batch_len: int,
    ):
        self.grid = grid
        self.shell = shell
        momenta = lattice.site_momenta()
        phases = self._phases = _GridPhases(grid, momenta, lattice.n_per_axis)
        if isinstance(shell, FixedShell):
            freqs = omega(momenta[phases.order], shell.mass)
            self._root_n = float(np.sqrt(lattice.site_count))
            project = partial(phases.sites_on_grid, freqs)
            self._sums = BatchMeans((lattice.site_count,), batch_len, project=project)
        else:
            # |p|^2 as `omega` sums it, so a dynamic shell's per-sample
            # frequencies are omega's bits without re-summing the momenta
            self._p_squared = np.sum(momenta * momenta, axis=-1)
            shape = (phases.n_rows, phases.starts.size)
            self._sums = BatchMeans(shape, batch_len, complex, project=phases.on_grid)
        super().__init__(self._sums)

    def _add_site(self, phi: np.ndarray) -> None:
        if isinstance(self.shell, FixedShell):
            self._sums.add(float(np.sum(phi)) * phi)
            return
        self._add_sample(_Workspace(phi.shape[0]), phi)

    def _add_block(self, basis: np.ndarray, coords: np.ndarray) -> None:
        if isinstance(self.shell, FixedShell):
            weights = self._root_n * (coords[:, 0] @ coords)
            self._sums.add(weights @ basis, coords.shape[0])
            return
        work = _Workspace(basis.shape[1])
        for x in coords:
            self._add_sample(work, _lift(basis, x, work.field, work.tangent))

    def _add_sample(self, work: _Workspace, phi: np.ndarray) -> None:
        """Add the (R, G) group sums of one dynamic-shell sample."""
        total = float(np.sum(phi))
        masses = effective_masses(self.shell, phi, out=work.freqs)
        freqs = np.multiply(masses, masses, out=work.freqs)
        np.add(self._p_squared, freqs, out=freqs)
        np.sqrt(freqs, out=freqs)
        weights = np.multiply(phi, total, out=work.weights)
        # phi, which may be work.field, is used up
        weights = self._phases.grouped(weights, work.field)
        freqs = self._phases.grouped(freqs, work.weights)
        self._sums.add(self._phases.sums(freqs, weights, work))

    def result(self, source: str = "mc") -> CorrelatorGrid:
        self._sum_buffer()
        values = self._sums.mean().reshape(-1)
        se = self._sums.stderr()
        se_re, se_im = (None, None) if se is None else (se[0].reshape(-1), se[1].reshape(-1))
        return CorrelatorGrid(
            self.grid.points(), values, se_re, se_im, source, self._sums.count
        )
