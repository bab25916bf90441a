"""Exact reference results for the Gaussian ensembles and their correlators.

The sampled field marginal has density proportional to exp(-beta * S_m)
with S_m = phi^T M phi / 2 and M = I + c ones ones^T (see `action`), so the
ensemble covariance is C = M^{-1} / beta.  The rank-one-update inverse
identity gives it for any coupling c:

    C = (1/beta) (I - c ones ones^T / (1 + c N)),

a constant diagonal and a constant off-diagonal: (1/beta) I for `free`
(c = 0) and (1/beta) (I - ones ones^T / (N + 1)) for `free_collective`
(c = 1).  Spacetime correlator grids and the discrete commutator kernel are
derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import MatterActionKind
from .lattice import MomentumLattice, omega

# Elements in one block of the oracle's phases or site counts: 4 MB of
# complex phases.
PHASE_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class ExactCovariance:
    """Closed-form ensemble covariance with constant diagonal and constant
    off-diagonal, stored as two scalars so that N = 25^3 stays O(N)."""

    n_sites: int
    beta: float
    diag: float
    offdiag: float

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        return (self.diag - self.offdiag) * v + self.offdiag * np.sum(v)

    def quadratic_form(self, u: np.ndarray, v: np.ndarray) -> complex:
        """conj(u)^T C v without forming the dense matrix."""
        return complex(np.conj(u) @ self.matvec(v))

    def row_sum(self) -> float:
        return self.diag + (self.n_sites - 1) * self.offdiag


def exact_covariance(kind: MatterActionKind, n_sites: int, beta: float) -> ExactCovariance:
    """M^{-1} / beta for the coupling c of `kind`: diagonal
    (1/beta)(1 - c/(1 + cN)) and off-diagonal -c/(beta (1 + cN))."""
    if n_sites < 1:
        raise ValueError("n_sites must be at least 1")
    if not beta > 0:
        raise ValueError("beta must be positive")
    c = kind.coupling
    collective = 1.0 + c * n_sites
    # 0.0 - x rather than -x keeps the uncoupled off-diagonal at +0.0
    return ExactCovariance(
        n_sites, beta, (1.0 / beta) * (1.0 - c / collective), 0.0 - c / (beta * collective)
    )


def _unit_phases(angles: np.ndarray) -> np.ndarray:
    """exp(i angles) from the direct cos and sin of each angle; the oracle
    keeps its own, so it shares no code with the estimator it checks."""
    out = np.empty(angles.shape, dtype=complex)
    out.real = np.cos(angles)
    out.imag = np.sin(angles)
    return out


def _phase_sums(lattice: MomentumLattice, mass: float, points: np.ndarray) -> np.ndarray:
    """sum_p exp(i(omega(p) y0 - p . yvec)) for each grid point (y0, yvec).

    The phase of site p at a point factorises into exp(i omega_p y0), which
    depends on p only through the float omega_p, and exp(-i p . yvec),
    which depends on p only through its components on the axes where some
    point moves.  So with counts[u, k] the number of sites of frequency
    omega_u and moving-axes momentum p_k, the sums over the unique times t
    and spatial points x of `points` are

        (T, U) exp(i omega_u t) @ counts (U, K) @ (K, S) exp(-i p_k . x),

    and each point gathers its entry.  The times, spatial points and
    momentum keys are taken in blocks, so the memory is
    O(PHASE_BLOCK_ELEMENTS) whatever the points and the lattice.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != 4:
        raise ValueError("grid points must be rows (y0, y1, y2, y3)")
    times, time_of = np.unique(points[:, 0], return_inverse=True)
    spatial, spatial_of = np.unique(points[:, 1:], axis=0, return_inverse=True)
    spatial_of = spatial_of.reshape(-1)
    momenta = lattice.site_momenta()
    freqs, freq_of = np.unique(omega(momenta, mass), return_inverse=True)
    # key of a site: its momentum components on the moving axes, numbered
    # 0 .. K-1 in mixed radix, as the lattice holds every combination
    moving = np.any(spatial != 0.0, axis=0)
    key_of = np.zeros(momenta.shape[0], dtype=np.intp)
    for axis in np.flatnonzero(moving):
        values, value_of = np.unique(momenta[:, axis], return_inverse=True)
        key_of = key_of * values.size + value_of
    n_keys = int(key_of.max()) + 1
    # sites in key order, so the sites of a run of keys are contiguous
    by_key = np.argsort(key_of, kind="stable")
    key_starts = np.searchsorted(key_of[by_key], np.arange(n_keys + 1))
    keys = np.where(moving, momenta[by_key[key_starts[:-1]]], 0.0)

    n_freqs = freqs.size
    t_block = max(1, min(times.size, PHASE_BLOCK_ELEMENTS // n_freqs))
    x_block = max(1, min(spatial.shape[0], PHASE_BLOCK_ELEMENTS // t_block))
    k_block = max(1, PHASE_BLOCK_ELEMENTS // max(n_freqs, t_block, x_block))
    sums = np.empty(points.shape[0], dtype=complex)
    for t0 in range(0, times.size, t_block):
        time_phases = _unit_phases(np.outer(times[t0 : t0 + t_block], freqs))
        for x0 in range(0, spatial.shape[0], x_block):
            x_slice = spatial[x0 : x0 + x_block]
            tile = np.zeros((time_phases.shape[0], x_slice.shape[0]), dtype=complex)
            for k0 in range(0, n_keys, k_block):
                k1 = min(k0 + k_block, n_keys)
                sites = by_key[key_starts[k0] : key_starts[k1]]
                counts = np.bincount(
                    freq_of[sites] * (k1 - k0) + key_of[sites] - k0,
                    minlength=n_freqs * (k1 - k0),
                ).reshape(n_freqs, k1 - k0)
                space_phases = _unit_phases(-(keys[k0:k1] @ x_slice.T))
                tile += (time_phases @ counts) @ space_phases
            inside = (time_of >= t0) & (time_of < t0 + t_block)
            inside &= (spatial_of >= x0) & (spatial_of < x0 + x_block)
            sums[inside] = tile[time_of[inside] - t0, spatial_of[inside] - x0]
    return sums


def expected_correlator(
    kind: MatterActionKind,
    lattice: MomentumLattice,
    mass: float,
    beta: float,
    points: np.ndarray,
) -> np.ndarray:
    """Exact grid of sum_{p',p} C_{p'p} exp(i(omega_p y0 - p . yvec)).

    Only the fixed mass shell has a closed form.  Because both covariances
    have constant row sums, the double sum collapses to (row sum) times the
    single phase sum over sites.
    """
    cov = exact_covariance(kind, lattice.site_count, beta)
    return cov.row_sum() * _phase_sums(lattice, mass, points)


def pauli_jordan_discrete(
    lattice: MomentumLattice, mass: float, beta: float, points: np.ndarray
) -> np.ndarray:
    """Discrete commutator kernel (1/beta) sum_p sin(omega_p y0 - p . yvec).

    This is exactly the imaginary part of the free expected correlator.  On
    the centered lattice it vanishes identically at y0 = 0 by the p <-> -p
    pairing and is odd under y0 -> -y0 at yvec = 0.
    """
    return _phase_sums(lattice, mass, points).imag / beta


def smeared_commutator(
    lattice: MomentumLattice,
    mass: float,
    beta: float,
    weights_a: np.ndarray,
    weights_b: np.ndarray,
    delta: np.ndarray,
) -> float:
    """Envelope-weighted commutator kernel for two packets separated by the
    spacetime displacement delta = (dt, dx, dy, dz):

        (2/beta) sum_p w_a(p) w_b(p) sin(omega_p dt - p . dvec)

    Direct site sum, independent of the operator-algebra code path.
    """
    delta = np.asarray(delta, dtype=float).reshape(4)
    momenta = lattice.site_momenta()
    freqs = omega(momenta, mass)
    angles = freqs * delta[0] - momenta @ delta[1:]
    wa = np.asarray(weights_a, dtype=float)
    wb = np.asarray(weights_b, dtype=float)
    return (2.0 / beta) * float(np.sum(wa * wb * np.sin(angles)))
