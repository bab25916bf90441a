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

# Grid points times sites in one block of the oracle's phase angles: 2 MB
# of angles, 4 MB of complex phases.
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


def _phase_sums(lattice: MomentumLattice, mass: float, points: np.ndarray, phase) -> np.ndarray:
    """sum_p phase(omega(p) y0 - p . yvec) for each grid point (y0, yvec).

    The (G, N) angles are built a block of grid points at a time, so the
    memory is O(PHASE_BLOCK_ELEMENTS) whatever the grid and the lattice.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != 4:
        raise ValueError("grid points must be rows (y0, y1, y2, y3)")
    momenta = lattice.site_momenta()
    freqs = omega(momenta, mass)
    rows = max(1, PHASE_BLOCK_ELEMENTS // freqs.size)
    sums = [
        phase(np.outer(block[:, 0], freqs) - block[:, 1:] @ momenta.T).sum(axis=1)
        for block in (points[start : start + rows] for start in range(0, points.shape[0], rows))
    ]
    return np.concatenate(sums) if sums else np.zeros(0)


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
    return cov.row_sum() * _phase_sums(lattice, mass, points, lambda angles: np.exp(1j * angles))


def pauli_jordan_discrete(
    lattice: MomentumLattice, mass: float, beta: float, points: np.ndarray
) -> np.ndarray:
    """Discrete commutator kernel (1/beta) sum_p sin(omega_p y0 - p . yvec).

    This is exactly the imaginary part of the free expected correlator.  On
    the centered lattice it vanishes identically at y0 = 0 by the p <-> -p
    pairing and is odd under y0 -> -y0 at yvec = 0.
    """
    return _phase_sums(lattice, mass, points, np.sin) / beta


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
