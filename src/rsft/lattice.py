"""Momentum-space lattice geometry and mass-shell frequencies.

The field lives on a finite cubic grid of momentum points centered on the
origin.  Each site is embedded in Minkowski momentum space on the positive
frequency branch p0 = omega(p) = sqrt(|p|^2 + m^2), where the mass parameter
is either a fixed constant or derived from the instantaneous field values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class MomentumLattice:
    """Cubic grid of momentum sites centered on the origin.

    Sites carry integer coordinates (a, b, c), each in range(n_per_axis),
    enumerated lexicographically; component i of site (a, b, c) equals
    (a - (n_per_axis - 1)/2) * spacing.  For odd n_per_axis the origin is a
    site, for even n_per_axis it is not.
    """

    n_per_axis: int
    spacing: float

    def __post_init__(self):
        if not isinstance(self.n_per_axis, int) or self.n_per_axis < 1:
            raise ValueError("n_per_axis must be a positive integer")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")

    @property
    def site_count(self) -> int:
        return self.n_per_axis**3

    @property
    def _offset(self) -> float:
        return (self.n_per_axis - 1) / 2.0

    def site_coordinates(self, index: int) -> tuple[int, int, int]:
        """Integer coordinates (a, b, c) of a flat site index."""
        n = self.n_per_axis
        if not 0 <= index < self.site_count:
            raise IndexError(f"site index {index} out of range [0, {self.site_count})")
        a, rem = divmod(index, n * n)
        b, c = divmod(rem, n)
        return a, b, c

    def site_index(self, a: int, b: int, c: int) -> int:
        """Flat index of integer coordinates (a, b, c)."""
        n = self.n_per_axis
        for x in (a, b, c):
            if not 0 <= x < n:
                raise IndexError(f"coordinate {x} out of range [0, {n})")
        return (a * n + b) * n + c

    def site_momentum(self, index: int) -> np.ndarray:
        """Momentum 3-vector of a flat site index."""
        a, b, c = self.site_coordinates(index)
        off = self._offset
        return np.array(
            [(a - off) * self.spacing, (b - off) * self.spacing, (c - off) * self.spacing]
        )

    def site_momenta(self) -> np.ndarray:
        """All site momenta as an (N, 3) array in lexicographic site order."""
        n = self.n_per_axis
        axis = (np.arange(n) - self._offset) * self.spacing
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        return grid.reshape(-1, 3)


@dataclass(frozen=True)
class FixedShell:
    """Mass-shell with a constant mass parameter."""

    mass: float

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")


@dataclass(frozen=True)
class GlobalDynamicShell:
    """Mass parameter |sum_p phi(p)|, one value for the whole lattice."""


@dataclass(frozen=True)
class LocalDynamicShell:
    """Mass parameter |phi(p)| at each site separately."""


MassShell = Union[FixedShell, GlobalDynamicShell, LocalDynamicShell]


def omega(p, mass) -> np.ndarray:
    """Mass-shell frequency sqrt(|p|^2 + mass^2).

    Accepts a single 3-vector or an (..., 3) array of momenta; mass is a
    nonnegative scalar or an array broadcastable against the leading axes.
    """
    p = np.asarray(p, dtype=float)
    mass = np.asarray(mass, dtype=float)
    if np.any(mass < 0):
        raise ValueError("mass must be nonnegative")
    return np.sqrt(np.sum(p * p, axis=-1) + mass * mass)


def effective_masses(shell: MassShell, phi: np.ndarray | None, out: np.ndarray | None = None):
    """Mass parameter for every site: a scalar, or an (N,) array for the
    locally dynamic shell, in out if given.  Dynamic kinds require the
    field values."""
    if isinstance(shell, FixedShell):
        return shell.mass
    if phi is None:
        raise ValueError("dynamic mass shells require field values")
    if isinstance(shell, GlobalDynamicShell):
        return abs(float(np.sum(phi)))
    if isinstance(shell, LocalDynamicShell):
        return np.abs(phi, out=out)
    raise TypeError(f"unknown mass-shell kind: {shell!r}")

