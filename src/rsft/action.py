"""Matter actions, their gradients, and the extended bath action.

The matter action is a Gaussian functional of the field values; the extended
action adds the conjugate-field kinetic term, the bath kinetic term, and a
logarithmic bath potential:

    S_x = sum_p pi_phi(p)^2 / (2 s^2) + pi_s^2 / (2 m_s)
          + S_m[phi] + (n_f / beta) ln s

The conserved quantity of the flow is the total action s * (S_x - S_0),
where S_0 is the extended action recorded once at the initial state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class MatterActionKind(enum.Enum):
    """Choice of Gaussian matter action.

    FREE:            S_m[phi] = sum_p phi(p)^2 / 2
    FREE_COLLECTIVE: S_m[phi] = sum_p phi(p)^2 / 2 + (sum_p phi(p))^2 / 2

    The collective square couples every mode to the field sum; without it
    the modes evolve independently.
    """

    FREE = "free"
    FREE_COLLECTIVE = "free_collective"


@dataclass(frozen=True)
class BathParams:
    """Bath coupling constants: inverse temperature analog beta, bath mass
    m_s, and the number of field degrees of freedom n_f (one per site)."""

    beta: float
    m_s: float
    n_f: int

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.m_s > 0:
            raise ValueError("m_s must be positive")
        if self.n_f < 1:
            raise ValueError("n_f must be at least 1")


def matter_action(kind: MatterActionKind, phi: np.ndarray) -> float:
    value = 0.5 * float(phi @ phi)
    if kind is MatterActionKind.FREE_COLLECTIVE:
        value += 0.5 * float(np.sum(phi)) ** 2
    return value


def matter_grad(kind: MatterActionKind, phi: np.ndarray) -> np.ndarray:
    """Componentwise derivative of the matter action."""
    grad = phi.copy()
    if kind is MatterActionKind.FREE_COLLECTIVE:
        grad += np.sum(phi)
    return grad


def extended_action(
    phi: np.ndarray,
    pi_phi: np.ndarray,
    s: float,
    pi_s: float,
    kind: MatterActionKind,
    bath: BathParams,
) -> float:
    if not s > 0:
        raise ValueError("bath scalar s must be positive (log of nonpositive value)")
    return (
        float(pi_phi @ pi_phi) / (2.0 * s * s)
        + pi_s * pi_s / (2.0 * bath.m_s)
        + matter_action(kind, phi)
        + (bath.n_f / bath.beta) * math.log(s)
    )
