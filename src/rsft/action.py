"""The Gaussian matter action, its gradient, and the extended bath action.

Both matter actions are one quadratic form in the field values,

    S_m[phi] = phi^T M phi / 2,    M = I + c ones ones^T,

and differ only in the coupling c of the collective square: c = 0 for
`free` (every mode evolves on its own) and c = 1 for `free_collective`
(every mode is coupled to the field sum).  Each `MatterActionKind` carries
its c; the action, its gradient M phi and the ensemble covariance
M^{-1} / beta of `oracles` are all computed from it.

The extended action adds the conjugate-field kinetic term, the bath
kinetic term, and a logarithmic bath potential:

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
    """Choice of Gaussian matter action, by its config name, carrying the
    coupling c of M = I + c ones ones^T.

    FREE:            S_m[phi] = sum_p phi(p)^2 / 2
    FREE_COLLECTIVE: S_m[phi] = sum_p phi(p)^2 / 2 + (sum_p phi(p))^2 / 2
    """

    FREE = ("free", 0.0)
    FREE_COLLECTIVE = ("free_collective", 1.0)

    def __new__(cls, label: str, coupling: float):
        member = object.__new__(cls)
        member._value_ = label
        member.coupling = coupling
        return member


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
    """phi^T M phi / 2 = phi . phi / 2 + c (sum phi)^2 / 2."""
    return 0.5 * float(phi @ phi) + kind.coupling * (0.5 * float(np.sum(phi)) ** 2)


def matter_grad(kind: MatterActionKind, phi: np.ndarray) -> np.ndarray:
    """Componentwise derivative of the matter action, M phi = phi + c sum phi."""
    return phi + kind.coupling * np.sum(phi)


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
