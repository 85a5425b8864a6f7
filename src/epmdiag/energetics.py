"""The local energy basis of the end-point-measurement (EPM) scheme.

The EPM scheme assigns an energy change Delta E = E_fin - E_in from two
independent projective energy measurements, one on the input state and one
on the gate output. Every Hamiltonian here is diagonal in the
computational basis, so all exponentials are exact elementwise ones.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LocalHamiltonian:
    """Hamiltonian diagonal in the computational basis, stored as energies."""

    energies: np.ndarray

    def exp_diag(self, factor: complex) -> np.ndarray:
        """Elementwise exp(factor * E_k); exact, no matrix exponential involved."""
        return np.exp(factor * self.energies)


def local_hamiltonian_2q() -> LocalHamiltonian:
    """Local two-qubit Hamiltonian sz (x) I + I (x) sz.

    Energies are (2, 0, 0, -2) on |00>, |01>, |10>, |11>; the middle levels
    are degenerate but kept as separate rank-1 outcomes, matching a local
    measurement in the computational basis.
    """
    return LocalHamiltonian(energies=np.array([2.0, 0.0, 0.0, -2.0]))
