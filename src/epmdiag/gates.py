"""Ideal controlled gates, coherent error unitaries and waveplate settings.

The single-qubit rotation is R(theta) = cos(2 theta) sz + sin(2 theta) sx,
a pi rotation about the Bloch axis n = (sin 2theta, 0, cos 2theta). The
two-qubit gate is G(theta) = s+ (x) I + s- (x) R(theta): it rotates the
target when the control starts in |0> while flipping the control. Two
coherent error families perturb the target block only:

  axis error   V_axis(theta, phi):  rotation axis tilted to
               n~ = (sin 2theta cos phi, sin phi, cos 2theta cos phi),
               block i * (-i)(n~ . sigma)
  angle error  V_angle(theta, phi): rotation angle perturbed through
               alpha = (phi + pi)/2, block i cos(alpha) I + sin(alpha) R(theta)

Both reduce exactly (bit for bit) to G(theta) at phi = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SIGMA_MINUS,
    SIGMA_PLUS,
)


def r_gate(theta: float) -> np.ndarray:
    """Single-qubit pi rotation cos(2 theta) sz + sin(2 theta) sx (Hermitian)."""
    return np.cos(2 * theta) * PAULI_Z + np.sin(2 * theta) * PAULI_X


def g_gate(theta: float) -> np.ndarray:
    """Ideal conditional two-qubit gate s+ (x) I + s- (x) R(theta)."""
    return np.kron(SIGMA_PLUS, IDENTITY_2) + np.kron(SIGMA_MINUS, r_gate(theta))


def v_axis(theta: float, phi: float) -> np.ndarray:
    """Rotation-axis error unitary: the target rotation axis is tilted by phi.

    Returns s+ (x) I + i s- (x) (-i)(n~ . sigma). Equals g_gate(theta)
    when phi = 0.
    """
    cos_phi = np.cos(phi)
    nx = np.sin(2 * theta) * cos_phi
    ny = np.sin(phi)
    nz = np.cos(2 * theta) * cos_phi
    tilted = -1j * (nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z)
    return np.kron(SIGMA_PLUS, IDENTITY_2) + 1j * np.kron(SIGMA_MINUS, tilted)


def v_angle(theta: float, phi: float) -> np.ndarray:
    """Rotation-angle error unitary with alpha = (phi + pi)/2.

    The target block is i cos(alpha) I + sin(alpha) R(theta); cos(alpha)
    and sin(alpha) are evaluated as -sin(phi/2) and cos(phi/2), which is
    the same quantity without cancellation, so phi = 0 reproduces
    g_gate(theta) exactly.
    """
    cos_alpha = -np.sin(phi / 2)
    sin_alpha = np.cos(phi / 2)
    block = 1j * cos_alpha * IDENTITY_2 + sin_alpha * r_gate(theta)
    return np.kron(SIGMA_PLUS, IDENTITY_2) + np.kron(SIGMA_MINUS, block)


@dataclass(frozen=True)
class WaveplateSettings:
    """Half- and quarter-waveplate angles realizing the axis-error gate."""

    hwp_s1: float
    hwp_s2: float
    qwp_s1: float
    qwp_s2: float


def waveplate_settings(theta: float, phi: float) -> WaveplateSettings:
    """Waveplate angles for (theta, phi): HWPs at theta/2 + phi/4, QWPs split by pi/2."""
    hwp = theta / 2 + phi / 4
    return WaveplateSettings(
        hwp_s1=hwp,
        hwp_s2=hwp,
        qwp_s1=phi / 2 + np.pi / 2,
        qwp_s2=phi / 2,
    )
