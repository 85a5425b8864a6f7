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

Both reduce exactly (bit for bit) to G(theta) at phi = 0. Each constructor
takes scalar angles for one matrix, or arrays (theta and phi broadcast) for
a (..., dim, dim) stack whose slices equal the scalar calls bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z


def _scaled(coef, matrix: np.ndarray) -> np.ndarray:
    """coef * matrix, each entry of a scalar or array coef scaling a whole 2x2 matrix."""
    return np.asarray(coef)[..., None, None] * matrix


def r_gate(theta) -> np.ndarray:
    """Single-qubit pi rotation cos(2 theta) sz + sin(2 theta) sx (Hermitian)."""
    return _scaled(np.cos(2 * theta), PAULI_Z) + _scaled(np.sin(2 * theta), PAULI_X)


def _controlled(block: np.ndarray) -> np.ndarray:
    """s+ (x) I + s- (x) block, written out without np.kron, for a (..., 2, 2) block.

    s+ (x) I puts ones at (0, 2) and (1, 3); s- (x) block fills the
    lower-left 2x2 corner. Adding 0.0 turns every -0.0 of the block into
    +0.0, as adding the zeros of the other Kronecker term does, so the
    result equals the kron sum bit for bit.
    """
    gate = np.zeros(block.shape[:-2] + (4, 4), dtype=complex)
    gate[..., 0, 2] = gate[..., 1, 3] = 1.0
    gate[..., 2:, :2] = block + 0.0
    return gate


def g_gate(theta) -> np.ndarray:
    """Ideal conditional two-qubit gate s+ (x) I + s- (x) R(theta)."""
    return _controlled(r_gate(theta))


def v_axis(theta, phi) -> np.ndarray:
    """Rotation-axis error unitary: the target rotation axis is tilted by phi.

    Returns s+ (x) I + i s- (x) (-i)(n~ . sigma); the phases i (-i)
    cancel exactly, so the block is built as n~ . sigma. Equals
    g_gate(theta) when phi = 0.
    """
    cos_phi = np.cos(phi)
    nx = np.sin(2 * theta) * cos_phi
    ny = np.sin(phi)
    nz = np.cos(2 * theta) * cos_phi
    return _controlled(_scaled(nx, PAULI_X) + _scaled(ny, PAULI_Y) + _scaled(nz, PAULI_Z))


def v_angle(theta, phi) -> np.ndarray:
    """Rotation-angle error unitary with alpha = (phi + pi)/2.

    The target block is i cos(alpha) I + sin(alpha) R(theta); cos(alpha)
    and sin(alpha) are evaluated as -sin(phi/2) and cos(phi/2), which is
    the same quantity without cancellation, so phi = 0 reproduces
    g_gate(theta) exactly.
    """
    cos_alpha = -np.sin(phi / 2)
    sin_alpha = np.cos(phi / 2)
    block = _scaled(1j * cos_alpha, IDENTITY_2) + _scaled(sin_alpha, r_gate(theta))
    return _controlled(block)


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
