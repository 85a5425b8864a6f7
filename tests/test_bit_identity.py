"""Bit-for-bit pins of the Haar draw and the gate constructors.

Every seeded output of the package starts from `haar_pure_states` and the
three gate constructors, so they are compared with frozen reference
expressions (Gaussian pairs divided by their norms; the `np.kron` sums of
the gate definitions) as raw 64-bit words. That makes signed zeros count,
which `np.array_equal` would not.
"""
import numpy as np
import pytest

from epmdiag.gates import g_gate, v_angle, v_axis
from epmdiag.linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, haar_pure_states
from helpers import SIGMA_MINUS, SIGMA_PLUS, philox_generator


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def frozen_haar_pure_states(key, dim, n):
    gauss = philox_generator(key).standard_normal((n, 2 * dim))
    z = gauss[:, :dim] + 1j * gauss[:, dim:]
    norms = np.sqrt(np.sum(z.real**2 + z.imag**2, axis=1))
    return z / norms[:, None]


def frozen_r_gate(theta):
    return np.cos(2 * theta) * PAULI_Z + np.sin(2 * theta) * PAULI_X


def frozen_g_gate(theta):
    return np.kron(SIGMA_PLUS, IDENTITY_2) + np.kron(SIGMA_MINUS, frozen_r_gate(theta))


def frozen_v_axis(theta, phi):
    cos_phi = np.cos(phi)
    nx = np.sin(2 * theta) * cos_phi
    ny = np.sin(phi)
    nz = np.cos(2 * theta) * cos_phi
    tilted = -1j * (nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z)
    return np.kron(SIGMA_PLUS, IDENTITY_2) + 1j * np.kron(SIGMA_MINUS, tilted)


def frozen_v_angle(theta, phi):
    cos_alpha = -np.sin(phi / 2)
    sin_alpha = np.cos(phi / 2)
    block = 1j * cos_alpha * IDENTITY_2 + sin_alpha * frozen_r_gate(theta)
    return np.kron(SIGMA_PLUS, IDENTITY_2) + np.kron(SIGMA_MINUS, block)


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("n", [1, 7, 5000])
def test_haar_draw_matches_frozen_expression(dim, n):
    for seed, index in ((0, 0), (3, 1), (2**63 + 11, 5), (123456789, 2**40)):
        drawn = haar_pure_states(seed | index << 64, dim, n)
        frozen = frozen_haar_pure_states(seed | index << 64, dim, n)
        assert drawn.shape == frozen.shape and drawn.dtype == frozen.dtype
        assert np.array_equal(_bits(drawn), _bits(frozen)), (seed, index)


# Includes negative phi, the phi = 0 null, and angles where a sine or cosine
# is exactly zero or changes sign.
THETAS = [0.0, np.pi / 8, np.pi / 4, 0.37, 1.3, np.pi / 2, 2.9, np.pi, -0.6]
PHIS = [0.0, -0.0, 0.2, -0.2, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 2.5, 2 * np.pi, -4.0]


def test_gates_match_kron_sums():
    for theta in THETAS:
        assert np.array_equal(_bits(g_gate(theta)), _bits(frozen_g_gate(theta))), theta
        for phi in PHIS:
            assert np.array_equal(_bits(v_axis(theta, phi)),
                                  _bits(frozen_v_axis(theta, phi))), (theta, phi)
            assert np.array_equal(_bits(v_angle(theta, phi)),
                                  _bits(frozen_v_angle(theta, phi))), (theta, phi)


def test_gates_match_kron_sums_on_a_dense_grid():
    for theta in np.linspace(-np.pi, np.pi, 37):
        theta = float(theta)
        assert np.array_equal(_bits(g_gate(theta)), _bits(frozen_g_gate(theta))), theta
        for phi in np.linspace(-2 * np.pi, 2 * np.pi, 41):
            phi = float(phi)
            assert np.array_equal(_bits(v_axis(theta, phi)),
                                  _bits(frozen_v_axis(theta, phi))), (theta, phi)
            assert np.array_equal(_bits(v_angle(theta, phi)),
                                  _bits(frozen_v_angle(theta, phi))), (theta, phi)
