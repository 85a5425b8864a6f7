import numpy as np

from epmdiag.gates import g_gate, r_gate, v_angle, v_axis, waveplate_settings
from epmdiag.linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z
from helpers import SIGMA_PLUS

BASIS = np.eye(4, dtype=complex)  # the computational basis states, as rows


def test_r_gate_special_angles():
    assert np.allclose(r_gate(0.0), PAULI_Z, atol=1e-15)
    assert np.allclose(r_gate(np.pi / 4), PAULI_X, atol=1e-15)
    hadamard = (PAULI_Z + PAULI_X) / np.sqrt(2)
    assert np.allclose(r_gate(np.pi / 8), hadamard, atol=1e-15)


def test_r_gate_hermitian_unitary_periodic():
    for theta in np.linspace(-2.0, 2.0, 17):
        r = r_gate(theta)
        assert np.max(np.abs(r - r.conj().T)) < 1e-12
        assert np.max(np.abs(r @ r.conj().T - np.eye(2))) < 1e-12
        assert np.max(np.abs(r_gate(theta + np.pi) - r)) < 1e-12


def test_g_gate_flips_control_from_zero():
    out = g_gate(0.0) @ BASIS[0]
    assert np.allclose(out, BASIS[2], atol=1e-15)


def test_g_gate_unitary():
    for theta in (0.1, 0.7, 2.3):
        g = g_gate(theta)
        assert np.max(np.abs(g @ g.conj().T - np.eye(4))) < 1e-12


def test_g_gate_hadamard_action():
    out = g_gate(np.pi / 8) @ BASIS[1]
    expected = (BASIS[2] - BASIS[3]) / np.sqrt(2)
    assert np.max(np.abs(out - expected)) < 1e-14


def test_v_axis_reduces_to_g_at_phi_zero():
    assert np.max(np.abs(v_axis(0.37, 0.0) - g_gate(0.37))) < 1e-14
    # the reduction is exact, which keeps the zero-error null exact downstream
    assert np.array_equal(v_axis(0.37, 0.0), g_gate(0.37))


def test_v_axis_pure_y_tilt():
    block = v_axis(0.0, np.pi / 2)[2:4, 0:2]
    assert np.allclose(block, PAULI_Y, atol=1e-12)


def test_v_axis_unitary():
    v = v_axis(0.3, 0.7)
    assert np.max(np.abs(v @ v.conj().T - np.eye(4))) < 1e-12


def test_v_angle_reduces_to_g_at_phi_zero():
    assert np.max(np.abs(v_angle(1.1, 0.0) - g_gate(1.1))) < 1e-14
    assert np.array_equal(v_angle(1.1, 0.0), g_gate(1.1))


def test_phi_zero_identity_across_theta_grid():
    for theta in np.linspace(0.0, np.pi, 33):
        g = g_gate(theta)
        assert np.max(np.abs(v_axis(theta, 0.0) - g)) < 1e-14
        assert np.max(np.abs(v_angle(theta, 0.0) - g)) < 1e-14


def test_v_angle_full_error_block():
    block = v_angle(0.9, np.pi)[2:4, 0:2]
    assert np.allclose(block, -1j * IDENTITY_2, atol=1e-12)


def test_v_angle_unitary():
    v = v_angle(0.5, 2.0)
    assert np.max(np.abs(v @ v.conj().T - np.eye(4))) < 1e-12


def test_all_constructors_unitary_on_random_angles():
    gen = np.random.default_rng(23)
    for _ in range(100):
        theta = gen.uniform(-np.pi, np.pi)
        phi = gen.uniform(0, 2 * np.pi)
        for gate in (r_gate(theta), g_gate(theta), v_axis(theta, phi), v_angle(theta, phi)):
            dim = gate.shape[0]
            assert np.max(np.abs(gate @ gate.conj().T - np.eye(dim))) < 1e-12


def test_errors_leave_control_one_block_alone():
    # inputs |1m> only see the control flip, identically for all constructors
    gen = np.random.default_rng(29)
    raising_block = np.kron(SIGMA_PLUS, IDENTITY_2)[:, 2:4]
    for _ in range(20):
        theta = gen.uniform(0, np.pi)
        phi = gen.uniform(0, 2 * np.pi)
        for v in (g_gate(theta), v_axis(theta, phi), v_angle(theta, phi)):
            assert np.array_equal(v[:, 2:4], raising_block)


def test_waveplate_settings_values():
    s = waveplate_settings(0.0, 0.0)
    assert s.hwp_s1 == 0.0 and s.hwp_s2 == 0.0
    assert s.qwp_s1 == np.pi / 2 and s.qwp_s2 == 0.0

    s = waveplate_settings(np.pi / 4, np.pi / 9)
    assert abs(s.hwp_s1 - (np.pi / 8 + np.pi / 36)) < 1e-15
    assert s.hwp_s1 == s.hwp_s2

    for theta in (0.0, 0.3, 1.2):
        s = waveplate_settings(theta, 0.0)
        assert abs((s.qwp_s1 - s.qwp_s2) - np.pi / 2) < 1e-15
