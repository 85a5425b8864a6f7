import math

import numpy as np

from epmdiag.element_sums import epm_char_fn
from epmdiag.energetics import local_hamiltonian_2q
from epmdiag.gates import g_gate, v_angle, v_axis
from epmdiag.linalg import RngStream, haar_pure_states, plus_plus_state

IDENTITY_4 = np.eye(4, dtype=complex)


def random_rho(seed, index):
    psi = haar_pure_states(RngStream(seed, index), 4, 1)[0]
    return np.outer(psi, psi.conj())


def diag_and_chi(rho):
    diag = np.diag(np.diag(rho))
    return diag, rho - diag


def delta_e_distribution(rho, v, h):
    """p(dE) recovered from epm_char_fn by a discrete Fourier inversion.

    The energies are 2, 0, 0, -2, so dE = 2m with m in -2..2 and the
    characteristic function sampled at u = pi j / 5, j = 0..4, fixes p(m).
    """
    samples = [epm_char_fn(np.pi * j / 5, rho, rho, v, h) for j in range(5)]
    return {
        2 * m: sum(g * np.exp(-2j * np.pi * j * m / 5) for j, g in enumerate(samples)) / 5
        for m in range(-2, 3)
    }


def test_local_hamiltonian_energies():
    h = local_hamiltonian_2q()
    assert list(h.energies) == [2.0, 0.0, 0.0, -2.0]


def test_exponentials_are_exact():
    h = local_hamiltonian_2q()
    assert list(h.exp_diag(-1.0)) == [math.exp(-2), 1.0, 1.0, math.exp(2)]
    assert list(h.exp_diag(1.0)) == [math.exp(2), 1.0, 1.0, math.exp(-2)]


def test_epm_distribution_basis_state_identity_channel():
    h = local_hamiltonian_2q()
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    dist = delta_e_distribution(rho, IDENTITY_4, h)
    assert abs(dist[0] - 1.0) < 1e-12
    assert all(abs(p) < 1e-12 for de, p in dist.items() if de != 0)
    # |00> (E = 2) sent to |11> (E = -2): dE = E_final - E_initial = -4
    flip = np.fliplr(IDENTITY_4)
    dist = delta_e_distribution(rho, flip, h)
    assert abs(dist[-4] - 1.0) < 1e-12
    assert all(abs(p) < 1e-12 for de, p in dist.items() if de != -4)


def test_epm_distribution_plus_plus_uniform():
    # p(k, l) = 1/16 for every pair of outcomes, so p(dE) is binomial(4)/16
    h = local_hamiltonian_2q()
    rho = np.outer(plus_plus_state(), plus_plus_state().conj())
    dist = delta_e_distribution(rho, IDENTITY_4, h)
    for de, count in zip((-4, -2, 0, 2, 4), (1, 4, 6, 4, 1)):
        assert abs(dist[de] - count / 16) < 1e-12


def test_epm_distribution_normalized_and_factorized():
    h = local_hamiltonian_2q()
    for i in range(20):
        rho = random_rho(37, i)
        v = v_axis(0.1 * i, 0.05 * i)
        dist = delta_e_distribution(rho, v, h)
        assert abs(sum(dist.values()) - 1.0) < 1e-12
        p_in = np.diag(rho).real
        p_fin = np.diag(v @ rho @ v.conj().T).real
        expected = dict.fromkeys(dist, 0.0)
        for k in range(4):
            for l in range(4):
                expected[h.energies[l] - h.energies[k]] += p_in[k] * p_fin[l]
        for de, p in dist.items():
            assert abs(p - expected[de]) < 1e-12


def test_char_fn_at_zero_is_one():
    h = local_hamiltonian_2q()
    for i in range(5):
        rho = random_rho(41, i)
        v = v_angle(0.3 * i, 0.2 * i)
        assert abs(epm_char_fn(0.0, rho, rho, v, h) - 1.0) < 1e-14


def test_char_fn_matches_distribution_sum_for_real_u():
    # the EPM outcome distribution is the product p(k, l) = p_in[k] p_fin[l]
    h = local_hamiltonian_2q()
    gen = np.random.default_rng(43)
    for i in range(20):
        rho = random_rho(47, i)
        v = v_axis(gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        u = gen.uniform(-3, 3)
        p_in = np.diag(rho).real
        p_fin = np.diag(v @ rho @ v.conj().T).real
        delta_e = h.energies[None, :] - h.energies[:, None]
        sum_form = np.sum(np.outer(p_in, p_fin) * np.exp(1j * u * delta_e))
        assert abs(epm_char_fn(u, rho, rho, v, h) - sum_form) < 1e-12


def test_char_fn_imaginary_u_analytic_value():
    h = local_hamiltonian_2q()
    rho = np.outer(plus_plus_state(), plus_plus_state().conj())
    value = epm_char_fn(1j, rho, rho, IDENTITY_4, h)
    assert abs(value - math.cosh(1.0) ** 4) < 1e-12
    assert abs(value.imag) < 1e-15


def test_chi_component_zero_for_diagonal_state():
    h = local_hamiltonian_2q()
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    _, chi = diag_and_chi(rho)
    for theta in (0.0, 0.5, 1.3):
        for phi in (0.0, 0.4, 2.5):
            for family in (v_axis, v_angle):
                v = family(theta, phi)
                for u in (0.3, 1j, 2.0 - 0.5j):
                    assert abs(epm_char_fn(u, rho, chi, v, h)) == 0.0


def test_chi_component_zero_at_u_i_for_identity_channel():
    h = local_hamiltonian_2q()
    for i in range(10):
        rho = random_rho(53, i)
        _, chi = diag_and_chi(rho)
        assert abs(epm_char_fn(1j, rho, chi, IDENTITY_4, h)) < 1e-14


def test_component_decomposition_completeness():
    h = local_hamiltonian_2q()
    gen = np.random.default_rng(59)
    for i in range(200):
        rho = random_rho(61, i)
        family = v_axis if gen.random() < 0.5 else v_angle
        v = family(gen.uniform(0, np.pi), gen.uniform(0, 2 * np.pi))
        u = complex(gen.uniform(-2, 2), gen.uniform(-2, 2))
        total = epm_char_fn(u, rho, rho, v, h)
        parts = sum(epm_char_fn(u, rho, q, v, h) for q in diag_and_chi(rho))
        assert abs(total - parts) < 1e-12


def test_chi_component_cross_checked_against_element_sum():
    # brute-force sum over n and m1 != m2 of the evolved coherence part
    h = local_hamiltonian_2q()
    rho = np.outer(plus_plus_state(), plus_plus_state().conj())
    v = g_gate(np.pi / 8)
    expected = 0.0 + 0.0j
    w_minus = h.exp_diag(-1.0)
    for n in range(4):
        for m1 in range(4):
            for m2 in range(4):
                if m1 == m2:
                    continue
                expected += w_minus[n] * rho[m1, m2] * v[n, m1] * np.conj(v[n, m2])
    expected *= math.cosh(1.0) ** 2
    _, chi = diag_and_chi(rho)
    assert abs(epm_char_fn(1j, rho, chi, v, h) - expected) < 1e-12
