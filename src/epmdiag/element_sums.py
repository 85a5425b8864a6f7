"""Reference oracles for the merit kernels.

The element sums are deliberately slow, loop-based implementations that
expand each kernel into sums over computational-basis matrix elements.
`epm_char_fn` is the trace definition of the EPM characteristic function,
whose coherence part at u = i is what eta_chi and G_chi measure, and
`eta_chi_haar_average` the exact Haar average of eta_chi for the paper's
gates. None of this shares code with the vectorized kernels in `merit` or the table
pipeline in `reconstruct`; it exists as an independent route for
cross-checking them.
"""
from __future__ import annotations

import numpy as np

from .energetics import LocalHamiltonian
from .errors import ValidationError
from .merit import MeritKind


def _rho_elements(psi0: np.ndarray) -> np.ndarray:
    psi0 = np.asarray(psi0, dtype=complex)
    return psi0[:, None] * psi0.conj()[None, :]


def element_sum_fidelity(psi0: np.ndarray, u_ideal: np.ndarray, v_noisy: np.ndarray) -> float:
    """Fidelity kernel as the full six-index element sum.

    The (n1, n2) density elements enter from the bra side and the (l1, l2)
    ones from the ket side, so the first factor is the transposed element
    rho[n2, n1]; with both factors read the same way the sum would couple
    the state to its complex conjugate instead.
    """
    rho = _rho_elements(psi0)
    dim = rho.shape[0]
    total = 0.0 + 0.0j
    for n1 in range(dim):
        for n2 in range(dim):
            for m1 in range(dim):
                for m2 in range(dim):
                    for l1 in range(dim):
                        for l2 in range(dim):
                            total += (
                                rho[n2, n1]
                                * rho[l1, l2]
                                * np.conj(u_ideal[m1, n1])
                                * v_noisy[m1, l1]
                                * np.conj(v_noisy[m2, l2])
                                * u_ideal[m2, n2]
                            )
    return float(total.real)


def element_sum_coherence_fid(psi0: np.ndarray, u_ideal: np.ndarray, v_noisy: np.ndarray) -> float:
    """Coherence mismatch kernel with both output matrices built element by element."""
    rho = _rho_elements(psi0)
    dim = rho.shape[0]

    def l1_of(gate: np.ndarray) -> float:
        total = 0.0
        for n in range(dim):
            for k in range(dim):
                if n == k:
                    continue
                entry = 0.0 + 0.0j
                for m1 in range(dim):
                    for m2 in range(dim):
                        entry += rho[m1, m2] * gate[n, m1] * np.conj(gate[k, m2])
                total += abs(entry)
        return total

    return abs(l1_of(v_noisy) - l1_of(u_ideal))


def epm_char_fn(
    u: complex,
    rho0: np.ndarray,
    q: np.ndarray,
    v: np.ndarray,
    hamiltonian: LocalHamiltonian,
) -> complex:
    """EPM characteristic function term Tr[exp(-iuH) rho0] * Tr[exp(iuH) V q V^dag].

    q = rho0 gives the full characteristic function of the energy change;
    q = diag(rho0) and q = chi = rho0 - diag(rho0) give the population and
    coherence contributions, which sum to it. Evaluated through the
    diagonal exponentials, so complex u (u = i throughout the diagnostics)
    is exact.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    v = np.asarray(v, dtype=complex)
    first = np.sum(hamiltonian.exp_diag(-1j * u) * np.diag(rho0))
    second = np.sum(hamiltonian.exp_diag(1j * u) * np.diag(v @ q @ v.conj().T))
    return complex(first * second)


def eta_chi_haar_average(u: np.ndarray, v: np.ndarray, hamiltonian: LocalHamiltonian) -> float:
    """Exact Haar average of the eta_chi kernel when M[0, 1] is M's only off-diagonal pair.

    M = V^dag e^{-H} V - U^dag e^{-H} U has that form for the paper's gates
    (g_gate against v_axis or v_angle), whose difference lives on the
    control-0 block. The kernel is then sum_k w_k p_k 2|M01| sqrt(p0 p1) |cos t|
    with w = e^E, Haar populations p ~ Dirichlet(1, 1, 1, 1) and a uniform
    phase t. E|cos t| = 2/pi, E[p0^(3/2) p1^(1/2)] = 3 pi/160 and
    E[p2 sqrt(p0 p1)] = pi/80 give |M01| (3 (w0 + w1)/40 + (w2 + w3)/20),
    which is |M01| (3 (e^2 + 1)/40 + (1 + e^-2)/20) for sz (x) I + I (x) sz.
    """
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    decay = np.diag(hamiltonian.exp_diag(-1.0))
    m = v.conj().T @ decay @ v - u.conj().T @ decay @ u
    others = m - np.diag(np.diag(m))
    others[0, 1] = others[1, 0] = 0.0
    if np.max(np.abs(others)) > 1e-12:
        raise ValidationError("the closed form needs M[0, 1] to be the only off-diagonal pair")
    w = hamiltonian.exp_diag(1.0)
    return float(abs(m[0, 1]) * (3 * (w[0] + w[1]) / 40 + (w[2] + w[3]) / 20))


def _element_sum_eta_tpm(
    rho: np.ndarray, u_ideal: np.ndarray, v_noisy: np.ndarray, energies: np.ndarray
) -> float:
    dim = rho.shape[0]
    total = 0.0 + 0.0j
    for n in range(dim):
        for m in range(dim):
            total += (
                np.exp(-energies[n])
                * np.exp(energies[m])
                * rho[m, m]
                * (
                    v_noisy[n, m] * np.conj(v_noisy[n, m])
                    - u_ideal[n, m] * np.conj(u_ideal[n, m])
                )
            )
    return abs(total)


def element_sum_eta(
    psi0: np.ndarray,
    u_ideal: np.ndarray,
    v_noisy: np.ndarray,
    hamiltonian: LocalHamiltonian,
    kind: MeritKind,
) -> float:
    """Eta-family kernels as explicit double / triple element sums."""
    rho = _rho_elements(psi0)
    dim = rho.shape[0]
    energies = hamiltonian.energies
    if kind is MeritKind.ETA_TPM:
        return _element_sum_eta_tpm(rho, u_ideal, v_noisy, energies)

    mean_exp_h = sum(abs(psi0[m]) ** 2 * np.exp(energies[m]) for m in range(dim))
    total = 0.0 + 0.0j
    for n in range(dim):
        for m1 in range(dim):
            for m2 in range(dim):
                if kind is MeritKind.ETA_CHI and m1 == m2:
                    continue
                if kind is MeritKind.ETA_P and m1 != m2:
                    continue
                total += (
                    np.exp(-energies[n])
                    * rho[m1, m2]
                    * (
                        v_noisy[n, m1] * np.conj(v_noisy[n, m2])
                        - u_ideal[n, m1] * np.conj(u_ideal[n, m2])
                    )
                )
    if kind in (MeritKind.ETA_P, MeritKind.ETA_EPM, MeritKind.ETA_CHI):
        return float(mean_exp_h) * abs(total)
    raise ValidationError(f"element_sum_eta does not handle {kind!r}")


def element_sum_kernel(
    kind: MeritKind,
    psi0: np.ndarray,
    u_ideal: np.ndarray,
    v_noisy: np.ndarray,
    hamiltonian: LocalHamiltonian | None = None,
) -> float:
    """Dispatch to the element-sum reference for any merit kind."""
    if kind is MeritKind.FIDELITY:
        return element_sum_fidelity(psi0, u_ideal, v_noisy)
    if kind is MeritKind.COHERENCE_FIDELITY:
        return element_sum_coherence_fid(psi0, u_ideal, v_noisy)
    if hamiltonian is None:
        raise ValidationError(f"merit {kind.value} requires a Hamiltonian")
    return element_sum_eta(psi0, u_ideal, v_noisy, hamiltonian, kind)
