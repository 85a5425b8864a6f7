"""Per-state merit kernels and their Haar-averaged Monte Carlo estimators.

Six figures of merit compare a noisy gate V against the ideal gate U on a
pure input |psi0>:

  fidelity            |<psi0| U^dag V |psi0>|^2 (normalized to the computed
                      output norms, so V identical to U gives exactly 1)
  coherence_fidelity  | C_l1(V rho V^dag) - C_l1(U rho U^dag) |
  eta_epm             <e^H> |Tr[e^-H (V rho V^dag - U rho U^dag)]|
  eta_p               same with rho replaced by its diagonal part
  eta_chi             same with rho replaced by its coherence part chi
  eta_tpm             |Tr[e^-H (V e^H P V^dag - U e^H P U^dag)]| (no
                      <e^H> prefactor)

All kernels are non-negative and are exactly 0 (fidelity exactly 1) when V
and U are the same floating-point matrix, which keeps the zero-error null
of the sweeps exact at the per-sample level.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .energetics import LocalHamiltonian
from .errors import ValidationError
from .linalg import RngStream, haar_pure_states


class MeritKind(enum.Enum):
    """Closed set of supported figures of merit."""

    FIDELITY = "fidelity"
    COHERENCE_FIDELITY = "coherence_fidelity"
    ETA_TPM = "eta_tpm"
    ETA_P = "eta_p"
    ETA_EPM = "eta_epm"
    ETA_CHI = "eta_chi"

    @classmethod
    def from_name(cls, name: str) -> "MeritKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValidationError(
            f"unknown merit {name!r}, expected one of {[k.value for k in cls]}"
        )


# Stable ordinals used to derive per-merit random substreams; independent of
# which merits a particular sweep requests.
MERIT_ORDINAL = {kind: i for i, kind in enumerate(MeritKind)}

ETA_KINDS = (MeritKind.ETA_TPM, MeritKind.ETA_P, MeritKind.ETA_EPM, MeritKind.ETA_CHI)


def l1_coherence(rho: np.ndarray) -> float:
    """l1 coherence measure: sum of |rho_nk| over all off-diagonal entries."""
    rho = np.asarray(rho, dtype=complex)
    magnitudes = np.abs(rho)
    return float(np.sum(magnitudes) - np.sum(np.diag(magnitudes)))


def _pure_l1(amplitudes: np.ndarray) -> np.ndarray:
    """l1 coherence of |phi><phi| per batch row: (sum|phi_i|)^2 - sum|phi_i|^2."""
    mags = np.abs(amplitudes)
    return np.sum(mags, axis=1) ** 2 - np.sum(mags**2, axis=1)


def _diag_weights(v: np.ndarray, w_minus: np.ndarray) -> np.ndarray:
    """Per-column weights W_m = sum_n w_minus[n] |v[n, m]|^2."""
    return (v.real**2 + v.imag**2).T @ w_minus


def eta_signed_traces(
    states: np.ndarray,
    u_ideal: np.ndarray,
    v_noisy: np.ndarray,
    hamiltonian: LocalHamiltonian,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed trace differences (P part, chi part, full state) per batch row.

    Each entry is Tr[e^-H (V Q V^dag - U Q U^dag)] before any absolute
    value, with Q the diagonal part, the coherence part and the full rho.
    The chi entry is the exact difference of the other two.
    """
    states = np.atleast_2d(np.asarray(states, dtype=complex))
    w_minus = hamiltonian.exp_diag(-1.0)
    a = states @ u_ideal.T
    b = states @ v_noisy.T
    pops0 = states.real**2 + states.imag**2
    s_epm = (b.real**2 + b.imag**2) @ w_minus - (a.real**2 + a.imag**2) @ w_minus
    s_p = pops0 @ (_diag_weights(v_noisy, w_minus) - _diag_weights(u_ideal, w_minus))
    return s_p, s_epm - s_p, s_epm


def kernel_values(
    kind: MeritKind,
    states: np.ndarray,
    u_ideal: np.ndarray,
    v_noisy: np.ndarray,
    hamiltonian: LocalHamiltonian | None = None,
) -> np.ndarray:
    """Evaluate one merit kernel on a batch of pure states (rows of `states`)."""
    states = np.atleast_2d(np.asarray(states, dtype=complex))
    u_ideal = np.asarray(u_ideal, dtype=complex)
    v_noisy = np.asarray(v_noisy, dtype=complex)

    if kind is MeritKind.FIDELITY:
        a = states @ u_ideal.T
        b = states @ v_noisy.T
        overlap = np.einsum("ij,ij->i", a.conj(), b)
        norm_a = np.einsum("ij,ij->i", a.conj(), a).real
        norm_b = np.einsum("ij,ij->i", b.conj(), b).real
        fid = (overlap.real**2 + overlap.imag**2) / (norm_a * norm_b)
        return np.minimum(fid, 1.0)

    if kind is MeritKind.COHERENCE_FIDELITY:
        a = states @ u_ideal.T
        b = states @ v_noisy.T
        return np.abs(_pure_l1(b) - _pure_l1(a))

    if kind in ETA_KINDS:
        if hamiltonian is None:
            raise ValidationError(f"merit {kind.value} requires a Hamiltonian")
        if kind is MeritKind.ETA_TPM:
            w_minus = hamiltonian.exp_diag(-1.0)
            w_plus = hamiltonian.exp_diag(1.0)
            pops0 = states.real**2 + states.imag**2
            delta = _diag_weights(v_noisy, w_minus) - _diag_weights(u_ideal, w_minus)
            return np.abs(pops0 @ (w_plus * delta))
        pops0 = states.real**2 + states.imag**2
        mean_exp_h = pops0 @ hamiltonian.exp_diag(1.0)
        s_p, s_chi, s_epm = eta_signed_traces(states, u_ideal, v_noisy, hamiltonian)
        signed = {MeritKind.ETA_P: s_p, MeritKind.ETA_CHI: s_chi, MeritKind.ETA_EPM: s_epm}
        return mean_exp_h * np.abs(signed[kind])

    raise ValidationError(f"unknown merit kind {kind!r}")


def kernel_fidelity(psi0: np.ndarray, u_ideal: np.ndarray, v_noisy: np.ndarray) -> float:
    """Gate fidelity kernel Tr[(V rho V^dag)(U rho U^dag)] for rho = |psi0><psi0|."""
    return float(kernel_values(MeritKind.FIDELITY, psi0, u_ideal, v_noisy)[0])


def kernel_coherence_fid(psi0: np.ndarray, u_ideal: np.ndarray, v_noisy: np.ndarray) -> float:
    """Coherence mismatch kernel |C_l1(V rho V^dag) - C_l1(U rho U^dag)|."""
    return float(kernel_values(MeritKind.COHERENCE_FIDELITY, psi0, u_ideal, v_noisy)[0])


def kernel_eta(
    psi0: np.ndarray,
    u_ideal: np.ndarray,
    v_noisy: np.ndarray,
    hamiltonian: LocalHamiltonian,
    kind: MeritKind,
) -> float:
    """Energy-statistics kernel of the requested eta flavour for one state."""
    if kind not in ETA_KINDS:
        raise ValidationError(f"kernel_eta expects an eta merit, got {kind!r}")
    return float(kernel_values(kind, psi0, u_ideal, v_noisy, hamiltonian)[0])


@dataclass(frozen=True)
class HaarAverage:
    """Monte Carlo estimate of a Haar-averaged merit kernel."""

    mean: float
    std_error: float


def haar_average(
    kind: MeritKind,
    u_ideal: np.ndarray,
    v_noisy: np.ndarray,
    hamiltonian: LocalHamiltonian | None = None,
    n_samples: int = 5000,
    seed: int = 0,
) -> HaarAverage:
    """Average a merit kernel over Haar-random pure inputs.

    All samples come from the stream keyed by `seed`, drawn as one batch,
    so the estimate is a pure function of (kind, gates, n_samples, seed)
    and does not depend on evaluation order elsewhere. The standard error
    is the sample standard deviation (ddof=1) over sqrt(n_samples).
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    u_ideal = np.asarray(u_ideal, dtype=complex)
    states = haar_pure_states(RngStream(seed, 0), u_ideal.shape[0], n_samples)
    values = kernel_values(kind, states, u_ideal, v_noisy, hamiltonian)
    std_error = float(np.std(values, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return HaarAverage(mean=float(np.mean(values)), std_error=std_error)
