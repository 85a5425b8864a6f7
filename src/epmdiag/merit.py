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


def _total(arrays: list[np.ndarray], n: int) -> np.ndarray:
    """Sum of same-shape arrays, left to right; zeros(n) when there are none."""
    if not arrays:
        return np.zeros(n)
    total = arrays[0]
    for array in arrays[1:]:
        total = total + array
    return total


def _weighted_sum(pairs, n: int) -> np.ndarray:
    """Sum of coef * column over (coef, column) pairs.

    Zero coefficients are skipped and unit ones are not multiplied, which
    leaves the result unchanged but keeps structured gates cheap.
    """
    return _total([column if coef == 1 else coef * column
                   for coef, column in pairs if coef != 0], n)


def _output_rows(
    states: np.ndarray, u_ideal: np.ndarray, v_noisy: np.ndarray
) -> tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]:
    """Output amplitudes (U psi)_m and (V psi)_m per batch row, one array per m.

    Returns the amplitudes of the rows m where U and V are equal, computed
    once, and the ((U psi)_m, (V psi)_m) pairs of the rows where they
    differ. Each amplitude is an elementwise sum over the non-zero entries
    of the gate row: no matrix product, so no BLAS.
    """
    n = len(states)
    columns = [states[:, k] for k in range(states.shape[1])]
    shared, differing = [], []
    for u_row, v_row in zip(u_ideal.tolist(), v_noisy.tolist()):
        a = _weighted_sum(zip(u_row, columns), n)
        if v_row == u_row:
            shared.append(a)
        else:
            differing.append((a, _weighted_sum(zip(v_row, columns), n)))
    return shared, differing


def _norm_sq(a: np.ndarray) -> np.ndarray:
    """|a|^2 elementwise, in real arithmetic."""
    return a.real * a.real + a.imag * a.imag


def _form_difference(u_ideal: np.ndarray, v_noisy: np.ndarray,
                     hamiltonian: LocalHamiltonian) -> dict[tuple[int, int], complex]:
    """Non-zero entries M_kl, k <= l, of M = V^dag e^-H V - U^dag e^-H U.

    M_kl = sum_m e^-E_m (conj(V_mk) V_ml - conj(U_mk) U_ml). Rows m where V
    and U are equal add nothing and are skipped, so M is empty when V
    equals U, and for the controlled gates only the control-0 block is left.
    """
    form: dict[tuple[int, int], complex] = {}
    weights = hamiltonian.exp_diag(-1.0).tolist()
    for w, u_row, v_row in zip(weights, u_ideal.tolist(), v_noisy.tolist()):
        if v_row == u_row:
            continue
        cols = [k for k, (x, y) in enumerate(zip(u_row, v_row)) if x != 0 or y != 0]
        for i, k in enumerate(cols):
            for l in cols[i:]:
                term = w * (v_row[k].conjugate() * v_row[l] - u_row[k].conjugate() * u_row[l])
                form[k, l] = form.get((k, l), 0) + term
    return {kl: value for kl, value in form.items() if value != 0}


def _s_p(form: dict[tuple[int, int], complex], pops: np.ndarray) -> np.ndarray:
    """sum_k |psi_k|^2 M_kk over the non-zero diagonal entries of M."""
    return _weighted_sum(((m.real, pops[:, k]) for (k, l), m in form.items() if k == l),
                         len(pops))


def _s_chi(form: dict[tuple[int, int], complex], states: np.ndarray) -> np.ndarray:
    """2 Re sum_{k<l} conj(psi_k) psi_l M_kl over the non-zero entries of M."""
    terms = []
    for (k, l), m in form.items():
        if k < l:
            t = (2 * m) * states[:, l]
            terms.append(states[:, k].real * t.real + states[:, k].imag * t.imag)
    return _total(terms, len(states))


def eta_signed_traces(
    states: np.ndarray,
    u_ideal: np.ndarray,
    v_noisy: np.ndarray,
    hamiltonian: LocalHamiltonian,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed trace differences (P part, chi part, full state) per batch row.

    Each entry is Tr[e^-H (V Q V^dag - U Q U^dag)] before any absolute
    value, with Q the diagonal part, the coherence part and the full rho.
    With M = V^dag e^-H V - U^dag e^-H U they are the quadratic forms
    s_p = sum_k |psi_k|^2 M_kk, s_chi = 2 Re sum_{k<l} conj(psi_k) psi_l M_kl
    and s_p + s_chi. When V equals U all three are exactly 0.
    """
    states = np.atleast_2d(np.asarray(states, dtype=complex))
    form = _form_difference(np.asarray(u_ideal, dtype=complex),
                            np.asarray(v_noisy, dtype=complex), hamiltonian)
    s_p = _s_p(form, _norm_sq(states))
    s_chi = _s_chi(form, states)
    return s_p, s_chi, s_p + s_chi


def kernel_values(
    kind: MeritKind,
    states: np.ndarray,
    u_ideal: np.ndarray,
    v_noisy: np.ndarray,
    hamiltonian: LocalHamiltonian | None = None,
) -> np.ndarray:
    """Evaluate one merit kernel on a batch of pure states (rows of `states`).

    Every kernel is elementwise arithmetic on the amplitude columns; none
    calls a matrix product, so none wakes the BLAS threads.
    """
    states = np.atleast_2d(np.asarray(states, dtype=complex))
    u_ideal = np.asarray(u_ideal, dtype=complex)
    v_noisy = np.asarray(v_noisy, dtype=complex)
    n = len(states)

    if kind is MeritKind.FIDELITY:
        # |<a|b>|^2 / (|a|^2 |b|^2) in real arithmetic. The rows U and V
        # share add the same sum to the overlap and to both norms, so V
        # equal to U gives exactly 1.
        shared, differing = _output_rows(states, u_ideal, v_noisy)
        common = _total([_norm_sq(a) for a in shared], n)
        overlap_re = _total([common] + [a.real * b.real + a.imag * b.imag
                                        for a, b in differing], n)
        overlap_im = _total([a.real * b.imag - a.imag * b.real for a, b in differing], n)
        norm_a = _total([common] + [_norm_sq(a) for a, _ in differing], n)
        norm_b = _total([common] + [_norm_sq(b) for _, b in differing], n)
        fid = (overlap_re * overlap_re + overlap_im * overlap_im) / (norm_a * norm_b)
        return np.minimum(fid, 1.0)

    if kind is MeritKind.COHERENCE_FIDELITY:
        # C_l1 = (sum_m |phi_m|)^2 - sum_m |phi_m|^2. With S the sum of |a_m|
        # over the shared rows and S_x, Q_x the sums of |x_m| and |x_m|^2 over
        # the rows where the gates differ, the shared rows drop out of the
        # squared norms: C_l1(b) - C_l1(a) = (S_b - S_a)(2 S + S_a + S_b) - (Q_b - Q_a).
        shared, differing = _output_rows(states, u_ideal, v_noisy)
        common = _total([np.abs(a) for a in shared], n)
        mags = [(np.abs(a), np.abs(b)) for a, b in differing]
        s_a = _total([m_a for m_a, _ in mags], n)
        s_b = _total([m_b for _, m_b in mags], n)
        q_diff = _total([m_b * m_b - m_a * m_a for m_a, m_b in mags], n)
        return np.abs((s_b - s_a) * (2 * common + s_a + s_b) - q_diff)

    if kind in ETA_KINDS:
        if hamiltonian is None:
            raise ValidationError(f"merit {kind.value} requires a Hamiltonian")
        form = _form_difference(u_ideal, v_noisy, hamiltonian)
        pops = _norm_sq(states)
        w_plus = hamiltonian.exp_diag(1.0).tolist()
        if kind is MeritKind.ETA_TPM:
            return np.abs(_weighted_sum(((w_plus[k] * m.real, pops[:, k])
                                         for (k, l), m in form.items() if k == l), n))
        mean_exp_h = _weighted_sum(((w, pops[:, k]) for k, w in enumerate(w_plus)), n)
        if kind is MeritKind.ETA_P:
            signed = _s_p(form, pops)
        elif kind is MeritKind.ETA_CHI:
            signed = _s_chi(form, states)
        else:
            signed = _s_p(form, pops) + _s_chi(form, states)
        return mean_exp_h * np.abs(signed)

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
