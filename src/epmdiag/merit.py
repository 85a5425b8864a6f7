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
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from .energetics import LocalHamiltonian
from .errors import ValidationError
from .linalg import haar_pure_states


class MeritKind(enum.Enum):
    """Closed set of supported figures of merit."""

    FIDELITY = "fidelity"
    COHERENCE_FIDELITY = "coherence_fidelity"
    ETA_TPM = "eta_tpm"
    ETA_P = "eta_p"
    ETA_EPM = "eta_epm"
    ETA_CHI = "eta_chi"


ETA_KINDS = (MeritKind.ETA_TPM, MeritKind.ETA_P, MeritKind.ETA_EPM, MeritKind.ETA_CHI)


def _total(arrays: list[np.ndarray], shape) -> np.ndarray:
    """Sum of same-shape arrays, left to right; zeros(shape) when there are none."""
    if not arrays:
        return np.zeros(shape)
    if len(arrays) == 1:
        return arrays[0]
    total = arrays[0] + arrays[1]
    for array in arrays[2:]:
        total += array
    return total


def _classes(coefs: np.ndarray) -> list:
    """How _weighted_sum treats each entry of a (G, ...) stack of coefficients.

    As nested lists over the trailing axes: 0 when the entry is 0 for every
    gate pair of the stack (skipped), 1 when it is 1 for every pair (added
    unscaled), else 2 (multiplied in as a (G, 1) column).
    """
    return (2 - 2 * (coefs == 0).all(axis=0) - (coefs == 1).all(axis=0)).tolist()


def _weighted_sum(coefs: np.ndarray, classes: list, columns: list[np.ndarray],
                  shape) -> np.ndarray:
    """Sum over k of coefs[:, k] * columns[k], for (G, K) coefficients and (G, n) columns.

    Entries of class 0 (see _classes) are skipped and entries of class 1
    added unscaled, which keeps structured gates cheap. A pair whose own
    entry is 0 or 1 but is multiplied in gets the same sum up to the sign
    of a zero, which no kernel passes on: each ends in abs or a square.
    """
    return _total([column if c == 1 else coefs[:, k, None] * column
                   for k, (c, column) in enumerate(zip(classes, columns)) if c], shape)


def _output_rows(
    states: np.ndarray, u_stack: np.ndarray, v_stack: np.ndarray, magnitudes: bool
) -> tuple[list[np.ndarray], Iterator[tuple[np.ndarray, np.ndarray]]]:
    """Output amplitudes (U psi)_m and (V psi)_m per gate pair, one (G, n) array per m.

    Returns the list of the amplitudes of the rows m where U and V are equal
    for every pair, computed once, and an iterator over the
    ((U psi)_m, (V psi)_m) pairs of the other rows, which makes each pair as
    it reaches it; with `magnitudes`, their absolute values instead, each
    taken as soon as its amplitude is made. So a caller that sums as it
    goes holds one row's amplitudes at a time. Each amplitude is an
    elementwise sum over the entries of the gate row: no matrix product, so
    no BLAS.
    """
    shape = states.shape[:-1]
    columns = [states[..., k] for k in range(states.shape[-1])]
    u_classes, v_classes = _classes(u_stack), _classes(v_stack)
    same = (u_stack == v_stack).all(axis=(0, 2)).tolist()

    def row(stack, classes):
        amplitude = _weighted_sum(stack, classes, columns, shape)
        return np.abs(amplitude) if magnitudes else amplitude

    shared = [row(u_stack[:, m], u_classes[m]) for m in range(len(same)) if same[m]]
    differing = ((row(u_stack[:, m], u_classes[m]), row(v_stack[:, m], v_classes[m]))
                 for m in range(len(same)) if not same[m])
    return shared, differing


def _real_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(conj(a) b) = a.re b.re + a.im b.im elementwise, in real arithmetic;
    with b = a, |a|^2."""
    dot = a.real * b.real
    dot += a.imag * b.imag
    return dot


def _form_difference(u_stack: np.ndarray, v_stack: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    """M = V^dag e^-H V - U^dag e^-H U for each pair of a (G, dim, dim) gate stack.

    M_kl = sum_m e^-E_m (conj(V_mk) V_ml - conj(U_mk) U_ml), with `weights`
    the e^-E_m, formed as (m, k, l) terms summed over m in order. The
    conjugate products are written out in real arithmetic, r r' + i i' and
    r i' - i r', which rounds as Python's complex multiply does; numpy's
    complex multiply need not. The parts are laid out as (V or U, re or im,
    m, k, G), so every loop runs along the stack. Rows where V equals U add
    exact zeros, so M is 0 when V equals U.
    """
    x = np.array([v_stack, u_stack])
    x = x.view(float).reshape(x.shape + (2,)).transpose(0, 4, 2, 3, 1).copy()
    # x_mk,c x_ml,c' as (V or U, c, c', m, k, l, G)
    a = x[:, :, None, :, :, None] * x[:, None, :, :, None, :]
    products = np.empty(a.shape[:1] + a.shape[2:])
    np.add(a[:, 0, 0], a[:, 1, 1], out=products[:, 0])
    np.subtract(a[:, 0, 1], a[:, 1, 0], out=products[:, 1])
    terms = weights[:, None, None, None] * (products[0] - products[1])
    form = _total([terms[:, m] for m in range(terms.shape[1])], None)  # (re or im, k, l, G)
    return np.ascontiguousarray(form.transpose(3, 1, 2, 0)).view(complex)[..., 0]


def _s_p(diagonal: np.ndarray, pops: np.ndarray) -> np.ndarray:
    """sum_k |psi_k|^2 c_k per gate pair, for a (G, dim) diagonal c such as M_kk."""
    return _weighted_sum(diagonal, _classes(diagonal),
                         [pops[..., k] for k in range(pops.shape[-1])], pops.shape[:-1])


def _s_chi(form: np.ndarray, states: np.ndarray) -> np.ndarray:
    """2 Re sum_{k<l} conj(psi_k) psi_l M_kl per gate pair, over the M_kl
    that are non-zero for some pair."""
    dim = states.shape[-1]
    present = (form != 0).any(axis=0).tolist()
    return _total([_real_dot(states[..., k], (2 * form[:, k, l, None]) * states[..., l])
                   for k in range(dim) for l in range(k + 1, dim) if present[k][l]],
                  states.shape[:-1])


def _eta_values(kind: MeritKind, states: np.ndarray, u_stack: np.ndarray,
                v_stack: np.ndarray, hamiltonian: LocalHamiltonian) -> np.ndarray:
    """Values (G, n) of an eta merit, from M of each gate pair."""
    shape = states.shape[:-1]
    form = _form_difference(u_stack, v_stack, hamiltonian.exp_diag(-1.0))
    diagonal = form.diagonal(0, 1, 2).real
    pops = _real_dot(states, states)
    w_plus = hamiltonian.exp_diag(1.0)
    if kind is MeritKind.ETA_TPM:
        return np.abs(_s_p(w_plus * diagonal, pops))
    # <e^H> = sum_k e^E_k |psi_k|^2; a real product by 1.0 is exact, so no
    # entry needs skipping.
    mean_exp_h = _total([w * pops[..., k] for k, w in enumerate(w_plus.tolist())], shape)
    if kind is MeritKind.ETA_P:
        signed = _s_p(diagonal, pops)
    elif kind is MeritKind.ETA_CHI:
        signed = _s_chi(form, states)
    else:
        signed = _s_p(diagonal, pops) + _s_chi(form, states)
    return mean_exp_h * np.abs(signed)


def _output_values(kind: MeritKind, states: np.ndarray, u_stack: np.ndarray,
                   v_stack: np.ndarray) -> np.ndarray:
    """Values (G, n) of FIDELITY or COHERENCE_FIDELITY, from the gate outputs."""
    shape = states.shape[:-1]
    shared, differing = _output_rows(states, u_stack, v_stack,
                                     magnitudes=kind is MeritKind.COHERENCE_FIDELITY)

    if kind is MeritKind.FIDELITY:
        # |<a|b>|^2 / (|a|^2 |b|^2) in real arithmetic. The rows U and V
        # share add the same sum to the overlap and to both norms, so V
        # equal to U gives exactly 1. Each sum runs over the rows in order;
        # the imaginary part starts at 0.0, which gives its first term back
        # up to the sign of a zero, and the square drops that.
        common = _total([_real_dot(a, a) for a in shared], shape)
        overlap_re = norm_a = norm_b = common
        overlap_im = np.zeros(shape)
        for a, b in differing:
            overlap_re = overlap_re + _real_dot(a, b)
            # Im(conj(a) b) = a.re b.im - a.im b.re
            overlap_im = overlap_im + (a.real * b.imag - a.imag * b.real)
            norm_a = norm_a + _real_dot(a, a)
            norm_b = norm_b + _real_dot(b, b)
            del a, b  # freed before the next pair is made
        fid = (overlap_re * overlap_re + overlap_im * overlap_im) / (norm_a * norm_b)
        return np.minimum(fid, 1.0)

    # COHERENCE_FIDELITY. C_l1 = (sum_m |phi_m|)^2 - sum_m |phi_m|^2. With S
    # the sum of |a_m| over the shared rows and S_x, Q_x the sums of |x_m|
    # and |x_m|^2 over the rows where the gates differ, the shared rows drop
    # out of the squared norms:
    # C_l1(b) - C_l1(a) = (S_b - S_a)(2 S + S_a + S_b) - (Q_b - Q_a).
    # No term is -0.0, so starting a sum at 0.0 changes no bit of it.
    common = _total(shared, shape)
    s_a, s_b, q_diff = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    for m_a, m_b in differing:
        s_a = s_a + m_a
        s_b = s_b + m_b
        q_diff = q_diff + (m_b * m_b - m_a * m_a)
        del m_a, m_b  # freed before the next pair is made
    return np.abs((s_b - s_a) * (2 * common + s_a + s_b) - q_diff)


def kernel_values(
    kind: MeritKind,
    states: np.ndarray,
    u_ideal: np.ndarray,
    v_noisy: np.ndarray,
    hamiltonian: LocalHamiltonian | None = None,
) -> np.ndarray:
    """Evaluate one merit kernel on pure states.

    With one noisy gate (dim, dim), `states` is one state (dim,) or a batch
    (n, dim) and the values have shape (n,). With a stack of B noisy gates
    (B, dim, dim), `states` is a (B, n, dim) stack, slice b going with
    gate b, and `u_ideal` is one gate for the whole stack or a stack of
    its own; the values have shape (B, n). One pair is a stack of one, and
    every stack takes the same path: an entry that is 0, or 1, for every
    pair is skipped, or added unscaled, and any other is multiplied in per
    pair. For the controlled-gate families of `gates` (g_gate, v_axis,
    v_angle) a stacked call equals the single-pair calls bit for bit; for
    stacks that mix other structures the values agree to rounding. Every
    kernel is elementwise arithmetic on the amplitude columns; none calls
    a matrix product, so none wakes the BLAS threads.
    """
    if not isinstance(kind, MeritKind):
        raise ValidationError(f"unknown merit kind {kind!r}")
    if kind in ETA_KINDS and hamiltonian is None:
        raise ValidationError(f"merit {kind.value} requires a Hamiltonian")
    states = np.asarray(states, dtype=complex)
    u_stack = np.asarray(u_ideal, dtype=complex)
    v_stack = np.asarray(v_noisy, dtype=complex)
    single = v_stack.ndim == 2
    if single:  # one gate pair: its states keep their (n, dim) shape
        states, v_stack = states.reshape(1, -1, states.shape[-1]), v_stack[None]
    u_stack = np.broadcast_to(u_stack, v_stack.shape)
    if kind in ETA_KINDS:
        values = _eta_values(kind, states, u_stack, v_stack, hamiltonian)
    else:
        values = _output_values(kind, states, u_stack, v_stack)
    return values[0] if single else values


def kernel_coherence_fid(psi0: np.ndarray, u_ideal: np.ndarray, v_noisy: np.ndarray) -> float:
    """Coherence mismatch kernel |C_l1(V rho V^dag) - C_l1(U rho U^dag)|."""
    return float(kernel_values(MeritKind.COHERENCE_FIDELITY, psi0, u_ideal, v_noisy)[0])


class HaarAverage(NamedTuple):
    """Monte Carlo estimate of a Haar-averaged merit kernel, as a (mean, std_error) tuple."""

    mean: float
    std_error: float


def haar_average(
    kind: MeritKind | tuple[MeritKind, ...],
    u_ideal: np.ndarray,
    v_noisy: np.ndarray,
    hamiltonian: LocalHamiltonian | None = None,
    n_samples: int = 5000,
    seed: int | Sequence[int] = 0,
) -> HaarAverage | list[HaarAverage] | tuple:
    """Average a merit kernel over Haar-random pure inputs.

    All samples come from the Philox stream whose key is `seed` (see
    linalg.haar_pure_states), drawn as one batch, so the estimate is a pure
    function of (kind, gates, n_samples, seed) and does not depend on
    evaluation order elsewhere. The standard error is the sample standard
    deviation (ddof=1) over sqrt(n_samples), 0.0 at one sample.

    With a stack of B noisy gates (B, dim, dim) and a sequence of B seeds,
    returns the list of B averages, each equal to the call on its own gate
    and seed; the B draws, kernels and reductions run as one batch. With a
    tuple of kinds, the states are drawn once and every kind's kernel runs
    on them; the result is a tuple with one entry per kind, each equal to
    the call with that kind alone. The draw reuses its thread's buffer
    (linalg.haar_pure_states), so a row's calls allocate its arrays once.
    """
    u_ideal = np.asarray(u_ideal, dtype=complex)
    single = np.ndim(v_noisy) == 2
    seeds = [seed] if single else seed
    states = haar_pure_states(seeds, u_ideal.shape[0], n_samples, reuse=True)
    v_stack = np.reshape(np.asarray(v_noisy, dtype=complex), (-1,) + u_ideal.shape)
    kinds = kind if isinstance(kind, tuple) else (kind,)
    block = np.empty((len(kinds), len(v_stack), 2))  # (kind, pair, mean or std_error)
    for averages, one_kind in zip(block, kinds):
        mean, error = averages[:, :1], averages[:, 1:]
        values = kernel_values(one_kind, states, u_ideal, v_stack, hamiltonian)
        # numpy's mean and std(ddof=1), ufunc for ufunc, on one sum of the
        # values; at one sample every deviation is 0, and so is the error
        np.divide(values.sum(axis=-1, keepdims=True), n_samples, out=mean)
        variance = np.square(values - mean).sum(axis=-1, keepdims=True) / max(n_samples - 1, 1)
        np.divide(np.sqrt(variance), math.sqrt(n_samples), out=error)
    results = [HaarAverage._make(pairs[0]) if single else list(map(HaarAverage._make, pairs))
               for pairs in block.tolist()]
    return tuple(results) if isinstance(kind, tuple) else results[0]
