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
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .energetics import LocalHamiltonian
from .errors import ValidationError
from .linalg import Workspace, haar_pure_states


class MeritKind(enum.Enum):
    """Closed set of supported figures of merit."""

    FIDELITY = "fidelity"
    COHERENCE_FIDELITY = "coherence_fidelity"
    ETA_TPM = "eta_tpm"
    ETA_P = "eta_p"
    ETA_EPM = "eta_epm"
    ETA_CHI = "eta_chi"


ETA_KINDS = (MeritKind.ETA_TPM, MeritKind.ETA_P, MeritKind.ETA_EPM, MeritKind.ETA_CHI)


def _total(terms, shape, dtype, ws: Workspace) -> np.ndarray:
    """Sum of the arrays `terms` yields, left to right, as a new array of
    `ws`; zeros when it yields none.

    The bytes a term takes from `ws` are handed back once the term is added,
    so a generator may make each term from `ws` as the sum reaches it.
    """
    total = ws.empty(shape, dtype)
    mark = ws.mark()
    terms = iter(terms)
    first, second = next(terms, None), next(terms, None)
    if first is None:
        total.fill(0.0)
    elif second is None:
        np.copyto(total, first)
    else:
        np.add(first, second, out=total)
    ws.release(mark)
    for term in terms:
        total += term
        ws.release(mark)
    return total


def _classes(coefs: np.ndarray) -> list:
    """How _weighted_sum treats each entry of a (G, ...) stack of coefficients.

    As nested lists over the trailing axes: 0 when the entry is 0 for every
    gate pair of the stack (skipped), 1 when it is 1 for every pair (added
    unscaled), else 2 (multiplied in as a (G, 1) column).
    """
    return (2 - 2 * (coefs == 0).all(axis=0) - (coefs == 1).all(axis=0)).tolist()


def _weighted_sum(coefs: np.ndarray, classes: list, columns: list[np.ndarray],
                  shape, ws: Workspace) -> np.ndarray:
    """Sum over k of coefs[:, k] * columns[k], for (G, K) coefficients and (G, n) columns.

    Entries of class 0 (see _classes) are skipped and entries of class 1
    added unscaled, which keeps structured gates cheap. A pair whose own
    entry is 0 or 1 but is multiplied in gets the same sum up to the sign
    of a zero, which no kernel passes on: each ends in abs or a square.
    """
    used = [k for k, c in enumerate(classes) if c]
    if len(used) == 1 and classes[used[0]] == 1:
        return columns[used[0]]
    dtype = np.result_type(coefs, columns[0])
    return _total((columns[k] if classes[k] == 1 else
                   np.multiply(coefs[:, k, None], columns[k], out=ws.empty(shape, dtype))
                   for k in used), shape, dtype, ws)


def _output_rows(
    states: np.ndarray, u_stack: np.ndarray, v_stack: np.ndarray, ws: Workspace,
    magnitudes: bool
) -> tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]:
    """Output amplitudes (U psi)_m and (V psi)_m per gate pair, one (G, n) array per m.

    Returns the amplitudes of the rows m where U and V are equal for every
    pair, computed once, and the ((U psi)_m, (V psi)_m) pairs of the other
    rows; with `magnitudes`, their absolute values instead, each amplitude's
    bytes handed back once its magnitude is taken. Each amplitude is an
    elementwise sum over the entries of the gate row: no matrix product, so
    no BLAS.
    """
    shape = states.shape[:-1]
    columns = [states[..., k] for k in range(states.shape[-1])]
    u_classes, v_classes = _classes(np.stack([u_stack, v_stack], axis=1))

    def row(stack, classes):
        if not magnitudes:
            return _weighted_sum(stack, classes, columns, shape, ws)
        magnitude = ws.empty(shape, float)
        mark = ws.mark()
        np.abs(_weighted_sum(stack, classes, columns, shape, ws), out=magnitude)
        ws.release(mark)
        return magnitude

    shared, differing = [], []
    for m, same in enumerate((u_stack == v_stack).all(axis=(0, 2)).tolist()):
        a = row(u_stack[:, m], u_classes[m])
        if same:
            shared.append(a)
        else:
            differing.append((a, row(v_stack[:, m], v_classes[m])))
    return shared, differing


def _real_dot(a: np.ndarray, b: np.ndarray, ws: Workspace) -> np.ndarray:
    """Re(conj(a) b) = a.re b.re + a.im b.im elementwise, in real arithmetic;
    with b = a, |a|^2."""
    dot = np.multiply(a.real, b.real, out=ws.empty(a.shape, float))
    mark = ws.mark()
    dot += np.multiply(a.imag, b.imag, out=ws.empty(a.shape, float))
    ws.release(mark)
    return dot


def _form_difference(u_stack: np.ndarray, v_stack: np.ndarray,
                     weights: np.ndarray, ws: Workspace) -> np.ndarray:
    """M = V^dag e^-H V - U^dag e^-H U for each pair of a (G, dim, dim) gate stack.

    M_kl = sum_m e^-E_m (conj(V_mk) V_ml - conj(U_mk) U_ml), with `weights`
    the e^-E_m, formed as (G, m, k, l) terms summed over m in order. The
    conjugate products are written out in real arithmetic, r r' + i i' and
    r i' - i r', which rounds as Python's complex multiply does; numpy's
    complex multiply need not. Rows where V equals U add exact zeros, so M
    is 0 when V equals U.
    """
    dim = v_stack.shape[-1]
    form = ws.empty(v_stack.shape + (2,), float)  # (G, k, l, re or im)
    mark = ws.mark()
    gates = ws.empty((2,) + v_stack.shape, complex)
    gates[0], gates[1] = v_stack, u_stack
    x = gates.view(float).reshape(gates.shape + (2,))  # (V or U, G, m, k, re or im)
    # x_mk,c x_ml,c' as (..., k, l, c, c')
    a = np.multiply(x[..., :, None, :, None], x[..., None, :, None, :],
                    out=ws.empty(x.shape[:-1] + (dim, 2, 2), float))
    products = ws.empty(a.shape[:-1], float)
    np.add(a[..., 0, 0], a[..., 1, 1], out=products[..., 0])
    np.subtract(a[..., 0, 1], a[..., 1, 0], out=products[..., 1])
    terms = np.subtract(products[0], products[1], out=ws.empty(products.shape[1:], float))
    terms *= weights[:, None, None, None]
    np.copyto(form, _total((terms[:, m] for m in range(dim)), form.shape, float, ws))
    ws.release(mark)
    return form.view(complex)[..., 0]


def _s_p(diagonal: np.ndarray, pops: np.ndarray, ws: Workspace) -> np.ndarray:
    """sum_k |psi_k|^2 c_k per gate pair, for a (G, dim) diagonal c such as M_kk."""
    return _weighted_sum(diagonal, _classes(diagonal),
                         [pops[..., k] for k in range(pops.shape[-1])], pops.shape[:-1], ws)


def _s_chi(form: np.ndarray, states: np.ndarray, ws: Workspace) -> np.ndarray:
    """2 Re sum_{k<l} conj(psi_k) psi_l M_kl per gate pair, over the M_kl
    that are non-zero for some pair."""
    dim = states.shape[-1]
    present = (form != 0).any(axis=0).tolist()
    shape = states.shape[:-1]

    def terms():
        for k in range(dim):
            for l in range(k + 1, dim):
                if present[k][l]:
                    t = np.multiply(2 * form[:, k, l, None], states[..., l],
                                    out=ws.empty(shape, complex))
                    yield _real_dot(states[..., k], t, ws)

    return _total(terms(), shape, float, ws)


def _eta_values(kind: MeritKind, states: np.ndarray, u_stack: np.ndarray,
                v_stack: np.ndarray, hamiltonian: LocalHamiltonian, ws: Workspace) -> np.ndarray:
    """Values (G, n) of an eta merit, from M of each gate pair."""
    shape = states.shape[:-1]
    form = _form_difference(u_stack, v_stack, hamiltonian.exp_diag(-1.0), ws)
    diagonal = form.diagonal(0, 1, 2).real
    pops = _real_dot(states, states, ws)
    w_plus = hamiltonian.exp_diag(1.0)
    if kind is MeritKind.ETA_TPM:
        return np.abs(_s_p(w_plus * diagonal, pops, ws), out=ws.empty(shape, float))
    # <e^H> = sum_k e^E_k |psi_k|^2; a real product by 1.0 is exact, so no
    # entry needs skipping.
    mean_exp_h = _total((np.multiply(w, pops[..., k], out=ws.empty(shape, float))
                         for k, w in enumerate(w_plus.tolist())), shape, float, ws)
    if kind is MeritKind.ETA_P:
        signed = _s_p(diagonal, pops, ws)
    elif kind is MeritKind.ETA_CHI:
        signed = _s_chi(form, states, ws)
    else:
        signed = np.add(_s_p(diagonal, pops, ws), _s_chi(form, states, ws),
                        out=ws.empty(shape, float))
    values = np.abs(signed, out=ws.empty(shape, float))
    values *= mean_exp_h
    return values


def _output_values(kind: MeritKind, states: np.ndarray, u_stack: np.ndarray,
                   v_stack: np.ndarray, ws: Workspace) -> np.ndarray:
    """Values (G, n) of FIDELITY or COHERENCE_FIDELITY, from the gate outputs."""
    shape = states.shape[:-1]
    shared, differing = _output_rows(states, u_stack, v_stack, ws,
                                     magnitudes=kind is MeritKind.COHERENCE_FIDELITY)

    if kind is MeritKind.FIDELITY:
        # |<a|b>|^2 / (|a|^2 |b|^2) in real arithmetic. The rows U and V
        # share add the same sum to the overlap and to both norms, so V
        # equal to U gives exactly 1.
        common = _total([_real_dot(a, a, ws) for a in shared], shape, float, ws)
        overlap_re = _total([common] + [_real_dot(a, b, ws) for a, b in differing],
                            shape, float, ws)
        overlap_im = []
        for a, b in differing:  # Im(conj(a) b) = a.re b.im - a.im b.re
            term = np.multiply(a.real, b.imag, out=ws.empty(shape, float))
            term -= np.multiply(a.imag, b.real, out=ws.empty(shape, float))
            overlap_im.append(term)
        overlap_im = _total(overlap_im, shape, float, ws)
        norm_a = _total([common] + [_real_dot(a, a, ws) for a, _ in differing], shape, float, ws)
        norm_b = _total([common] + [_real_dot(b, b, ws) for _, b in differing], shape, float, ws)
        fid = np.multiply(overlap_re, overlap_re, out=ws.empty(shape, float))
        fid += np.multiply(overlap_im, overlap_im, out=ws.empty(shape, float))
        fid /= np.multiply(norm_a, norm_b, out=ws.empty(shape, float))
        return np.minimum(fid, 1.0, out=fid)

    # COHERENCE_FIDELITY. C_l1 = (sum_m |phi_m|)^2 - sum_m |phi_m|^2. With S
    # the sum of |a_m| over the shared rows and S_x, Q_x the sums of |x_m|
    # and |x_m|^2 over the rows where the gates differ, the shared rows drop
    # out of the squared norms:
    # C_l1(b) - C_l1(a) = (S_b - S_a)(2 S + S_a + S_b) - (Q_b - Q_a).
    common = _total(shared, shape, float, ws)
    s_a = _total((m_a for m_a, _ in differing), shape, float, ws)
    s_b = _total((m_b for _, m_b in differing), shape, float, ws)

    def square_differences():
        for m_a, m_b in differing:
            term = np.multiply(m_b, m_b, out=ws.empty(shape, float))
            mark = ws.mark()
            term -= np.multiply(m_a, m_a, out=ws.empty(shape, float))
            ws.release(mark)
            yield term

    q_diff = _total(square_differences(), shape, float, ws)
    values = np.multiply(2, common, out=ws.empty(shape, float))
    values += s_a
    values += s_b
    values *= np.subtract(s_b, s_a, out=ws.empty(shape, float))
    values -= q_diff
    return np.abs(values, out=values)


def kernel_values(
    kind: MeritKind,
    states: np.ndarray,
    u_ideal: np.ndarray,
    v_noisy: np.ndarray,
    hamiltonian: LocalHamiltonian | None = None,
    *,
    workspace: Workspace | None = None,
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
    a matrix product, so none wakes the BLAS threads. The values and the
    arrays of their size come from `workspace` when one is given, and are
    new otherwise.
    """
    if not isinstance(kind, MeritKind):
        raise ValidationError(f"unknown merit kind {kind!r}")
    if kind in ETA_KINDS and hamiltonian is None:
        raise ValidationError(f"merit {kind.value} requires a Hamiltonian")
    ws = Workspace() if workspace is None else workspace
    states = np.asarray(states, dtype=complex)
    u_stack = np.asarray(u_ideal, dtype=complex)
    v_stack = np.asarray(v_noisy, dtype=complex)
    single = v_stack.ndim == 2
    if single:  # one gate pair: its states keep their (n, dim) shape
        states, v_stack = states.reshape(1, -1, states.shape[-1]), v_stack[None]
    u_stack = np.broadcast_to(u_stack, v_stack.shape)
    if kind in ETA_KINDS:
        values = _eta_values(kind, states, u_stack, v_stack, hamiltonian, ws)
    else:
        values = _output_values(kind, states, u_stack, v_stack, ws)
    return values[0] if single else values


def kernel_coherence_fid(psi0: np.ndarray, u_ideal: np.ndarray, v_noisy: np.ndarray) -> float:
    """Coherence mismatch kernel |C_l1(V rho V^dag) - C_l1(U rho U^dag)|."""
    return float(kernel_values(MeritKind.COHERENCE_FIDELITY, psi0, u_ideal, v_noisy)[0])


@dataclass(frozen=True)
class HaarAverage:
    """Monte Carlo estimate of a Haar-averaged merit kernel."""

    mean: float
    std_error: float


# The workspace of this thread's last haar_average call and its (B, n, dim) key.
_held = threading.local()


def _workspace(key: tuple[int, int, int]) -> Workspace:
    """The workspace for a haar_average call of this key, rewound: the last
    call's when its key matches, else a new one that replaces it."""
    if getattr(_held, "key", None) != key:
        _held.key, _held.workspace = key, Workspace()
    return _held.workspace.rewind()


def haar_average(
    kind: MeritKind,
    u_ideal: np.ndarray,
    v_noisy: np.ndarray,
    hamiltonian: LocalHamiltonian | None = None,
    n_samples: int = 5000,
    seed: int | Sequence[int] = 0,
) -> HaarAverage | list[HaarAverage]:
    """Average a merit kernel over Haar-random pure inputs.

    All samples come from the Philox stream whose key is `seed` (see
    linalg.haar_pure_states), drawn as one batch, so the estimate is a pure
    function of (kind, gates, n_samples, seed) and does not depend on
    evaluation order elsewhere. The standard error is the sample standard
    deviation (ddof=1) over sqrt(n_samples).

    With a stack of B noisy gates (B, dim, dim) and a sequence of B seeds,
    returns the list of B averages, each equal to the call on its own gate
    and seed; the B draws, kernels and reductions run as one batch. Their
    arrays live in a workspace that the thread's next call of the same
    (B, n_samples, dim) reuses, so a row of such calls allocates them once.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    u_ideal = np.asarray(u_ideal, dtype=complex)
    single = np.ndim(v_noisy) == 2
    seeds = [seed] if single else seed
    dim = u_ideal.shape[0]
    workspace = _workspace((len(seeds), n_samples, dim))
    states = haar_pure_states(seeds, dim, n_samples, workspace=workspace)
    v_stack = np.reshape(np.asarray(v_noisy, dtype=complex), (-1,) + u_ideal.shape)
    values = kernel_values(kind, states, u_ideal, v_stack, hamiltonian, workspace=workspace)
    means = np.mean(values, axis=-1).tolist()
    if n_samples > 1:
        errors = (np.std(values, axis=-1, ddof=1) / math.sqrt(n_samples)).tolist()
    else:
        errors = [0.0] * len(means)
    averages = [HaarAverage(mean=m, std_error=e) for m, e in zip(means, errors)]
    return averages[0] if single else averages
