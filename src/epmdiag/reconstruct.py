"""Measurement-only reconstruction of coherence diagnostics.

Everything in this module consumes conditional outcome probabilities
p(kq | input state) of local computational-basis measurements after the
gate, the kind of data a counting experiment produces. From a handful of
input states these probabilities determine

  * the populations of the evolved coherence part chi (five-row tables),
  * the coherence contribution to the EPM characteristic function at u=i,
  * the full transition tensor <j| V^dag P_a V |i>, which allows the
    final-energy moment of ANY input state to be evaluated afterwards in
    post-processing.

Tables travel as CSV with header ``input,p00,p01,p10,p11``, one row per
input label, ``#`` comment lines allowed (used for ``# key = value``
metadata such as the sweep angle a table belongs to).
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .energetics import LocalHamiltonian
from .errors import ParseError, ValidationError
from .linalg import basis_state, plus_plus_state

BASIS_LABELS = ("00", "01", "10", "11")
OUTCOME_COLUMNS = ("p00", "p01", "p10", "p11")


@dataclass
class ProbabilityTable:
    """Measured or synthetic outcome probabilities keyed by input label.

    Rows may come from finite counting statistics, so mild violations of
    [0, 1] bounds and unit row sums are flagged in `flags` rather than
    rejected.
    """

    rows: dict[str, np.ndarray]
    metadata: dict[str, float] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)

    def missing(self, labels) -> list[str]:
        return [label for label in labels if label not in self.rows]


def outcome_probabilities(v: np.ndarray, input_state: np.ndarray) -> np.ndarray:
    """Probabilities p(kq | input) = |<kq| V |input>|^2 in basis order."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 unitary, got shape {v.shape}")
    out = v @ np.asarray(input_state, dtype=complex)
    return out.real**2 + out.imag**2


def gate_probability_table(v: np.ndarray) -> ProbabilityTable:
    """Synthetic five-row table (four basis inputs plus |++>) for a gate."""
    rows = {label: outcome_probabilities(v, basis_state(4, i)) for i, label in enumerate(BASIS_LABELS)}
    rows["++"] = outcome_probabilities(v, plus_plus_state())
    return ProbabilityTable(rows=rows)


def table_from_plan(v: np.ndarray, plan: "ProtocolPlan") -> ProbabilityTable:
    """Synthetic table with one row per protocol-plan state."""
    rows = {label: outcome_probabilities(v, state) for label, state in plan.states}
    return ProbabilityTable(rows=rows)


def chi_populations(table: ProbabilityTable) -> np.ndarray:
    """Populations of the evolved coherence part from a five-row table.

    p(kq; chi) = p(kq | ++) - (1/4) sum_nm p(kq | nm); the four values sum
    to zero because chi is traceless.
    """
    missing = table.missing(BASIS_LABELS + ("++",))
    if missing:
        raise ValidationError(f"probability table is missing required row(s) {missing}")
    basis_mean = sum(table.rows[label] for label in BASIS_LABELS) / 4.0
    return table.rows["++"] - basis_mean


def g_chi_from_table(table: ProbabilityTable, hamiltonian: LocalHamiltonian) -> float:
    """Coherence contribution to the characteristic function at u = i.

    Returns Tr[e^H |++><++|] * sum_kq e^{-E_kq} p(kq; chi); the first factor,
    the initial moment of the |++> input, is sum_k e^{E_k} / 4 (cosh(1)^2 here).
    """
    plus_plus_moment = float(hamiltonian.exp_diag(1.0).sum()) / 4
    populations = chi_populations(table)
    return float(plus_plus_moment * np.sum(hamiltonian.exp_diag(-1.0) * populations))


def schmidt_rank(psi: np.ndarray) -> int:
    """Schmidt rank of a two-qubit state vector (singular values above 1e-12)."""
    singular = np.linalg.svd(np.asarray(psi, dtype=complex).reshape(2, 2), compute_uv=False)
    return int(np.sum(singular > 1e-12))


@dataclass(frozen=True)
class ProtocolPlan:
    """Ordered list of labelled input states for tensor reconstruction."""

    kind: str
    states: tuple[tuple[str, np.ndarray], ...]
    phase_theta: float

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.states)


def _pair_state(i: int, j: int, coefficient: complex) -> np.ndarray:
    psi = np.zeros(4, dtype=complex)
    psi[i] = coefficient
    psi[j] = 1.0
    return psi / math.sqrt(2)


def protocol_plan(kind: str, phase_theta: float = math.pi / 2) -> ProtocolPlan:
    """Input-state plan for reconstructing the transition tensor.

    "straightforward": the 4 basis states plus, for every basis pair i < j,
    (|i> + |j>)/sqrt(2) and (i|i> + |j>)/sqrt(2); 16 states, some of them
    entangled across the two qubits.

    "separable": the 4 basis states, the 8 single-factor superpositions
    (|aa> + |ab>)/sqrt(2), (|aa> + |ba>)/sqrt(2), (|aa> - i|ab>)/sqrt(2),
    (|aa> - i|ba>)/sqrt(2), the |++> state and one product phase state
    (i|0> + |1>)(e^{i phase_theta}|0> + |1>)/2; 14 states, all separable.
    The default phase_theta = pi/2 makes the phase-state row read out the
    difference of the two real parts that |++> only provides the sum of.
    """
    states: list[tuple[str, np.ndarray]] = [
        (label, basis_state(4, i)) for i, label in enumerate(BASIS_LABELS)
    ]
    if kind == "straightforward":
        for i in range(4):
            for j in range(i + 1, 4):
                li, lj = BASIS_LABELS[i], BASIS_LABELS[j]
                states.append((f"{li}+{lj}", _pair_state(i, j, 1.0)))
                states.append((f"i{li}+{lj}", _pair_state(i, j, 1j)))
    elif kind == "separable":
        separable_pairs = ((0, 1), (0, 2), (3, 2), (3, 1))
        for i, j in separable_pairs:
            states.append((f"{BASIS_LABELS[i]}+{BASIS_LABELS[j]}", _pair_state(i, j, 1.0)))
        for i, j in separable_pairs:
            psi = np.zeros(4, dtype=complex)
            psi[i] = 1.0
            psi[j] = -1j
            states.append((f"{BASIS_LABELS[i]}-i{BASIS_LABELS[j]}", psi / math.sqrt(2)))
        states.append(("++", plus_plus_state()))
        phase = np.exp(1j * phase_theta)
        states.append(("phase", 0.5 * np.array([1j * phase, 1j, phase, 1.0])))
    else:
        raise ValidationError(f"unknown protocol kind {kind!r}")
    return ProtocolPlan(kind=kind, states=tuple(states), phase_theta=phase_theta)


@dataclass(frozen=True)
class TransitionTensor:
    """The 64 numbers <j| V^dag P_a V |i> for the four outcome projectors.

    entries[a, j, i] is Hermitian in (j, i) for each a, the diagonals are
    outcome probabilities of basis inputs and the tensor sums to the
    identity over a. `residual` is the worst least-squares residual norm
    of the reconstruction (zero for exact synthetic data); `flags` names
    entries the reconstruction could not pin down.
    """

    entries: np.ndarray
    residual: float = 0.0
    flags: tuple[str, ...] = ()


def transition_tensor_from_unitary(v: np.ndarray) -> TransitionTensor:
    """Direct tensor of a known unitary: entries[a, j, i] = conj(V[a, j]) V[a, i]."""
    return TransitionTensor(entries=np.conj(v)[:, :, None] * np.asarray(v, complex)[:, None, :])


def _complete_rank_one(m: np.ndarray, flags: list[str]) -> None:
    """Fill the two imaginary parts the separable plan cannot observe.

    For a unitary gate each outcome matrix is the rank-1 outer product of a
    row of V, so |u_p|^2 T[i, j] = T[i, p] T[p, j] for any pivot p. The
    separable input states determine everything except Im T[0, 3] and
    Im T[1, 2]; those follow from the pivot relation using the larger of
    the two admissible pivot diagonals.
    """
    for (i, j), pivots in (((0, 3), (1, 2)), ((1, 2), (0, 3))):
        p = max(pivots, key=lambda q: m[q, q].real)
        weight = m[p, p].real
        if weight <= 1e-12:
            flags.append(
                f"pivot populations vanish for entry ({i},{j}); imaginary part left at 0"
            )
            continue
        imag = (m[i, p] * m[p, j]).imag / weight
        m[i, j] = m[i, j].real + 1j * imag
        m[j, i] = np.conj(m[i, j])


def transition_tensor_from_tables(plan: ProtocolPlan, table: ProbabilityTable) -> TransitionTensor:
    """Solve one linear system relating plan states to all four outcome columns.

    <psi| M |psi> is linear in the 16 real parameters of Hermitian M. Basis
    rows pin the diagonals, the two-term superpositions pin real and
    imaginary parts of the off-diagonals, and (for the separable plan) the
    |++> and phase rows pin the sum and difference of the two remaining
    real parts; the matching imaginary parts are completed through the
    rank-1 structure of unitary dynamics. Inconsistent tables are resolved
    by least squares and the largest column residual is reported.
    The input table is not modified.
    """
    missing = table.missing(plan.labels)
    if missing:
        raise ValidationError(f"probability table is missing required row(s) {missing}")
    amplitudes = np.array([state for _, state in plan.states])
    i, j = np.triu_indices(4, 1)  # the six entries above the diagonal
    cross = amplitudes[:, i].conj() * amplitudes[:, j]
    design = np.hstack([amplitudes.real**2 + amplitudes.imag**2, 2 * cross.real, -2 * cross.imag])
    outcomes = np.array([table.rows[label] for label in plan.labels])
    x = np.linalg.lstsq(design, outcomes, rcond=None)[0]
    residual = float(np.linalg.norm(design @ x - outcomes, axis=0).max())
    entries = np.zeros((4, 4, 4), dtype=complex)
    diagonal = np.arange(4)
    entries[:, diagonal, diagonal] = x[:4].T
    entries[:, i, j] = (x[4:10] + 1j * x[10:]).T
    entries[:, j, i] = (x[4:10] - 1j * x[10:]).T
    flags: list[str] = []
    if plan.kind == "separable":
        for m in entries:
            _complete_rank_one(m, flags)
    return TransitionTensor(entries=entries, residual=residual, flags=tuple(flags))


def char_fn_from_tensor(
    psi0: np.ndarray, tensor: TransitionTensor, hamiltonian: LocalHamiltonian
) -> float:
    """Final-energy moment sum_a e^{-E_a} <psi0| V^dag P_a V |psi0> by post-processing."""
    a = np.asarray(psi0, dtype=complex)
    moment = np.einsum("a,j,aji,i->", hamiltonian.exp_diag(-1.0), a.conj(), tensor.entries, a)
    return float(moment.real)


# a row sum or a renormalized value that overflows is inf (and flagged), not a warning;
# one errstate per table, as entering it per row costs more than the row's arithmetic
@np.errstate(over="ignore")
def load_probability_table(
    source,
    sum_tolerance: float = 0.02,
    renormalize: bool = False,
) -> ProbabilityTable:
    """Parse a probability-table CSV (header ``input,p00,p01,p10,p11``).

    ``#`` lines are comments; ``# key = value`` comments become table
    metadata. Rows with probabilities outside [0, 1] or sums off 1 beyond
    `sum_tolerance` are flagged (and renormalized when `renormalize` is
    set), never rejected: counting data is allowed to be noisy. Structural
    problems (bad header, wrong field count, non-numeric or non-finite
    values) raise ParseError with the line number, and so does a source
    that is not UTF-8 text, without one; duplicate labels raise
    ValidationError, as does a non-finite or negative `sum_tolerance`.
    """
    if not (math.isfinite(sum_tolerance) and sum_tolerance >= 0):
        raise ValidationError(f"sum tolerance must be finite and >= 0, got {sum_tolerance!r}")
    try:
        if isinstance(source, (str, Path)):
            text = Path(source).read_text(encoding="utf-8")
        elif isinstance(source, bytes):
            text = source.decode("utf-8")
        else:
            text = source.read()
            if isinstance(text, bytes):
                text = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"the table is not UTF-8 text ({exc.reason})") from None

    rows: dict[str, np.ndarray] = {}
    metadata: dict[str, float] = {}
    flags: list[str] = []
    header_seen = False
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                try:
                    number = float(value.strip())
                except ValueError:
                    continue
                if not math.isfinite(number):
                    raise ParseError(f"non-finite metadata value {value.strip()!r}", line=line_no)
                metadata[key.strip()] = number
            continue
        fields = [f.strip() for f in line.split(",")]
        if not header_seen:
            expected = ["input", *OUTCOME_COLUMNS]
            if fields != expected:
                raise ParseError(
                    f"bad header {fields!r}, expected {expected!r}", line=line_no
                )
            header_seen = True
            continue
        if len(fields) != 5:
            raise ParseError(f"expected 5 comma-separated fields, got {len(fields)}", line=line_no)
        label = fields[0]
        if label in rows:
            raise ValidationError(f"duplicate input label {label!r}")
        try:
            values = np.array([float(f) for f in fields[1:]])
        except ValueError as exc:
            raise ParseError(f"non-numeric probability: {exc}", line=line_no) from None
        lo, hi = float(values.min()), float(values.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):  # nan propagates through min/max
            raise ParseError(f"non-finite probability in row {label!r}", line=line_no)
        if lo < -1e-9 or hi > 1 + 1e-9:
            flags.append(f"row {label!r} has probabilities outside [0, 1]")
        row_sum = float(values.sum())
        if abs(row_sum - 1.0) > sum_tolerance:
            flags.append(f"row {label!r} sums to {row_sum!r}, outside tolerance {sum_tolerance}")
        if renormalize and row_sum != 0 and abs(row_sum - 1.0) > 1e-12:
            values = values / row_sum
        rows[label] = values
    if not header_seen:
        raise ParseError("missing header line 'input,p00,p01,p10,p11'", line=1)
    return ProbabilityTable(rows=rows, metadata=metadata, flags=flags)
