"""Measurement-only reconstruction of coherence diagnostics.

Everything in this module consumes conditional outcome probabilities
p(kq | input state) of local computational-basis measurements after the
gate, the kind of data a counting experiment produces. From a handful of
input states these probabilities determine

  * the populations of the evolved coherence part chi (five-row tables),
  * the coherence contribution to the EPM characteristic function at u=i.

Tables travel as CSV with header ``input,p00,p01,p10,p11``, one row per
input label, ``#`` comment lines allowed (used for ``# key = value``
metadata such as the sweep angle a table belongs to).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .energetics import LocalHamiltonian
from .errors import ParseError, ValidationError
from .linalg import plus_plus_state

BASIS_LABELS = ("00", "01", "10", "11")
OUTCOME_COLUMNS = ("p00", "p01", "p10", "p11")
CHI_LABELS = BASIS_LABELS + ("++",)  # the five rows that chi populations read


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

    def require(self, labels) -> None:
        """Raise ValidationError naming each of `labels` that has no row."""
        missing = [label for label in labels if label not in self.rows]
        if missing:
            raise ValidationError(f"probability table is missing required row(s) {missing}")


def gate_probability_table(v: np.ndarray) -> ProbabilityTable:
    """Synthetic five-row table (four basis inputs plus |++>) for a gate, or
    one table of (..., 4) rows for a (..., 4, 4) stack of gates.

    Rows p(kq | psi) = |<kq| V |psi>|^2 come from one product for all five.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape[-2:] != (4, 4):
        raise ValidationError(f"expected a 4x4 unitary or a stack of them, got shape {v.shape}")
    states = np.vstack([np.eye(4, dtype=complex), plus_plus_state()])
    # einsum, not matmul: a BLAS matrix product would allocate its buffers and raise peak RSS
    out = np.einsum("...kj,sj->...sk", v, states)  # (..., 5, 4)
    return ProbabilityTable(rows=dict(zip(CHI_LABELS, np.moveaxis(out.real**2 + out.imag**2, -2, 0))))


def chi_populations(table: ProbabilityTable) -> np.ndarray:
    """Populations of the evolved coherence part from a five-row table.

    p(kq; chi) = p(kq | ++) - (1/4) sum_nm p(kq | nm); the four values sum
    to zero because chi is traceless.
    """
    table.require(CHI_LABELS)
    basis_mean = sum(table.rows[label] for label in BASIS_LABELS) / 4.0
    return table.rows["++"] - basis_mean


def g_chi_from_table(table: ProbabilityTable, hamiltonian: LocalHamiltonian) -> float | np.ndarray:
    """Coherence contribution to the characteristic function at u = i.

    Returns Tr[e^H |++><++|] * sum_kq e^{-E_kq} p(kq; chi); the first factor,
    the initial moment of the |++> input, is sum_k e^{E_k} / 4 (cosh(1)^2 here).
    A stacked table, of (..., 4) rows, gives one value per gate of its stack.
    """
    plus_plus_moment = float(hamiltonian.exp_diag(1.0).sum()) / 4
    populations = chi_populations(table)
    return plus_plus_moment * np.sum(hamiltonian.exp_diag(-1.0) * populations, axis=-1)


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
    states: list[tuple[str, np.ndarray]] = list(zip(BASIS_LABELS, np.eye(4, dtype=complex)))
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
            states.append((f"{BASIS_LABELS[i]}-i{BASIS_LABELS[j]}", _pair_state(j, i, -1j)))
        states.append(("++", plus_plus_state()))
        phase = np.exp(1j * phase_theta)
        states.append(("phase", 0.5 * np.array([1j * phase, 1j, phase, 1.0])))
    else:
        raise ValidationError(f"unknown protocol kind {kind!r}")
    return ProtocolPlan(kind=kind, states=tuple(states), phase_theta=phase_theta)


def load_probability_table(
    source,
    sum_tolerance: float = 0.02,
    renormalize: bool = False,
) -> ProbabilityTable:
    """Parse a probability-table CSV (header ``input,p00,p01,p10,p11``).

    `source` is a path or the file's bytes, UTF-8 with or without a
    byte-order mark. ``#`` lines are comments; ``# key = value`` comments
    become table metadata. Rows with probabilities outside [0, 1] or sums
    off 1 beyond `sum_tolerance` are flagged (and renormalized when
    `renormalize` is set), never rejected: counting data is allowed to be
    noisy. Structural problems (bad header, wrong field count, non-numeric
    or non-finite values) raise ParseError with the line number, and so
    does a source that is not UTF-8 text, without one; duplicate labels
    raise ValidationError, as does a non-finite or negative `sum_tolerance`.
    Rows are read as Python floats and stored as views of one array; a row's
    values are checked for finiteness only when its sum is not finite, as
    nan or inf makes it (finite values only by overflow, which is flagged).
    """
    if not (math.isfinite(sum_tolerance) and sum_tolerance >= 0):
        raise ValidationError(f"sum tolerance must be finite and >= 0, got {sum_tolerance!r}")
    if not isinstance(source, bytes):
        path, chunks = os.fspath(source), []  # fspath: an int is no file descriptor
        fd = os.open(path, os.O_RDONLY)  # no file object, and so no buffer, for a file read whole
        try:
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        except OSError as exc:  # a directory fails in os.read, whose error names no file
            exc.filename = path
            raise
        finally:
            os.close(fd)
        source = b"".join(chunks)
    try:
        text = source.decode("utf-8-sig")  # drops the byte-order mark of a "CSV UTF-8" export
    except UnicodeDecodeError as exc:
        raise ParseError(f"the table is not UTF-8 text ({exc.reason})") from None

    rows: dict[str, list[float]] = {}
    metadata: dict[str, float] = {}
    flags: list[str] = []
    header_seen = False
    # \r\n, \r and \n end a line, as in a file opened as text; splitlines() would split on more
    for line_no, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
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
        if not header_seen:
            if line != "input,p00,p01,p10,p11":
                fields, expected = [f.strip() for f in line.split(",")], ["input", *OUTCOME_COLUMNS]
                if fields != expected:
                    raise ParseError(f"bad header {fields!r}, expected {expected!r}", line=line_no)
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise ParseError(f"expected 5 comma-separated fields, got {len(fields)}", line=line_no)
        label = fields[0].strip()
        if label in rows:
            raise ValidationError(f"duplicate input label {label!r}")
        try:  # float() strips whitespace itself, all but U+001C-U+001F, which strip() takes
            row = list(map(float, fields[1:]))
        except ValueError:
            try:
                row = [float(f.strip()) for f in fields[1:]]
            except ValueError as exc:
                raise ParseError(f"non-numeric probability: {exc}", line=line_no) from None
        # numpy's bits for four values (not sum(), which compensates from 3.12); overflow is inf
        row_sum = 0.0 + row[0] + row[1] + row[2] + row[3]
        if not math.isfinite(row_sum) and not all(map(math.isfinite, row)):
            raise ParseError(f"non-finite probability in row {label!r}", line=line_no)
        if min(row) < -1e-9 or max(row) > 1 + 1e-9:
            flags.append(f"row {label!r} has probabilities outside [0, 1]")
        if abs(row_sum - 1.0) > sum_tolerance:
            flags.append(f"row {label!r} sums to {row_sum!r}, outside tolerance {sum_tolerance}")
        if renormalize and row_sum != 0 and abs(row_sum - 1.0) > 1e-12:
            row = [x / row_sum for x in row]
        rows[label] = row
    if not header_seen:
        raise ParseError("missing header line 'input,p00,p01,p10,p11'", line=1)
    return ProbabilityTable(rows=dict(zip(rows, np.array(list(rows.values())))),
                            metadata=metadata, flags=flags)
