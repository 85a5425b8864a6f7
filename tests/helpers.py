"""Test-only helpers: constants, samplers, writers and CLI runners no library path uses.

It also holds the transition-tensor solver. From the tables of a protocol
plan's input states (the plans `epmdiag protocol` exports) it solves for
the 64 numbers <j| V^dag P_a V |i>, and from them the final-energy moment
of any input state follows in post-processing. No command reads such
tables; the solver shows that the exported plans determine the tensor
(acceptance criterion 5).
"""
import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from epmdiag import cli
from epmdiag.energetics import LocalHamiltonian
from epmdiag.errors import ParseError, ValidationError
from epmdiag.linalg import PAULI_X, PAULI_Y
from epmdiag.reconstruct import OUTCOME_COLUMNS, ProbabilityTable, ProtocolPlan

SIGMA_PLUS = (PAULI_X + 1j * PAULI_Y) / 2
SIGMA_MINUS = (PAULI_X - 1j * PAULI_Y) / 2


def philox_generator(key: int) -> np.random.Generator:
    """A fresh generator on a 128-bit Philox key."""
    return np.random.Generator(np.random.Philox(key=key))


def haar_random_unitary(key: int, dim: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix.

    The R-diagonal phase fix makes the distribution exactly Haar rather
    than merely unitary.
    """
    gen = philox_generator(key)
    z = (gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def table_from_plan(v: np.ndarray, plan: ProtocolPlan) -> ProbabilityTable:
    """Synthetic table with one row per protocol-plan state, from the product of
    `gate_probability_table`: rows p(kq | psi) = |<kq| V |psi>|^2."""
    v = np.asarray(v, dtype=complex)
    states = np.array([state for _, state in plan.states])
    out = np.einsum("...kj,sj->...sk", v, states)  # (..., rows, 4)
    rows = np.moveaxis(out.real**2 + out.imag**2, -2, 0)
    return ProbabilityTable(rows=dict(zip([label for label, _ in plan.states], rows)))


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
    labels = [label for label, _ in plan.states]
    table.require(labels)
    amplitudes = np.array([state for _, state in plan.states])
    i, j = np.triu_indices(4, 1)  # the six entries above the diagonal
    cross = amplitudes[:, i].conj() * amplitudes[:, j]
    design = np.hstack([amplitudes.real**2 + amplitudes.imag**2, 2 * cross.real, -2 * cross.imag])
    outcomes = np.array([table.rows[label] for label in labels])
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


def surface(result, kind, which: str = "mean") -> np.ndarray:
    """(theta_points, phi_points) array of a sweep's means or std errors for one merit."""
    assert kind in result.config.merits, f"sweep does not contain a {kind.value} surface"
    return result.values[:, :, result.config.merits.index(kind), ("mean", "std_error").index(which)]


def assert_same_values(result, expected) -> None:
    """The two sweeps' value arrays are equal bit for bit, in dtype and shape too."""
    assert result.values.dtype == expected.values.dtype
    assert result.values.shape == expected.values.shape
    assert result.values.tobytes() == expected.values.tobytes()


def l1_coherence(rho: np.ndarray) -> float:
    """l1 coherence measure: sum of |rho_nk| over all off-diagonal entries."""
    rho = np.asarray(rho, dtype=complex)
    magnitudes = np.abs(rho)
    return float(np.sum(magnitudes) - np.sum(np.diag(magnitudes)))


def write_probability_table(table, path, metadata: dict | None = None) -> None:
    """Write a table to CSV, metadata (and the table's own) as ``# key = value``."""
    lines = []
    merged = dict(table.metadata)
    merged.update(metadata or {})
    for key, value in merged.items():
        lines.append(f"# {key} = {value!r}")
    lines.append("input," + ",".join(OUTCOME_COLUMNS))
    for label, values in table.rows.items():
        lines.append(label + "," + ",".join(repr(float(v)) for v in values))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_table_parse(data: bytes, sum_tolerance: float = 0.02, renormalize: bool = False):
    """(rows, metadata, flags) of a table's bytes, the loader's reading in its plainest form.

    Every field is stripped, every value converted and checked for
    finiteness one at a time, and the row sum taken after the check. The
    library's `load_probability_table` skips work on the common path (one
    split of the text into lines, the header compared as one string, one
    strip, one finiteness test of the sum) and must still give these rows
    bit for bit, these flags and metadata, and these errors, message and
    line included.
    """
    text = data.decode("utf-8-sig")
    rows, metadata, flags = {}, {}, []
    header_seen = False
    for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
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
                raise ParseError(f"bad header {fields!r}, expected {expected!r}", line=line_no)
            header_seen = True
            continue
        if len(fields) != 5:
            raise ParseError(f"expected 5 comma-separated fields, got {len(fields)}", line=line_no)
        label = fields[0]
        if label in rows:
            raise ValidationError(f"duplicate input label {label!r}")
        try:
            row = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise ParseError(f"non-numeric probability: {exc}", line=line_no) from None
        if not all(map(math.isfinite, row)):
            raise ParseError(f"non-finite probability in row {label!r}", line=line_no)
        if min(row) < -1e-9 or max(row) > 1 + 1e-9:
            flags.append(f"row {label!r} has probabilities outside [0, 1]")
        row_sum = 0.0 + row[0] + row[1] + row[2] + row[3]
        if abs(row_sum - 1.0) > sum_tolerance:
            flags.append(f"row {label!r} sums to {row_sum!r}, outside tolerance {sum_tolerance}")
        if renormalize and row_sum != 0 and abs(row_sum - 1.0) > 1e-12:
            row = [x / row_sum for x in row]
        rows[label] = row
    if not header_seen:
        raise ParseError("missing header line 'input,p00,p01,p10,p11'", line=1)
    return rows, metadata, flags


def child_env():
    """This environment with the checkout's src first on PYTHONPATH and
    RuntimeWarnings turned into errors.

    pyproject's `pythonpath` and `filterwarnings` reach the pytest process
    but not the interpreters it starts, so without this a child finds the
    package only when it is installed, and a numpy overflow or invalid
    value in it passes unseen.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"}


def run_child(*args, **kwargs) -> subprocess.CompletedProcess:
    """`python -m epmdiag *args` in a new interpreter, stdout and stderr captured."""
    return subprocess.run(
        [sys.executable, "-m", "epmdiag", *args],
        capture_output=True, text=True, env=child_env(), **kwargs,
    )


def run_cli(*args) -> subprocess.CompletedProcess:
    """`cli.main(args)` in this process, reported as `run_child` reports a child.

    An exception that escapes main fails the calling test, as a traceback
    in a child's stderr would.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())
