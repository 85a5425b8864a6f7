"""Test-only helpers: constants, samplers, writers and CLI runners no library path uses."""
import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from epmdiag import cli
from epmdiag.errors import ParseError, ValidationError
from epmdiag.linalg import PAULI_X, PAULI_Y
from epmdiag.reconstruct import OUTCOME_COLUMNS

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
