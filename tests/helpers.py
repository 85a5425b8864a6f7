"""Test-only helpers: constants, samplers and writers no library path uses."""
import math
import os
from pathlib import Path

import numpy as np

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
    config = result.config
    values = [getattr(r, which) for r in result.records if r.merit == kind.value]
    assert len(values) == config.theta_points * config.phi_points, \
        f"sweep does not contain a full {kind.value} surface"
    return np.array(values).reshape(config.theta_points, config.phi_points)


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
