"""Dense complex linear algebra for one- and two-qubit objects.

States and operators are plain complex numpy arrays. This module fixes the
conventions used everywhere else: computational basis order |00>, |01>,
|10>, |11> with the LEFT tensor factor acting as the control qubit, and
seeded, reproducible Haar sampling backed by a counter-based bit generator.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_PLUS = (PAULI_X + 1j * PAULI_Y) / 2
SIGMA_MINUS = (PAULI_X - 1j * PAULI_Y) / 2

SUPPORTED_DIMS = (2, 4)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Deterministic random substream keyed by (master_seed, stream_index).

    Backed by the counter-based Philox generator with the 128-bit key
    (stream_index << 64) | master_seed, so every (seed, index) pair is an
    independent stream whose output never depends on what other streams
    were consumed, or in which order.
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        key = ((self.stream_index & _MASK64) << 64) | (self.master_seed & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> of the given dimension."""
    if dim not in SUPPORTED_DIMS:
        raise ValidationError(f"unsupported dimension {dim}, expected one of {SUPPORTED_DIMS}")
    if not 0 <= index < dim:
        raise ValidationError(f"basis index {index} out of range for dim {dim}")
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def plus_plus_state() -> np.ndarray:
    """The product state (|0> + |1>)(|0> + |1>)/2 in the two-qubit basis."""
    return np.full(4, 0.5, dtype=complex)


def haar_pure_states(rng: RngStream | Sequence[RngStream], dim: int, n: int) -> np.ndarray:
    """Draw n Haar-random pure states as the rows of an (n, dim) array.

    Each row is an i.i.d. standard complex Gaussian vector normalized to
    unit length (the exact Haar construction). Rows are filled from the
    stream in order, so row 0 equals the single-state draw from the same
    stream and prefixes of a batch are batch-size independent. A sequence
    of B streams gives a (B, n, dim) stack whose slice b equals the draw
    from stream b alone.
    """
    if dim not in SUPPORTED_DIMS:
        raise ValidationError(f"unsupported dimension {dim}, expected one of {SUPPORTED_DIMS}")
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    streams = [rng] if isinstance(rng, RngStream) else list(rng)
    gauss = np.empty((len(streams), n, 2 * dim))
    # One Philox re-keyed per stream: a fresh key with counter 0 and an empty
    # buffer is the state Philox(key=...) starts from, at a fraction of the
    # cost of building a generator per stream.
    bit_generator = np.random.Philox(key=0)
    generator = np.random.Generator(bit_generator)
    state = bit_generator.state
    for out, stream in zip(gauss, streams):
        state["state"]["key"] = np.array(
            [stream.master_seed & _MASK64, stream.stream_index & _MASK64], dtype=np.uint64)
        bit_generator.state = state
        generator.standard_normal(out=out)
    squares = gauss * gauss
    # |z_0|^2 + |z_1|^2 + ... summed left to right, as np.sum does along a row.
    norms_sq = squares[..., 0] + squares[..., dim]
    for k in range(1, dim):
        norms_sq += squares[..., k] + squares[..., dim + k]
    # Dividing a complex array by a real one multiplies by the reciprocal, so
    # scaling the two real halves by 1/norm gives the same bits as z / norm.
    scale = (1.0 / np.sqrt(norms_sq))[..., None]
    states = np.empty(gauss.shape[:-1] + (dim,), dtype=complex)
    np.multiply(gauss[..., :dim], scale, out=states.real)
    np.multiply(gauss[..., dim:], scale, out=states.imag)
    return states[0] if isinstance(rng, RngStream) else states


def haar_random_unitary(rng: RngStream, dim: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix.

    The R-diagonal phase fix makes the distribution exactly Haar rather
    than merely unitary.
    """
    if dim not in SUPPORTED_DIMS:
        raise ValidationError(f"unsupported dimension {dim}, expected one of {SUPPORTED_DIMS}")
    gen = rng.generator()
    z = (gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
