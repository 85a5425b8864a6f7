"""Dense complex linear algebra for one- and two-qubit objects.

States and operators are plain complex numpy arrays. This module fixes the
conventions used everywhere else: computational basis order |00>, |01>,
|10>, |11> with the LEFT tensor factor acting as the control qubit, and
seeded, reproducible Haar sampling backed by a counter-based bit generator:
a draw's seed is its 128-bit Philox key.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence

import numpy as np

from .errors import ValidationError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

SUPPORTED_DIMS = (2, 4)

_MASK64 = (1 << 64) - 1


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


class Workspace:
    """Scratch memory that one evaluation call leaves for the next to reuse.

    Arrays are cut from one byte buffer in the order they are asked for, as
    on a stack: `release(mark)` hands the bytes of every array asked for
    since `mark()` to the requests after it, and `rewind()` starts a call.
    A request past the end of the buffer gets an array of its own, and the
    next call finds a buffer as large as this call needed at once, so calls
    of one shape allocate nothing from the second on. An array stays valid
    until its bytes are handed out again.
    """

    def __init__(self):
        self._buffer = np.empty(0, np.uint8)
        self._used = self._peak = 0

    def rewind(self) -> "Workspace":
        if self._peak > self._buffer.size:
            self._buffer = np.empty(self._peak, np.uint8)
        self._used = self._peak = 0
        return self

    def mark(self) -> int:
        return self._used

    def release(self, mark: int) -> None:
        self._used = mark

    def empty(self, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        start = self._used
        self._used += -(-nbytes // 64) * 64  # whole 64-byte steps keep each array aligned
        self._peak = max(self._peak, self._used)
        if self._used > self._buffer.size:
            return np.empty(shape, dtype)
        return self._buffer[start:start + nbytes].view(dtype).reshape(shape)


def haar_pure_states(key: int | Sequence[int], dim: int, n: int, *,
                     workspace: Workspace | None = None) -> np.ndarray:
    """Draw n Haar-random pure states as the rows of an (n, dim) array.

    Each row is an i.i.d. standard complex Gaussian vector normalized to
    unit length (the exact Haar construction). The normals come from the
    Philox stream whose 128-bit key is `key`, in [0, 2**128): a
    counter-based generator takes any key as its seed, with no seeding
    hash, and its output for one key never depends on what other keys were
    drawn, or in which order. Rows are filled in order, so row 0 equals the
    single-state draw from the same key and prefixes of a batch are
    batch-size independent. A sequence of B keys gives a (B, n, dim) stack
    whose slice b equals the draw from key b alone. The arrays, the states
    included, come from `workspace` when one is given, and are new otherwise.
    """
    if dim not in SUPPORTED_DIMS:
        raise ValidationError(f"unsupported dimension {dim}, expected one of {SUPPORTED_DIMS}")
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    single = isinstance(key, (int, np.integer))
    keys = [operator.index(key)] if single else list(map(operator.index, key))
    refused = [k for k in keys if not 0 <= k < 2**128]
    if refused:
        raise ValidationError(f"a Philox key lies in [0, 2**128), got {refused[0]}")
    ws = Workspace() if workspace is None else workspace
    states = ws.empty((len(keys), n, dim), complex)
    mark = ws.mark()
    gauss = ws.empty((len(keys), n, 2 * dim), float)
    # One Philox re-keyed per key: a fresh key with counter 0 and an empty
    # buffer is the state Philox(key=...) starts from, at a fraction of the
    # cost of building a generator per key.
    bit_generator = np.random.Philox(key=0)
    generator = np.random.Generator(bit_generator)
    state = bit_generator.state
    for out, k in zip(gauss, keys):
        state["state"]["key"] = np.array([k & _MASK64, k >> 64], dtype=np.uint64)
        bit_generator.state = state
        generator.standard_normal(out=out)
    # The squares take the states' memory, which they leave before the states arrive.
    squares = np.multiply(gauss, gauss, out=states.view(float))
    # |z_0|^2 + |z_1|^2 + ... summed left to right, as np.sum does along a row.
    norms_sq = np.add(squares[..., 0], squares[..., dim], out=ws.empty(states.shape[:-1], float))
    pair = ws.empty(norms_sq.shape, float)
    for k in range(1, dim):
        norms_sq += np.add(squares[..., k], squares[..., dim + k], out=pair)
    # Dividing a complex array by a real one multiplies by the reciprocal, so
    # scaling the two real halves by 1/norm gives the same bits as z / norm.
    scale = np.divide(1.0, np.sqrt(norms_sq, out=pair), out=pair)[..., None]
    np.multiply(gauss[..., :dim], scale, out=states.real)
    np.multiply(gauss[..., dim:], scale, out=states.imag)
    ws.release(mark)
    return states[0] if single else states
