"""Dense complex linear algebra for one- and two-qubit objects.

States and operators are plain complex numpy arrays. This module fixes the
conventions used everywhere else: computational basis order |00>, |01>,
|10>, |11> with the LEFT tensor factor acting as the control qubit, and
seeded, reproducible Haar sampling backed by a counter-based bit generator:
a draw's seed is its 128-bit Philox key.
"""
from __future__ import annotations

import functools
import itertools
import math
import mmap
import threading
from collections.abc import Sequence

import numpy as np

from .errors import ValidationError, check_integer

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

SUPPORTED_DIMS = (2, 4)

_MASK64 = (1 << 64) - 1


def plus_plus_state() -> np.ndarray:
    """The product state (|0> + |1>)(|0> + |1>)/2 in the two-qubit basis."""
    return np.full(4, 0.5, dtype=complex)


class _Held(threading.local):  # a thread's draw buffer, what its last draw needed, its Philox
    buffer = np.empty(0)
    needed = 0

    @functools.cached_property  # made at the thread's first draw, not at import
    def philox(self) -> tuple:  # the Philox, a Generator on it, the state it starts from
        philox = np.random.Philox(key=0)
        return philox, np.random.Generator(philox), philox.state


_held = _Held()


def _draw_arrays(shapes: list[tuple[int, ...]], reuse: bool) -> list[np.ndarray]:
    """New float arrays of the given shapes, or with `reuse`, views of this
    thread's buffer at 64-byte steps. A larger draw cuts its arrays from one
    new block, and the next reusing draw maps (page-aligned, off the heap) a
    buffer of that size. At fig1's size the block, unlike its arrays, is above
    the mmap threshold the imports leave, so freeing it raises that threshold
    and the kernels' temporaries stay on the heap."""
    if not reuse:  # separate arrays, so kept states hold no normals alive
        return [np.empty(shape) for shape in shapes]
    starts = list(itertools.accumulate((-(-math.prod(s) // 8) * 8 for s in shapes), initial=0))
    if _held.needed > _held.buffer.size:  # the buffer never shrinks
        # private, not shared: a library caller may fork, and a child's writes stay its own
        mapping = mmap.mmap(-1, 8 * _held.needed, access=mmap.ACCESS_COPY)
        _held.buffer = np.frombuffer(mapping, float)
    _held.needed = starts[-1]
    memory = _held.buffer if _held.needed <= _held.buffer.size else np.empty(_held.needed)
    return [memory[a:a + math.prod(s)].reshape(s) for a, s in zip(starts, shapes)]


def haar_pure_states(key: int | Sequence[int], dim: int, n: int, *,
                     reuse: bool = False) -> np.ndarray:
    """Draw n Haar-random pure states as the rows of an (n, dim) array.

    Each row is an i.i.d. standard complex Gaussian vector normalized to
    unit length (the exact Haar construction). The normals come from the
    Philox stream whose 128-bit key is `key`, in [0, 2**128): a
    counter-based generator takes any key as its seed, with no seeding
    hash, and its output for one key never depends on what other keys were
    drawn, or in which order. Rows are filled in order, so row 0 equals the
    single-state draw from the same key and prefixes of a batch are
    batch-size independent. A sequence of B keys gives a (B, n, dim) stack
    whose slice b equals the draw from key b alone. The states are stored
    column-major, as a transposed view of (dim, B, n) memory, so each
    amplitude column states[..., k], which the kernels read, is one
    contiguous block. Each thread re-keys one Philox of its own. With `reuse`,
    the arrays, the states included, come from one buffer per thread that
    the thread's next reusing draw hands out again; otherwise they are new.
    """
    if dim not in SUPPORTED_DIMS:
        raise ValidationError(f"unsupported dimension {dim}, expected one of {SUPPORTED_DIMS}")
    if check_integer(n, "sample count") < 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    single = not isinstance(key, (Sequence, np.ndarray))
    keys = [check_integer(k, "a Philox key") for k in ([key] if single else key)]
    refused = [k for k in keys if not 0 <= k < 2**128]
    if refused:
        raise ValidationError(f"a Philox key lies in [0, 2**128), got {refused[0]}")
    b = len(keys)  # the states' memory: (dim, B, 2n) floats, viewed as (dim, B, n) complex
    columns, gauss, norms_sq, pair = _draw_arrays(
        [(dim, b, 2 * n), (b, n, 2 * dim), (b, n), (b, n)], reuse)
    states = columns.view(complex)
    # Re-keying a thread's one Philox: a fresh key with counter 0 and an empty
    # buffer is the state Philox(key=...) starts from.
    philox, generator, start = _held.philox
    for out, k in zip(gauss, keys):
        start["state"]["key"] = np.array([k & _MASK64, k >> 64], dtype=np.uint64)
        philox.state = start
        generator.standard_normal(out=out)
    # The squares take the states' memory, in the normals' order, until the states arrive.
    squares = np.multiply(gauss, gauss, out=columns.reshape(gauss.shape))
    # |z_0|^2 + |z_1|^2 + ... summed left to right, as np.sum does along a row.
    np.add(squares[..., 0], squares[..., dim], out=norms_sq)
    for k in range(1, dim):
        norms_sq += np.add(squares[..., k], squares[..., dim + k], out=pair)
    # Dividing a complex array by a real one multiplies by the reciprocal, so
    # scaling the two real halves by 1/norm gives the same bits as z / norm.
    # Each multiply writes one amplitude column at a time along its samples.
    scale = np.divide(1.0, np.sqrt(norms_sq, out=pair), out=pair)
    np.multiply(gauss[..., :dim].transpose(2, 0, 1), scale, out=states.real)
    np.multiply(gauss[..., dim:].transpose(2, 0, 1), scale, out=states.imag)
    return states[:, 0].T if single else states.transpose(1, 2, 0)
