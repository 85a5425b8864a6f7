import sys
import threading

import numpy as np
import pytest

from epmdiag.errors import ValidationError
from epmdiag.linalg import haar_pure_states
from helpers import haar_random_unitary


def test_haar_state_normalized():
    for i in range(50):
        psi = haar_pure_states(i << 64, 4, 1)[0]
        assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-12


def test_haar_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        haar_pure_states(0, 3, 1)
    with pytest.raises(ValidationError):
        haar_pure_states(0, 4, 0)
    for key, n in ((1.5, 1), ([0, 2.5], 1), (0, 1.5)):
        with pytest.raises(ValidationError, match="must be an integer, got [12].5$"):
            haar_pure_states(key, 4, n)


def test_haar_pure_states_rejects_keys_outside_128_bits():
    for key in (-1, 2**128, [0, -1], [2**128 - 1, 2**128]):
        with pytest.raises(ValidationError, match="Philox key"):
            haar_pure_states(key, 4, 1)
    assert haar_pure_states([0, 2**128 - 1], 4, 1).shape == (2, 1, 4)


def test_haar_first_moment():
    # E |<00|psi>|^2 = 1/d for Haar states; checked against an independent
    # normalized-Gaussian sampler built directly on default_rng.
    n = 100_000
    states = haar_pure_states(101, 4, n)
    mean = float(np.mean(np.abs(states[:, 0]) ** 2))
    assert abs(mean - 0.25) < 0.005

    gen = np.random.default_rng(202)
    z = gen.normal(size=(n, 4)) + 1j * gen.normal(size=(n, 4))
    z /= np.linalg.norm(z, axis=1)[:, None]
    independent = float(np.mean(np.abs(z[:, 0]) ** 2))
    assert abs(independent - 0.25) < 0.005


def test_haar_invariance_under_fixed_unitary():
    n = 100_000
    w = haar_random_unitary(7, 4)
    states = haar_pure_states(303, 4, n)
    rotated = haar_pure_states(404, 4, n) @ w.T
    x = np.abs(states[:, 0]) ** 2
    y = np.abs(rotated[:, 0]) ** 2
    se = np.sqrt(np.var(x, ddof=1) / n + np.var(y, ddof=1) / n)
    assert abs(x.mean() - y.mean()) < 3 * se


def test_seeded_reproducibility():
    a1 = haar_pure_states(9 | 4 << 64, 4, 100)
    a2 = haar_pure_states(9 | 4 << 64, 4, 100)
    assert np.array_equal(a1, a2)
    b = haar_pure_states(9 | 5 << 64, 4, 100)
    assert not np.array_equal(a1, b)
    # consuming another stream first does not disturb this one
    _ = haar_pure_states(9 | 6 << 64, 4, 1000)
    a3 = haar_pure_states(9 | 4 << 64, 4, 100)
    assert np.array_equal(a1, a3)


def test_single_draw_is_batch_prefix():
    single = haar_pure_states(12 | 3 << 64, 4, 1)[0]
    batch = haar_pure_states(12 | 3 << 64, 4, 50)
    assert np.array_equal(single, batch[0])


def test_haar_random_unitary_is_unitary_and_deterministic():
    w1 = haar_random_unitary(1 | 2 << 64, 4)
    w2 = haar_random_unitary(1 | 2 << 64, 4)
    assert np.array_equal(w1, w2)
    assert np.max(np.abs(w1 @ w1.conj().T - np.eye(4))) < 1e-12


def _c_order_draw(key, dim, n):
    """The draw of one key as a C-order (n, dim) array, on a Philox made for it."""
    gauss = np.random.Generator(np.random.Philox(key=key)).standard_normal((n, 2 * dim))
    z = gauss[:, :dim] + 1j * gauss[:, dim:]
    return z / np.sqrt(np.sum(z.real**2 + z.imag**2, axis=1))[:, None]


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


@pytest.mark.parametrize("reuse", [False, True])
@pytest.mark.parametrize("n", [1, 3, 5000])
def test_every_amplitude_column_is_contiguous(reuse, n):
    keys = [17 | i << 64 for i in range(3)]
    for key in ([keys[0]], keys, keys[1]):  # B = 1, B = 3 and one key
        states = haar_pure_states(key, 4, n, reuse=reuse)
        assert states.shape == (np.shape(key) + (n, 4)) and states.dtype == complex
        for k in range(4):
            assert states[..., k].flags.c_contiguous, (key, k)
        expected = [_c_order_draw(one, 4, n) for one in np.atleast_1d(key).tolist()]
        assert np.array_equal(_bits(states), _bits(np.reshape(expected, states.shape)))


def test_threads_drawing_at_once_each_get_the_serial_draw():
    # threads draw interleaved keys together, each mixing reusing and new
    # draws of several sizes, with the interpreter switching threads often;
    # every draw must be the serial draw of its key
    draws = [(5 | i << 64, n, i % 3 != 0) for i in range(40) for n in (1, 700, 5000)]
    expected = [_bits(haar_pure_states(key, 4, n)) for key, n, _ in draws]
    workers = 4
    start = threading.Barrier(workers)
    mismatches = [[] for _ in range(workers)]

    def run(w):
        start.wait()
        for i, (key, n, reuse) in enumerate(draws):
            if i % workers == w and not np.array_equal(
                    _bits(haar_pure_states([key], 4, n, reuse=reuse)[0]), expected[i]):
                mismatches[w].append(i)

    threads = [threading.Thread(target=run, args=(w,)) for w in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == [[]] * workers
