import numpy as np
import pytest

from epmdiag.errors import ValidationError
from epmdiag.linalg import (
    RngStream,
    haar_pure_states,
    haar_random_unitary,
)


def test_haar_state_normalized():
    for i in range(50):
        psi = haar_pure_states(RngStream(0, i), 4, 1)[0]
        assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-12


def test_haar_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        haar_pure_states(RngStream(0, 0), 3, 1)
    with pytest.raises(ValidationError):
        haar_pure_states(RngStream(0, 0), 4, 0)


def test_haar_first_moment():
    # E |<00|psi>|^2 = 1/d for Haar states; checked against an independent
    # normalized-Gaussian sampler built directly on default_rng.
    n = 100_000
    states = haar_pure_states(RngStream(101, 0), 4, n)
    mean = float(np.mean(np.abs(states[:, 0]) ** 2))
    assert abs(mean - 0.25) < 0.005

    gen = np.random.default_rng(202)
    z = gen.normal(size=(n, 4)) + 1j * gen.normal(size=(n, 4))
    z /= np.linalg.norm(z, axis=1)[:, None]
    independent = float(np.mean(np.abs(z[:, 0]) ** 2))
    assert abs(independent - 0.25) < 0.005


def test_haar_invariance_under_fixed_unitary():
    n = 100_000
    w = haar_random_unitary(RngStream(7, 0), 4)
    states = haar_pure_states(RngStream(303, 0), 4, n)
    rotated = haar_pure_states(RngStream(404, 0), 4, n) @ w.T
    x = np.abs(states[:, 0]) ** 2
    y = np.abs(rotated[:, 0]) ** 2
    se = np.sqrt(np.var(x, ddof=1) / n + np.var(y, ddof=1) / n)
    assert abs(x.mean() - y.mean()) < 3 * se


def test_seeded_reproducibility():
    a1 = haar_pure_states(RngStream(9, 4), 4, 100)
    a2 = haar_pure_states(RngStream(9, 4), 4, 100)
    assert np.array_equal(a1, a2)
    b = haar_pure_states(RngStream(9, 5), 4, 100)
    assert not np.array_equal(a1, b)
    # consuming another stream first does not disturb this one
    _ = haar_pure_states(RngStream(9, 6), 4, 1000)
    a3 = haar_pure_states(RngStream(9, 4), 4, 100)
    assert np.array_equal(a1, a3)


def test_single_draw_is_batch_prefix():
    single = haar_pure_states(RngStream(12, 3), 4, 1)[0]
    batch = haar_pure_states(RngStream(12, 3), 4, 50)
    assert np.array_equal(single, batch[0])


def test_haar_random_unitary_is_unitary_and_deterministic():
    w1 = haar_random_unitary(RngStream(1, 2), 4)
    w2 = haar_random_unitary(RngStream(1, 2), 4)
    assert np.array_equal(w1, w2)
    assert np.max(np.abs(w1 @ w1.conj().T - np.eye(4))) < 1e-12
