import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epmdiag import linalg, merit, sweeps
from epmdiag.element_sums import element_sum_coherence_fid, element_sum_kernel
from epmdiag.energetics import local_hamiltonian_2q
from epmdiag.errors import ValidationError
from epmdiag.gates import g_gate, v_angle, v_axis
from epmdiag.linalg import haar_pure_states, plus_plus_state
from epmdiag.merit import (
    ETA_KINDS,
    HaarAverage,
    MeritKind,
    haar_average,
    kernel_coherence_fid,
    kernel_values,
)
from epmdiag.sweeps import SweepConfig, point_seed, run_sweep
from helpers import assert_same_values, child_env, haar_random_unitary, l1_coherence

H = local_hamiltonian_2q()
BASIS = np.eye(4, dtype=complex)  # the computational basis states, as rows


def random_tuple(index, gen):
    theta = gen.uniform(0, np.pi)
    phi = gen.uniform(0, 2 * np.pi)
    family = v_axis if gen.random() < 0.5 else v_angle
    psi = haar_pure_states(7000 | index << 64, 4, 1)[0]
    return psi, g_gate(theta), family(theta, phi)


def test_l1_coherence_examples():
    assert l1_coherence(np.diag([0.25] * 4)) == 0.0
    plus = np.array([1, 1]) / np.sqrt(2)
    assert abs(l1_coherence(np.outer(plus, plus.conj())) - 1.0) < 1e-12
    assert abs(l1_coherence(np.outer(plus_plus_state(), plus_plus_state().conj())) - 3.0) < 1e-12


def test_coherence_kernel_zero_for_equal_gates():
    for i in range(10):
        psi = haar_pure_states(71 | i << 64, 4, 1)[0]
        u = g_gate(0.1 * i)
        assert kernel_coherence_fid(psi, u, u) == 0.0


def test_coherence_kernel_analytic_point():
    value = kernel_coherence_fid(BASIS[0], g_gate(np.pi / 8), v_axis(np.pi / 8, np.pi / 2))
    assert abs(value - 1.0) < 1e-12
    # the |++> input of the fig3 curves, against the element-sum oracle
    psi = plus_plus_state()
    u, v = g_gate(np.pi / 8), v_axis(np.pi / 8, np.pi / 9)
    assert abs(kernel_coherence_fid(psi, u, v) - element_sum_coherence_fid(psi, u, v)) < 1e-12


def test_coherence_kernel_closed_form_grid():
    # for |00> input: ideal coherence |sin 4 theta|, axis-error coherence
    # 2 |cos 2t cos p| sqrt(sin^2 2t cos^2 p + sin^2 p); cross-checked by a
    # dense-matrix computation of the two output coherences.
    phi = np.pi / 9
    psi = BASIS[0]
    for theta in np.linspace(0.0, np.pi / 4, 5):
        u, v = g_gate(theta), v_axis(theta, phi)
        closed = abs(
            2 * abs(np.cos(2 * theta) * np.cos(phi))
            * np.sqrt(np.sin(2 * theta) ** 2 * np.cos(phi) ** 2 + np.sin(phi) ** 2)
            - abs(np.sin(4 * theta))
        )
        brute = abs(
            l1_coherence(v @ np.outer(psi, psi.conj()) @ v.conj().T)
            - l1_coherence(u @ np.outer(psi, psi.conj()) @ u.conj().T)
        )
        value = kernel_coherence_fid(psi, u, v)
        assert abs(value - closed) < 1e-12
        assert abs(value - brute) < 1e-12


def test_fidelity_kernel_exact_one_for_equal_gates():
    for i in range(10):
        psi = haar_pure_states(73 | i << 64, 4, 1)[0]
        u = v_angle(0.2 * i, 0.0)
        assert kernel_values(MeritKind.FIDELITY, psi, u, u)[0] == 1.0


def test_fidelity_kernel_matches_trace_form():
    gen = np.random.default_rng(79)
    for i in range(30):
        psi, u, v = random_tuple(i, gen)
        rho = np.outer(psi, psi.conj())
        trace_form = float(
            np.real(np.trace((v @ rho @ v.conj().T) @ (u @ rho @ u.conj().T)))
        )
        assert abs(kernel_values(MeritKind.FIDELITY, psi, u, v)[0] - trace_form) < 1e-12


def test_fidelity_kernel_orthogonal_outputs():
    value = kernel_values(MeritKind.FIDELITY, BASIS[0], g_gate(0.0),
                          v_axis(0.0, np.pi / 2))[0]
    assert value < 1e-12


def test_fidelity_kernel_range():
    gen = np.random.default_rng(83)
    for i in range(50):
        psi, u, v = random_tuple(i + 100, gen)
        value = kernel_values(MeritKind.FIDELITY, psi, u, v)[0]
        assert 0.0 <= value <= 1.0


def test_eta_kernels_zero_for_equal_gates():
    for kind in ETA_KINDS:
        for i in range(5):
            psi = haar_pure_states(89 | i << 64, 4, 1)[0]
            u = v_axis(0.3 * i, 0.0)
            assert kernel_values(kind, psi, u, u, H)[0] == 0.0


def test_eta_chi_zero_for_diagonal_input():
    psi = BASIS[1]
    for theta in (0.0, 0.4, 1.1):
        for phi in (0.3, 1.0, 2.2):
            for family in (v_axis, v_angle):
                u, v = g_gate(theta), family(theta, phi)
                value = kernel_values(MeritKind.ETA_CHI, psi, u, v, H)[0]
                assert value < 1e-14


def test_eta_chi_against_element_sum_on_theta_grid():
    psi = plus_plus_state()
    for theta in (0.0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4):
        u, v = g_gate(theta), v_axis(theta, np.pi / 9)
        fast = kernel_values(MeritKind.ETA_CHI, psi, u, v, H)[0]
        slow = element_sum_kernel(MeritKind.ETA_CHI, psi, u, v, H)
        assert abs(fast - slow) < 1e-10


def test_all_kernels_match_element_sums():
    gen = np.random.default_rng(97)
    for i in range(60):
        psi, u, v = random_tuple(i + 200, gen)
        for kind in MeritKind:
            fast = float(kernel_values(kind, psi, u, v, H)[0])
            slow = element_sum_kernel(kind, psi, u, v, H)
            assert abs(fast - slow) < 1e-12, kind


# Dense gate pairs (a Haar-random ideal and noisy gate) and arbitrary pure
# states, exact zero amplitudes included: no kernel may lean on the
# controlled structure of the paper's gates.
AMPLITUDES = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=8, max_size=8).filter(
    lambda x: sum(a * a for a in x) > 1e-6)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), amplitudes=AMPLITUDES)
def test_kernels_match_element_sums_on_dense_gates(seed, amplitudes):
    u = haar_random_unitary(seed, 4)
    v = haar_random_unitary(seed | 1 << 64, 4)
    psi = np.array(amplitudes[:4]) + 1j * np.array(amplitudes[4:])
    psi /= np.linalg.norm(psi)
    for kind in MeritKind:
        fast = float(kernel_values(kind, psi, u, v, H)[0])
        assert abs(fast - element_sum_kernel(kind, psi, u, v, H)) < 1e-12, kind


def test_mixed_stack_against_the_element_sums():
    # One call per merit on a stack whose pairs differ in structure, so no
    # entry class or shared row is common to all of them: dense gates, a
    # basis permutation against the identity, the null pair and a
    # controlled pair, with a stacked ideal gate as reconstruct passes.
    ideal = np.stack([g_gate(0.0), haar_random_unitary(127, 4), np.eye(4),
                      g_gate(np.pi / 4)])
    noisy = np.stack([v_axis(0.0, 0.0), haar_random_unitary(127 | 1 << 64, 4),
                      np.eye(4)[[2, 0, 3, 1]], v_angle(np.pi / 4, 0.7)])
    states = haar_pure_states([131 | b << 64 for b in range(4)], 4, 20)
    for kind in MeritKind:
        values = kernel_values(kind, states, ideal, noisy, H)
        for b in range(4):
            for psi, value in zip(states[b], values[b]):
                slow = element_sum_kernel(kind, psi, ideal[b], noisy[b], H)
                assert abs(value - slow) < 1e-12, (kind, b)
        assert np.all(values[0] == (1.0 if kind is MeritKind.FIDELITY else 0.0)), kind


def test_signed_traces_decompose_exactly():
    # ETA_P, ETA_CHI and ETA_EPM over <e^H> are |Tr[e^-H (V Q V^dag - U Q U^dag)]|
    # with Q the diagonal part, the coherence part and the full rho
    gen = np.random.default_rng(101)
    states = haar_pure_states(103, 4, 200)
    w_minus = np.diag(H.exp_diag(-1.0))
    mean_exp_h = (np.abs(states) ** 2) @ H.exp_diag(1.0)
    dense = (haar_random_unitary(105, 4), haar_random_unitary(105 | 1 << 64, 4))
    for u, v in ((g_gate(0.77), v_axis(0.77, gen.uniform(0, np.pi))), dense):
        values = {kind: kernel_values(kind, states, u, v, H) / mean_exp_h
                  for kind in (MeritKind.ETA_P, MeritKind.ETA_CHI, MeritKind.ETA_EPM)}
        for i in range(0, 200, 10):
            rho = np.outer(states[i], states[i].conj())
            diag = np.diag(np.diag(rho))
            for q, kind in ((diag, MeritKind.ETA_P), (rho - diag, MeritKind.ETA_CHI),
                            (rho, MeritKind.ETA_EPM)):
                trace = np.trace(w_minus @ (v @ q @ v.conj().T - u @ q @ u.conj().T)).real
                assert abs(values[kind][i] - abs(trace)) < 1e-12, kind


def test_haar_unitary_invariance_of_average():
    # averaging kernel(psi) and kernel(W psi) over independent Haar batches
    # must agree within Monte Carlo error
    n = 100_000
    w = haar_random_unitary(107, 4)
    u, v = g_gate(0.6), v_axis(0.6, 0.8)
    plain = haar_pure_states(109, 4, n)
    rotated = haar_pure_states(113, 4, n) @ w.T
    for kind in (MeritKind.COHERENCE_FIDELITY, MeritKind.ETA_CHI):
        x = kernel_values(kind, plain, u, v, H)
        y = kernel_values(kind, rotated, u, v, H)
        se = np.sqrt(np.var(x, ddof=1) / n + np.var(y, ddof=1) / n)
        assert abs(x.mean() - y.mean()) < 3 * se


def test_haar_average_null_cases():
    u = g_gate(0.9)
    for kind in (MeritKind.ETA_CHI, MeritKind.COHERENCE_FIDELITY):
        avg = haar_average(kind, u, v_axis(0.9, 0.0), H, n_samples=500, seed=3)
        assert avg.mean == 0.0 and avg.std_error == 0.0
    avg = haar_average(MeritKind.FIDELITY, u, u, H, n_samples=500, seed=3)
    assert avg.mean == 1.0 and avg.std_error == 0.0


def test_haar_average_deterministic():
    a = haar_average(MeritKind.ETA_CHI, g_gate(0.4), v_axis(0.4, 0.5), H, n_samples=400, seed=12)
    b = haar_average(MeritKind.ETA_CHI, g_gate(0.4), v_axis(0.4, 0.5), H, n_samples=400, seed=12)
    assert a == b
    c = haar_average(MeritKind.ETA_CHI, g_gate(0.4), v_axis(0.4, 0.5), H, n_samples=400, seed=13)
    assert a != c


def test_haar_average_mean_within_sample_range():
    u, v = g_gate(0.5), v_axis(0.5, 0.8)
    avg = haar_average(MeritKind.ETA_CHI, u, v, H, n_samples=300, seed=21)
    states = haar_pure_states(21, 4, 300)
    values = kernel_values(MeritKind.ETA_CHI, states, u, v, H)
    assert values.min() <= avg.mean <= values.max()


def test_haar_average_rejects_zero_samples():
    with pytest.raises(ValidationError):
        haar_average(MeritKind.FIDELITY, g_gate(0.1), g_gate(0.1), H, n_samples=0, seed=0)


def test_fidelity_error_bars_calibrated_against_closed_form():
    # Haar average of |<psi|U^dag V|psi>|^2 over d = 4 is (|Tr U^dag V|^2 + 4) / 20
    # (Horodecki et al. 1999; Nielsen 2002). z = (mean - exact) / std_error at
    # 5000 samples should then be close to N(0, 1), which checks the estimator,
    # its ddof=1 standard error and the Philox draw together.
    gen = np.random.default_rng(2718)
    z = []
    for i in range(80):
        family = (v_axis, v_angle)[i % 2]
        theta, phi = gen.uniform(0, np.pi), gen.uniform(-np.pi, np.pi)
        u, v = g_gate(theta), family(theta, phi)
        exact = (abs(np.sum(u.conj() * v)) ** 2 + 4) / 20
        avg = haar_average(MeritKind.FIDELITY, u, v, H, n_samples=5000, seed=900 + i)
        z.append((avg.mean - exact) / avg.std_error)
    z = np.abs(np.array(z))
    assert np.mean(z <= 2) >= 0.9, np.sort(z)[-10:]
    assert np.max(z) <= 5, np.max(z)
    # and not inflated: about 68 % of |z| fall within 1 for calibrated error bars
    assert np.mean(z <= 1) <= 0.85, np.mean(z <= 1)


# The two-sided 99.9 % interval of chi-square with 63 degrees of freedom,
# scipy.stats.chi2.ppf(0.0005, 63) and chi2.ppf(0.9995, 63), written out so
# that the suite needs no scipy.
CHI2_63 = (32.455, 106.583)


def test_error_bars_of_every_merit_calibrated_by_batch_means():
    # No closed form is needed: K = 64 independent batches of 400 samples at
    # three grid points. With calibrated error bars, the sum of the squared
    # deviations of the K batch means from their mean, over the median
    # std_error squared, is chi-square with K - 1 degrees of freedom; and the
    # z-scores of the batch means, each over its own std_error, meet the
    # FIDELITY test's bounds above, pooled per merit.
    k, n = 64, 400
    points = [(v_axis, 0.7, 0.9), (v_angle, 1.1, 2.0), (v_axis, 2.3, -0.4)]
    z = {kind: [] for kind in MeritKind}
    for p, (family, theta, phi) in enumerate(points):
        gates = np.broadcast_to(family(theta, phi), (k, 4, 4))
        seeds = point_seed(41 + p, range(k), MeritKind.ETA_CHI)
        per_kind = haar_average(tuple(MeritKind), g_gate(theta), gates, H, n_samples=n,
                                seed=seeds)
        for kind, averages in zip(MeritKind, per_kind):
            means, errors = np.array(averages).T
            deviations = means - np.mean(means)
            spread = np.sum(deviations ** 2) / np.median(errors) ** 2
            assert CHI2_63[0] <= spread <= CHI2_63[1], (kind, p, spread)
            # the deviation from a mean that includes the batch has variance (k - 1) / k
            z[kind].extend(deviations / (errors * np.sqrt((k - 1) / k)))
    for kind, scores in z.items():
        scores = np.abs(scores)
        assert np.mean(scores <= 2) >= 0.9, (kind, np.sort(scores)[-10:])
        assert np.max(scores) <= 5, (kind, np.max(scores))
        assert np.mean(scores <= 1) <= 0.85, (kind, np.mean(scores <= 1))


@pytest.mark.parametrize("n", [1, 2, 37, 100, 5000])
def test_haar_average_reduces_as_numpy_mean_and_std(monkeypatch, n):
    # the one-sum reduction gives numpy's mean and std(ddof=1) / sqrt(n) bit
    # for bit, on values of mixed scale that haar_average is handed in place
    # of a kernel's; all-zero values, as at the phi = 0 null, give exactly
    # 0.0 for both, and one sample gives the error 0.0
    gen = np.random.default_rng(n)
    values = gen.random((7, n)) * 10.0 ** gen.integers(-12, 3, (7, 1))
    values[3] = 0.0
    monkeypatch.setattr(merit, "kernel_values", lambda *args: values)
    averages = haar_average(MeritKind.ETA_CHI, g_gate(0.4), v_axis(0.4, np.zeros(7)), H,
                            n_samples=n, seed=list(range(7)))
    means, errors = np.array(averages).T
    assert np.array_equal(means.view(np.uint64), np.mean(values, -1).view(np.uint64))
    if n > 1:
        expected = np.std(values, -1, ddof=1) / np.sqrt(n)
        assert np.array_equal(errors.view(np.uint64), expected.view(np.uint64))
    else:
        assert errors.tolist() == [0.0] * 7
    assert np.array_equal(np.array([means[3], errors[3]]).view(np.uint64), np.zeros(2, np.uint64))


def _m_by_matrix_products(u, v):
    """V^dag diag(e^-E) V - U^dag diag(e^-E) U for each gate pair, by `@`."""
    weights = np.diag(H.exp_diag(-1.0))
    return (v.conj().swapaxes(-1, -2) @ weights @ v) - (u.conj().swapaxes(-1, -2) @ weights @ u)


@pytest.mark.parametrize("g", [1, 41, 81])
def test_form_difference_of_a_stack_against_its_definition(g):
    # M of a stack equals the calls on each pair alone bit for bit, signed
    # zeros included, and its definition by matrix products to 1e-12: on
    # Haar-random dense pairs and on the axis and angle gate families, with
    # one ideal gate for the row and with an ideal gate per pair
    gen = np.random.default_rng(g)
    thetas, phis = gen.uniform(0, np.pi, g), np.linspace(0.0, 2 * np.pi, g)
    stacks = [(np.stack([haar_random_unitary(5000 + 2 * i, 4) for i in range(g)]),
               np.stack([haar_random_unitary(5001 + 2 * i, 4) for i in range(g)]))]
    for family in (v_axis, v_angle):
        stacks += [(np.broadcast_to(g_gate(0.7), (g, 4, 4)), family(0.7, phis)),
                   (g_gate(thetas), family(thetas, phis))]
    weights = H.exp_diag(-1.0)
    for u, v in stacks:
        form = merit._form_difference(u, v, weights)
        assert form.shape == (g, 4, 4)
        for i in range(g):
            alone = merit._form_difference(u[i:i + 1], v[i:i + 1], weights)
            assert np.array_equal(form[i:i + 1].view(np.uint64), alone.view(np.uint64)), i
        assert np.max(np.abs(form - _m_by_matrix_products(u, v))) <= 1e-12


# Batched evaluation: slice b of a stacked call equals the call on gate b
# alone, compared as raw 64-bit words so that signed zeros count.
ANGLES = st.one_of(st.sampled_from([0.0, np.pi / 4, np.pi / 2]),
                   st.floats(-4.0, 4.0, allow_nan=False))
PHIS = st.one_of(st.sampled_from([0.0, -0.0, -np.pi / 2, np.pi]),
                 st.floats(-7.0, 7.0, allow_nan=False))
BATCH_SETTINGS = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@BATCH_SETTINGS
@given(kind=st.sampled_from(list(MeritKind)), family=st.sampled_from([v_axis, v_angle]),
       gates=st.lists(st.tuples(ANGLES, PHIS), min_size=1, max_size=6),
       shared_u=st.booleans(), n=st.integers(1, 64), seed=st.integers(0, 2**64 - 1),
       zeroed=st.integers(0, 14))
def test_stacked_kernel_values_equal_single_gate_calls(kind, family, gates, shared_u, n, seed,
                                                       zeroed):
    states = haar_pure_states([seed | b << 64 for b in range(len(gates))], 4, n)
    # exact zero amplitudes in the first slice, as basis-like inputs have
    states[0][:, [k for k in range(4) if zeroed >> k & 1]] = 0.0
    if shared_u:  # one ideal gate for the stack, as a sweep row has
        gates = [(gates[0][0], phi) for _, phi in gates]
    ideal = [g_gate(theta) for theta, _ in gates]
    noisy = [family(theta, phi) for theta, phi in gates]
    stacked = kernel_values(kind, states, ideal[0] if shared_u else np.stack(ideal),
                            np.stack(noisy), H)
    assert stacked.shape == (len(gates), n)
    for b, (u, v) in enumerate(zip(ideal, noisy)):
        single = kernel_values(kind, states[b], u, v, H)
        assert np.array_equal(stacked[b].view(np.uint64), single.view(np.uint64)), (b, gates[b])


@BATCH_SETTINGS
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
       index=st.integers(0, 2**64 - 1), dim=st.sampled_from([2, 4]), n=st.integers(1, 64))
def test_stacked_haar_draw_equals_single_stream_draws(seeds, index, dim, n):
    keys = [seed | index << 64 for seed in seeds]
    stacked = haar_pure_states(keys, dim, n)
    assert stacked.shape == (len(seeds), n, dim)
    for slab, key in zip(stacked, keys):
        single = haar_pure_states(key, dim, n)
        assert np.array_equal(np.ascontiguousarray(slab).view(np.uint64),
                              np.ascontiguousarray(single).view(np.uint64))


def test_stacked_haar_average_equals_single_calls():
    u = g_gate(0.7)
    phis = [0.0, 0.4, -0.0, 2.1]
    gates = np.stack([v_angle(0.7, phi) for phi in phis])
    seeds = [0, 5, 2**63 + 1, 2**64 - 1]
    for kind in MeritKind:
        for n_samples in (1, 2, 37):
            stacked = haar_average(kind, u, gates, H, n_samples=n_samples, seed=seeds)
            singles = [haar_average(kind, u, v, H, n_samples=n_samples, seed=s)
                       for v, s in zip(gates, seeds)]
            assert stacked == singles


def _bits(averages):
    """The exact bits of one HaarAverage, a list of them, or a tuple of either (one per kind)."""
    if isinstance(averages, HaarAverage):  # a tuple itself, so tested first
        averages = [averages]
    elif isinstance(averages, tuple):
        return [_bits(per_kind) for per_kind in averages]
    return [(a.mean.hex(), a.std_error.hex()) for a in averages]


def test_haar_average_of_a_tuple_of_kinds_equals_the_single_kind_calls():
    # one draw for every kind of the tuple, each result bit-equal to the call
    # with that kind alone: on a stack and on one pair, at the phi = 0 null,
    # at one sample, and with a kind repeated
    u = g_gate(0.7)
    gates = v_axis(0.7, np.array([0.0, 0.4, 2.1]))
    seeds = point_seed(3, range(3), MeritKind.ETA_CHI)
    cases = [(gates, seeds), (gates[1], seeds[1]), (gates[0], seeds[0])]
    for kinds in (tuple(MeritKind), (MeritKind.ETA_CHI, MeritKind.FIDELITY, MeritKind.ETA_CHI)):
        for v, seed in cases:
            for n_samples in (1, 2, 300):
                together = haar_average(kinds, u, v, H, n_samples=n_samples, seed=seed)
                assert isinstance(together, tuple) and len(together) == len(kinds)
                alone = [haar_average(kind, u, v, H, n_samples=n_samples, seed=seed)
                         for kind in kinds]
                assert _bits(together) == [_bits(average) for average in alone], (kinds, seed)
    null = haar_average(tuple(MeritKind), u, gates[0], H, n_samples=300, seed=seeds[0])
    assert [a.mean for a in null] == [1.0 if kind is MeritKind.FIDELITY else 0.0
                                      for kind in MeritKind]
    single = haar_average(MeritKind.ETA_CHI, u, gates[1], H, n_samples=300, seed=seeds[1])
    assert isinstance(single, HaarAverage)


def _in_a_fresh_thread(fn):
    """fn() run on a new thread, whose haar_average has no workspace yet."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(result) == 1
    return result[0]


def test_haar_average_workspace_reuse_keeps_every_bit():
    # the (B, n) sizes change from case to case and come back, a tail-sized
    # call sits between two calls of one size, and each case runs twice, the
    # second time on the workspace of the first; calls of one kind alternate
    # with calls of every kind at once; every result must equal the same
    # call made first, before any workspace existed
    theta = 0.7
    u = g_gate(theta)
    calls = []
    for kind in [kinds for single in MeritKind for kinds in (single, tuple(MeritKind))]:
        for b, n in ((2, 5000), (1, 5000), (81, 100), (3, 100), (81, 100), (2, 5000)):
            phis = np.linspace(0.0, 3.0, b)  # phi = 0: the null point, where no row differs
            seeds = point_seed(11, np.arange(b) + 1000 * len(calls), MeritKind.ETA_CHI)
            gates = np.stack([v_axis(theta, phi) for phi in phis])
            if b == 1:  # one gate pair and one seed, as a 5000-sample fig1 row calls it
                gates, seeds = gates[0], seeds[0]
            calls.append((kind, gates, n, seeds))

    def call(kind, gates, n, seeds):
        return haar_average(kind, u, gates, H, n_samples=n, seed=seeds)

    fresh = [_in_a_fresh_thread(lambda args=args: _bits(call(*args))) for args in calls]
    for args, expected in zip(calls, fresh):
        assert [_bits(call(*args)), _bits(call(*args))] == [expected, expected], args[0]


def test_one_buffer_serves_every_draw_of_a_thread(monkeypatch):
    # rows of 5 points in chunks of 2, 2 and a 1-point tail: a thread's first
    # draw gets new arrays, its second allocates the buffer, and that buffer
    # serves every later draw of the thread, the smaller tails included
    config = SweepConfig(theta_points=3, phi_points=5, n_samples=300, master_seed=5)
    reference = run_sweep(config)  # 27 points per chunk: each row in one call
    draws = []

    def counting_draw(*args, **kwargs):
        before = linalg._held.buffer
        states = linalg.haar_pure_states(*args, **kwargs)
        buffer = linalg._held.buffer
        draws.append((buffer is not before, np.shares_memory(states, buffer)))
        return states

    monkeypatch.setattr(merit, "haar_pure_states", counting_draw)
    monkeypatch.setattr(sweeps, "STATE_BUDGET", 2 * config.n_samples)
    for _ in range(2):  # one thread, then a second with a buffer of its own
        draws.clear()
        assert_same_values(_in_a_fresh_thread(lambda: run_sweep(config)), reference)
        assert draws == [(False, False), (True, True)] + [(False, True)] * 7


def test_draws_and_kernels_outside_haar_average_return_new_arrays():
    u, v = g_gate(0.4), v_axis(0.4, 1.1)
    first_states = haar_pure_states(3, 4, 500)
    second_states = haar_pure_states(4, 4, 500)
    assert not np.shares_memory(first_states, second_states)
    for kind in (MeritKind.ETA_CHI, MeritKind.COHERENCE_FIDELITY, MeritKind.FIDELITY):
        first = kernel_values(kind, first_states, u, v, H)
        kept = first.copy()
        haar_average(kind, u, v, H, n_samples=500, seed=3)
        second = kernel_values(kind, second_states, u, v, H)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, first_states)
        assert np.array_equal(first, kept)


# Two passes over a 5 x 41 grid with theta in [0, pi] at 5000 samples, then
# the minor page faults of the second pass, in a new interpreter per merit:
# how often the allocator hands memory back depends on what the process
# allocated before, so running another merit or other tests first can hide
# the churn, and the five theta rows give the kernels gates of each structure.
_FAULT_PROBE = """
import resource, sys
from epmdiag.merit import MeritKind
from epmdiag.sweeps import SweepConfig, run_sweep
def grid(seed):
    run_sweep(SweepConfig(theta_points=5, phi_points=41, merits=(MeritKind(sys.argv[1]),),
                          n_samples=5000, master_seed=seed))
grid(1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
grid(2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_fig1_rows_do_not_fault_their_arrays_in_again():
    # Without a reused workspace, glibc hands each draw's ~320 kB arrays
    # back to the kernel and every point faults them in again: ~200 minor
    # faults per 5000-sample point, about a quarter of fig1's wall time.
    # Next to a reused draw, kernels that hold every output amplitude until
    # the sums fault ~5,000 (coherence_fidelity) to ~10,000 (fidelity)
    # times over the second pass; kernels that take each magnitude, or add
    # each row pair's terms, as soon as its amplitudes are made, ~0.
    resource = pytest.importorskip("resource")
    if not hasattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"):
        pytest.skip("getrusage reports no minor faults")
    def run_probe(kind):
        return subprocess.run([sys.executable, "-c", _FAULT_PROBE, kind.value],
                              capture_output=True, text=True, env=child_env(), timeout=120)

    with ThreadPoolExecutor(max_workers=2) as pool:  # at most two probes alive at once
        probes = list(pool.map(run_probe, MeritKind))
    faults = {}
    for kind, probe in zip(MeritKind, probes):
        assert probe.returncode == 0, probe.stderr
        faults[kind.value] = int(probe.stdout)
    assert all(count < 500 for count in faults.values()), faults
