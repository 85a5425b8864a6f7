"""Bit-for-bit pins of the Haar draw, the gate constructors, the synthetic tables and
the table reader's row sums.

Every seeded output of the package starts from `haar_pure_states` and the
three gate constructors, and every theory table from the synthetic-table
product, so they are compared with frozen reference expressions (Gaussian
pairs divided by their norms; the `np.kron` sums of the gate definitions;
|V psi|^2 row by row) as raw 64-bit words, and the stacked calls with
their scalar ones. The reader sums and renormalizes rows in Python floats
and the reconstruction report works on one stack of tables, so both are
compared with numpy's per-row and per-table results. That makes signed
zeros count, which `np.array_equal` would not.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epmdiag.energetics import local_hamiltonian_2q
from epmdiag.gates import g_gate, v_angle, v_axis
from epmdiag.linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, haar_pure_states
from epmdiag.reconstruct import (
    CHI_LABELS,
    ProbabilityTable,
    chi_populations,
    g_chi_from_table,
    gate_probability_table,
    load_probability_table,
    protocol_plan,
    table_from_plan,
)
from epmdiag.sweeps import MAX_ANGLE, run_reconstruction
from helpers import SIGMA_MINUS, SIGMA_PLUS, haar_random_unitary, philox_generator


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def frozen_haar_pure_states(key, dim, n):
    gauss = philox_generator(key).standard_normal((n, 2 * dim))
    z = gauss[:, :dim] + 1j * gauss[:, dim:]
    norms = np.sqrt(np.sum(z.real**2 + z.imag**2, axis=1))
    return z / norms[:, None]


def frozen_r_gate(theta):
    return np.cos(2 * theta) * PAULI_Z + np.sin(2 * theta) * PAULI_X


def frozen_g_gate(theta):
    return np.kron(SIGMA_PLUS, IDENTITY_2) + np.kron(SIGMA_MINUS, frozen_r_gate(theta))


def frozen_v_axis(theta, phi):
    cos_phi = np.cos(phi)
    nx = np.sin(2 * theta) * cos_phi
    ny = np.sin(phi)
    nz = np.cos(2 * theta) * cos_phi
    tilted = -1j * (nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z)
    return np.kron(SIGMA_PLUS, IDENTITY_2) + 1j * np.kron(SIGMA_MINUS, tilted)


def frozen_v_angle(theta, phi):
    cos_alpha = -np.sin(phi / 2)
    sin_alpha = np.cos(phi / 2)
    block = 1j * cos_alpha * IDENTITY_2 + sin_alpha * frozen_r_gate(theta)
    return np.kron(SIGMA_PLUS, IDENTITY_2) + np.kron(SIGMA_MINUS, block)


def frozen_row_probabilities(v, state):
    out = v @ state
    return out.real**2 + out.imag**2


def frozen_gate_table_rows(v):
    """The rows |V e_i|^2 (i = 0..3) and |V ++|^2, one matrix-vector product each."""
    states = [*np.eye(4, dtype=complex), np.full(4, 0.5, dtype=complex)]
    return np.array([frozen_row_probabilities(v, state) for state in states])


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("n", [1, 7, 5000])
def test_haar_draw_matches_frozen_expression(dim, n):
    for seed, index in ((0, 0), (3, 1), (2**63 + 11, 5), (123456789, 2**40)):
        drawn = haar_pure_states(seed | index << 64, dim, n)
        frozen = frozen_haar_pure_states(seed | index << 64, dim, n)
        assert drawn.shape == frozen.shape and drawn.dtype == frozen.dtype
        assert np.array_equal(_bits(drawn), _bits(frozen)), (seed, index)


# Includes negative phi, the phi = 0 null, and angles where a sine or cosine
# is exactly zero or changes sign.
THETAS = [0.0, np.pi / 8, np.pi / 4, 0.37, 1.3, np.pi / 2, 2.9, np.pi, -0.6]
PHIS = [0.0, -0.0, 0.2, -0.2, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 2.5, 2 * np.pi, -4.0]


def test_gates_match_kron_sums():
    for theta in THETAS:
        assert np.array_equal(_bits(g_gate(theta)), _bits(frozen_g_gate(theta))), theta
        for phi in PHIS:
            assert np.array_equal(_bits(v_axis(theta, phi)),
                                  _bits(frozen_v_axis(theta, phi))), (theta, phi)
            assert np.array_equal(_bits(v_angle(theta, phi)),
                                  _bits(frozen_v_angle(theta, phi))), (theta, phi)


def test_gates_match_kron_sums_on_a_dense_grid():
    for theta in np.linspace(-np.pi, np.pi, 37):
        theta = float(theta)
        assert np.array_equal(_bits(g_gate(theta)), _bits(frozen_g_gate(theta))), theta
        for phi in np.linspace(-2 * np.pi, 2 * np.pi, 41):
            phi = float(phi)
            assert np.array_equal(_bits(v_axis(theta, phi)),
                                  _bits(frozen_v_axis(theta, phi))), (theta, phi)
            assert np.array_equal(_bits(v_angle(theta, phi)),
                                  _bits(frozen_v_angle(theta, phi))), (theta, phi)


def test_stacked_gates_equal_the_scalar_calls_bit_for_bit():
    # every (theta, phi) pair of the special angles, and random ones near and
    # far from zero, as one broadcast grid, one row stack (scalar theta, as a
    # sweep row builds it) and one column stack (scalar phi, as reconstruct does)
    special = [0.0, -0.0, np.pi / 4, np.pi, 2 * np.pi, MAX_ANGLE, -MAX_ANGLE]
    rng = np.random.default_rng(13)
    angles = np.array(special + rng.uniform(-7.0, 7.0, 30).tolist()
                      + rng.uniform(-MAX_ANGLE, MAX_ANGLE, 10).tolist())
    assert g_gate(0.3).shape == v_axis(0.3, 0.2).shape == v_angle(0.3, 0.2).shape == (4, 4)
    stacked = g_gate(angles)
    assert stacked.shape == (len(angles), 4, 4)
    for theta, gate in zip(angles.tolist(), stacked):
        assert np.array_equal(_bits(gate), _bits(g_gate(theta))), theta
    for family in (v_axis, v_angle):
        grid = family(angles[:, None], angles[None, :])
        assert grid.shape == (len(angles), len(angles), 4, 4)
        for i, theta in enumerate(angles.tolist()):
            row, column = family(theta, angles), family(angles, theta)
            for j, phi in enumerate(angles.tolist()):
                scalar = _bits(family(theta, phi))
                assert np.array_equal(_bits(grid[i, j]), scalar), (family, theta, phi)
                assert np.array_equal(_bits(row[j]), scalar), (family, theta, phi)
                assert np.array_equal(_bits(column[j]), _bits(family(phi, theta))), \
                    (family, phi, theta)


def _table_stacks():
    """g_gate over THETAS, v_axis and v_angle over the THETAS x PHIS grid, and fig3's stack."""
    thetas, phis = np.array(THETAS), np.array(PHIS)
    return [g_gate(thetas), v_axis(thetas[:, None], phis), v_angle(thetas[:, None], phis),
            v_axis(np.linspace(0.0, np.pi / 4, 50), np.pi / 9)]


def test_synthetic_tables_equal_the_per_row_builder_bit_for_bit():
    # one product for all five rows, for one gate and for a stack of them,
    # gives |V e_i|^2 and |V ++|^2 as the row-by-row products did
    for stack in _table_stacks():
        stacked = gate_probability_table(stack)
        assert list(stacked.rows) == ["00", "01", "10", "11", "++"]
        for index in np.ndindex(stack.shape[:-2]):
            expected = _bits(frozen_gate_table_rows(stack[index]))
            single = gate_probability_table(stack[index])
            assert list(single.rows) == list(stacked.rows)
            assert np.array_equal(_bits(np.array(list(single.rows.values()))), expected), index
            sliced = np.array([row[index] for row in stacked.rows.values()])
            assert np.array_equal(_bits(sliced), expected), index


def test_stacked_g_chi_equals_the_per_table_calls_bit_for_bit():
    # on the synthetic stacks, and on noisy rows that no gate makes
    hamiltonian = local_hamiltonian_2q()
    rng = np.random.default_rng(17)
    noisy = ProbabilityTable(rows={label: rng.uniform(0.0, 1.0, (3, 50, 4))
                                   for label in ("00", "01", "10", "11", "++")})
    for stacked in [gate_probability_table(stack) for stack in _table_stacks()] + [noisy]:
        values = g_chi_from_table(stacked, hamiltonian)
        shape = next(iter(stacked.rows.values())).shape[:-1]
        assert values.shape == shape
        for index in np.ndindex(shape):
            one = ProbabilityTable(rows={label: row[index] for label, row in stacked.rows.items()})
            assert np.array_equal(_bits(values[index]),
                                  _bits(g_chi_from_table(one, hamiltonian))), index


def test_plan_tables_match_the_per_row_builder_to_rounding():
    # plan states are not basis states, so one product may sum in another order
    thetas, phis = np.array(THETAS), np.array(PHIS)
    gates = [*g_gate(thetas), *v_axis(thetas[:, None], phis).reshape(-1, 4, 4),
             *(haar_random_unitary(929 | k << 64, 4) for k in range(20))]
    for kind in ("straightforward", "separable"):
        plan = protocol_plan(kind)
        for v in gates:
            table = table_from_plan(v, plan)
            assert list(table.rows) == list(plan.labels)
            for label, state in plan.states:
                frozen = frozen_row_probabilities(v, state)
                assert np.max(np.abs(table.rows[label] - frozen)) <= 1e-15, (kind, label)


# signed zeros, subnormals, overflowing magnitudes and values next to 1
ROW_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
                     -1e308, 1.0, -1.0, 1 - 2**-53, 1 + 2**-52, 0.25, 0.1]),
    st.floats(0.999, 1.001),
    st.floats(-2.0, 2.0, allow_subnormal=True),
    st.floats(allow_nan=False, allow_infinity=False),
)
# one to three tables of the five rows chi reads; a sixth, outside them, in some
TABLES = st.lists(st.tuples(st.lists(st.lists(ROW_VALUE, min_size=4, max_size=4),
                                     min_size=5, max_size=5),
                            st.none() | st.lists(ROW_VALUE, min_size=4, max_size=4)),
                  min_size=1, max_size=3)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(tables=TABLES)
def test_reader_row_sums_and_report_equal_numpy_bit_for_bit(tables):
    measured, expected_error = [], []
    for t, (rows, extra) in enumerate(tables):
        labelled = list(zip(CHI_LABELS, rows)) + ([] if extra is None else [("00+01", extra)])
        text = "input,p00,p01,p10,p11\n" + "".join(
            label + "," + ",".join(map(repr, row)) + "\n" for label, row in labelled)
        # tolerance 0 flags every row whose sum is not exactly 1
        table = load_probability_table(text.encode(), sum_tolerance=0.0)
        renormalized = load_probability_table(text.encode(), sum_tolerance=0.0, renormalize=True)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = [np.array(row).sum() for _, row in labelled]
            for (label, row), row_sum in zip(labelled, sums):
                prefix = f"row {label!r} sums to "
                flagged = [flag[len(prefix):].split(",")[0] for flag in table.flags
                           if flag.startswith(prefix)]
                # repr() tells every two floats apart, signed zeros and inf included
                assert flagged == ([] if row_sum == 1.0 else [repr(float(row_sum))]), label
                scaled = (np.array(row) / row_sum if row_sum != 0 and abs(row_sum - 1.0) > 1e-12
                          else np.array(row))
                assert np.array_equal(_bits(renormalized.rows[label]), _bits(scaled)), label
                assert np.array_equal(_bits(table.rows[label]), _bits(np.array(row))), label
            expected_error.append(max(abs(float(row_sum) - 1.0) for row_sum in sums))
        measured.append((0.1 * t, table))

    hamiltonian = local_hamiltonian_2q()
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_reconstruction(measured)
        for t, (_, table) in enumerate(measured):
            for column, value in ((report.max_row_sum_error, expected_error[t]),
                                  (report.chi_pops, chi_populations(table)),
                                  (report.g_chi_measured, g_chi_from_table(table, hamiltonian))):
                assert np.array_equal(_bits(column[t]), _bits(value)), t
