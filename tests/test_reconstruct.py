import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epmdiag.element_sums import epm_char_fn
from epmdiag.energetics import local_hamiltonian_2q
from epmdiag.errors import ParseError, ValidationError
from epmdiag.gates import v_axis
from epmdiag.linalg import haar_pure_states, plus_plus_state
from epmdiag.reconstruct import (
    char_fn_from_tensor,
    chi_populations,
    g_chi_from_table,
    gate_probability_table,
    load_probability_table,
    protocol_plan,
    schmidt_rank,
    table_from_plan,
    transition_tensor_from_tables,
    transition_tensor_from_unitary,
)
from helpers import haar_random_unitary, reference_table_parse, write_probability_table

H = local_hamiltonian_2q()
RHO_PP = np.outer(plus_plus_state(), plus_plus_state().conj())
CHI_PP = RHO_PP - np.diag(np.diag(RHO_PP))


def test_outcome_probabilities_axis_error_analytic():
    for theta in (0.0, 0.3, np.pi / 8):
        for phi in (0.2, np.pi / 9, 1.1):
            probs = gate_probability_table(v_axis(theta, phi)).rows["00"]
            assert abs(probs[2] - np.cos(2 * theta) ** 2 * np.cos(phi) ** 2) < 1e-12
            expected_p11 = np.sin(2 * theta) ** 2 * np.cos(phi) ** 2 + np.sin(phi) ** 2
            assert abs(probs[3] - expected_p11) < 1e-12
            assert probs[0] < 1e-15 and probs[1] < 1e-15


def test_outcome_probabilities_identity():
    assert np.array_equal(gate_probability_table(np.eye(4)).rows["01"], [0, 1, 0, 0])


def test_outcome_probabilities_normalized():
    probs = gate_probability_table(v_axis(np.pi / 8, np.pi / 9)).rows["++"]
    assert abs(probs.sum() - 1.0) < 1e-12


def test_chi_populations_identity_channel():
    table = gate_probability_table(np.eye(4))
    assert np.max(np.abs(chi_populations(table))) < 1e-15


def test_chi_populations_match_matrix_oracle():
    v = v_axis(np.pi / 8, np.pi / 9)
    pops = chi_populations(gate_probability_table(v))
    direct = np.diag(v @ CHI_PP @ v.conj().T).real
    assert np.max(np.abs(pops - direct)) < 1e-12


def test_chi_populations_traceless():
    for theta in np.linspace(0, np.pi / 4, 7):
        pops = chi_populations(gate_probability_table(v_axis(theta, 0.7)))
        assert abs(pops.sum()) < 4e-12


def test_chi_populations_missing_row():
    table = gate_probability_table(np.eye(4))
    del table.rows["++"]
    with pytest.raises(ValidationError, match=r"\+\+"):
        chi_populations(table)


def test_g_chi_identity_channel_is_zero():
    assert abs(g_chi_from_table(gate_probability_table(np.eye(4)), H)) < 1e-14


def test_g_chi_matches_char_fn_component():
    v = v_axis(np.pi / 8, np.pi / 9)
    from_table = g_chi_from_table(gate_probability_table(v), H)
    component = epm_char_fn(1j, RHO_PP, CHI_PP, v, H)
    assert abs(from_table - component) < 1e-12


def test_straightforward_plan_contents():
    plan = protocol_plan("straightforward")
    assert len(plan.states) == 16
    assert len(set(plan.labels)) == 16
    for _, state in plan.states:
        assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-12
    ranks = {label: schmidt_rank(state) for label, state in plan.states}
    assert ranks["00+11"] == 2  # two-term superpositions can be entangled
    assert ranks["00+01"] == 1


def test_separable_plan_contents():
    plan = protocol_plan("separable")
    assert len(plan.states) == 14
    for label, state in plan.states:
        assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-12
        assert schmidt_rank(state) == 1, label


def test_phase_state_amplitudes():
    plan = protocol_plan("separable")
    phase_state = dict(plan.states)["phase"]
    expected = 0.5 * np.array(
        [1j * np.exp(1j * np.pi / 2), 1j, np.exp(1j * np.pi / 2), 1.0]
    )
    assert np.max(np.abs(phase_state - expected)) < 1e-15
    assert np.max(np.abs(phase_state - 0.5 * np.array([-1.0, 1j, 1j, 1.0]))) < 1e-15


def test_phase_theta_is_configurable():
    plan = protocol_plan("separable", phase_theta=0.0)
    phase_state = dict(plan.states)["phase"]
    assert np.max(np.abs(phase_state - 0.5 * np.array([1j, 1j, 1.0, 1.0]))) < 1e-15


def test_protocol_plan_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        protocol_plan("adaptive")


def test_transition_tensor_identity_gate():
    plan = protocol_plan("straightforward")
    tensor = transition_tensor_from_tables(plan, table_from_plan(np.eye(4), plan))
    for alpha in range(4):
        expected = np.zeros((4, 4))
        expected[alpha, alpha] = 1.0
        assert np.max(np.abs(tensor.entries[alpha] - expected)) < 1e-12


def test_transition_tensor_round_trip_both_plans():
    for k in range(20):
        w = haar_random_unitary(881 | k << 64, 4)
        reference = transition_tensor_from_unitary(w).entries
        results = {}
        for kind in ("straightforward", "separable"):
            plan = protocol_plan(kind)
            tensor = transition_tensor_from_tables(plan, table_from_plan(w, plan))
            assert np.max(np.abs(tensor.entries - reference)) < 1e-10, kind
            assert tensor.residual < 1e-12
            results[kind] = tensor.entries
        assert np.max(np.abs(results["straightforward"] - results["separable"])) < 1e-9


def test_transition_tensor_properties():
    w = haar_random_unitary(883, 4)
    plan = protocol_plan("separable")
    entries = transition_tensor_from_tables(plan, table_from_plan(w, plan)).entries
    for alpha in range(4):
        assert np.max(np.abs(entries[alpha] - entries[alpha].conj().T)) < 1e-12
    total = entries.sum(axis=0)
    assert np.max(np.abs(total - np.eye(4))) < 1e-10
    diags = np.stack([np.diag(entries[a]).real for a in range(4)])
    assert np.all(diags > -1e-12) and np.all(diags < 1 + 1e-12)


def test_transition_tensor_missing_rows():
    plan = protocol_plan("separable")
    table = table_from_plan(v_axis(0.4, 0.6), plan)
    del table.rows["phase"]
    del table.rows["00+01"]
    with pytest.raises(ValidationError, match="phase"):
        transition_tensor_from_tables(plan, table)


def test_transition_tensor_returns_flags_and_leaves_table_alone():
    # identity gate: outcome 00 has no weight on the pivots of entry (0, 3)
    plan = protocol_plan("separable")
    table = table_from_plan(np.eye(4), plan)
    tensor = transition_tensor_from_tables(plan, table)
    assert table.flags == []
    assert tensor.flags
    assert all("pivot populations vanish" in flag for flag in tensor.flags)


def test_transition_tensor_least_squares_residual_on_noisy_table():
    w = haar_random_unitary(887, 4)
    plan = protocol_plan("straightforward")
    table = table_from_plan(w, plan)
    gen = np.random.default_rng(5)
    for label in table.rows:
        table.rows[label] = np.clip(table.rows[label] + gen.normal(0, 1e-3, size=4), 0, None)
    tensor = transition_tensor_from_tables(plan, table)
    assert tensor.residual > 0.0
    reference = transition_tensor_from_unitary(w).entries
    assert np.max(np.abs(tensor.entries - reference)) < 0.05


def test_char_fn_from_tensor_basis_state():
    v = v_axis(0.4, 0.6)
    tensor = transition_tensor_from_unitary(v)
    for i in range(4):
        expected = float(
            sum(np.exp(-H.energies[a]) * tensor.entries[a, i, i].real for a in range(4))
        )
        assert abs(char_fn_from_tensor(np.eye(4)[i], tensor, H) - expected) < 1e-12


def test_char_fn_from_tensor_matches_trace():
    w = haar_random_unitary(907, 4)
    plan = protocol_plan("straightforward")
    tensor = transition_tensor_from_tables(plan, table_from_plan(w, plan))
    for i in range(100):
        psi = haar_pure_states(911 | i << 64, 4, 1)[0]
        value = char_fn_from_tensor(psi, tensor, H)
        rho_out = w @ np.outer(psi, psi.conj()) @ w.conj().T
        reference = float(np.real(np.sum(H.exp_diag(-1.0) * np.diag(rho_out))))
        assert abs(value - reference) < 1e-9


def test_char_fn_from_identity_tensor():
    tensor = transition_tensor_from_unitary(np.eye(4))
    psi = haar_pure_states(919, 4, 1)[0]
    expected = float(np.sum(H.exp_diag(-1.0) * (np.abs(psi) ** 2)))
    assert abs(char_fn_from_tensor(psi, tensor, H) - expected) < 1e-12


WELL_FORMED = """\
# theta = 0.25
input,p00,p01,p10,p11
00,0.0,0.0,0.8,0.2
01,0.0,0.0,0.2,0.8
10,1.0,0.0,0.0,0.0
11,0.0,1.0,0.0,0.0
++,0.25,0.25,0.3,0.2
"""


def test_load_well_formed_table():
    table = load_probability_table(WELL_FORMED.encode())
    assert set(table.rows) == {"00", "01", "10", "11", "++"}
    assert table.metadata["theta"] == 0.25
    assert table.flags == []
    assert np.array_equal(table.rows["00"], [0.0, 0.0, 0.8, 0.2])


def test_load_accepts_bytes():
    table = load_probability_table(WELL_FORMED.encode("utf-8"))
    assert len(table.rows) == 5


def test_load_ignores_a_byte_order_mark():
    # spreadsheet "CSV UTF-8" exports start with one, before the first comment
    plain = load_probability_table(WELL_FORMED.encode())
    marked = load_probability_table(b"\xef\xbb\xbf" + WELL_FORMED.encode())
    assert marked.metadata == plain.metadata == {"theta": 0.25}
    assert marked.flags == plain.flags == []
    assert list(marked.rows) == list(plain.rows)
    for label, values in plain.rows.items():
        assert np.array_equal(marked.rows[label], values)


def test_load_flags_and_renormalizes_bad_sum():
    text = "input,p00,p01,p10,p11\n00,0.4,0.3,0.1,0.1\n"
    table = load_probability_table(text.encode())
    assert any("sums to" in flag for flag in table.flags)
    assert abs(table.rows["00"].sum() - 0.9) < 1e-12

    renormalized = load_probability_table(text.encode(), renormalize=True)
    assert abs(renormalized.rows["00"].sum() - 1.0) < 1e-12
    assert any("sums to" in flag for flag in renormalized.flags)


def test_load_flags_out_of_range():
    text = "input,p00,p01,p10,p11\n00,1.02,-0.02,0.0,0.0\n"
    table = load_probability_table(text.encode())
    assert any("outside [0, 1]" in flag for flag in table.flags)


def test_load_rejects_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        load_probability_table(b"input,p00,p01,p10\n00,1,0,0\n")


def test_load_rejects_wrong_field_count():
    text = "input,p00,p01,p10,p11\n00,1.0,0.0,0.0\n"
    with pytest.raises(ParseError, match="line 2"):
        load_probability_table(text.encode())


def test_load_rejects_non_numeric():
    text = "input,p00,p01,p10,p11\n00,1.0,zero,0.0,0.0\n"
    with pytest.raises(ParseError, match="line 2"):
        load_probability_table(text.encode())


# nan, inf and -inf in each column of the second row; nan after a larger value,
# which a check of the row's min and max alone would let through
NON_FINITE_ROWS = [
    "input,p00,p01,p10,p11\n00,1.0,0.0,0.0,0.0\n01,"
    + ",".join(value if col == bad else "0.25" for col in range(4)) + "\n"
    for value in ("nan", "inf", "-inf") for bad in range(4)
]


@pytest.mark.parametrize("text, line", [
    ("input,p00,p01,p10,p11\n00,nan,0.0,0.0,1.0\n", 2),
    ("input,p00,p01,p10,p11\n00,1.0,0.0,0.0,0.0\n01,0.0,inf,0.0,0.0\n", 3),
    ("input,p00,p01,p10,p11\n00,1.0,0.0,-inf,0.0\n", 2),
    ("# theta = nan\ninput,p00,p01,p10,p11\n00,1.0,0.0,0.0,0.0\n", 1),
    ("input,p00,p01,p10,p11\n00,1.0,nan,0,0\n", 2),
    *((text, 3) for text in NON_FINITE_ROWS),
])
def test_load_rejects_non_finite(text, line):
    with pytest.raises(ParseError, match=f"line {line}: non-finite"):
        load_probability_table(text.encode())


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
def test_load_rejects_bad_sum_tolerance(tolerance):
    with pytest.raises(ValidationError, match="sum tolerance"):
        load_probability_table(WELL_FORMED.encode(), sum_tolerance=tolerance)


def test_load_rejects_non_utf8():
    with pytest.raises(ParseError, match="UTF-8"):
        load_probability_table(b"input,p00,p01,p10,p11\n00,1,0,0,\xff\n")


FUZZ_SETTINGS = settings(max_examples=400, deadline=None, database=None, derandomize=True)
# text near the format, so that fuzzing reaches past the header check
TABLE_ALPHABET = st.sampled_from(list("input,p0123456789.e-+#= \nnaif\x00\r") + ["++", "1e400"])


@FUZZ_SETTINGS
@given(source=st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200),
    st.lists(TABLE_ALPHABET, max_size=80).map("".join),
    st.lists(TABLE_ALPHABET, max_size=80).map(
        lambda parts: "input,p00,p01,p10,p11\n" + "".join(parts)),
    st.binary(max_size=60).map(lambda tail: b"input,p00,p01,p10,p11\n00," + tail),
), renormalize=st.booleans(), via=st.sampled_from(["object", "file"]))
def test_load_fuzz_raises_only_documented_errors(tmp_path_factory, source, renormalize, via):
    # a str source is a path, so text goes in as its bytes or as a file
    source = source if isinstance(source, bytes) else source.encode("utf-8")
    if via == "file":
        path = tmp_path_factory.getbasetemp() / "fuzz_table.csv"
        path.write_bytes(source)
        source = path
    try:
        load_probability_table(source, renormalize=renormalize)
    except (ParseError, ValidationError):
        pass


# Tables near the format for comparing the loader with its plain reading: padding
# that float() takes (tab, U+00A0) and that only strip() takes (U+001C-U+001F),
# non-finite values, finite rows whose sum overflows or cancels, non-numeric
# fields, wrong field counts, labels that repeat, comments and metadata.
PADDING = ["", "", "", " ", "\t", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f", "\t\x1c"]
PROBABILITIES = ["0", "1", "0.25", "0.5", "1.0", "0.2", "-0.02", "1.02", "1e-300", "1e308"]
# one draw a field or label: the padded values are listed whole
PROBABILITY = st.sampled_from([a + x + b for a in PADDING for x in PROBABILITIES for b in PADDING])
FIELD = st.one_of(
    PROBABILITY,
    st.sampled_from([a + x + b for a in PADDING for b in PADDING for x in
                     ["-1e308", "nan", "inf", "-inf", "1e999", "zero", "", "1 0", "0x1"]]),
    st.floats().map(repr),
)
LABEL = st.sampled_from([a + x + b for a in PADDING for b in PADDING
                         for x in ["00", "01", "10", "11", "++", "a", "b", "c", "d", "e", "f"]])
ROW = st.tuples(LABEL, PROBABILITY, PROBABILITY, PROBABILITY, PROBABILITY).map(",".join)
ODD_ROW = st.one_of(
    st.tuples(LABEL, FIELD, FIELD, FIELD, FIELD).map(",".join),
    st.lists(FIELD, min_size=1, max_size=7).map(",".join),
    st.sampled_from(["00,1e308,1e308,0,0", "00,1e308,-1e308,1e-300,0", "00,1e308,1e308,-1e308,0",
                     "++,0.25,0.25,0.25,0.25", "11,\x1c1.0,0,0,0", "10,0,0,\t1\x1f,0",
                     "01,0,1e999,0,0", "10,-inf,0,0,1", "11,0,0,nan,1", "a,0,1,zero ,0"]),
)
COMMENT = st.sampled_from(
    [f"# theta ={a}{x}{b}" for a in PADDING for x in PROBABILITIES for b in PADDING]
    + ["# phi=0.5", "## theta = \x1c2", "# note", "#", "# a = b", "# = 1", "# x = 1 = 2"] * 50
    + ["# theta = nan", "# phi = 1e999", "#phi=-inf"] * 15)
HEADER = st.sampled_from(["input,p00,p01,p10,p11"] * 4 + [" input ,\x1cp00,p01,p10,p11\xa0"] * 2
                         + ["input,p00,p01,p10", "input;p00;p01;p10;p11"])


def _table_text(parts) -> str:
    """The lines before the header, the header, then the body with the odd rows at `at`."""
    before, header, body, odd, at, newline, bom = parts
    lines = [*before, header, *body[:at], *odd, *body[at:]]
    return bom + newline.join(lines) + newline


# a body of distinct labels (a comment or blank line counts as a label of its
# own) and at most one odd row at any place, which may repeat a label
TABLE_TEXT = st.tuples(
    st.lists(st.one_of(COMMENT, st.just("")), max_size=2), HEADER,
    st.lists(st.one_of(ROW, ROW, ROW, COMMENT, st.just(" ")), max_size=7,
             unique_by=lambda line: line.split(",")[0].strip()),
    st.lists(ODD_ROW, max_size=1), st.integers(0, 7),
    st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from(["", "\ufeff"]),
).map(_table_text)


def _load_outcome(load, *args, **kwargs):
    """The rows' bits, the metadata and flags, or the error's type, message and line."""
    try:
        rows, metadata, flags = load(*args, **kwargs)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return ([(label, np.array(row, dtype=float).tobytes()) for label, row in rows.items()],
            [(key, repr(value)) for key, value in metadata.items()], flags)


@FUZZ_SETTINGS
@given(text=TABLE_TEXT, renormalize=st.booleans(), tolerance=st.sampled_from([0.02, 0.0, 1e300]),
       via=st.sampled_from(["bytes", "file"]))
@example(text="input,p00,p01,p10,p11\n00,\x1c1.0,0,0,0\n", renormalize=False, tolerance=0.02,
         via="bytes")
@example(text="input,p00,p01,p10,p11\n00,1e308,-1e308,1e-300,0\n01,1e308,1e308,0,0\n",
         renormalize=True, tolerance=0.02, via="file")
def test_load_matches_the_reference_reading(tmp_path_factory, text, renormalize, tolerance, via):
    data = text.encode("utf-8")
    source = data
    if via == "file":
        source = tmp_path_factory.getbasetemp() / "reference_table.csv"
        source.write_bytes(data)

    def load(source):
        table = load_probability_table(source, sum_tolerance=tolerance, renormalize=renormalize)
        return table.rows, table.metadata, table.flags

    expected = _load_outcome(reference_table_parse, data, tolerance, renormalize)
    assert _load_outcome(load, source) == expected


def test_load_rejects_duplicate_labels():
    text = "input,p00,p01,p10,p11\n00,1,0,0,0\n00,0,1,0,0\n"
    with pytest.raises(ValidationError, match="duplicate"):
        load_probability_table(text.encode())


def test_write_read_round_trip(tmp_path):
    table = gate_probability_table(v_axis(0.3, 0.5))
    path = tmp_path / "table.csv"
    write_probability_table(table, path, metadata={"theta": 0.3, "phi": 0.5})
    loaded = load_probability_table(path, sum_tolerance=1e-12)
    assert loaded.metadata == {"theta": 0.3, "phi": 0.5}
    for label in table.rows:
        assert np.array_equal(loaded.rows[label], table.rows[label])
    assert loaded.flags == []
