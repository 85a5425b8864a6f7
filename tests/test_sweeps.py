import json
import math

import numpy as np
import pytest

from epmdiag.energetics import local_hamiltonian_2q
from epmdiag.errors import ValidationError
from epmdiag.gates import g_gate, v_axis
from epmdiag.merit import MERIT_ORDINAL, MeritKind
from epmdiag.reconstruct import g_chi_from_table, gate_probability_table, load_probability_table
from epmdiag.sweeps import (
    SweepConfig,
    fig3_series,
    max_normalize,
    point_seed,
    preset_fig1,
    preset_fig3,
    run_reconstruction,
    run_sweep,
    write_fig3,
    write_reconstruction,
    write_sweep,
)
from helpers import write_probability_table


def test_single_point_null_error():
    config = SweepConfig(
        error_family="axis", theta_lo=0.2, theta_hi=0.2, theta_points=1,
        phi_lo=0.0, phi_hi=0.0, phi_points=1,
        merits=(MeritKind.ETA_CHI, MeritKind.COHERENCE_FIDELITY),
        n_samples=300, master_seed=5,
    )
    result = run_sweep(config)
    assert len(result.records) == 2
    for record in result.records:
        assert record.mean == 0.0 and record.std_error == 0.0


def test_single_point_fidelity_null():
    config = SweepConfig(
        error_family="angle", theta_lo=0.7, theta_hi=0.7, theta_points=1,
        phi_lo=0.0, phi_hi=0.0, phi_points=1,
        merits=(MeritKind.FIDELITY,), n_samples=300, master_seed=5,
    )
    result = run_sweep(config)
    assert result.records[0].mean == 1.0
    assert result.records[0].std_error == 0.0


def test_sweep_surface_shape_and_bounds():
    config = SweepConfig(theta_points=4, phi_points=3, n_samples=100, master_seed=1)
    result = run_sweep(config)
    surface = result.surface(MeritKind.ETA_CHI)
    assert surface.shape == (4, 3)
    assert np.all(surface >= 0.0)
    assert np.array_equal(surface[:, 0], np.zeros(4))  # phi = 0 column


def test_sweep_workers_do_not_change_results():
    config = SweepConfig(theta_points=3, phi_points=3, n_samples=200, master_seed=9)
    serial = run_sweep(config, workers=1)
    parallel = run_sweep(config, workers=2)
    assert serial.records == parallel.records


def test_sweep_validation():
    with pytest.raises(ValidationError):
        SweepConfig(theta_points=0).validate()
    with pytest.raises(ValidationError):
        SweepConfig(error_family="bitflip").validate()
    with pytest.raises(ValidationError):
        SweepConfig(n_samples=0).validate()
    with pytest.raises(ValidationError):
        SweepConfig(theta_hi=math.inf).validate()
    with pytest.raises(ValidationError):
        SweepConfig(merits=()).validate()
    with pytest.raises(ValidationError):
        SweepConfig(master_seed=-1).validate()
    with pytest.raises(ValidationError):
        SweepConfig(n_samples=10**6 + 1).validate()
    with pytest.raises(ValidationError):
        SweepConfig(theta_points=2**16, phi_points=2**16).validate()
    SweepConfig(n_samples=10**6, theta_points=2**16, phi_points=2**16 - 1).validate()


def test_point_seed_depends_on_all_inputs():
    base = point_seed(0, 0, MeritKind.ETA_CHI)
    assert point_seed(0, 0, MeritKind.ETA_CHI) == base
    assert point_seed(0, 1, MeritKind.ETA_CHI) != base
    assert point_seed(1, 0, MeritKind.ETA_CHI) != base
    assert point_seed(0, 0, MeritKind.COHERENCE_FIDELITY) != base


SEED_MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 3, 2**130 + 99)
SEED_INDICES = (0, 1, 2, 40, 6560, 2**31, 2**32 - 2, 2**32 - 1)


def _seed_sequence_word(master, gi, kind):
    seq = np.random.SeedSequence(master, spawn_key=(gi, MERIT_ORDINAL[kind]))
    return int(seq.generate_state(1, np.uint64)[0])


def test_point_seed_is_the_seed_sequence_word():
    for master in SEED_MASTERS:
        for kind in MeritKind:
            for gi in SEED_INDICES:
                assert point_seed(master, gi, kind) == _seed_sequence_word(master, gi, kind)


def test_point_seed_hashes_an_index_array_like_the_scalar_calls():
    indices = np.array(SEED_INDICES)
    for master in SEED_MASTERS:
        for kind in MeritKind:
            seeds = point_seed(master, indices, kind)
            assert seeds.dtype == np.uint64 and seeds.shape == indices.shape
            assert seeds.tolist() == [point_seed(master, gi, kind) for gi in SEED_INDICES]
            assert seeds.tolist() == [_seed_sequence_word(master, gi, kind)
                                      for gi in SEED_INDICES]


def test_point_seed_rejects_what_the_hash_cannot_take():
    for master, index in ((-1, 0), (0, -1), (0, 2**32), (0, np.array([0, 2**32]))):
        with pytest.raises(ValidationError):
            point_seed(master, index, MeritKind.ETA_CHI)


def test_default_phi_ranges():
    axis = SweepConfig(error_family="axis")
    angle = SweepConfig(error_family="angle")
    assert axis.phi_bounds() == (0.0, math.pi)
    assert angle.phi_bounds() == (0.0, 2 * math.pi)


def test_preset_fig1_small():
    result = preset_fig1("b", resolution=3, n_samples=100, seed=2)
    assert result.config.error_family == "axis"
    assert result.config.merits == (MeritKind.ETA_CHI,)
    surface = result.surface(MeritKind.ETA_CHI)
    assert np.array_equal(surface[:, 0], np.zeros(3))
    with pytest.raises(ValidationError):
        preset_fig1("e")


def test_preset_fig1_panel_matches_plain_sweep():
    # a panel run must reproduce the same merit computed inside a two-merit
    # sweep: substreams are keyed by merit identity, not list position
    config = SweepConfig(
        error_family="axis", theta_points=3, phi_points=3,
        merits=(MeritKind.COHERENCE_FIDELITY, MeritKind.ETA_CHI),
        n_samples=150, master_seed=4,
    )
    both = run_sweep(config)
    panel = preset_fig1("b", resolution=3, n_samples=150, seed=4)
    assert np.array_equal(
        both.surface(MeritKind.ETA_CHI), panel.surface(MeritKind.ETA_CHI)
    )


def test_fig3_probability_endpoints():
    curves = preset_fig3(theta_points=50)
    p10 = curves.probabilities["00"][:, 2]
    assert abs(p10[0] - math.cos(math.pi / 9) ** 2) < 1e-12
    assert abs(p10[0] - 0.88302) < 1e-5
    assert p10[-1] < 1e-12  # theta = pi/4


def test_fig3_rows_sum_to_one():
    curves = preset_fig3(theta_points=25)
    for label, values in curves.probabilities.items():
        assert np.max(np.abs(values.sum(axis=1) - 1.0)) < 1e-12, label
        assert values.min() >= 0.0 and values.max() <= 1.0 + 1e-12, label


def test_fig3_analytic_conditionals():
    curves = preset_fig3(theta_points=50)
    cos_phi_sq = math.cos(math.pi / 9) ** 2
    expected_p10 = np.cos(2 * curves.thetas) ** 2 * cos_phi_sq
    expected_p11 = np.sin(2 * curves.thetas) ** 2 * cos_phi_sq + math.sin(math.pi / 9) ** 2
    assert np.max(np.abs(curves.probabilities["00"][:, 2] - expected_p10)) < 1e-12
    assert np.max(np.abs(curves.probabilities["00"][:, 3] - expected_p11)) < 1e-12


def test_fig3_kernels_normalized_copies():
    curves = preset_fig3(theta_points=20)
    series = dict(fig3_series(curves))
    assert abs(series["eta_chi_kernel_max_norm"].max() - 1.0) < 1e-12
    assert abs(series["coherence_kernel_max_norm"].max() - 1.0) < 1e-12
    peak = curves.eta_chi_kernel.max()
    assert np.max(np.abs(series["eta_chi_kernel_max_norm"] * peak - curves.eta_chi_kernel)) < 1e-12


def test_max_normalize_zero_curve():
    assert np.array_equal(max_normalize(np.zeros(5)), np.zeros(5))


def test_reconstruction_synthetic_matches_fig3(tmp_path):
    thetas = np.linspace(0.0, math.pi / 4, 12)
    measured = [(float(t), gate_probability_table(v_axis(t, math.pi / 9))) for t in thetas]
    report = run_reconstruction(measured, ideal=None, phi=math.pi / 9)
    curves = preset_fig3(theta_points=12)
    assert np.max(np.abs(report.eta_curve() - curves.eta_chi_kernel)) < 1e-10
    assert np.max(np.abs(report.coherence_curve() - curves.coherence_kernel)) < 1e-12


def test_reconstruction_identical_tables_give_zero():
    thetas = [0.1, 0.2, 0.3]
    tables = [(t, gate_probability_table(g_gate(t))) for t in thetas]
    report = run_reconstruction(tables, ideal=[table for _, table in tables])
    assert np.array_equal(report.eta_curve(), np.zeros(3))


def test_reconstruction_requires_matching_ideal():
    measured = [(0.1, gate_probability_table(v_axis(0.1, 0.2)))]
    ideal = [gate_probability_table(g_gate(0.1))] * 2
    with pytest.raises(ValidationError, match="1 measured tables but 2 ideal"):
        run_reconstruction(measured, ideal=ideal)


def test_reconstruction_synthesized_ideal_equals_given_ideal(tmp_path):
    # the ideal tables built in the row loop are the ones a caller would
    # pass; repr() in the CSV makes equal bytes mean equal floats
    thetas = [0.7, 0.0, 0.3, 0.3, 1.9]
    measured = [(t, gate_probability_table(v_axis(t, 0.4 + t))) for t in thetas]
    for phi in (None, 0.4):
        texts = []
        for ideal in (None, [gate_probability_table(g_gate(t)) for t in thetas]):
            write_reconstruction(run_reconstruction(measured, ideal=ideal, phi=phi),
                                 tmp_path / "r.csv")
            texts.append((tmp_path / "r.csv").read_bytes())
        assert texts[0] == texts[1]


def test_reconstruction_pairs_tables_by_position_at_a_repeated_theta():
    # two runs at theta = 0.3 (listed after a run at 0.1): each measured
    # table goes with the ideal table at its own position
    first = gate_probability_table(v_axis(0.3, 0.4))
    second = gate_probability_table(v_axis(0.3, 1.2))
    other = gate_probability_table(v_axis(0.1, 0.4))
    report = run_reconstruction([(0.3, first), (0.3, second), (0.1, other)],
                                ideal=[first, other, other])
    assert [row.theta for row in report.rows] == [0.1, 0.3, 0.3]
    assert report.rows[0].eta_kernel == 0.0
    assert report.rows[1].eta_kernel == 0.0
    hamiltonian = local_hamiltonian_2q()
    expected = abs(g_chi_from_table(second, hamiltonian) - g_chi_from_table(other, hamiltonian))
    assert report.rows[2].eta_kernel == expected > 0.1
    with pytest.raises(ValidationError, match="2 ideal"):
        run_reconstruction([(0.3, first), (0.3, second), (0.1, other)], ideal=[first, other])


def test_write_sweep_deterministic(tmp_path):
    config = SweepConfig(theta_points=3, phi_points=2, n_samples=100, master_seed=8)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep(run_sweep(config), first)
    write_sweep(run_sweep(config), second)
    assert first.read_bytes() == second.read_bytes()
    sidecar = tmp_path / "a.meta.json"
    meta = json.loads(sidecar.read_text())
    assert meta["master_seed"] == 8 and meta["grid_points"] == 6


def test_write_sweep_json(tmp_path):
    config = SweepConfig(theta_points=2, phi_points=2, n_samples=50, master_seed=8)
    path = tmp_path / "out.json"
    write_sweep(run_sweep(config), path, output_format="json")
    doc = json.loads(path.read_text())
    assert len(doc["records"]) == 2 * 2 * 2
    assert doc["metadata"]["n_samples"] == 50


def test_write_fig3_long_format(tmp_path):
    curves = preset_fig3(theta_points=4)
    path = tmp_path / "fig3.csv"
    write_fig3(curves, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,series,value"
    # 20 probability series + 4 kernel series per theta
    assert len(lines) == 1 + 4 * 24


def test_write_reconstruction_csv(tmp_path):
    thetas = [0.0, 0.15]
    measured = [(t, gate_probability_table(v_axis(t, 0.5))) for t in thetas]
    report = run_reconstruction(measured, phi=0.5)
    path = tmp_path / "recon.csv"
    write_reconstruction(report, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("theta,p_chi_00")
    assert len(lines) == 3


def test_synthetic_table_files_round_trip(tmp_path):
    thetas = np.linspace(0.0, math.pi / 4, 5)
    paths = [tmp_path / f"table_{i:03d}.csv" for i in range(len(thetas))]
    for theta, path in zip(thetas, paths):
        write_probability_table(gate_probability_table(v_axis(theta, math.pi / 9)), path,
                                metadata={"theta": float(theta), "phi": math.pi / 9})
    tables = [load_probability_table(p, sum_tolerance=1e-9) for p in paths]
    for theta, table in zip(thetas, tables):
        assert abs(table.metadata["theta"] - theta) < 1e-15
        assert abs(table.metadata["phi"] - math.pi / 9) < 1e-15
        assert not table.flags
    measured = [(t.metadata["theta"], t) for t in tables]
    report = run_reconstruction(measured, phi=math.pi / 9)
    curves = preset_fig3(theta_points=5)
    assert np.max(np.abs(report.eta_curve() - curves.eta_chi_kernel)) < 1e-10
