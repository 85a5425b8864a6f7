import concurrent.futures
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from epmdiag.energetics import local_hamiltonian_2q
from epmdiag.errors import ValidationError
from epmdiag.gates import g_gate, v_axis
from epmdiag.merit import MeritKind, haar_average
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
from helpers import surface, write_probability_table


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
    values = surface(result, MeritKind.ETA_CHI)
    assert values.shape == (4, 3)
    assert np.all(values >= 0.0)
    assert np.array_equal(values[:, 0], np.zeros(4))  # phi = 0 column


def test_sweep_workers_do_not_change_results():
    config = SweepConfig(theta_points=3, phi_points=3, n_samples=200, master_seed=9)
    serial = run_sweep(config, workers=1)
    parallel = run_sweep(config, workers=2)
    assert serial.records == parallel.records


def test_sweep_pool_has_at_most_one_worker_per_row(monkeypatch):
    # a real pool forks every worker at the first submit; this one records
    # how many it was asked for and maps in this process
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config = SweepConfig(theta_points=3, phi_points=2, n_samples=20, master_seed=4)
    serial = run_sweep(config)
    assert run_sweep(config, workers=64).records == serial.records
    assert run_sweep(config, workers=2).records == serial.records
    assert asked == [3, 2]
    one_row = dataclasses.replace(config, theta_points=1)
    assert run_sweep(one_row, workers=64).records == run_sweep(one_row).records
    assert asked == [3, 2]


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
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError, match=str(seed)):
            SweepConfig(master_seed=seed).validate()
    with pytest.raises(ValidationError):
        SweepConfig(n_samples=10**6 + 1).validate()
    for points in ((2**16, 2**16), (1000, 1001)):
        with pytest.raises(ValidationError):
            SweepConfig(theta_points=points[0], phi_points=points[1]).validate()
    for field, angle in (("theta_hi", 1e308), ("phi_lo", -2e6), ("phi_hi", math.nan)):
        with pytest.raises(ValidationError) as refused:
            SweepConfig(**{field: angle}).validate()
        assert repr(angle) in str(refused.value)
    SweepConfig(n_samples=10**6, theta_points=1000, phi_points=1000, master_seed=2**64 - 1,
                theta_lo=-1e6, theta_hi=1e6).validate()


SEED_MASTERS = (0, 1, 2**32, 2**64 - 1)
SEED_INDICES = (0, 1, 40, 6560, 2**32, 2**63)


def test_point_seed_depends_on_the_grid_point_not_the_merit():
    base = point_seed(0, 0, MeritKind.ETA_CHI)
    assert point_seed(0, 1, MeritKind.ETA_CHI) != base
    assert point_seed(1, 0, MeritKind.ETA_CHI) != base
    # every merit of a point reads the same states
    assert {point_seed(0, 0, kind) for kind in MeritKind} == {base}


def test_point_seed_is_the_philox_key_of_the_grid_point():
    for master in SEED_MASTERS:
        for kind in MeritKind:
            for gi in SEED_INDICES:
                assert point_seed(master, gi, kind) == master | gi << 64


def test_point_seed_keys_a_sequence_like_the_scalar_calls():
    for master in SEED_MASTERS:
        keys = [master | gi << 64 for gi in SEED_INDICES]
        for kind in MeritKind:
            assert point_seed(master, SEED_INDICES, kind) == keys
            assert point_seed(master, range(3), kind) == point_seed(master, np.arange(3), kind)
            assert point_seed(master, range(3), kind) == [point_seed(master, gi, kind)
                                                          for gi in range(3)]
            assert point_seed(master, np.int64(40), kind) == keys[2]


def test_every_merit_of_a_point_reads_the_point_key():
    # a merit's value at a point is the average on that point's key, and it
    # does not depend on which other merits the sweep asks for
    merits = (MeritKind.COHERENCE_FIDELITY, MeritKind.ETA_CHI)
    config = SweepConfig(error_family="axis", theta_points=3, phi_points=3, merits=merits,
                         n_samples=150, master_seed=4)
    both = run_sweep(config)
    thetas, phis = config.thetas().tolist(), config.phis().tolist()
    for kind in merits:
        alone = run_sweep(dataclasses.replace(config, merits=(kind,)))
        for which in ("mean", "std_error"):
            assert np.array_equal(surface(both, kind, which), surface(alone, kind, which))
        for gi in range(9):
            i, j = divmod(gi, 3)
            avg = haar_average(kind, g_gate(thetas[i]), v_axis(thetas[i], phis[j]),
                               local_hamiltonian_2q(), n_samples=150,
                               seed=point_seed(4, gi, kind))
            assert surface(both, kind)[i, j] == avg.mean, (kind, gi)
            assert surface(both, kind, "std_error")[i, j] == avg.std_error, (kind, gi)


def test_default_phi_ranges():
    axis = SweepConfig(error_family="axis")
    angle = SweepConfig(error_family="angle")
    assert axis.phi_bounds() == (0.0, math.pi)
    assert angle.phi_bounds() == (0.0, 2 * math.pi)


def test_preset_fig1_small():
    result = preset_fig1("b", resolution=3, n_samples=100, seed=2)
    assert result.config.error_family == "axis"
    assert result.config.merits == (MeritKind.ETA_CHI,)
    assert np.array_equal(surface(result, MeritKind.ETA_CHI)[:, 0], np.zeros(3))
    with pytest.raises(ValidationError):
        preset_fig1("e")


def test_preset_fig1_panel_matches_plain_sweep():
    # a panel run must reproduce the same merit computed inside a two-merit
    # sweep: draws are keyed by grid point, not by the merits requested
    config = SweepConfig(
        error_family="axis", theta_points=3, phi_points=3,
        merits=(MeritKind.COHERENCE_FIDELITY, MeritKind.ETA_CHI),
        n_samples=150, master_seed=4,
    )
    both = run_sweep(config)
    panel = preset_fig1("b", resolution=3, n_samples=150, seed=4)
    assert np.array_equal(
        surface(both, MeritKind.ETA_CHI), surface(panel, MeritKind.ETA_CHI)
    )


def test_fig3_probability_endpoints():
    p10 = dict(fig3_series(preset_fig3(theta_points=50)))["p(10|00)"]
    assert abs(p10[0] - math.cos(math.pi / 9) ** 2) < 1e-12
    assert abs(p10[0] - 0.88302) < 1e-5
    assert p10[-1] < 1e-12  # theta = pi/4


def test_fig3_rows_sum_to_one():
    report = preset_fig3(theta_points=25)
    for label in report.tables[0].rows:
        values = np.array([table.rows[label] for table in report.tables])
        assert np.max(np.abs(values.sum(axis=1) - 1.0)) < 1e-12, label
        assert values.min() >= 0.0 and values.max() <= 1.0 + 1e-12, label


def test_fig3_analytic_conditionals():
    report = preset_fig3(theta_points=50)
    series = dict(fig3_series(report))
    cos_phi_sq = math.cos(math.pi / 9) ** 2
    expected_p10 = np.cos(2 * report.thetas) ** 2 * cos_phi_sq
    expected_p11 = np.sin(2 * report.thetas) ** 2 * cos_phi_sq + math.sin(math.pi / 9) ** 2
    assert np.max(np.abs(series["p(10|00)"] - expected_p10)) < 1e-12
    assert np.max(np.abs(series["p(11|00)"] - expected_p11)) < 1e-12


def test_fig3_kernels_normalized_copies():
    report = preset_fig3(theta_points=20)
    series = dict(fig3_series(report))
    assert abs(series["eta_chi_kernel_max_norm"].max() - 1.0) < 1e-12
    assert abs(series["coherence_kernel_max_norm"].max() - 1.0) < 1e-12
    peak = report.eta_kernel.max()
    assert np.max(np.abs(series["eta_chi_kernel_max_norm"] * peak - report.eta_kernel)) < 1e-12


def test_fig3_series_need_phi():
    report = run_reconstruction([(0.2, gate_probability_table(v_axis(0.2, 0.3)))])
    with pytest.raises(ValidationError, match="made with phi"):
        fig3_series(report)


def test_max_normalize_zero_curve():
    assert np.array_equal(max_normalize(np.zeros(5)), np.zeros(5))


def test_reconstruction_synthetic_matches_fig3(tmp_path):
    thetas = np.linspace(0.0, math.pi / 4, 12)
    measured = [(float(t), gate_probability_table(v_axis(t, math.pi / 9))) for t in thetas]
    report = run_reconstruction(measured, ideal=None, phi=math.pi / 9)
    fig3 = preset_fig3(theta_points=12)
    assert np.max(np.abs(report.eta_kernel - fig3.eta_kernel)) < 1e-10
    assert np.max(np.abs(report.coherence_kernel - fig3.coherence_kernel)) < 1e-12


def test_reconstruction_identical_tables_give_zero():
    thetas = [0.1, 0.2, 0.3]
    tables = [(t, gate_probability_table(g_gate(t))) for t in thetas]
    report = run_reconstruction(tables, ideal=[table for _, table in tables])
    assert np.array_equal(report.eta_kernel, np.zeros(3))


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
    assert report.thetas.tolist() == [0.1, 0.3, 0.3]
    assert report.eta_kernel[0] == 0.0
    assert report.eta_kernel[1] == 0.0
    hamiltonian = local_hamiltonian_2q()
    expected = abs(g_chi_from_table(second, hamiltonian) - g_chi_from_table(other, hamiltonian))
    assert report.eta_kernel[2] == expected > 0.1
    with pytest.raises(ValidationError, match="2 ideal"):
        run_reconstruction([(0.3, first), (0.3, second), (0.1, other)], ideal=[first, other])


def test_reconstruction_reports_the_flags_of_ideal_tables():
    # each theta's measured flags, then its ideal table's, marked "ideal"
    rows = "01,0,1,0,0\n10,0,0,1,0\n11,0,0,0,1\n++,0.25,0.25,0.25,0.25\n"
    off = load_probability_table(io.StringIO("input,p00,p01,p10,p11\n00,0.5,0,0,0\n" + rows))
    good = load_probability_table(io.StringIO("input,p00,p01,p10,p11\n00,1,0,0,0\n" + rows))
    flag = "row '00' sums to 0.5, outside tolerance 0.02"
    assert off.flags == [flag] and good.flags == []
    report = run_reconstruction([(0.4, off), (0.1, good)], ideal=[off, good])
    assert report.flags == [f"theta 0.4: {flag}", f"theta 0.4: ideal {flag}"]
    report = run_reconstruction([(0.4, good), (0.1, good)], ideal=[off, good])
    assert report.flags == [f"theta 0.4: ideal {flag}"]


def test_reconstruction_of_no_tables_writes_the_header_alone(tmp_path):
    # no table, no gate for the batched coherence call to stack
    for phi in (None, 0.3):
        report = run_reconstruction([], phi=phi)
        write_reconstruction(report, tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("theta,p_chi_00,")
        write_reconstruction(report, tmp_path / "r.json", output_format="json")
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["rows"] == [] and doc["metadata"]["theta_points"] == 0


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
    fig3 = preset_fig3(theta_points=5)
    assert np.max(np.abs(report.eta_kernel - fig3.eta_kernel)) < 1e-10
