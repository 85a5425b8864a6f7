import concurrent.futures
import dataclasses
import json
import math
import os
import stat
import sys
import tracemalloc

import numpy as np
import pytest

import epmdiag.merit
from epmdiag import cli, sweeps
from epmdiag.energetics import local_hamiltonian_2q
from epmdiag.errors import ValidationError
from epmdiag.gates import g_gate, v_angle, v_axis
from epmdiag.merit import STATE_BUDGET, MeritKind, haar_average
from epmdiag.reconstruct import (
    g_chi_from_table,
    gate_probability_table,
    load_probability_table,
    protocol_plan,
)
from epmdiag.sweeps import (
    MAX_WORKERS,
    SweepConfig,
    SweepResult,
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
from helpers import (
    assert_same_values,
    run_cli,
    surface,
    table_from_plan,
    write_probability_table,
)


def test_single_point_null_error():
    config = SweepConfig(
        error_family="axis", theta_lo=0.2, theta_hi=0.2, theta_points=1,
        phi_lo=0.0, phi_hi=0.0, phi_points=1,
        merits=(MeritKind.ETA_CHI, MeritKind.COHERENCE_FIDELITY),
        n_samples=300, master_seed=5,
    )
    result = run_sweep(config)
    assert result.values.shape == (1, 1, 2, 2)
    assert np.all(result.values == 0.0)


def test_single_point_fidelity_null():
    config = SweepConfig(
        error_family="angle", theta_lo=0.7, theta_hi=0.7, theta_points=1,
        phi_lo=0.0, phi_hi=0.0, phi_points=1,
        merits=(MeritKind.FIDELITY,), n_samples=300, master_seed=5,
    )
    assert run_sweep(config).values.tolist() == [[[[1.0, 0.0]]]]


def test_sweep_surface_shape_and_bounds():
    config = SweepConfig(theta_points=4, phi_points=3, n_samples=100, master_seed=1)
    result = run_sweep(config)
    values = surface(result, MeritKind.ETA_CHI)
    assert values.shape == (4, 3)
    assert np.all(values >= 0.0)
    assert np.array_equal(values[:, 0], np.zeros(4))  # phi = 0 column


def test_sweep_workers_do_not_change_results():
    # the second grid averages each row in calls of 2 points with a 1-point tail, all six
    # merits, so the threads each reuse their own draw buffer while the others draw; at
    # 3 workers there is a thread per row, and a short switch interval interleaves them
    small = SweepConfig(theta_points=3, phi_points=3, n_samples=200, master_seed=9)
    chunked = SweepConfig(theta_points=3, phi_points=5, merits=tuple(MeritKind), n_samples=3000,
                          master_seed=9)
    assert STATE_BUDGET // chunked.n_samples == 2
    assert_same_values(run_sweep(small, workers=2), run_sweep(small, workers=1))
    serial = run_sweep(chunked, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (2, 3):
            assert_same_values(run_sweep(chunked, workers=workers), serial)
    finally:
        sys.setswitchinterval(interval)


class RecordingPool:
    """A thread pool's stand-in: it records how many workers it was asked for
    and maps in the calling thread."""

    def __init__(self, asked, max_workers):
        asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def _record_pools(monkeypatch) -> list[int]:
    asked = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda max_workers: RecordingPool(asked, max_workers))
    return asked


def test_sweep_pool_has_at_most_one_worker_per_row(monkeypatch):
    # a thread beyond the rows would have nothing to do, so none is started;
    # the recording pool maps in this thread
    asked = _record_pools(monkeypatch)
    config = SweepConfig(theta_points=3, phi_points=2, n_samples=20, master_seed=4)
    serial = run_sweep(config)
    assert_same_values(run_sweep(config, workers=64), serial)
    assert_same_values(run_sweep(config, workers=2), serial)
    assert asked == [3, 2]
    one_row = dataclasses.replace(config, theta_points=1)
    assert_same_values(run_sweep(one_row, workers=64), run_sweep(one_row))
    assert asked == [3, 2]


def test_sweep_refuses_workers_above_the_ceiling(monkeypatch):
    # refused before any pool is asked for: the count reaches no executor
    asked = _record_pools(monkeypatch)
    config = SweepConfig(theta_points=MAX_WORKERS + 1, phi_points=1, n_samples=1)
    for workers, refused in ((MAX_WORKERS + 1, f"workers must be in \\[1, {MAX_WORKERS}\\]"),
                             (100_000, f"workers must be in \\[1, {MAX_WORKERS}\\]"),
                             (2.5, "workers must be an integer, got 2.5")):
        with pytest.raises(ValidationError, match=refused):
            run_sweep(config, workers=workers)
    assert asked == []
    run_sweep(config, workers=MAX_WORKERS)
    assert asked == [MAX_WORKERS]


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


def test_non_integer_counts_and_seeds_are_refused_by_name(tmp_path):
    # a float count or seed is refused with its field's name before it reaches
    # numpy or the key; numpy integers pass and give the Python integers' result
    for field, value in (("theta_points", 2.0), ("phi_points", 3.5), ("n_samples", 5.5),
                         ("master_seed", 1.5)):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got {value!r}$"):
            SweepConfig(**{field: value}).validate()
    with pytest.raises(ValidationError, match="^theta_points must be an integer, got 2.5$"):
        preset_fig3(theta_points=2.5)
    config = SweepConfig(theta_points=2, phi_points=3, n_samples=20, master_seed=3)
    numpy_integers = SweepConfig(theta_points=np.int64(2), phi_points=np.int32(3),
                                 n_samples=np.int64(20), master_seed=np.uint64(3))
    assert_same_values(run_sweep(numpy_integers), run_sweep(config))
    for output_format in ("csv", "json"):
        paths = [write_sweep(run_sweep(c), tmp_path / f"{i}.{output_format}", output_format)
                 for i, c in enumerate((numpy_integers, config))]
        assert [p.read_bytes() for p in paths[0]] == [p.read_bytes() for p in paths[1]]
    assert np.array_equal(preset_fig3(theta_points=np.int64(3)).eta_kernel,
                          preset_fig3(theta_points=3).eta_kernel)


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


def test_values_hold_the_one_point_average_on_the_point_key():
    # values[i, j, m] is merit m's one-point average on key point_seed(seed, i * len(phis) + j),
    # bit for bit, on a non-square grid whose rows are averaged in chunks of two points
    merits = (MeritKind.ETA_CHI, MeritKind.FIDELITY)
    config = SweepConfig(error_family="angle", theta_points=3, phi_points=5, merits=merits,
                         n_samples=STATE_BUDGET // 2, master_seed=7)
    values = run_sweep(config).values
    assert values.shape == (3, 5, 2, 2) and values.dtype == np.float64
    phis = config.phis().tolist()
    for i, theta in enumerate(config.thetas().tolist()):
        for j, phi in enumerate(phis):
            averages = haar_average(merits, g_gate(theta), v_angle(theta, phi),
                                    local_hamiltonian_2q(), n_samples=config.n_samples,
                                    seed=point_seed(7, i * len(phis) + j, merits[0]))
            assert averages.shape == (1, 2, 2)
            assert values[i, j].tobytes() == averages[0].tobytes(), (i, j)


@pytest.mark.parametrize("n_samples", [1, 3000])
@pytest.mark.parametrize("merits", [(MeritKind.COHERENCE_FIDELITY, MeritKind.ETA_CHI),
                                    tuple(MeritKind)])
def test_each_chunk_draws_its_states_once_for_every_merit(monkeypatch, merits, n_samples):
    # a 3 x 5 grid averaged in chunks of max(1, STATE_BUDGET // n) points:
    # one draw per chunk whatever the number of merits, and each point's key
    # in exactly one draw
    draws = []
    draw = epmdiag.merit.haar_pure_states

    def counted(seeds, *args, **kwargs):
        draws.append(list(seeds))
        return draw(seeds, *args, **kwargs)

    monkeypatch.setattr(epmdiag.merit, "haar_pure_states", counted)
    run_sweep(SweepConfig(theta_points=3, phi_points=5, merits=merits, n_samples=n_samples,
                          master_seed=6))
    assert len(draws) == 3 * math.ceil(5 / max(1, STATE_BUDGET // n_samples))
    assert sorted(key for seeds in draws for key in seeds) == point_seed(6, range(15), merits[0])


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


def test_fig3_builds_one_noisy_and_one_ideal_table(monkeypatch):
    shapes = []
    monkeypatch.setattr(sweeps, "gate_probability_table",
                        lambda v: shapes.append(v.shape) or gate_probability_table(v))
    preset_fig3(theta_points=1000)
    assert shapes == [(1000, 4, 4)] * 2


def test_fig3_rows_sum_to_one():
    report = preset_fig3(theta_points=25)
    for label, values in report.table.rows.items():
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
    with pytest.raises(ValidationError, match="noisy gates need phi"):
        preset_fig3(phi=None)


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
    off = load_probability_table(("input,p00,p01,p10,p11\n00,0.5,0,0,0\n" + rows).encode())
    good = load_probability_table(("input,p00,p01,p10,p11\n00,1,0,0,0\n" + rows).encode())
    flag = "row '00' sums to 0.5, outside tolerance 0.02"
    assert off.flags == [flag] and good.flags == []
    report = run_reconstruction([(0.4, off), (0.1, good)], ideal=[off, good])
    assert report.flags == [f"theta 0.4: {flag}", f"theta 0.4: ideal {flag}"]
    report = run_reconstruction([(0.4, good), (0.1, good)], ideal=[off, good])
    assert report.flags == [f"theta 0.4: ideal {flag}"]


def test_reconstruction_names_the_rows_a_table_lacks():
    # the CLI checks each table's rows as it loads it; a library caller's tables
    # are checked as they are stacked, and the first table in theta order that
    # lacks a row names each row it lacks, though a later one lacks an earlier row
    complete = gate_probability_table(v_axis(0.3, 0.4))
    no_plus = gate_probability_table(v_axis(0.1, 0.4))
    del no_plus.rows["++"]
    no_basis = gate_probability_table(v_axis(0.2, 0.4))
    del no_basis.rows["00"], no_basis.rows["11"]
    cases = [([(0.2, no_basis), (0.3, complete), (0.1, no_plus)], None, "['++']"),
             ([(0.2, no_basis), (0.3, complete)], None, "['00', '11']"),
             ([(0.2, complete), (0.1, complete)], [no_basis, no_plus], "['++']")]
    for measured, ideal, missing in cases:
        with pytest.raises(ValidationError) as info:
            run_reconstruction(measured, ideal=ideal)
        assert str(info.value) == f"probability table is missing required row(s) {missing}"


def test_reconstruction_builds_gates_only_for_what_reads_them(monkeypatch):
    # the coherence batch and the synthesized ideal tables read the ideal gates;
    # given ideal tables and no phi, nothing does, and none are built
    built = []
    monkeypatch.setattr(sweeps, "g_gate", lambda thetas: built.append(len(thetas)) or g_gate(thetas))
    measured = [(t, gate_probability_table(v_axis(t, 0.4))) for t in (0.2, 0.1)]
    ideal = [gate_probability_table(g_gate(t)) for t in (0.2, 0.1)]
    run_reconstruction(measured, ideal=ideal)
    assert built == []
    run_reconstruction(measured, ideal=ideal, phi=0.4)
    run_reconstruction(measured)
    assert built == [2, 2]


def test_reconstruction_report_is_frozen():
    # no field is assigned after the build; the arrays' entries stay writable
    report = run_reconstruction([(0.2, gate_probability_table(v_axis(0.2, 0.3)))], phi=0.3)
    for field in dataclasses.fields(report):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, field.name, getattr(report, field.name))
    report.eta_kernel[0] = math.nan
    assert math.isnan(report.eta_kernel[0])


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


def test_write_sweep_holds_one_theta_row_at_a_time(tmp_path):
    # the lines of an 81 x 81, two-merit grid go to the file as they are made;
    # joining them first peaked 3.2 MB above the result. The JSON records are
    # made as the encoder writes them; listing them all first peaked at 4.4 MB
    result = SweepResult(SweepConfig(theta_points=81, phi_points=81, n_samples=100),
                         np.random.default_rng(0).random((81, 81, 2, 2)))
    for output_format in ("csv", "json"):
        tracemalloc.start()
        try:
            write_sweep(result, tmp_path / f"s.{output_format}", output_format)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6, output_format
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 1 + 81 * 81 * 2
    assert len(json.loads((tmp_path / "s.json").read_text())["records"]) == 81 * 81 * 2


def _listed_records(result: SweepResult) -> list[dict]:
    """A sweep's JSON records, listed from its values point by point."""
    config = result.config
    return [{"theta": theta, "phi": phi, "merit": kind.value, "mean": mean,
             "std_error": std_error, "n_samples": config.n_samples}
            for i, theta in enumerate(config.thetas().tolist())
            for j, phi in enumerate(config.phis().tolist())
            for m, kind in enumerate(config.merits)
            for mean, std_error in [result.values[i, j, m].tolist()]]


def _listed_rows(report) -> list[dict]:
    """A reconstruction's JSON rows, listed from its columns table by table."""
    eta_norm = max_normalize(report.eta_kernel)
    coherence = report.coherence_kernel
    coherence_norm = None if coherence is None else max_normalize(coherence)
    return [{"theta": float(theta), "chi_populations": report.chi_pops[k].tolist(),
             "g_chi_measured": float(report.g_chi_measured[k]),
             "g_chi_ideal": float(report.g_chi_ideal[k]),
             "eta_chi_kernel": float(report.eta_kernel[k]),
             "eta_chi_kernel_max_norm": float(eta_norm[k]),
             "coherence_kernel": None if coherence is None else float(coherence[k]),
             "coherence_kernel_max_norm": None if coherence is None else float(coherence_norm[k]),
             "max_row_sum_error": float(report.max_row_sum_error[k])}
            for k, theta in enumerate(report.thetas)]


def test_streamed_json_is_the_text_of_the_listed_document(tmp_path):
    # the records and rows go to the encoder as generators: the file's text
    # equals json.dumps of the document with every record listed beforehand
    rng = np.random.default_rng(4)
    results = [SweepResult(SweepConfig(theta_points=1, phi_points=1, merits=(MeritKind.ETA_CHI,)),
                           rng.random((1, 1, 1, 2))),
               SweepResult(SweepConfig(theta_points=3, phi_points=2, merits=tuple(MeritKind)),
                           rng.random((3, 2, len(MeritKind), 2)))]
    measured = [(theta, gate_probability_table(v_axis(theta, 0.4))) for theta in (0.5, 0.1, 0.3)]
    separable = table_from_plan(v_axis(0.3, 0.4), protocol_plan("separable"))
    reports = [run_reconstruction([]), run_reconstruction(measured),
               run_reconstruction(measured, phi=0.4), run_reconstruction([(0.3, separable)])]
    assert len(separable.rows) == len(protocol_plan("separable").states) > 5
    path = tmp_path / "out.json"
    cases = [(lambda r: write_sweep(r, path, "json"), result, "records", _listed_records(result))
             for result in results]
    cases += [(lambda r: write_reconstruction(r, path, "json"), report, "rows",
               _listed_rows(report)) for report in reports]
    for write, value, key, listed in cases:
        write(value)
        text = path.read_text()
        document = {"metadata": json.loads(text)["metadata"], key: listed}
        assert text == json.dumps(document, indent=2) + "\n"


def test_a_name_near_the_longest_legal_one_is_written(tmp_path):
    # each temporary file has a random name of fixed length, so a legal target
    # name is not refused because its temporary's name would be too long; a
    # CSV of such a name, whose sidecar's name is too long, writes no file
    name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
    json_name = "a" * (name_max - 10) + ".json"  # name_max - 5 bytes
    csv_name = "a" * (name_max - 9) + ".csv"  # name_max - 5 bytes, its sidecar's name_max + 1
    report = preset_fig3(theta_points=2)
    write_fig3(report, tmp_path / json_name, output_format="json")
    assert [path.name for path in tmp_path.iterdir()] == [json_name]
    with pytest.raises(OSError, match="too long"):
        write_fig3(report, tmp_path / csv_name)
    assert [path.name for path in tmp_path.iterdir()] == [json_name]


def test_the_writer_refuses_a_target_that_is_not_a_regular_file_before_any_move(tmp_path):
    # a FIFO at the CSV, at its sidecar or behind a symlink: refused before any
    # file is moved, so the CSV written before its sidecar is not put in place
    # either, and the FIFO stays a FIFO
    report = preset_fig3(theta_points=2)
    fifo = tmp_path / "r.meta.json"
    os.mkfifo(fifo)
    (tmp_path / "link.json").symlink_to(fifo.name)
    for path, refused in (("r.csv", "r.meta.json"), ("r.meta.json", "r.meta.json"),
                          ("link.json", "link.json")):
        with pytest.raises(OSError, match=f"refusing to replace .*{refused}'.* not a regular file"):
            write_fig3(report, tmp_path / path, output_format="json" if "json" in path else "csv")
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "r.meta.json"]


def test_a_refused_value_leaves_the_directory_as_it_was(tmp_path):
    # a non-finite value refused part-way through the CSV, part-way through the
    # JSON file (in an array or in a streamed list of rows), and in the sidecar
    # after the CSV is complete: no temporary file
    # stays and the earlier outputs keep their bytes
    for name in ("r.csv", "r.meta.json", "r.json"):
        (tmp_path / name).write_text(f"earlier {name}\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    values = np.zeros((2, 3, 2, 2))
    values[-1, -1, -1, -1] = math.nan
    result = SweepResult(SweepConfig(theta_points=2, phi_points=3), values)
    report = preset_fig3(theta_points=3)
    report.eta_kernel[1] = math.nan  # an array the JSON encoder lists as it reaches it
    # rows the JSON encoder draws as it writes them: the last one is refused after
    # earlier rows went to the temporary file
    recon = run_reconstruction([(theta, gate_probability_table(v_axis(theta, 0.4)))
                                for theta in np.linspace(0.0, 1.0, 100)], phi=0.4)
    recon.max_row_sum_error[-1] = math.nan
    writes = [lambda: write_sweep(result, tmp_path / "r.csv"),
              lambda: write_sweep(result, tmp_path / "r.json", output_format="json"),
              lambda: write_fig3(report, tmp_path / "r.json", output_format="json"),
              lambda: write_reconstruction(recon, tmp_path / "r.json", output_format="json"),
              lambda: sweeps._write_output(tmp_path / "r.csv", "csv", {"bound": math.inf},
                                           iter(["x"]), None)]
    for write in writes:
        with pytest.raises(ValidationError, match="non-finite"):
            write()
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("theta_points", [1, 4, 50])
def test_json_arrays_are_written_as_their_lists(theta_points):
    # the encoder lists each array when it reaches it: the text equals that of
    # the document with every array listed beforehand, 1-D and 2-D alike
    report = preset_fig3(theta_points=theta_points)
    doc = {"thetas": report.thetas, "series": dict(fig3_series(report)),
           "chi_pops": report.chi_pops, "phi": report.phi}
    materialized = {"thetas": report.thetas.tolist(),
                    "series": {name: values.tolist() for name, values in fig3_series(report)},
                    "chi_pops": report.chi_pops.tolist(), "phi": report.phi}
    assert "".join(sweeps._json_chunks(doc)) == json.dumps(materialized, indent=2) + "\n"


def test_fig3_json_write_peaks_no_higher_than_its_csv(tmp_path):
    # the JSON encoder lists one series at a time; listing every series before
    # encoding held them all as Python floats, 2.2x the CSV write's peak at
    # 1000 points and ~4x at 20000, whose traced writes take ~6 s
    report = preset_fig3(theta_points=1000)
    peaks = {}
    for output_format in ("csv", "json"):
        tracemalloc.start()
        try:
            write_fig3(report, tmp_path / f"fig3.{output_format}", output_format=output_format)
            peaks[output_format] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["json"] <= peaks["csv"]
    assert len(json.loads((tmp_path / "fig3.json").read_text())["series"]["eta_chi_kernel"]) == 1000


def test_written_files_get_the_mode_write_text_gives(tmp_path):
    # the temporary files are created as write_text creates a file, under the umask
    reference = tmp_path / "reference.txt"
    reference.write_text("x")
    result = SweepResult(SweepConfig(theta_points=1, phi_points=2), np.zeros((1, 2, 2, 2)))
    paths = write_sweep(result, tmp_path / "r.csv") + write_sweep(result, tmp_path / "r.json",
                                                                  output_format="json")
    assert [stat.S_IMODE(path.stat().st_mode) for path in paths] == \
        [stat.S_IMODE(reference.stat().st_mode)] * 3
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        ["r.csv", "r.json", "r.meta.json", "reference.txt"]


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


def test_write_reconstruction_csv_refuses_the_first_non_finite_value_in_row_order(tmp_path,
                                                                                  monkeypatch):
    # every CSV writer tests its values once and names the first non-finite one
    # in row order: an inf comes before a nan that a column-major search finds
    # first. The reconstruction's inf is in the last column of row 1, its nan in
    # an earlier column of row 3; without phi the coherence cells are blank
    thetas = [0.0, 0.1, 0.2, 0.3, 0.4]
    measured = [(t, gate_probability_table(v_axis(t, 0.5))) for t in thetas]
    out = tmp_path / "r.csv"
    out.write_text("earlier r.csv\n")
    writes = []
    for phi in (0.5, None):
        report = run_reconstruction(measured, phi=phi)
        report.max_row_sum_error[1] = math.inf
        report.g_chi_measured[3] = math.nan
        writes.append(lambda report=report: write_reconstruction(report, out))
    # a sweep's inf at an earlier (theta, phi, merit) than its nan
    values = np.zeros((2, 3, 2, 2))
    values[0, 2, 1, 1] = math.inf
    values[1, 0, 0, 0] = math.nan
    writes.append(lambda: write_sweep(SweepResult(SweepConfig(theta_points=2, phi_points=3),
                                                  values), out))
    # fig3's inf in a later series of an earlier theta than its nan
    fig3 = preset_fig3(theta_points=3)
    rows = list(fig3.table.rows.values())
    rows[-1][1, -1] = math.inf
    rows[0][2, 0] = math.nan
    writes.append(lambda: write_fig3(fig3, out))
    for write in writes:
        with pytest.raises(ValidationError, match="non-finite value inf as CSV"):
            write()
        assert [path.name for path in tmp_path.iterdir()] == ["r.csv"]
        assert out.read_text() == "earlier r.csv\n"
    # haar-avg's inf in the std_error of its first merit, its nan in the mean of its second
    point = np.zeros((1, 1, 2, 2))
    point[0, 0, 0, 1] = math.inf
    point[0, 0, 1, 0] = math.nan
    monkeypatch.setattr(cli, "run_sweep", lambda config: SweepResult(config, point))
    result = run_cli("haar-avg", "--theta", "0.3", "--phi", "0.2", "--merit", "eta_chi",
                     "--merit", "fidelity", "--out", str(out))
    assert result.returncode == 2
    assert result.stderr == "error: refusing to write the non-finite value inf as CSV\n"
    assert [path.name for path in tmp_path.iterdir()] == ["r.csv"]
    assert out.read_text() == "earlier r.csv\n"
    # a hand-built sweep whose config run_sweep refuses: its theta is printed
    # unchecked, so the config is refused before anything is written
    invalid = SweepResult(SweepConfig(theta_hi=math.nan, theta_points=2, phi_points=1),
                          np.zeros((2, 1, 2, 2)))
    for output_format in ("csv", "json"):
        with pytest.raises(ValidationError, match="sweep range nan is not a finite angle"):
            write_sweep(invalid, tmp_path / f"s.{output_format}", output_format)
        assert [path.name for path in tmp_path.iterdir()] == ["r.csv"]
    # values that do not fill the config's grid and merits, which the rows would cut
    # short under a sidecar that claims the whole grid: refused the same way
    config = SweepConfig(theta_points=3, phi_points=3, n_samples=20)
    values = run_sweep(config).values
    for mismatched in (values[:2, :, :1], values[:, :, :1], values[None]):
        for output_format in ("csv", "json"):
            with pytest.raises(ValidationError, match="do not fit the config"):
                write_sweep(SweepResult(config, mismatched), tmp_path / f"s.{output_format}",
                            output_format)
            assert [path.name for path in tmp_path.iterdir()] == ["r.csv"]


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
