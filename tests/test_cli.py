import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import epmdiag
from epmdiag.reconstruct import gate_probability_table
from epmdiag.gates import v_axis
from helpers import child_env, write_probability_table


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "epmdiag", *args],
        capture_output=True, text=True, env=child_env(), **kwargs,
    )


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert "epmdiag" in result.stdout


def test_sweep_null_point(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_cli(
        "sweep", "--error", "axis", "--theta-range", "0.2", "0.2",
        "--phi-range", "0", "0", "--resolution", "1",
        "--merit", "eta_chi", "--merit", "coherence_fidelity", "--merit", "fidelity",
        "--samples", "200", "--seed", "3", "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,phi,merit,mean,std_error,n_samples"
    values = {line.split(",")[2]: line.split(",")[3] for line in lines[1:]}
    assert values["eta_chi"] == "0.0"
    assert values["coherence_fidelity"] == "0.0"
    assert values["fidelity"] == "1.0"


def test_fig1_deterministic_across_workers(tmp_path):
    args = ("fig1", "--panel", "b", "--resolution", "5", "--samples", "200", "--seed", "11")
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    r1 = run_cli(*args, "--out", str(out1), "--workers", "1")
    r2 = run_cli(*args, "--out", str(out2), "--workers", "2")
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    assert out1.read_bytes() == out2.read_bytes()
    meta1 = (tmp_path / "one.meta.json").read_text()
    meta2 = (tmp_path / "two.meta.json").read_text()
    assert meta1 == meta2


def test_fig3_output(tmp_path):
    out = tmp_path / "fig3.csv"
    result = run_cli("fig3", "--theta-points", "5", "--out", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    first = dict(zip(("theta", "series", "value"), lines[1].split(",")))
    assert first["series"] == "p(00|00)"
    # endpoint value p(10|00) at theta = 0
    row = next(l for l in lines if l.split(",")[1] == "p(10|00)")
    assert abs(float(row.split(",")[2]) - math.cos(math.pi / 9) ** 2) < 1e-12


def test_reconstruct_from_synthetic_tables(tmp_path):
    thetas = np.linspace(0.0, math.pi / 4, 6)
    paths = [tmp_path / f"table_{i:03d}.csv" for i in range(len(thetas))]
    for theta, path in zip(thetas, paths):
        write_probability_table(gate_probability_table(v_axis(theta, math.pi / 9)), path,
                                metadata={"theta": float(theta), "phi": math.pi / 9})
    out = tmp_path / "report.csv"
    result = run_cli(
        "reconstruct", "--measured", *[str(p) for p in paths], "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 7
    header = lines[0].split(",")
    eta_col = header.index("eta_chi_kernel")
    coh_col = header.index("coherence_kernel")
    etas = [float(l.split(",")[eta_col]) for l in lines[1:]]
    cohs = [float(l.split(",")[coh_col]) for l in lines[1:]]
    assert etas[0] < 1e-12  # theta = 0: ideal and noisy coherence parts agree
    assert max(etas) > 0.1
    assert max(cohs) > 0.1  # phi picked up from table metadata


def test_reconstruct_identical_measured_and_ideal(tmp_path):
    table = gate_probability_table(v_axis(0.3, 0.4))
    measured = tmp_path / "m.csv"
    write_probability_table(table, measured, metadata={"theta": 0.3})
    out = tmp_path / "r.csv"
    result = run_cli(
        "reconstruct", "--measured", str(measured), "--ideal", str(measured),
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    row = out.read_text().splitlines()[1].split(",")
    assert row[out.read_text().splitlines()[0].split(",").index("eta_chi_kernel")] == "0.0"


def test_reconstruct_malformed_csv_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("input,p00,p01,p10,p11\n00,0.5,oops,0.2,0.1\n")
    result = run_cli("reconstruct", "--measured", str(bad), "--thetas", "0.1",
                     "--out", str(tmp_path / "r.csv"))
    assert result.returncode == 4
    assert "line 2" in result.stderr


def test_reconstruct_non_utf8_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"# theta = 0.1\ninput,p00,p01,p10,p11\n00,0.5,0.5,0,0\xff\n")
    out = tmp_path / "r.csv"
    result = run_cli("reconstruct", "--measured", str(bad), "--out", str(out))
    assert result.returncode == 4, result.stderr
    assert "UTF-8" in result.stderr and "Traceback" not in result.stderr
    assert not out.exists()


def test_reconstruct_missing_row_exit_code(tmp_path):
    table = gate_probability_table(v_axis(0.2, 0.3))
    del table.rows["++"]
    path = tmp_path / "incomplete.csv"
    write_probability_table(table, path, metadata={"theta": 0.2})
    result = run_cli("reconstruct", "--measured", str(path), "--out", str(tmp_path / "r.csv"))
    assert result.returncode == 2
    assert "++" in result.stderr


def test_reconstruct_requires_theta(tmp_path):
    table = gate_probability_table(v_axis(0.2, 0.3))
    path = tmp_path / "no_theta.csv"
    write_probability_table(table, path)
    result = run_cli("reconstruct", "--measured", str(path), "--out", str(tmp_path / "r.csv"))
    assert result.returncode == 2
    assert "theta" in result.stderr


def test_unwritable_output_exit_code(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    result = run_cli("fig3", "--theta-points", "2", "--out", str(blocker / "x.csv"))
    assert result.returncode == 3


def test_protocol_command(tmp_path):
    result = run_cli("protocol", "--kind", "separable", "--theta", "0.5", "--phi", "0.25")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["kind"] == "separable"
    assert len(doc["states"]) == 14
    assert all(state["separable"] for state in doc["states"])
    assert all(len(state["amplitudes"]) == 4 for state in doc["states"])
    settings = doc["waveplate_settings"]
    assert abs(settings["hwp_s1"] - (0.25 + 0.0625)) < 1e-12
    assert abs(settings["qwp_s1"] - settings["qwp_s2"] - math.pi / 2) < 1e-12

    result = run_cli("protocol", "--kind", "straightforward")
    doc = json.loads(result.stdout)
    assert len(doc["states"]) == 16
    assert doc["waveplate_settings"] is None
    assert not all(state["separable"] for state in doc["states"])


def test_protocol_non_finite_phase_theta_exit_code():
    result = run_cli("protocol", "--kind", "separable", "--phase-theta", "nan")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr and "finite" in result.stderr
    assert result.stdout == ""


def test_protocol_non_finite_waveplate_angle_exit_code(tmp_path):
    out = tmp_path / "plan.json"
    result = run_cli("protocol", "--kind", "separable", "--theta", "inf", "--phi", "0",
                     "--out", str(out))
    assert result.returncode == 2
    assert "finite" in result.stderr
    assert not out.exists()


def test_haar_avg_command():
    result = run_cli(
        "haar-avg", "--theta", "0.4", "--phi", "0.0", "--merit", "eta_chi",
        "--merit", "fidelity", "--samples", "150", "--format", "json",
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    by_merit = {row["merit"]: row for row in doc["results"]}
    assert by_merit["eta_chi"]["mean"] == 0.0
    assert by_merit["fidelity"]["mean"] == 1.0
    assert by_merit["fidelity"]["std_error"] == 0.0


def test_sweep_requires_out(tmp_path):
    result = run_cli("sweep", "--resolution", "1", "--samples", "10")
    assert result.returncode == 2
    # rejected while parsing arguments, before any grid point is computed
    for args in (("sweep", "--resolution", "2001"), ("fig1", "--panel", "b"), ("fig3",),
                 ("reconstruct", "--measured", str(tmp_path / "t.csv"))):
        result = run_cli(*args, timeout=10)
        assert result.returncode == 2, args
        assert "--out" in result.stderr


OTHER_ROWS = "01,0,1,0,0\n10,1,0,0,0\n11,0,0,0,1\n++,0.25,0.25,0.25,0.25\n"


def test_reconstruct_warns_of_flagged_ideal_table(tmp_path):
    measured = tmp_path / "m.csv"
    write_probability_table(gate_probability_table(v_axis(0.4, 0.3)), measured,
                            metadata={"theta": 0.4})
    ideal = tmp_path / "i.csv"
    ideal.write_text("input,p00,p01,p10,p11\n00,0.5,0,0,0\n" + OTHER_ROWS)
    out = tmp_path / "r.csv"
    result = run_cli("reconstruct", "--measured", str(measured), "--ideal", str(ideal),
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    flag = "theta 0.4: ideal row '00' sums to 0.5, outside tolerance 0.02"
    assert f"warning: {flag}\n" in result.stderr
    assert json.loads((tmp_path / "r.meta.json").read_text())["flags"] == [flag]


def test_reconstruct_nan_value_exit_code(tmp_path):
    bad = tmp_path / "nan.csv"
    bad.write_text("# theta = 0.1\ninput,p00,p01,p10,p11\n00,0.5,nan,0.3,0.2\n" + OTHER_ROWS)
    out = tmp_path / "r.json"
    result = run_cli("reconstruct", "--measured", str(bad), "--format", "json",
                     "--out", str(out))
    assert result.returncode == 4
    assert "line 3" in result.stderr and "non-finite" in result.stderr
    assert not out.exists()


def test_reconstruct_inf_value_exit_code(tmp_path):
    bad = tmp_path / "inf.csv"
    bad.write_text("input,p00,p01,p10,p11\n00,0.5,0.0,inf,0.5\n" + OTHER_ROWS)
    out = tmp_path / "r.csv"
    result = run_cli("reconstruct", "--measured", str(bad), "--thetas", "0.1",
                     "--out", str(out))
    assert result.returncode == 4
    assert "line 2" in result.stderr and "non-finite" in result.stderr
    assert not out.exists()


def test_reconstruct_non_finite_result_exit_code(tmp_path):
    # finite values whose row sum nearly cancels or overflows: renormalizing
    # the first row divides it into +-inf, and the second row's sum error is
    # inf; the CSV writer refuses both before any file is written, after the
    # row flag that explains the value and without numpy's overflow warnings
    out = tmp_path / "r.csv"
    for row, flags, flag in (("00,1e308,-1e308,1e-300,0", ("--renormalize",), "sums to 1e-300"),
                             ("00,1e308,1e308,0,0", (), "sums to inf")):
        table = tmp_path / "t.csv"
        table.write_text("# theta = 0.1\ninput,p00,p01,p10,p11\n" + row + "\n" + OTHER_ROWS)
        result = run_cli("reconstruct", "--measured", str(table), *flags, "--out", str(out))
        assert result.returncode == 2, (row, result.stderr)
        assert "non-finite" in result.stderr and "Traceback" not in result.stderr
        assert f"warning: theta 0.1: row '00' {flag}" in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not out.exists() and not (tmp_path / "r.meta.json").exists()


def test_non_finite_angle_exit_code(tmp_path):
    table = tmp_path / "t.csv"
    write_probability_table(gate_probability_table(v_axis(0.2, 0.3)), table,
                            metadata={"theta": 0.2})
    out = tmp_path / "out.csv"
    for args in (("fig3", "--theta-points", "3", "--phi", "nan", "--format", "json"),
                 ("reconstruct", "--measured", str(table), "--phi", "nan"),
                 ("reconstruct", "--measured", str(table), "--thetas", "nan")):
        result = run_cli(*args, "--out", str(out))
        assert result.returncode == 2, args
        assert not out.exists()


def test_overflowing_angle_exit_code(tmp_path):
    # finite angles whose gate arithmetic would overflow to nan are refused by
    # name, before any draw; the child turns a RuntimeWarning into an error
    table = tmp_path / "t.csv"
    write_probability_table(gate_probability_table(v_axis(0.2, 0.3)), table,
                            metadata={"theta": 0.2})
    out = tmp_path / "out.csv"
    for args, angle in ((("haar-avg", "--theta", "1e308", "--phi", "0", "--samples", "5"),
                         "1e+308"),
                        (("haar-avg", "--theta", "0.4", "--phi=-2e6", "--samples", "5"),
                         "-2000000.0"),
                        (("sweep", "--theta-range", "0", "1e308", "--resolution", "2",
                          "--samples", "5"), "1e+308"),
                        (("reconstruct", "--measured", str(table), "--thetas", "1e308"),
                         "1e+308"),
                        (("fig3", "--theta-points", "3", "--phi", "1e300"), "1e+300")):
        result = run_cli(*args, "--out", str(out))
        assert result.returncode == 2, (args, result.stderr)
        assert f"{angle} is not a finite angle" in result.stderr, result.stderr
        assert "Traceback" not in result.stderr and "RuntimeWarning" not in result.stderr
        assert not out.exists()


def test_haar_avg_equals_one_point_sweep(tmp_path):
    point = ("--seed", "3", "--samples", "200", "--merit", "eta_chi",
             "--merit", "coherence_fidelity", "--merit", "eta_tpm")
    avg = run_cli("haar-avg", "--error", "angle", "--theta", "0.4", "--phi", "0.7", *point)
    assert avg.returncode == 0, avg.stderr
    out = tmp_path / "point.csv"
    sweep = run_cli("sweep", "--error", "angle", "--theta-range", "0.4", "0.4",
                    "--phi-range", "0.7", "0.7", "--resolution", "1", *point, "--out", str(out))
    assert sweep.returncode == 0, sweep.stderr
    from_avg = [line.split(",")[:3] for line in avg.stdout.splitlines()[1:]]
    from_sweep = [line.split(",")[2:5] for line in out.read_text().splitlines()[1:]]
    assert from_avg == from_sweep
    assert [row[0] for row in from_avg] == ["eta_chi", "coherence_fidelity", "eta_tpm"]


def test_public_api_is_what_cli_or_readme_uses():
    root = Path(__file__).resolve().parents[1]
    used = (root / "src" / "epmdiag" / "cli.py").read_text() + (root / "README.md").read_text()
    unused = [name for name in epmdiag.__all__ if not re.search(rf"\b{name}\b", used)]
    assert unused == []


def test_reconstruct_bad_sum_tolerance_exit_code(tmp_path):
    # the ++ row sums to 0.9: the default tolerance flags it; nan would flag
    # nothing and -1 every row, so both are refused before any output
    table = tmp_path / "t.csv"
    table.write_text("# theta = 0.1\ninput,p00,p01,p10,p11\n00,0,0,1,0\n01,0,0,0,1\n"
                     "10,1,0,0,0\n11,0,1,0,0\n++,0.2,0.2,0.25,0.25\n")
    out = tmp_path / "r.csv"
    result = run_cli("reconstruct", "--measured", str(table), "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert "'++' sums to" in result.stderr
    out.unlink()
    for tolerance in ("nan", "-1"):
        result = run_cli("reconstruct", "--measured", str(table), "--sum-tolerance", tolerance,
                         "--out", str(out))
        assert result.returncode == 2, tolerance
        assert "sum tolerance" in result.stderr
        assert not out.exists()


def test_negative_seed_exit_code(tmp_path):
    out = tmp_path / "s.csv"
    # a master seed is the low 64-bit word of each point's Philox key
    for args in (("sweep", "--resolution", "2", "--samples", "10", "--seed", "-1",
                  "--out", str(out)),
                 ("haar-avg", "--theta", "0.4", "--phi", "0.7", "--seed", "-5"),
                 ("sweep", "--resolution", "2", "--samples", "10",
                  "--seed", "18446744073709551616", "--out", str(out)),
                 ("haar-avg", "--theta", "0.4", "--phi", "0.7",
                  "--seed", "18446744073709551616")):
        result = run_cli(*args)
        assert result.returncode == 2, (args, result.stderr)
        assert "seed" in result.stderr and "Traceback" not in result.stderr
        assert args[args.index("--seed") + 1] in result.stderr
    assert not out.exists()


def test_absurd_sizes_exit_code(tmp_path):
    # refused before any draw: the 10**12-sample request would need ~58 TiB,
    # a 65536 x 65536 grid of 2**32 points ~2 TB, and a 1001 x 1001 grid is
    # the smallest square grid past the 10**6-point ceiling;
    # fig3 needs at least one theta point; argparse refuses a merit name
    # that is not a MeritKind value
    out = tmp_path / "s.csv"
    for args in (("haar-avg", "--theta", "0.4", "--phi", "0.7", "--samples", "1000000000000"),
                 ("haar-avg", "--theta", "0.4", "--phi", "0.7", "--merit", "eta_zeta"),
                 ("sweep", "--resolution", "2", "--merit", "eta_zeta", "--out", str(out)),
                 ("sweep", "--resolution", "2", "--samples", "1000001", "--out", str(out)),
                 ("sweep", "--resolution", "65536", "--samples", "1", "--out", str(out)),
                 ("sweep", "--resolution", "1001", "--samples", "1", "--out", str(out)),
                 ("fig3", "--theta-points", "0", "--out", str(out)),
                 ("fig3", "--theta-points", "-1", "--out", str(out))):
        result = run_cli(*args, timeout=10)
        assert result.returncode == 2, (args, result.stderr)
        assert "Traceback" not in result.stderr
    assert not out.exists()


def test_fig3_theta_points_above_the_ceiling_exit_code(tmp_path):
    # each theta point holds two probability tables: 10**9 of them would run
    # until memory runs out, so the count is refused before any table is built
    out = tmp_path / "f.csv"
    result = run_cli("fig3", "--theta-points", "1000000000", "--out", str(out), timeout=10)
    assert result.returncode == 2, result.stderr
    assert "theta_points" in result.stderr and "Traceback" not in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_workers_below_one_exit_code(tmp_path):
    out = tmp_path / "s.csv"
    for args in (("sweep", "--resolution", "2", "--samples", "10", "--workers", "0"),
                 ("fig1", "--panel", "b", "--resolution", "2", "--samples", "10",
                  "--workers", "-3")):
        result = run_cli(*args, "--out", str(out))
        assert result.returncode == 2, (args, result.stderr)
        assert "workers" in result.stderr
    assert not out.exists()
