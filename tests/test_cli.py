import csv
import io
import json
import math
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epmdiag
from epmdiag import cli, sweeps
from epmdiag.errors import ValidationError
from epmdiag.merit import MeritKind
from epmdiag.reconstruct import gate_probability_table
from epmdiag.gates import v_axis
from helpers import run_child, run_cli, write_probability_table


def test_version_flag():
    result = run_child("--version")
    assert result.returncode == 0
    assert "epmdiag" in result.stdout


def test_main_returns_argparse_exit_codes(capsys):
    # help, version and a refused argv come back as main's return value,
    # not as a SystemExit raised into the caller
    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out == f"epmdiag {epmdiag.__version__}\n"
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: epmdiag")
    assert cli.main(["sweep"]) == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


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
    good = tmp_path / "good.csv"
    write_probability_table(gate_probability_table(v_axis(0.2, 0.3)), good,
                            metadata={"theta": 0.2})
    for files in (("--measured", str(bad), "--thetas", "0.1"),
                  ("--measured", str(good), str(bad)),
                  ("--measured", str(good), "--ideal", str(bad))):
        result = run_cli("reconstruct", *files, "--out", str(tmp_path / "r.csv"))
        assert result.returncode == 4, files
        assert f"{bad}: line 2" in result.stderr, files


def test_reconstruct_non_utf8_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"# theta = 0.1\ninput,p00,p01,p10,p11\n00,0.5,0.5,0,0\xff\n")
    out = tmp_path / "r.csv"
    result = run_cli("reconstruct", "--measured", str(bad), "--out", str(out))
    assert result.returncode == 4, result.stderr
    assert "UTF-8" in result.stderr and "Traceback" not in result.stderr
    assert not out.exists()


def test_reconstruct_reads_a_table_with_a_byte_order_mark(tmp_path):
    # a spreadsheet's "CSV UTF-8" export: a BOM before "# theta", and CRLF line ends
    plain = tmp_path / "plain.csv"
    write_probability_table(gate_probability_table(v_axis(0.3, 0.4)), plain,
                            metadata={"theta": 0.3, "phi": 0.4})
    text = plain.read_bytes().replace(b"\n", b"\r\n")
    plain.write_bytes(text)
    (tmp_path / "marked.csv").write_bytes(b"\xef\xbb\xbf" + text)
    outputs = []
    for name in ("plain", "marked"):
        out = tmp_path / name / "r.csv"
        result = run_cli("reconstruct", "--measured", str(tmp_path / f"{name}.csv"),
                         "--out", str(out))
        assert result.returncode == 0, result.stderr
        outputs.append((out.read_bytes(), out.with_name("r.meta.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_reconstruct_missing_row_exit_code(tmp_path):
    table = gate_probability_table(v_axis(0.2, 0.3))
    del table.rows["++"]
    path = tmp_path / "incomplete.csv"
    write_probability_table(table, path, metadata={"theta": 0.2})
    good = tmp_path / "good.csv"
    write_probability_table(gate_probability_table(v_axis(0.2, 0.3)), good,
                            metadata={"theta": 0.2})
    for files in (("--measured", str(path)), ("--measured", str(good), "--ideal", str(path))):
        result = run_cli("reconstruct", *files, "--out", str(tmp_path / "r.csv"))
        assert result.returncode == 2, files
        assert f"{path}: " in result.stderr and "++" in result.stderr, files


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
    # a directory at --out refuses the rename, and the temporary file goes
    (tmp_path / "taken").mkdir()
    argv = ["haar-avg", "--theta", "0.3", "--phi", "0.2", "--samples", "5", "--out"]
    assert cli.main(argv + [str(tmp_path / "taken")]) == 3
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["blocker", "taken"]


def test_a_directory_at_the_sidecar_path_replaces_no_output(tmp_path):
    # refused before the first move: the CSV keeps its earlier bytes, no
    # temporary file stays, and the message names the sidecar, not a temporary
    out = tmp_path / "d" / "r.csv"
    (tmp_path / "d" / "r.meta.json").mkdir(parents=True)
    out.write_text("earlier r.csv\n")
    result = run_cli("fig3", "--theta-points", "2", "--out", str(out))
    assert result.returncode == 3
    assert "r.meta.json" in result.stderr and not re.search(r"\.[0-9a-f]{12}\.tmp", result.stderr)
    assert out.read_text() == "earlier r.csv\n"
    assert sorted(path.name for path in out.parent.iterdir()) == ["r.csv", "r.meta.json"]


def test_out_ending_in_a_separator_exit_code(tmp_path):
    # refused before the command runs: fig3 wrote a file named after the
    # directory, and a sweep into an existing directory failed after its grid
    (tmp_path / "outdir").mkdir()
    for args in (("fig3", "--theta-points", "2", "--out", str(tmp_path / "results") + os.sep),
                 ("sweep", "--resolution", "2", "--samples", "5",
                  "--out", str(tmp_path / "outdir") + os.sep)):
        result = run_cli(*args)
        assert result.returncode == 2, (args, result.stderr)
        assert "names no file" in result.stderr
    assert [path.name for path in tmp_path.rglob("*")] == ["outdir"]


def test_out_naming_a_directory_is_refused_before_the_command_runs(tmp_path, monkeypatch):
    # exit 3 with the writer's message, but before any grid or curve is computed
    calls = []
    for name in ("run_sweep", "preset_fig1", "preset_fig3"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    (tmp_path / "sub" / "d").mkdir(parents=True)
    monkeypatch.chdir(tmp_path / "sub")
    for out in ("d", "..", "./d"):
        for args in (("fig3", "--theta-points", "2"), ("sweep", "--resolution", "2", "--samples", "5"),
                     ("fig1", "--panel", "a", "--resolution", "2", "--samples", "5")):
            result = run_cli(*args, "--out", out)
            assert result.returncode == 3, (args, out, result.stderr)
            assert result.stderr == f"error: [Errno 21] Is a directory: {str(Path(out))!r}\n"
    assert calls == []
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["d", "sub"]


def test_a_directory_at_the_sidecar_path_is_refused_before_the_command_runs(tmp_path,
                                                                           monkeypatch):
    # a CSV's sidecar: exit 3 with the writer's message, before any grid, curve or
    # reconstruction is computed; as JSON, and for haar-avg and protocol, no
    # sidecar goes there, so they run
    calls = []

    def spy(name):
        def called(*args, **kwargs):
            calls.append(name)
            raise ValidationError("computed")
        return called

    for name in ("run_sweep", "preset_fig1", "preset_fig3", "run_reconstruction"):
        monkeypatch.setattr(cli, name, spy(name))
    table = tmp_path / "t.csv"
    write_probability_table(gate_probability_table(v_axis(0.4, 0.3)), table,
                            metadata={"theta": 0.4})
    sidecar = tmp_path / "d" / "r.meta.json"
    sidecar.mkdir(parents=True)
    out = str(sidecar.with_name("r.csv"))
    commands = [("sweep", "--resolution", "2", "--samples", "5"),
                ("fig1", "--panel", "a", "--resolution", "2", "--samples", "5"),
                ("fig3", "--theta-points", "2"), ("reconstruct", "--measured", str(table))]
    for args in commands:
        result = run_cli(*args, "--out", out)
        assert result.returncode == 3, (args, result.stderr)
        assert result.stderr == f"error: [Errno 21] Is a directory: {str(sidecar)!r}\n"
    assert calls == []
    for args in commands + [("haar-avg", "--theta", "0.3", "--phi", "0.2")]:
        result = run_cli(*args, "--format", "json", "--out", out)
        assert (result.returncode, result.stderr) == (2, "error: computed\n"), args
    assert calls == ["run_sweep", "preset_fig1", "preset_fig3", "run_reconstruction", "run_sweep"]
    assert run_cli("haar-avg", "--theta", "0.3", "--phi", "0.2", "--out", out).returncode == 2
    assert run_cli("protocol", "--kind", "separable", "--out", out).returncode == 0
    assert json.loads(Path(out).read_text())["kind"] == "separable"
    assert sorted(path.name for path in sidecar.parent.iterdir()) == ["r.csv", "r.meta.json"]


def test_every_command_writes_through_one_writer(tmp_path, monkeypatch):
    # one _write_output call a run, under every name the writer is reached by;
    # haar-avg and protocol print their output without --out and nothing with it
    calls = []
    writer = sweeps._write_output

    def spy(*args):
        calls.append(args)
        return writer(*args)

    for module in [module for name, module in sys.modules.items()
                   if name.split(".")[0] == "epmdiag"]:
        for name, value in list(vars(module).items()):
            if value is writer:
                monkeypatch.setattr(module, name, spy)
    table = tmp_path / "t.csv"
    write_probability_table(gate_probability_table(v_axis(0.2, 0.35)), table,
                            metadata={"theta": 0.2})
    out = str(tmp_path / "out" / "o")
    point = ["--theta", "0.4", "--phi", "0.7", "--samples", "5"]
    argvs = [["sweep", "--resolution", "2", "--samples", "5", "--out", out + ".csv"],
             ["fig1", "--panel", "a", "--resolution", "2", "--samples", "5",
              "--format", "json", "--out", out + ".json"],
             ["fig3", "--theta-points", "2", "--out", out + ".csv"],
             ["reconstruct", "--measured", str(table), "--out", out + ".csv"]]
    argvs += [["protocol", "--kind", "separable", *tail] for tail in ([], ["--out", out + ".json"])]
    argvs += [["haar-avg", *point, "--format", output_format, *tail]
              for output_format in ("csv", "json")
              for tail in ([], ["--out", f"{out}.{output_format}"])]
    for argv in argvs:
        calls.clear()
        result = run_cli(*argv)
        assert result.returncode == 0, (argv, result.stderr)
        assert len(calls) == 1, argv
        if argv[0] in ("protocol", "haar-avg"):
            assert (result.stdout == "") == ("--out" in argv), (argv, result.stdout)


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
    # from a new interpreter, so argparse's refusal goes out through sys.exit(main())
    result = run_child("sweep", "--resolution", "1", "--samples", "10")
    assert result.returncode == 2
    # rejected while parsing arguments, before any grid point is computed
    for args in (("sweep", "--resolution", "2001"), ("fig1", "--panel", "b"), ("fig3",),
                 ("reconstruct", "--measured", str(tmp_path / "t.csv"))):
        result = run_child(*args, timeout=10)
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


def test_reconstruct_warns_when_the_tables_phi_values_differ(tmp_path):
    # without --phi the coherence columns stay blank, as before, and one warning
    # names the values; with --phi, or with one value, there is no warning
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, theta, phi in zip(paths, (0.2, 0.6), (0.5, 0.3)):
        write_probability_table(gate_probability_table(v_axis(theta, phi)), path,
                                metadata={"theta": theta, "phi": phi})
    out = tmp_path / "r.csv"
    result = run_cli("reconstruct", "--measured", *map(str, paths), "--out", str(out))
    assert result.returncode == 0
    assert result.stderr == ("warning: the tables' '# phi =' values differ (0.3, 0.5); "
                             "the coherence curve is left out, pass --phi for it\n")
    assert [line.split(",")[-3:-1] for line in out.read_text().splitlines()[1:]] == [["", ""]] * 2
    assert json.loads((tmp_path / "r.meta.json").read_text())["phi"] is None
    for args in (paths[:1], [*paths, "--phi", "0.4"]):
        result = run_cli("reconstruct", "--measured", *map(str, args), "--out", str(out))
        assert (result.returncode, result.stderr) == (0, ""), args
    # one table with a phi and one without: the phi is not applied to both, and the
    # warning names the table without it
    bare = tmp_path / "bare.csv"
    write_probability_table(gate_probability_table(v_axis(0.4, 0.5)), bare,
                            metadata={"theta": 0.4})
    result = run_cli("reconstruct", "--measured", str(paths[0]), str(bare), "--out", str(out))
    assert result.returncode == 0
    assert result.stderr == ("warning: some tables carry '# phi =' metadata and these do not: "
                             f"{bare}; the coherence curve is left out, pass --phi for it\n")
    assert [line.split(",")[-3:-1] for line in out.read_text().splitlines()[1:]] == [["", ""]] * 2
    assert json.loads((tmp_path / "r.meta.json").read_text())["phi"] is None


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
    # inf; the CSV and JSON writers refuse both part-way through the file,
    # after the row flag that explains the value and without numpy's overflow
    # warnings, and leave no temporary file and the earlier outputs' bytes
    table = tmp_path / "t.csv"
    for name in ("r.csv", "r.meta.json", "r.json"):
        (tmp_path / name).write_text(f"earlier {name}\n")
    for row, flags, flag in (("00,1e308,-1e308,1e-300,0", ("--renormalize",), "sums to 1e-300"),
                             ("00,1e308,1e308,0,0", (), "sums to inf")):
        table.write_text("# theta = 0.1\ninput,p00,p01,p10,p11\n" + row + "\n" + OTHER_ROWS)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        for output_format in ("csv", "json"):
            result = run_child("reconstruct", "--measured", str(table), *flags, "--format",
                             output_format, "--out", str(tmp_path / f"r.{output_format}"))
            assert result.returncode == 2, (row, result.stderr)
            assert "non-finite" in result.stderr and "Traceback" not in result.stderr
            assert f"warning: theta 0.1: row '00' {flag}" in result.stderr
            assert "RuntimeWarning" not in result.stderr
            assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


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
                        (("fig3", "--theta-points", "3", "--phi", "1e300"), "1e+300"),
                        (("protocol", "--kind", "separable", "--theta", "1e300", "--phi", "0.1"),
                         "1e+300")):
        result = run_child(*args, "--out", str(out))
        assert result.returncode == 2, (args, result.stderr)
        assert f"{angle} is not a finite angle" in result.stderr, result.stderr
        assert "Traceback" not in result.stderr and "RuntimeWarning" not in result.stderr
        assert not out.exists()


def test_repeated_merit_exit_code(tmp_path):
    # a merit named twice would write each of its rows twice
    out = tmp_path / "out.csv"
    for args in (("sweep", "--resolution", "2", "--samples", "5", "--out", str(out)),
                 ("haar-avg", "--theta", "0.4", "--phi", "0.1", "--samples", "5")):
        result = run_cli(*args, "--merit", "eta_chi", "--merit", "fidelity",
                         "--merit", "eta_chi")
        assert result.returncode == 2, (args, result.stderr)
        assert "once" in result.stderr and result.stdout == ""
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
    # fig3 needs at least one theta point and draws nothing, so takes no
    # --seed; argparse refuses a merit name that is not a MeritKind value
    out = tmp_path / "s.csv"
    for args in (("haar-avg", "--theta", "0.4", "--phi", "0.7", "--samples", "1000000000000"),
                 ("haar-avg", "--theta", "0.4", "--phi", "0.7", "--merit", "eta_zeta"),
                 ("sweep", "--resolution", "2", "--merit", "eta_zeta", "--out", str(out)),
                 ("sweep", "--resolution", "2", "--samples", "1000001", "--out", str(out)),
                 ("sweep", "--resolution", "65536", "--samples", "1", "--out", str(out)),
                 ("sweep", "--resolution", "1001", "--samples", "1", "--out", str(out)),
                 ("fig3", "--theta-points", "0", "--out", str(out)),
                 ("fig3", "--theta-points", "-1", "--out", str(out)),
                 ("fig3", "--theta-points", "2", "--seed", "0", "--out", str(out))):
        result = run_child(*args, timeout=10)
        assert result.returncode == 2, (args, result.stderr)
        assert "Traceback" not in result.stderr
    assert not out.exists()


def test_fig3_theta_points_above_the_ceiling_exit_code(tmp_path):
    # each theta point holds two probability tables: 10**9 of them would run
    # until memory runs out, so the count is refused before any table is built
    out = tmp_path / "f.csv"
    result = run_child("fig3", "--theta-points", "1000000000", "--out", str(out), timeout=10)
    assert result.returncode == 2, result.stderr
    assert "theta_points" in result.stderr and "Traceback" not in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_workers_below_one_exit_code(tmp_path):
    out = tmp_path / "s.csv"
    # 100000 is refused by its ceiling; a build without one still runs a 2 x 2 grid
    # on at most 2 threads, one per row
    for args in (("sweep", "--resolution", "2", "--samples", "10", "--workers", "0"),
                 ("fig1", "--panel", "b", "--resolution", "2", "--samples", "10",
                  "--workers", "-3"),
                 ("sweep", "--resolution", "2", "--samples", "10", "--workers", "100000")):
        result = run_cli(*args, "--out", str(out))
        assert result.returncode == 2, (args, result.stderr)
        assert "workers" in result.stderr
    assert not out.exists()


# The CLI contract, fuzzed in-process: every argv of the six subcommands ends
# in exit 0, 2, 3 or 4 with no exception escaping main, writes only finite,
# parseable output on 0, and leaves no output file behind on any other code.
# Sizes stay small (grids <= 3 x 3, <= 5 samples, <= 2 workers). Each value
# comes as (valid, refused) strategies; an argv takes at most one refused
# value, so no other refusal can hide a check that is missing. Names that
# argparse's choices refuse are left out of the refused values. Hypothesis
# favours the first entry of a sampled_from, so the refused angles start
# with the non-finite ones, which are what reaches the numerics.
ANGLES = (st.one_of(st.floats(-4.0, 4.0).map(repr), st.sampled_from(["1e6", "-1e6"])),
          st.sampled_from(["nan", "inf", "-inf", "1e308", "-1000000.5"]))
SEEDS = (st.sampled_from(["0", "7", "18446744073709551615"]),
         st.sampled_from(["18446744073709551616", "-1"]))
SAMPLES = (st.sampled_from(["1", "2", "5"]), st.sampled_from(["0", "-3", "1000001"]))
RESOLUTIONS = (st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "-1", "1001"]))
WORKERS = (st.sampled_from(["1", "2"]), st.sampled_from(["0", "-1", "257"]))
ERRORS = (st.sampled_from(["axis", "angle"]), None)
FORMATS = (st.sampled_from(["csv", "json"]), None)
TABLE_FILES = [f"tables/{name}.csv" for name in ("t0", "t1", "no_theta", "malformed",
                                                  "latin1", "missing")]
WRITABLE = st.sampled_from(["out/o.csv", "out/nested/o.json"]).map(lambda path: ["--out", path])
# a file where a directory must be, a CSV whose sidecar path is a directory,
# and paths that name no file
REFUSED_OUT = st.sampled_from(["blocker/o.csv", "out/taken.csv", "", ".", "out/"]).map(
    lambda path: ["--out", path])
OUT = (WRITABLE, st.one_of(st.just([]), REFUSED_OUT))
OPTIONAL_OUT = (st.one_of(st.just([]), WRITABLE), REFUSED_OUT)


def _flag(flag, values, size=(1, 1), optional=False):
    """(valid, refused) strategies of [flag, value, ...], size values each.

    The refused one puts one refused value first; an optional flag may be
    absent from the valid one.
    """
    valid, refused = values
    lo, hi = size
    good = st.lists(valid, min_size=lo, max_size=hi).map(lambda vs: [flag, *vs])
    bad = None if refused is None else st.tuples(
        refused, st.lists(valid, min_size=lo - 1, max_size=hi - 1)).map(
        lambda t: [flag, t[0], *t[1]])
    return (st.one_of(st.just([]), good) if optional else good), bad


def _option(flag, values, size=(1, 1)):
    return _flag(flag, values, size, optional=True)


def _argv(command, *flags):
    """[command, *argv parts]: every flag valid, or all but one."""
    refusable = [i for i, (_, bad) in enumerate(flags) if bad is not None]
    return st.one_of(st.none(), st.sampled_from(refusable)).flatmap(
        lambda odd: st.tuples(*(bad if i == odd else good
                                for i, (good, bad) in enumerate(flags)))).map(
        lambda parts: [command, *(arg for part in parts for arg in part)])


MERITS = (st.lists(st.sampled_from([kind.value for kind in MeritKind]), max_size=2,
                   unique=True).map(
              lambda names: [arg for name in names for arg in ("--merit", name)]),
          st.sampled_from([kind.value for kind in MeritKind]).map(
              lambda name: ["--merit", name, "--merit", name]))
RENORMALIZE = (st.sampled_from([[], ["--renormalize"]]), None)
CLI_ARGVS = {
    "sweep": _argv(
        "sweep", _option("--error", ERRORS), _option("--theta-range", ANGLES, (2, 2)),
        _option("--phi-range", ANGLES, (2, 2)), _flag("--resolution", RESOLUTIONS), MERITS,
        _option("--workers", WORKERS), _option("--seed", SEEDS),
        _flag("--samples", SAMPLES), _option("--format", FORMATS), OUT),
    "fig1": _argv(
        "fig1", _flag("--panel", (st.sampled_from("abcd"), None)),
        _flag("--resolution", RESOLUTIONS), _option("--workers", WORKERS),
        _option("--seed", SEEDS), _flag("--samples", SAMPLES), _option("--format", FORMATS),
        OUT),
    "fig3": _argv(
        "fig3", _flag("--theta-points", (st.sampled_from(["1", "3"]),
                                         st.sampled_from(["0", "-1", "100001"]))),
        _option("--phi", ANGLES),
        _option("--seed", (st.nothing(), SEEDS[0])),  # fig3 draws nothing: refused
        _option("--format", FORMATS), OUT),
    "reconstruct": _argv(
        "reconstruct",
        _flag("--measured", (st.sampled_from(TABLE_FILES[:2]),
                             st.sampled_from(TABLE_FILES[2:])), (1, 3)),
        _option("--ideal", (st.sampled_from(TABLE_FILES[:2]),
                            st.sampled_from(TABLE_FILES[2:])), (1, 2)),
        _option("--thetas", ANGLES, (1, 3)), _option("--phi", ANGLES),
        _option("--error", ERRORS),
        _option("--sum-tolerance", (st.sampled_from(["0.02", "0", "0.5"]),
                                    st.sampled_from(["-1", "nan", "inf"]))),
        RENORMALIZE, _option("--format", FORMATS), OUT),
    "protocol": _argv(
        "protocol", _flag("--kind", (st.sampled_from(["straightforward", "separable"]), None)),
        _option("--phase-theta", ANGLES), _option("--theta", ANGLES), _option("--phi", ANGLES),
        OPTIONAL_OUT),
    "haar-avg": _argv(
        "haar-avg", _option("--error", ERRORS), _flag("--theta", ANGLES),
        _flag("--phi", ANGLES), MERITS, _option("--seed", SEEDS),
        _flag("--samples", SAMPLES), _option("--format", FORMATS), OPTIONAL_OUT),
}


def _write_cli_inputs(directory: Path) -> None:
    tables = directory / "tables"
    tables.mkdir()
    for i, theta in enumerate((0.2, 0.6)):
        write_probability_table(gate_probability_table(v_axis(theta, 0.35)),
                                tables / f"t{i}.csv", metadata={"theta": theta, "phi": 0.35})
    write_probability_table(gate_probability_table(v_axis(0.4, 0.35)), tables / "no_theta.csv")
    (tables / "malformed.csv").write_text("input,p00,p01,p10,p11\n00,0.5,oops,0.2,0.1\n")
    (tables / "latin1.csv").write_bytes("# theta = 0.1 é\ninput,p00\n".encode("latin-1"))
    (directory / "blocker").write_text("a file where --out wants a directory\n")
    (directory / "out" / "taken.meta.json").mkdir(parents=True)


def _assert_finite_document(text: str, output_format: str) -> None:
    """`text` parses as `output_format`, and every number in it is finite."""
    if output_format == "json":
        def refuse(constant):
            raise AssertionError(f"non-finite JSON constant {constant}")

        stack = [json.loads(text, parse_constant=refuse)]
        while stack:
            item = stack.pop()
            if isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, list):
                stack.extend(item)
            elif isinstance(item, float):
                assert math.isfinite(item), text
        return
    rows = list(csv.reader(io.StringIO(text)))
    assert rows and all(len(row) == len(rows[0]) for row in rows), text
    for cell in (cell for row in rows[1:] for cell in row):
        try:
            value = float(cell)
        except ValueError:
            continue
        assert math.isfinite(value), text


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(argv=st.one_of(*CLI_ARGVS.values()))
# inputs that broke the contract before: a finite angle whose double makes
# cos(2 theta) nan, a nan angle that reached an SVD, and a CSV written before
# its sidecar's move failed
@example(argv=["haar-avg", "--theta", "1e308", "--phi", "0", "--samples", "1"])
@example(argv=["sweep", "--theta-range", "0", "1e308", "--resolution", "2", "--samples", "1",
               "--out", "out/o.csv"])
@example(argv=["protocol", "--kind", "separable", "--phase-theta", "nan"])
@example(argv=["fig3", "--theta-points", "1", "--out", "out/taken.csv"])
def test_cli_contract_holds_for_any_argv(argv):
    _assert_cli_contract(argv)


# The same contract, 20 argvs of each subcommand: one draw from the mix above
# meets a given subcommand's refused value only by chance.
@pytest.mark.parametrize("command", list(CLI_ARGVS))
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_cli_contract_holds_for_each_subcommand(command, data):
    _assert_cli_contract(data.draw(CLI_ARGVS[command], label="argv"))


def _assert_cli_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_cli_inputs(work)
        # work / "out/" drops the slash, so it is put back after the path is mapped
        argv = [str(work / arg) + (os.sep if arg.endswith("/") else "")
                if arg.startswith(("tables/", "out/", "blocker/")) else arg for arg in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_cli(*argv)
        code = result.returncode
        assert code in (0, 2, 3, 4), (argv, code)
        written = sorted(p for p in (work / "out").rglob("*") if p.is_file())
        if code != 0:
            assert written == [], (argv, code, written)
            return
        output_format = "json" if argv[0] == "protocol" else \
            (argv[argv.index("--format") + 1] if "--format" in argv else "csv")
        if "--out" not in argv:  # protocol and haar-avg print to stdout
            _assert_finite_document(result.stdout, output_format)
        assert written or "--out" not in argv, argv
        for path in written:
            is_json = path.name.endswith(".meta.json") or output_format == "json"
            _assert_finite_document(path.read_text(encoding="utf-8"),
                                    "json" if is_json else "csv")
