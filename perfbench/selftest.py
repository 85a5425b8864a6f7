"""Fast self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

It checks that one command prints every workload x end-to-end metric of
BENCHMARK.json with its unit, that the traced run reports every per-layer
metric, that deliberately corrupted outputs are counted as failed runs, and
that the benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 3
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def check_declarations(catalogue) -> None:
    names = [w["name"] for w in SPEC["workloads"]]
    expect(names == [name for name in catalogue if name != "fig1-b-parallel"],
           f"BENCHMARK.json declares every workload but fig1-b-parallel: {names}")
    expect({m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    import tracing
    expect({m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER,
           "BENCHMARK.json per_layer matches tracing.PER_LAYER")


def check_end_to_end(catalogue) -> None:
    proc = bench("--workload", "all", "--seed", str(SEED), "--seconds", "1", "--trace", "0",
                 "--scale", "tiny")
    result = result_line(proc)
    expect(proc.returncode == 0 and result is not None and result["correct"]
           and result["failed"] == 0, "all workloads run and pass their checks")
    for workload in catalogue:
        for metric in [*SPEC["end_to_end"], {"name": "failed_ratio", "unit": "ratio"}]:
            pattern = rf"^{re.escape(workload)}\s+{re.escape(metric['name'])}\s+\S+ " \
                      rf"{re.escape(metric['unit'])}\b"
            expect(re.search(pattern, proc.stdout, re.M) is not None,
                   f"printed {workload} {metric['name']} in {metric['unit']}")
            if metric["name"] != "failed_ratio" and result is not None:
                entry = result["metrics"].get(f"{workload}/{metric['name']}", {})
                expect(entry.get("unit") == metric["unit"] and entry.get("value", 0) > 0,
                       f"result line has {workload}/{metric['name']} > 0")

    proc = bench("--workload", "sweep-fine", "--seed", str(SEED), "--seconds", "1",
                 "--trace", "0", "--scale", "tiny")
    result = result_line(proc)
    expect(result is not None and set(result) == {"correct", "attempted", "failed", "metrics"}
           and set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]},
           "one workload's result line has exactly the end-to-end metrics")


def check_trace() -> None:
    proc = bench("--workload", "reconstruct", "--seed", str(SEED), "--seconds", "1",
                 "--trace", "1", "--scale", "tiny")
    result = result_line(proc)
    expect(result is not None and result["correct"], "traced run passes its checks")
    units = {name: entry["unit"] for name, entry in (result or {}).get("metrics", {}).items()}
    expect(units == {m["name"]: m["unit"] for m in SPEC["per_layer"]},
           "traced run reports exactly the per-layer metrics with their units")
    expect("trace.overhead_pct" in units and "span, calls, total ms, self ms" in proc.stdout,
           "traced run prints self times and the tracing overhead")


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def _set_field(index: int, make):
    """Corruption: replace field `index` of the last data row."""
    def edit(lines):
        fields = lines[-1].split(",")
        fields[index] = make(fields[index])
        return lines[:-1] + [",".join(fields)]
    return edit


def _null_not_zero(lines):
    fields = lines[1].split(",")  # theta = 0, phi = 0
    fields[3] = "1e-300"
    return [lines[0], ",".join(fields), *lines[2:]]


# Corruptions of a written output, by the spec type of the command that wrote it.
CORRUPTIONS = {
    "SweepSpec": {
        "changed mean": _set_field(3, lambda v: repr(float(v) * 1.5 + 1e-3)),
        "dropped row": lambda lines: lines[:-1],
        "non-zero null": _null_not_zero,
    },
    "ReconstructSpec": {
        "changed g_chi": _set_field(5, lambda v: repr(float(v) + 1e-6)),
        "dropped row": lambda lines: lines[:-1],
    },
}


def check_corruption(catalogue) -> None:
    for name, workload in catalogue.items():
        for label, edit in CORRUPTIONS[type(workload.spec).__name__].items():
            result = run.run_workload(workload, SEED, 0.1,
                                      after_run=lambda prepared: _rewrite(prepared.out, edit))
            timed = [r for r in result["runs"] if r["kind"] == "timed"]
            expect(timed and all(r["problems"] for r in timed)
                   and result["failed"] >= len(timed),
                   f"{name}: {label} output counted as failed "
                   f"({result['failed']} of {result['attempted']} runs)")


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in (run.ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = bench("--workload", "fig1-b-serial", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    expect(proc.returncode != 0 and result_line(proc) is None,
           f"without the program's sources it exits {proc.returncode} with no result")
    shutil.rmtree(bare)


def main() -> int:
    run._load_program()
    import workloads

    catalogue = workloads.TINY
    check_declarations(catalogue)
    check_end_to_end(catalogue)
    check_trace()
    check_corruption(catalogue)
    check_bare_directory()
    print(f"selftest: {'FAILED ' + str(len(failures)) if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
