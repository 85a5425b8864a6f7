"""Benchmark of the epmdiag CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of fig1-b-serial, fig1-b-parallel, sweep-fine, reconstruct, or
`all` for every workload in turn. The program is run from the checkout's
`src/` (no install needed); the BLAS/OpenMP thread variables are left as
found and recorded.

With `--trace 0` the benchmark makes the workload's inputs from the seed,
then runs, in one closed loop (one process at a time, back to back) for S
seconds, cycles of three processes: the set-up command (the same command
on a minimal input), the workload's CLI command, and `reference.py`, a
fixed program that does the same kind of work as the workload (on one
core, or matrix products on every BLAS thread) and never changes. One
reference run comes before the first cycle. No cycle starts
that would not end inside S by the mean cycle so far. Every run's output is
checked; a run fails on a non-zero exit, a timeout or a failed check.

The host this runs on drifts in speed by up to 2x over minutes, and by
10-20 % from one run to the next, which no number of repeats averages out.
So every time is multiplied by a host factor, REFERENCE_S over the time of
the reference next to it (the mean of the two reference runs around a
workload run; the one just before a set-up run): a time is given for a
host that runs the reference in REFERENCE_S seconds. A change to the
program moves its runs and not the reference, so it moves the metric by
the same share. The times as measured are printed and saved too.

It prints, per workload, each the median over the cycles:

    wall_s       wall time of one CLI run, host-scaled
    items_per_s  items / (wall_s - setup_s); an item is one (grid point,
                 merit) Haar average, or one table for reconstruct
    setup_s      wall time of the set-up command, host-scaled
    cpu_s        user + sys time of one run, pool workers included,
                 host-scaled
    peak_rss_mb  peak RSS of the largest single process of one run (a
                 pool worker or the CLI process, not their sum)
    failed_ratio failed runs / attempted runs, reference runs included
                 (also the result's `failed` / `attempted`)

With `--trace 1` it runs the traced layer suite of `tracing.py` instead and
prints the per-layer metrics, the span self times and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Everything the benchmark
writes goes under `.perfbench/` in the checkout; spans and the full result
with its environment block are kept there.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Budget of one workload, within the 180 s a benchmark run may take: no cycle
# starts that would end past it by the mean cycle so far, and a run still
# going at its end is killed.
BUDGET_S = 165.0
# Scale of the time metrics: they are given for a host that runs the
# workload's reference program in this many seconds (on the 2-vCPU x86-64
# host the benchmark was written on, either program took 0.7-1.5 s).
REFERENCE_S = 1.0


def _load_program():
    """Import numpy and the checkout's epmdiag, or exit 2 if the checkout lacks it."""
    if not (SRC / "epmdiag" / "cli.py").is_file():
        print(f"error: no epmdiag sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import numpy
    import epmdiag

    if Path(epmdiag.__file__).resolve().parent != (SRC / "epmdiag").resolve():
        print(f"error: imported epmdiag from {epmdiag.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return numpy


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _digest_key(run, prepared) -> str:
    """Digest of everything a run's verdict depends on: outputs and stderr."""
    import checks

    hashes = checks.sha256_files(p for p in prepared.outputs() if p.is_file())
    hashes["stderr"] = hashlib.sha256(run.stderr.read_bytes()).hexdigest()
    return json.dumps(hashes, sort_keys=True)


def _failure(run) -> list[str]:
    if run.timed_out:
        return ["timed out"]
    if run.returncode != 0:
        tail = run.stderr.read_text(encoding="utf-8", errors="replace").strip()[-300:]
        return [f"exit code {run.returncode}: {tail}"]
    return []


def run_workload(workload, seed: int, seconds: float, after_run=None) -> dict:
    """Measure one workload end to end; `after_run(prepared)` is a test hook.

    The runs go in cycles of set-up command, workload command and reference
    program, after a first reference run, so that every CLI run has a
    reference run next to it.
    """
    import checks
    import harness

    work = WORK / workload.name
    prepared = workload.prepare(seed, work)
    argv = [sys.executable, "-m", "epmdiag"]
    reference = [sys.executable, str(Path(__file__).with_name("reference.py")),
                 workload.reference, str(work / "reference")]
    env = _child_env()
    deadline = time.perf_counter() + BUDGET_S
    records, verdicts, digests = [], {}, None

    def measure(kind: str, command: list[str]):
        nonlocal digests
        run = harness.run_process(command, env, ROOT, work / kind,
                                  max(1.0, deadline - time.perf_counter()))
        if kind == "timed" and after_run is not None:
            after_run(prepared)
        problems = _failure(run)
        if not problems and kind == "setup" and not prepared.setup_out.is_file():
            problems = ["no output"]
        if not problems and kind == "timed":
            key = _digest_key(run, prepared)
            if key not in verdicts:
                verdicts[key] = prepared.check(run.stderr.read_text(encoding="utf-8"))
                if not verdicts[key] and digests is None:
                    digests = checks.sha256_files(prepared.outputs())
            problems = verdicts[key]
        records.append({"kind": kind, "wall_s": run.wall_s, "cpu_s": run.cpu_s,
                        "peak_rss_mb": run.peak_rss_mb, "returncode": run.returncode,
                        "problems": problems})
        return run

    refs = [measure("reference", reference)]
    cycles = []
    loop_start = time.perf_counter()
    while True:
        setup = measure("setup", argv + prepared.argv(minimal=True))
        timed = measure("timed", argv + prepared.argv())
        refs.append(measure("reference", reference))
        cycles.append((setup, timed, refs[-2].wall_s, refs[-1].wall_s))
        now = time.perf_counter()
        typical = (now - loop_start) / len(cycles)
        if now - loop_start + typical > seconds or now + typical > deadline:
            break

    # Host factor of each run: how much faster than nominal the host ran the
    # reference next to it. A set-up run follows one reference run; a
    # workload run sits between two.
    setup_factors = [REFERENCE_S / before for _, _, before, _ in cycles]
    factors = [2.0 * REFERENCE_S / (before + after) for _, _, before, after in cycles]
    measured = {
        "wall_s": [t.wall_s for _, t, _, _ in cycles],
        "setup_s": [s.wall_s for s, _, _, _ in cycles],
        "cpu_s": [t.cpu_s for _, t, _, _ in cycles],
        "peak_rss_mb": [t.peak_rss_mb for _, t, _, _ in cycles],
    }
    scaled = {
        "wall_s": [v * f for v, f in zip(measured["wall_s"], factors)],
        "setup_s": [v * f for v, f in zip(measured["setup_s"], setup_factors)],
        "cpu_s": [v * f for v, f in zip(measured["cpu_s"], factors)],
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    metrics = {name: statistics.median(values) for name, values in scaled.items()}
    # At the self-test's tiny sizes a run can be as quick as the set-up.
    wall, setup = metrics["wall_s"], metrics["setup_s"]
    metrics["items_per_s"] = workload.items / (wall - setup if wall > setup else wall)
    metrics = {name: metrics[name] for name in END_TO_END}
    spreads = {name: harness.summarize(values) for name, values in scaled.items()}
    measured = {name: harness.summarize(values) for name, values in measured.items()}
    measured["reference_s"] = harness.summarize([r.wall_s for r in refs])
    return {"workload": workload.name, "seed": seed, "items": workload.items,
            "attempted": len(records), "failed": sum(1 for r in records if r["problems"]),
            "metrics": metrics, "spreads": spreads, "measured": measured, "runs": records,
            "sha256": digests, "command": ["epmdiag", *prepared.argv()[:24]]}


def _print_workload(result: dict) -> None:
    name = result["workload"]
    for metric, (unit, _) in END_TO_END.items():
        spread = result["spreads"].get(metric)
        detail = ""
        if spread:
            detail = (f"  (median of {spread['n']}; q1 {spread['q1']:.4g}, q3 {spread['q3']:.4g}, "
                      f"min {spread['min']:.4g}, max {spread['max']:.4g})")
        print(f"{name:16s} {metric:12s} {result['metrics'][metric]:14.6g} {unit}{detail}")
    for metric, spread in result["measured"].items():
        print(f"{name:16s} as measured {metric:12s} median {spread['median']:.6g} "
              f"(q1 {spread['q1']:.4g}, q3 {spread['q3']:.4g}, n {spread['n']})")
    ratio = result["failed"] / result["attempted"]
    print(f"{name:16s} {'failed_ratio':12s} {ratio:14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} runs)")
    for run in result["runs"]:
        for problem in run["problems"]:
            print(f"{name:16s} FAILED {run['kind']} run: {problem}")
    if result["sha256"]:
        print(f"{name:16s} sha256 {json.dumps(result['sha256'])}")


def _print_trace(result: dict) -> None:
    import tracing

    for path, layers in result["layers"].items():
        print(f"trace {path}: span, calls, total ms, self ms, mean us")
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_ns"]):
            print(f"  {name:32s} {row['calls']:8d} {row['total_ns'] / 1e6:10.2f} "
                  f"{row['self_ns'] / 1e6:10.2f} {row['total_ns'] / row['calls'] / 1e3:10.2f}")
    for name, value in result["metrics"].items():
        print(f"layer {name:36s} {value:14.6g} {tracing.PER_LAYER[name][0]}")
    for problem in result["problems"]:
        print(f"trace FAILED: {problem}")
    print(f"trace spans kept: {result['spans']} in {result['span_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    args = parser.parse_args(argv)

    numpy = _load_program()
    import harness
    import tracing
    import workloads

    catalogue = workloads.SCALES[args.scale]
    if args.workload != "all" and args.workload not in catalogue:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(catalogue)}")
    harness.become_subreaper()
    WORK.mkdir(exist_ok=True)
    environment = harness.environment(numpy)
    print("environment " + json.dumps(environment))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"

    if args.trace:
        work = WORK / "trace" / args.workload
        work.mkdir(parents=True, exist_ok=True)
        result = tracing.traced_run(ROOT, _child_env(), work, args.seed, args.scale)
        _print_trace(result)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        metrics, attempted, failed = result["metrics"], result["attempted"], result["failed"]
        detail = {k: v for k, v in result.items() if k != "layers"}
    else:
        names = list(catalogue) if args.workload == "all" else [args.workload]
        results = [run_workload(catalogue[name], args.seed, args.seconds) for name in names]
        for result in results:
            _print_workload(result)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        if len(results) == 1:
            metrics = results[0]["metrics"]
        else:
            metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
            units = {f"{r['workload']}/{k}": u for r in results for k, u in units.items()}
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        # Within one invocation, the serial and the parallel fig1 run must have
        # written the same bytes.
        pair = [r["sha256"] for r in results if r["workload"].startswith("fig1-b-")]
        if len(pair) == 2 and None not in pair:
            attempted += 1
            if pair[0] != pair[1]:
                failed += 1
                print("FAILED fig1-b-serial and fig1-b-parallel wrote different bytes")
        detail = {"workloads": results}

    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{stem}.json").write_text(
        json.dumps({"environment": environment, "args": vars(args), **detail}, indent=1,
                   default=str) + "\n", encoding="utf-8")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else -1.0,
                           "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
