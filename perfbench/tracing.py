"""In-memory span recorder and the traced layer run.

Spans are recorded from the benchmark's own files: the public functions
that the CLI calls are wrapped (module attributes patched for the duration
of the run), and each call records name, start, end, parent span and the
trace (one CLI invocation) it belongs to, with `time.perf_counter_ns`.
Counts are recorded at the same boundaries. Everything stays in memory
and is written out once at the end.

The traced run drives `epmdiag.cli.main` in-process over three paths, each
at a trace size, so every per-layer metric is measured on the path whose
end-to-end metric it should move:

  fig1-b      fig1 --panel b, 5000 samples, workers 1: Haar draw, eta_chi kernel
  sweep-fine  sweep, default merits, 100 samples: seeds, gates, Hamiltonian,
              coherence kernel, reduction, sweep writer
  reconstruct seeded tables: parsing, ideal-table synthesis, G_chi, writer

plus untraced probes for pool start-up, parallel efficiency, import time,
bytes computed per evaluation and the tracing overhead.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import epmdiag.cli
import epmdiag.merit
import epmdiag.sweeps
from epmdiag.energetics import local_hamiltonian_2q
from epmdiag.gates import g_gate
from epmdiag.merit import MeritKind, haar_average
from epmdiag.sweeps import ERROR_FAMILIES, point_seed, run_sweep

import checks
import harness
import workloads

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "linalg.haar_draw_us": ("us", "lower"),
    "linalg.normals_drawn": ("count", "lower"),
    "merit.kernel_eta_chi_us": ("us", "lower"),
    "merit.kernel_coherence_fidelity_us": ("us", "lower"),
    "merit.reduce_us": ("us", "lower"),
    "merit.computed_bytes_per_eval": ("bytes", "lower"),
    "gates.build_us": ("us", "lower"),
    "energetics.hamiltonian_us": ("us", "lower"),
    "sweeps.point_seed_us": ("us", "lower"),
    "sweeps.pool_start_s": ("s", "lower"),
    "sweeps.parallel_efficiency": ("ratio", "higher"),
    "sweeps.workers1_s": ("s", "lower"),
    "sweeps.workers2_s": ("s", "lower"),
    "sweeps.write_s": ("s", "lower"),
    "sweeps.output_bytes": ("bytes", "lower"),
    "reconstruct.load_table_us": ("us", "lower"),
    "reconstruct.gate_table_us": ("us", "lower"),
    "reconstruct.g_chi_us": ("us", "lower"),
    "reconstruct.flags": ("count", "lower"),
    "reconstruct.write_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# Trace sizes: fig1-b grid, sweep-fine grid, table count, efficiency grid.
TRACE_SIZES = {
    "full": {"fig1": (11, 5000), "sweep": (41, 100), "tables": 1000, "efficiency": (21, 5000)},
    "tiny": {"fig1": (3, 200), "sweep": (4, 20), "tables": 20, "efficiency": (3, 200)},
}


class SpanRecorder:
    """Nested spans and counts, kept in memory until `dump`."""

    def __init__(self):
        # [span id, parent id, trace id, name, start ns, end ns]
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (trace id, name) -> count
        self._stack: list[int] = []
        self._trace = -1

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1,
                self._trace, name, time.perf_counter_ns(), 0]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def trace(self, name: str):
        """Top-level span of one request; its spans share its trace id."""
        self._trace = len(self.spans)
        span = self._open(name)
        try:
            yield self._trace
        finally:
            self._close(span)
            self._trace = -1

    def wrap(self, name, fn, count=None):
        """Wrap fn in a span; `name` may be a function of the call's arguments.

        `count` maps the call's result to (name, value) pairs added to the
        counts of the current trace.
        """
        def traced(*args, **kwargs):
            span = self._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                for key, value in count(result):
                    self.counts[self._trace, key] += value
            return result
        traced.__wrapped__ = fn
        traced.__module__ = fn.__module__
        traced.__qualname__ = fn.__qualname__
        return traced

    def layers(self, trace_id: int | None = None) -> dict[str, dict]:
        """Calls, total and self time (ns) per span name, optionally for one trace."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for sid, _, trace, name, start, end in self.spans:
            if trace_id is not None and trace != trace_id:
                continue
            row = table[name]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[sid]
        return dict(table)

    def dump(self, path: Path, extra: dict) -> None:
        doc = {"fields": ["id", "parent", "trace", "name", "start_ns", "end_ns"],
               "spans": self.spans,
               "counts": [[trace, name, value] for (trace, name), value in self.counts.items()],
               **extra}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _count_normals(states):
    return [("linalg.normals_drawn", states.size * 2)]  # real and imaginary parts


def _count_bytes(paths):
    return [("sweeps.output_bytes", sum(Path(p).stat().st_size for p in paths))]


def _count_flags(report):
    return [("reconstruct.flags", len(report.flags))]


def _kernel_name(kind, *args, **kwargs):
    return f"merit.kernel.{kind.value}"


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Patch the CLI's public calls with span wrappers; restore them on exit."""
    patches = [
        (epmdiag.cli, "preset_fig1", "sweeps.preset_fig1", None),
        (epmdiag.cli, "run_sweep", "sweeps.run_sweep", None),
        (epmdiag.sweeps, "run_sweep", "sweeps.run_sweep", None),
        (epmdiag.cli, "write_sweep", "sweeps.write", _count_bytes),
        (epmdiag.cli, "load_probability_table", "reconstruct.load_table", None),
        (epmdiag.cli, "run_reconstruction", "sweeps.run_reconstruction", _count_flags),
        (epmdiag.cli, "write_reconstruction", "reconstruct.write", None),
        (epmdiag.sweeps, "point_seed", "sweeps.point_seed", None),
        (epmdiag.sweeps, "g_gate", "gates.build", None),
        (epmdiag.sweeps, "local_hamiltonian_2q", "energetics.hamiltonian", None),
        (epmdiag.sweeps, "haar_average", "merit.haar_average", None),
        (epmdiag.sweeps, "gate_probability_table", "reconstruct.gate_table", None),
        (epmdiag.sweeps, "g_chi_from_table", "reconstruct.g_chi", None),
        (epmdiag.sweeps, "kernel_coherence_fid", "merit.kernel_coherence_fid", None),
        (epmdiag.merit, "haar_pure_states", "linalg.haar_draw", _count_normals),
        (epmdiag.merit, "kernel_values", _kernel_name, None),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
    families = dict(ERROR_FAMILIES)
    try:
        for module, attr, name, count in patches:
            setattr(module, attr, recorder.wrap(name, getattr(module, attr), count))
        for family, build in families.items():
            ERROR_FAMILIES[family] = recorder.wrap("gates.build", build)
        yield recorder
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
        ERROR_FAMILIES.update(families)


def _run_cli(recorder: SpanRecorder, name: str, argv: list[str]) -> tuple[int, int, str]:
    """One traced in-process CLI invocation; returns (trace id, exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with recorder.trace(f"cli.{name}") as trace_id:
            code = epmdiag.cli.main(argv)
    return trace_id, code, err.getvalue()


def _mean_us(layers: dict, name: str, key: str = "total_ns") -> float:
    row = layers[name]
    return row[key] / row["calls"] / 1e3


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _bytes_per_eval(seed: int, samples: int) -> int:
    """Peak bytes numpy allocates during one (point, merit) evaluation."""
    hamiltonian = local_hamiltonian_2q()
    u, v = g_gate(0.7), ERROR_FAMILIES["axis"](0.7, 0.9)
    haar_average(MeritKind.ETA_CHI, u, v, hamiltonian, n_samples=samples, seed=seed)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        haar_average(MeritKind.ETA_CHI, u, v, hamiltonian, n_samples=samples,
                     seed=point_seed(seed, 0, MeritKind.ETA_CHI))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def _import_seconds(root: Path, env: dict, work: Path, repeats: int = 3) -> tuple[float, list[str]]:
    code = ("import time; t = time.perf_counter(); import epmdiag.cli; "
            "print(repr(time.perf_counter() - t))")
    values, problems = [], []
    for i in range(repeats):
        run = harness.run_process([sys.executable, "-c", code], env, root,
                                  work / f"import{i}", timeout_s=60)
        if run.returncode != 0:
            problems.append(f"import of epmdiag.cli failed with exit {run.returncode}")
            continue
        values.append(float(run.stdout.read_text().strip()))
    return (statistics.median(values) if values else 0.0), problems


def traced_run(root: Path, env: dict, work: Path, seed: int, scale: str) -> dict:
    """Run the traced layer suite; returns problems, attempts, metrics and layer tables."""
    sizes = TRACE_SIZES[scale]
    recorder = SpanRecorder()
    problems: list[str] = []
    failed = attempted = 0
    b = (MeritKind.ETA_CHI,)
    default = (MeritKind.COHERENCE_FIDELITY, MeritKind.ETA_CHI)
    fig1 = workloads.SweepSpec("fig1", *sizes["fig1"], workers=1, merits=b)
    sweep = workloads.SweepSpec("sweep", *sizes["sweep"], workers=1, merits=default)
    recon = workloads.ReconstructSpec(sizes["tables"]).prepare(seed, work)

    runs = (
        ("fig1-b", fig1.command_argv(seed, work / "fig1.csv"),
         lambda err: checks.check_sweep(work / "fig1.csv", fig1, seed)),
        ("sweep-fine", sweep.command_argv(seed, work / "sweep.csv"),
         lambda err: checks.check_sweep(work / "sweep.csv", sweep, seed)),
        ("reconstruct", recon.argv(), recon.check),
    )
    paths, outcomes = {}, []
    with instrument(recorder):
        for name, argv, _ in runs:
            paths[name], code, err = _run_cli(recorder, name, argv)
            outcomes.append((code, err))
    # Checked after the traced region, so that no check shows up in a span.
    for (name, _, check), (code, err) in zip(runs, outcomes):
        attempted += 1
        found = [f"exit code {code}: {err.strip()[-300:]}"] if code else check(err)
        failed += bool(found)
        problems += [f"{name}: {p}" for p in found]

    layers = {name: recorder.layers(trace_id) for name, trace_id in paths.items()}
    fl, sw, rc = layers["fig1-b"], layers["sweep-fine"], layers["reconstruct"]
    counts = recorder.counts
    metrics = {
        "linalg.haar_draw_us": _mean_us(fl, "linalg.haar_draw"),
        "linalg.normals_drawn": counts[paths["fig1-b"], "linalg.normals_drawn"],
        "merit.kernel_eta_chi_us": _mean_us(fl, "merit.kernel.eta_chi"),
        "merit.kernel_coherence_fidelity_us": _mean_us(sw, "merit.kernel.coherence_fidelity"),
        "merit.reduce_us": _mean_us(sw, "merit.haar_average", "self_ns"),
        "gates.build_us": _mean_us(sw, "gates.build"),
        "energetics.hamiltonian_us": _mean_us(sw, "energetics.hamiltonian"),
        "sweeps.point_seed_us": _mean_us(sw, "sweeps.point_seed"),
        "sweeps.write_s": sw["sweeps.write"]["total_ns"] / 1e9,
        "sweeps.output_bytes": counts[paths["sweep-fine"], "sweeps.output_bytes"],
        "reconstruct.load_table_us": _mean_us(rc, "reconstruct.load_table"),
        "reconstruct.gate_table_us": _mean_us(rc, "reconstruct.gate_table"),
        "reconstruct.g_chi_us": _mean_us(rc, "reconstruct.g_chi"),
        "reconstruct.flags": counts[paths["reconstruct"], "reconstruct.flags"],
        "reconstruct.write_s": rc["reconstruct.write"]["total_ns"] / 1e9,
    }
    # Tracing overhead on the sweep-fine path, which has the most spans per
    # second: untraced vs traced in-process run_sweep, alternating theta row by
    # theta row (twice over the grid) so that both sides see the same host load.
    config = sweep.config(seed)
    plain = traced = 0.0
    for k, theta in enumerate([*config.thetas()] * 2):
        row = dataclasses.replace(config, theta_lo=theta, theta_hi=theta, theta_points=1)
        for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
            if is_traced:
                with instrument(SpanRecorder()):
                    traced += _timed(lambda: epmdiag.sweeps.run_sweep(row))
            else:
                plain += _timed(lambda: run_sweep(row))
    overhead = {"untraced_s": plain, "traced_s": traced}
    metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)

    # Pool: start-up cost on a 1-point grid, and efficiency on a real one.
    tiny = workloads.SweepSpec("fig1", 1, 1, workers=1, merits=b).config(seed)
    starts = [_timed(lambda: run_sweep(tiny, workers=2)) - _timed(lambda: run_sweep(tiny))
              for _ in range(3)]
    metrics["sweeps.pool_start_s"] = statistics.median(starts)
    config = workloads.SweepSpec("fig1", *sizes["efficiency"], workers=1, merits=b).config(seed)
    results = {}
    for workers in (1, 2):
        start = time.perf_counter()
        results[workers] = run_sweep(config, workers=workers)
        metrics[f"sweeps.workers{workers}_s"] = time.perf_counter() - start
    attempted += 1
    if results[1].records != results[2].records:
        failed += 1
        problems.append("in-process run_sweep differs between 1 and 2 workers")
    metrics["sweeps.parallel_efficiency"] = (metrics["sweeps.workers1_s"]
                                             / (2 * metrics["sweeps.workers2_s"]))

    metrics["merit.computed_bytes_per_eval"] = _bytes_per_eval(seed, sizes["fig1"][1])
    metrics["cli.import_s"], import_problems = _import_seconds(root, env, work)
    problems += import_problems
    failed += bool(import_problems)
    attempted += 1

    metrics = {name: metrics[name] for name in PER_LAYER}
    recorder.dump(work / "spans.json", {"paths": paths, "layers": layers, "metrics": metrics,
                                        "overhead": overhead})
    return {"problems": problems, "attempted": attempted, "failed": failed, "metrics": metrics,
            "layers": layers, "spans": len(recorder.spans), "span_file": str(work / "spans.json")}
