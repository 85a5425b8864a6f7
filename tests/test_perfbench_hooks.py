"""The names the benchmark harness takes from `epmdiag` still exist and are still called.

perfbench/ imports names from the package and patches module attributes
by name for its traced run (`instrument()` in perfbench/tracing.py), then
reads the spans of the patched calls. A deletion in `src/` that removes
one of the names, or a path that stops calling one, breaks
`perfbench --trace 1` without failing any other test. The files are read
with `ast`; the second test also imports perfbench's modules to run its
instrument, and neither changes them.
"""
import ast
import importlib
from collections import defaultdict
from pathlib import Path

from epmdiag.merit import MeritKind
from epmdiag.sweeps import SweepConfig, SweepRecord, run_sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _imported_names(tree):
    """(module, name) for every `from epmdiag... import name`, (module, None) for `import epmdiag...`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "epmdiag":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "epmdiag")


def _patched_names(tree):
    """(module, attribute) for every entry of the patch list in `instrument()`."""
    instrument = next(node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and node.name == "instrument")
    patches = next(node.value for node in ast.walk(instrument) if isinstance(node, ast.Assign)
                   and [ast.unparse(target) for target in node.targets] == ["patches"])
    return [(ast.unparse(entry.elts[0]), ast.literal_eval(entry.elts[1]))
            for entry in patches.elts]


def test_perfbench_names_exist_in_the_package():
    references = []
    for path in sorted(PERFBENCH.glob("*.py")):
        references += [(path.name, module, name)
                       for module, name in _imported_names(ast.parse(path.read_text()))]
    patched = _patched_names(ast.parse((PERFBENCH / "tracing.py").read_text()))
    assert len(patched) >= 10 and all(module.startswith("epmdiag.") for module, _ in patched)
    references += [("tracing.py", module, name) for module, name in patched]
    assert {"tracing.py", "checks.py"} <= {source for source, _, _ in references}

    # a module that is gone fails in import_module, a name that is gone in hasattr
    modules = {module: importlib.import_module(module) for _, module, _ in references}
    missing = [(source, module, name) for source, module, name in references
               if name is not None and not hasattr(modules[module], name)]
    assert missing == []


def _span_names_read(tree):
    """{CLI path: span names} that `traced_run` reads from each path's layer table."""
    traced_run = next(node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and node.name == "traced_run")
    tables = {}  # layer-table variable -> path, from `fl, sw, rc = layers["fig1-b"], ...`
    for node in ast.walk(traced_run):
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
                and isinstance(node.value, ast.Tuple)):
            for target, value in zip(node.targets[0].elts, node.value.elts):
                if isinstance(value, ast.Subscript) and ast.unparse(value.value) == "layers":
                    tables[ast.unparse(target)] = ast.literal_eval(value.slice)
    names = defaultdict(set)
    for node in ast.walk(traced_run):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_mean_us":
            table, name = node.args[:2]
        elif isinstance(node, ast.Subscript) and ast.unparse(node.value) in tables:
            table, name = node.value, node.slice
        else:
            continue
        names[tables[ast.unparse(table)]].add(ast.literal_eval(name))
    return names


def test_perfbench_traced_spans_are_called(tmp_path, monkeypatch):
    names = _span_names_read(ast.parse((PERFBENCH / "tracing.py").read_text()))
    assert sum(len(spans) for spans in names.values()) >= 10

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    fig1 = workloads.SweepSpec("fig1", 2, 20, workers=1, merits=(MeritKind.ETA_CHI,))
    sweep = workloads.SweepSpec("sweep", 2, 10, workers=1,
                                merits=(MeritKind.COHERENCE_FIDELITY, MeritKind.ETA_CHI))
    argvs = {"fig1-b": fig1.command_argv(0, tmp_path / "fig1.csv"),
             "sweep-fine": sweep.command_argv(0, tmp_path / "sweep.csv"),
             "reconstruct": workloads.ReconstructSpec(2).prepare(0, tmp_path).argv()}
    assert set(names) == set(argvs)

    recorder = tracing.SpanRecorder()
    uncalled = []
    with tracing.instrument(recorder):
        for path, argv in argvs.items():
            trace_id, code, err = tracing._run_cli(recorder, path, argv)
            assert code == 0, (path, err)
            layers = recorder.layers(trace_id)
            uncalled += [(path, name) for name in sorted(names[path])
                         if layers.get(name, {}).get("calls", 0) < 1]
    assert uncalled == []


def test_sweep_result_still_yields_the_records_perfbench_compares():
    # the traced run compares `run_sweep(...).records` of 1 and 2 workers; the
    # result holds one array, and `records` is derived from it for that reader
    assert "records" in {node.attr for node in ast.walk(ast.parse((PERFBENCH / "tracing.py")
                                                                    .read_text()))
                         if isinstance(node, ast.Attribute)}
    merits = (MeritKind.ETA_CHI, MeritKind.FIDELITY)
    config = SweepConfig(theta_points=2, phi_points=3, merits=merits, n_samples=20, master_seed=3)
    result = run_sweep(config)
    assert all(type(record) is SweepRecord for record in result.records)
    assert SweepRecord._fields == ("theta", "phi", "merit", "mean", "std_error", "n_samples")
    assert [tuple(record) for record in result.records] == [
        (theta, phi, kind.value, *result.values[i, j, m].tolist(), 20)
        for i, theta in enumerate(config.thetas().tolist())
        for j, phi in enumerate(config.phis().tolist())
        for m, kind in enumerate(merits)]
