"""The names the benchmark harness takes from `epmdiag` still exist and are still called,
and they and the reference oracles of `element_sums` are the only top-level names of
`src/` that nothing in `src/` uses.

perfbench/ imports names from the package and patches module attributes
by name for its traced run (`instrument()` in perfbench/tracing.py), then
reads the spans of the patched calls. A deletion in `src/` that removes
one of the names, or a path that stops calling one, breaks
`perfbench --trace 1` without failing any other test. The files are read
with `ast`; the traced-spans test also imports perfbench's modules to run
its instrument, and none of the tests changes them.
"""
import ast
import importlib
from collections import defaultdict
from pathlib import Path

from epmdiag import cli
from epmdiag.gates import v_axis
from epmdiag.merit import MeritKind
from epmdiag.reconstruct import gate_probability_table
from epmdiag.sweeps import SweepConfig, SweepRecord, run_sweep
from helpers import run_cli, write_probability_table

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "epmdiag"


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


def _defined_names(statement):
    """The names a top-level statement defines: a function, a class or constants."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _used_names(statement):
    """The names a statement uses: loaded names and attributes, and the keys of the
    `_HOMES` table through which the package loads its public names. An import binds
    a name and is no use of it."""
    used = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_HOMES"]
              and isinstance(node.value, ast.Dict)):
            used.update(ast.literal_eval(key) for key in node.value.keys)
    return used


def test_every_top_level_name_of_the_package_is_used_in_it():
    # a name that only tests reach belongs with the tests; the exceptions are the
    # names perfbench imports or patches, and the reference oracles of element_sums,
    # which only tests and perfbench read
    statements = [(path.stem, statement) for path in sorted(SRC.glob("*.py"))
                  for statement in ast.parse(path.read_text()).body]
    # by name alone: perfbench patches a name where it is imported, not where it is defined
    exempt = {name for path in sorted(PERFBENCH.glob("*.py"))
              for _, name in _imported_names(ast.parse(path.read_text()))}
    exempt.update(name for _, name in
                  _patched_names(ast.parse((PERFBENCH / "tracing.py").read_text())))
    used = [_used_names(statement) for _, statement in statements]
    unused = []
    for index, (module, statement) in enumerate(statements):
        for name in _defined_names(statement):
            if (module == "element_sums" or (name.startswith("__") and name.endswith("__"))
                    or name in exempt):
                continue
            if not any(name in names for k, names in enumerate(used) if k != index):
                unused.append(f"{module}.{name}")
    assert unused == []


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


def test_reconstruct_loads_each_file_through_the_cli_name_once(tmp_path, monkeypatch):
    # the traced run wraps `epmdiag.cli.load_probability_table`, and
    # `reconstruct.load_table_us` divides its time by the calls: one per
    # --measured and per --ideal file, each in the order given
    measured = [tmp_path / f"m{k}.csv" for k in range(3)]
    ideal = [tmp_path / f"i{k}.csv" for k in range(3)]
    for k, (path, ideal_path) in enumerate(zip(measured, ideal)):
        table = gate_probability_table(v_axis(0.1 * k, 0.3))
        write_probability_table(table, path, metadata={"theta": 0.1 * k})
        write_probability_table(table, ideal_path)
    load, calls = cli.load_probability_table, []
    monkeypatch.setattr(cli, "load_probability_table",
                        lambda path, **kwargs: calls.append(path) or load(path, **kwargs))
    result = run_cli("reconstruct", "--measured", *map(str, measured),
                     "--ideal", *map(str, ideal), "--out", str(tmp_path / "r.csv"))
    assert result.returncode == 0, result.stderr
    assert calls == [*map(str, measured), *map(str, ideal)]


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
