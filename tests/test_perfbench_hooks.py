"""The names the benchmark harness takes from `epmdiag` still exist.

perfbench/ imports names from the package and patches module attributes
by name for its traced run (`instrument()` in perfbench/tracing.py). A
deletion in `src/` that removes one of them breaks `perfbench --trace 1`
without failing any other test. The files are read with `ast`, never
imported or changed.
"""
import ast
import importlib
from pathlib import Path

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
