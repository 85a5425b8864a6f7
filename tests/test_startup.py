"""What starting the package loads and sets: the library sets nothing, and the command's
entry module asks OpenBLAS for one thread before numpy loads.

numpy reads the thread variable once, when it loads, so each case runs in a new
interpreter with the variable removed from its environment.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

VARIABLE = "OPENBLAS_NUM_THREADS"


def _child(code: str, value: str | None = None) -> list[str]:
    """The words `code` prints, run in a new interpreter with the variable unset or `value`."""
    env = {name: text for name, text in child_env().items() if name != VARIABLE}
    if value is not None:
        env[VARIABLE] = value
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def _entry_module() -> str:
    """The module of the installed `epmdiag` script, as pyproject.toml names it."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["epmdiag"]
    module, _, function = entry.partition(":")
    assert function == "main"
    return module


def test_importing_the_package_loads_no_numpy_and_sets_nothing():
    code = f"import os, sys, epmdiag; print('numpy' in sys.modules, {VARIABLE!r} in os.environ)"
    assert _child(code) == ["False", "False"]


def test_importing_the_cli_loads_no_thread_pool_module_and_sets_nothing():
    code = ("import os, sys, epmdiag.cli; "
            "print('concurrent.futures' in sys.modules, 'logging' in sys.modules, "
            f"{VARIABLE!r} in os.environ)")
    assert _child(code) == ["False", "False", "False"]


def test_the_entry_module_asks_for_one_blas_thread_unless_the_caller_set_a_count():
    module = _entry_module()
    code = f"import os, {module}; print(callable({module}.main), os.environ.get({VARIABLE!r}))"
    assert _child(code) == ["True", "1"]
    assert _child(code, "3") == ["True", "3"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc here")
def test_after_the_entry_module_the_process_runs_one_thread():
    # numpy is loaded by then, and OpenBLAS started no worker thread
    code = (f"import os, sys, {_entry_module()}; "
            "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')))")
    assert _child(code) == ["True", "1"]
