"""Coherent-error diagnostics for two-qubit controlled gates.

Compares a noisy controlled gate against its ideal through the coherence
content of the outputs and through the statistics of local end-point
energy measurements, including the measurement-only reconstruction of the
coherence diagnostics from conditional outcome probabilities.

The names below are the ones the `epmdiag` command and the README use;
everything else is reached through its module. Each loads its module on
first use, so `import epmdiag` imports no numpy and the command's entry
module (`epmdiag.__main__`) runs before numpy loads. The package sets no
thread variable; only that entry module does.
"""
import importlib

from .version import __version__

# public name -> the module that defines it
_HOMES = {
    "MeritKind": "merit",
    "ParseError": "errors",
    "SweepConfig": "sweeps",
    "ValidationError": "errors",
    "g_gate": "gates",
    "haar_average": "merit",
    "load_probability_table": "reconstruct",
    "local_hamiltonian_2q": "energetics",
    "preset_fig1": "sweeps",
    "preset_fig3": "sweeps",
    "protocol_plan": "reconstruct",
    "run_reconstruction": "sweeps",
    "run_sweep": "sweeps",
    "v_angle": "gates",
    "v_axis": "gates",
    "waveplate_settings": "gates",
    "write_fig3": "sweeps",
    "write_reconstruction": "sweeps",
    "write_sweep": "sweeps",
}

__all__ = sorted([*_HOMES, "__version__"])


def __getattr__(name: str):
    """A public name, imported from its module on first use (PEP 562)."""
    if name not in _HOMES:  # also how `from epmdiag import cli` finds a submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
