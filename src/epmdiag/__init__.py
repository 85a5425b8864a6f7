"""Coherent-error diagnostics for two-qubit controlled gates.

Compares a noisy controlled gate against its ideal through the coherence
content of the outputs and through the statistics of local end-point
energy measurements, including the measurement-only reconstruction of the
coherence diagnostics from conditional outcome probabilities.

The names below are the ones the `epmdiag` command and the README use;
everything else is reached through its module.
"""
from .energetics import local_hamiltonian_2q
from .errors import ParseError, ValidationError
from .gates import g_gate, v_angle, v_axis, waveplate_settings
from .merit import MeritKind, haar_average
from .reconstruct import load_probability_table, protocol_plan
from .sweeps import (
    SweepConfig,
    preset_fig1,
    preset_fig3,
    run_reconstruction,
    run_sweep,
    write_fig3,
    write_reconstruction,
    write_sweep,
)
from .version import __version__

__all__ = [
    "MeritKind",
    "ParseError",
    "SweepConfig",
    "ValidationError",
    "__version__",
    "g_gate",
    "haar_average",
    "load_probability_table",
    "local_hamiltonian_2q",
    "preset_fig1",
    "preset_fig3",
    "protocol_plan",
    "run_reconstruction",
    "run_sweep",
    "v_angle",
    "v_axis",
    "waveplate_settings",
    "write_fig3",
    "write_reconstruction",
    "write_sweep",
]
