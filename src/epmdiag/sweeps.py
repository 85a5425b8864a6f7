"""Parameter sweeps over (theta, phi) grids and the figure presets.

A sweep evaluates Haar-averaged merits on a rectangular grid of ideal gate
angle theta and error parameter phi. Randomness is derived per grid point
from the master seed, and every merit of a point reads the same states, so
results are independent of worker count and scheduling, and output files
are byte-identical across runs.
"""
from __future__ import annotations

import concurrent.futures
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .energetics import local_hamiltonian_2q
from .errors import ValidationError
from .gates import g_gate, v_angle, v_axis
from .linalg import plus_plus_state
# kernel_coherence_fid is not called here; perfbench/tracing.py patches it by this name.
from .merit import MeritKind, haar_average, kernel_coherence_fid, kernel_values
from .reconstruct import (
    BASIS_LABELS,
    ProbabilityTable,
    chi_populations,
    g_chi_from_table,
    gate_probability_table,
)
from .version import __version__

ERROR_FAMILIES = {"axis": v_axis, "angle": v_angle}
# Default sweep range of the error parameter: [0, pi] for axis, [0, 2 pi] for angle.
DEFAULT_PHI_RANGES = {"axis": (0.0, math.pi), "angle": (0.0, 2 * math.pi)}

DEFAULT_SAMPLES = 5000
DEFAULT_RESOLUTION = 41
DEFAULT_MERITS = (MeritKind.COHERENCE_FIDELITY, MeritKind.ETA_CHI)
# Ceiling on Haar samples per grid point: a draw of 10**6 states holds two
# 64 MB arrays at once (the normals, and the states, whose memory first holds
# the squares), and a larger request is far more likely a typo than a need.
MAX_SAMPLES = 10**6
# Ceiling on grid points: each point keeps its records (~0.47 kB) and costs
# at least ~17 us, so 10**6 points take ~0.5 GB and ~20 s at one sample,
# and a larger request is far more likely a typo than a need.
MAX_GRID_POINTS = 10**6
# Ceiling on |angle| in radians: the gates take cos and sin of small
# multiples of an angle, which overflow to inf (and give nan) near the
# largest double; at 1e6 a double still resolves the angle to ~1e-10.
MAX_ANGLE = 1e6
# Ceiling on fig3 theta points: each point keeps its probability table and
# report row, ~5 kB, and costs ~0.2 ms, so 10**5 points take ~0.5 GB and
# ~20 s; a larger request is far more likely a typo than a need.
MAX_THETA_POINTS = 10**5
# Most Haar states one evaluation call holds: a theta row is averaged in
# calls of max(1, STATE_BUDGET // n_samples) consecutive points, which
# spreads the fixed cost of a call over many points at low sample counts
# and keeps a call's arrays to a few hundred kB.
STATE_BUDGET = 8192

FIG1_PANELS = {
    "a": ("axis", MeritKind.COHERENCE_FIDELITY),
    "b": ("axis", MeritKind.ETA_CHI),
    "c": ("angle", MeritKind.COHERENCE_FIDELITY),
    "d": ("angle", MeritKind.ETA_CHI),
}


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one sweep; everything needed to reproduce it."""

    error_family: str = "axis"
    theta_lo: float = 0.0
    theta_hi: float = math.pi
    theta_points: int = DEFAULT_RESOLUTION
    phi_lo: float | None = None
    phi_hi: float | None = None
    phi_points: int = DEFAULT_RESOLUTION
    merits: tuple[MeritKind, ...] = DEFAULT_MERITS
    n_samples: int = DEFAULT_SAMPLES
    master_seed: int = 0

    def validate(self) -> "SweepConfig":
        if self.error_family not in ERROR_FAMILIES:
            raise ValidationError(f"unknown error family {self.error_family!r}")
        if self.theta_points < 1 or self.phi_points < 1:
            raise ValidationError("grid point counts must be >= 1")
        if self.theta_points * self.phi_points > MAX_GRID_POINTS:
            raise ValidationError(f"a grid holds at most {MAX_GRID_POINTS} points, got "
                                  f"{self.theta_points} x {self.phi_points}")
        if not 1 <= self.n_samples <= MAX_SAMPLES:
            raise ValidationError(f"n_samples must be in [1, {MAX_SAMPLES}]")
        if not 0 <= self.master_seed < 2**64:
            raise ValidationError(f"the master seed must be in [0, 2**64), got {self.master_seed}")
        if not self.merits:
            raise ValidationError("at least one merit must be requested")
        _check_angles((self.theta_lo, self.theta_hi) + self.phi_bounds(), "sweep range")
        return self

    def phi_bounds(self) -> tuple[float, float]:
        lo, hi = DEFAULT_PHI_RANGES[self.error_family]
        return (lo if self.phi_lo is None else self.phi_lo,
                hi if self.phi_hi is None else self.phi_hi)

    def thetas(self) -> np.ndarray:
        return np.linspace(self.theta_lo, self.theta_hi, self.theta_points)

    def phis(self) -> np.ndarray:
        lo, hi = self.phi_bounds()
        return np.linspace(lo, hi, self.phi_points)


@dataclass(frozen=True)
class SweepRecord:
    theta: float
    phi: float
    merit: str
    mean: float
    std_error: float
    n_samples: int


@dataclass
class SweepResult:
    """Grid of Haar averages plus the metadata to regenerate them."""

    config: SweepConfig
    records: list[SweepRecord]


def _check_angles(angles, what: str) -> None:
    for angle in angles:
        if not abs(angle) <= MAX_ANGLE:  # also refuses nan
            raise ValidationError(f"{what} {angle!r} is not a finite angle in "
                                  f"[-{MAX_ANGLE:g}, {MAX_ANGLE:g}]")


def point_seed(master_seed: int, grid_index, kind: MeritKind):
    """The Philox key of one grid point's draw: master_seed | grid_index << 64.

    The merit `kind` does not enter the key, so every merit of a point reads
    the same states; perfbench passes the merit whose average it checks.
    SweepConfig.validate keeps the master seed below 2**64, so no two points
    share a key. An int index gives an int key, a sequence a list of keys.
    """
    if isinstance(grid_index, (int, np.integer)):
        return master_seed | operator.index(grid_index) << 64
    return [master_seed | operator.index(gi) << 64 for gi in grid_index]


def _evaluate_row(task) -> list[tuple[tuple[float, float], ...]]:
    """(mean, std_error) per phi point and merit along one theta row.

    Consecutive points of the row are averaged together, as many per call
    as fit in STATE_BUDGET states (at least one).
    """
    family, theta, phis, merits, n_samples, keys = task
    u = g_gate(theta)
    noisy = np.stack([ERROR_FAMILIES[family](theta, phi) for phi in phis])
    hamiltonian = local_hamiltonian_2q()
    step = max(1, STATE_BUDGET // n_samples)
    per_merit = []
    for kind in merits:
        averages = []
        for start in range(0, len(phis), step):
            averages += haar_average(kind, u, noisy[start:start + step], hamiltonian,
                                     n_samples=n_samples, seed=keys[start:start + step])
        per_merit.append([(a.mean, a.std_error) for a in averages])
    return list(zip(*per_merit))


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Evaluate every requested merit on the configured (theta, phi) grid.

    Workers > 1 fan theta rows out to a process pool of at most one worker
    per row; per-point keys make the result identical for any worker count.
    """
    config.validate()
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    thetas = config.thetas().tolist()
    phis = config.phis().tolist()
    # the merit does not enter a key, so the first one stands for all
    keys = point_seed(config.master_seed, range(len(thetas) * len(phis)), config.merits[0])
    tasks = [(config.error_family, theta, phis, config.merits, config.n_samples,
              keys[i * len(phis):(i + 1) * len(phis)])
             for i, theta in enumerate(thetas)]

    # a pool forks all its workers at the first submit, so start no more than there are rows
    workers = min(workers, len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_evaluate_row, tasks))
    else:
        rows = [_evaluate_row(task) for task in tasks]

    records = [
        SweepRecord(theta=theta, phi=phi, merit=kind.value, mean=mean, std_error=std_error,
                    n_samples=config.n_samples)
        for theta, row in zip(thetas, rows)
        for phi, point in zip(phis, row)
        for kind, (mean, std_error) in zip(config.merits, point)
    ]
    return SweepResult(config=config, records=records)


def preset_fig1(
    panel: str,
    resolution: int = DEFAULT_RESOLUTION,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    workers: int = 1,
) -> SweepResult:
    """One of the four standard surfaces: coherence mismatch or eta_chi
    against (theta, phi) for the axis (panels a, b) or angle (c, d) error."""
    if panel not in FIG1_PANELS:
        raise ValidationError(f"unknown panel {panel!r}, expected one of {sorted(FIG1_PANELS)}")
    family, merit = FIG1_PANELS[panel]
    config = SweepConfig(
        error_family=family,
        theta_points=resolution,
        phi_points=resolution,
        merits=(merit,),
        n_samples=n_samples,
        master_seed=seed,
    )
    return run_sweep(config, workers=workers)


def max_normalize(values: np.ndarray) -> np.ndarray:
    """Scale a curve to unit maximum; an all-zero curve stays zero."""
    values = np.asarray(values, dtype=float)
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return values / peak if peak > 0 else values.copy()


@dataclass
class ReconstructionReport:
    """Per-theta coherence diagnostics recovered from probability tables.

    Each column holds one entry per measured table, in ascending-theta
    order; `coherence_kernel` is None when phi is unknown.
    """

    thetas: np.ndarray
    tables: list[ProbabilityTable]
    chi_pops: np.ndarray  # (n, 4)
    g_chi_measured: np.ndarray
    g_chi_ideal: np.ndarray
    eta_kernel: np.ndarray
    coherence_kernel: np.ndarray | None
    max_row_sum_error: np.ndarray
    error_family: str
    phi: float | None
    flags: list[str]


def run_reconstruction(
    measured: list[tuple[float, ProbabilityTable]],
    ideal: list[ProbabilityTable] | None = None,
    phi: float | None = None,
    error_family: str = "axis",
) -> ReconstructionReport:
    """Recover chi populations, G_chi and the eta_chi kernel per theta point.

    `measured` pairs each table with its theta. The k-th table of `ideal`
    goes with the k-th measured table; when `ideal` is None each ideal
    table is synthesized from the perfect gate at its theta. Rows come out
    sorted by theta. A theory coherence-mismatch curve is included when phi
    is given.
    """
    if error_family not in ERROR_FAMILIES:
        raise ValidationError(f"unknown error family {error_family!r}")
    _check_angles([theta for theta, _ in measured], "theta")
    _check_angles([] if phi is None else [phi], "phi")
    if ideal is not None and len(ideal) != len(measured):
        raise ValidationError(f"{len(measured)} measured tables but {len(ideal)} ideal tables")
    hamiltonian = local_hamiltonian_2q()
    order = sorted(range(len(measured)), key=lambda k: measured[k][0])
    thetas = [measured[k][0] for k in order]
    tables = [measured[k][1] for k in order]
    coherence = None if phi is None else np.zeros(0)
    if phi is not None and thetas:  # np.stack needs at least one gate
        # one batched kernel call over every table's (ideal, noisy) gate pair
        coherence = kernel_values(
            MeritKind.COHERENCE_FIDELITY, np.broadcast_to(plus_plus_state(), (len(thetas), 1, 4)),
            np.stack([g_gate(theta) for theta in thetas]),
            np.stack([ERROR_FAMILIES[error_family](theta, phi) for theta in thetas]))[:, 0]
    pops = np.zeros((len(tables), 4))
    g_measured, g_ideal, row_error = np.zeros((3, len(tables)))
    flags: list[str] = []
    # a flagged row may hold values whose sums overflow; the writer refuses what is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (k, theta, table) in enumerate(zip(order, thetas, tables)):
            ideal_table = gate_probability_table(g_gate(theta)) if ideal is None else ideal[k]
            pops[i] = chi_populations(table)
            g_measured[i] = g_chi_from_table(table, hamiltonian)
            g_ideal[i] = g_chi_from_table(ideal_table, hamiltonian)
            row_error[i] = max(abs(float(np.sum(values)) - 1.0) for values in table.rows.values())
            flags.extend(f"theta {theta!r}: {flag}" for flag in table.flags)
            flags.extend(f"theta {theta!r}: ideal {flag}" for flag in ideal_table.flags)
    return ReconstructionReport(
        thetas=np.array(thetas, dtype=float), tables=tables, chi_pops=pops,
        g_chi_measured=g_measured, g_chi_ideal=g_ideal, eta_kernel=np.abs(g_measured - g_ideal),
        coherence_kernel=coherence, max_row_sum_error=row_error, error_family=error_family,
        phi=phi, flags=flags)


def preset_fig3(theta_points: int = 50, phi: float = math.pi / 9) -> ReconstructionReport:
    """Single-state diagnostics for the axis error on theta in [0, pi/4].

    The reconstruction of noise-free synthetic tables: the tables' rows are
    the conditional probabilities, and the report's kernels are the
    |++>-state eta_chi and coherence-mismatch curves.
    """
    if not 1 <= theta_points <= MAX_THETA_POINTS:
        raise ValidationError(f"theta_points must be in [1, {MAX_THETA_POINTS}], "
                              f"got {theta_points}")
    thetas = np.linspace(0.0, math.pi / 4, theta_points).tolist()
    return run_reconstruction([(theta, gate_probability_table(v_axis(theta, phi)))
                               for theta in thetas], phi=phi)


# ---------------------------------------------------------------------------
# Writers. Floats are rendered with repr() so identical results produce
# byte-identical files.
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"refusing to write the non-finite value {value!r} as CSV")
    return repr(value)


def _json_text(doc: dict) -> str:
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ValidationError("refusing to write a non-finite value as JSON") from None


def _write_output(path, output_format: str, metadata: dict, csv_lines, json_body) -> list[Path]:
    """Write one result as CSV plus a `.meta.json` sidecar, or as one JSON file.

    The metadata block is "tool" and "version", then `metadata`. `csv_lines()`
    yields the CSV lines, header first; `json_body()` returns the JSON
    document's entries after "metadata". Only the one the format needs is
    called, and every text is built before any file is written.
    """
    path = Path(path)
    metadata = {"tool": "epmdiag", "version": __version__, **metadata}
    if output_format == "json":
        texts = {path: _json_text({"metadata": metadata, **json_body()})}
    elif output_format == "csv":
        texts = {path: "\n".join(csv_lines()) + "\n",
                 path.with_name(path.stem + ".meta.json"): _json_text(metadata)}
    else:
        raise ValidationError(f"unknown output format {output_format!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    for target, text in texts.items():
        target.write_text(text, encoding="utf-8")
    return list(texts)


def write_sweep(result: SweepResult, path, output_format: str = "csv") -> list[Path]:
    """Write a sweep as long-format CSV (+ JSON sidecar) or as one JSON file."""
    config = result.config
    phi_lo, phi_hi = config.phi_bounds()
    metadata = {"kind": "sweep", "error_family": config.error_family,
                "theta": {"lo": config.theta_lo, "hi": config.theta_hi,
                          "points": config.theta_points},
                "phi": {"lo": phi_lo, "hi": phi_hi, "points": config.phi_points},
                "merits": [m.value for m in config.merits], "n_samples": config.n_samples,
                "master_seed": config.master_seed,
                "grid_points": config.theta_points * config.phi_points}

    def csv_lines():
        yield "theta,phi,merit,mean,std_error,n_samples"
        for r in result.records:
            yield (f"{_fmt(r.theta)},{_fmt(r.phi)},{r.merit},{_fmt(r.mean)},"
                   f"{_fmt(r.std_error)},{r.n_samples}")

    def json_body():
        return {"records": [
            {"theta": r.theta, "phi": r.phi, "merit": r.merit, "mean": r.mean,
             "std_error": r.std_error, "n_samples": r.n_samples}
            for r in result.records
        ]}

    return _write_output(path, output_format, metadata, csv_lines, json_body)


def fig3_series(report: ReconstructionReport) -> list[tuple[str, np.ndarray]]:
    """Flatten a fig3 report into (series name, values) pairs: the tables'
    conditional probabilities, then the kernels and their max-normalized copies."""
    if report.coherence_kernel is None:
        raise ValidationError("fig3 series need the coherence curve of a report made with phi")
    series = []
    for label in (*BASIS_LABELS, "++"):
        probabilities = np.array([table.rows[label] for table in report.tables])
        series += [(f"p({outcome}|{label})", probabilities[:, col])
                   for col, outcome in enumerate(BASIS_LABELS)]
    kernels = [("eta_chi_kernel", report.eta_kernel), ("coherence_kernel", report.coherence_kernel)]
    return series + kernels + [(name + "_max_norm", max_normalize(values))
                               for name, values in kernels]


def write_fig3(report: ReconstructionReport, path, output_format: str = "csv") -> list[Path]:
    """Write a fig3 report as long-format theta,series,value rows."""
    metadata = {"kind": "fig3", "phi": report.phi, "theta_points": len(report.thetas)}
    series = fig3_series(report)

    def csv_lines():
        yield "theta,series,value"
        for i, theta in enumerate(report.thetas):
            for name, values in series:
                yield f"{_fmt(theta)},{name},{_fmt(values[i])}"

    def json_body():
        return {
            "thetas": report.thetas.tolist(),
            "series": {name: [float(v) for v in values] for name, values in series},
        }

    return _write_output(path, output_format, metadata, csv_lines, json_body)


def write_reconstruction(report: ReconstructionReport, path, output_format: str = "csv") -> list[Path]:
    """Write a reconstruction report; empty coherence cells when phi is unknown."""
    metadata = {"kind": "reconstruction", "error_family": report.error_family,
                "phi": report.phi, "theta_points": len(report.thetas), "flags": report.flags}
    coherence = report.coherence_kernel
    blank = [None] * len(report.thetas)
    columns = {
        "theta": report.thetas.tolist(),
        "chi_populations": report.chi_pops.tolist(),
        "g_chi_measured": report.g_chi_measured.tolist(),
        "g_chi_ideal": report.g_chi_ideal.tolist(),
        "eta_chi_kernel": report.eta_kernel.tolist(),
        "eta_chi_kernel_max_norm": max_normalize(report.eta_kernel).tolist(),
        "coherence_kernel": blank if coherence is None else coherence.tolist(),
        "coherence_kernel_max_norm": blank if coherence is None else max_normalize(coherence).tolist(),
        "max_row_sum_error": report.max_row_sum_error.tolist(),
    }

    def csv_lines():
        yield ("theta,p_chi_00,p_chi_01,p_chi_10,p_chi_11,g_chi_measured,g_chi_ideal,"
               "eta_chi_kernel,eta_chi_kernel_max_norm,coherence_kernel,"
               "coherence_kernel_max_norm,max_row_sum_error")
        for theta, pops, *rest in zip(*columns.values()):
            yield ",".join("" if v is None else _fmt(v) for v in (theta, *pops, *rest))

    def json_body():
        return {"rows": [dict(zip(columns, row)) for row in zip(*columns.values())]}

    return _write_output(path, output_format, metadata, csv_lines, json_body)
