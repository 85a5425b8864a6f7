"""Parameter sweeps over (theta, phi) grids and the figure presets.

A sweep evaluates Haar-averaged merits on a rectangular grid of ideal gate
angle theta and error parameter phi. Randomness is derived per (grid
point, merit) from the master seed, so results are independent of worker
count and scheduling, and output files are byte-identical across runs.
"""
from __future__ import annotations

import concurrent.futures
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .energetics import local_hamiltonian_2q
from .errors import ValidationError
from .gates import g_gate, v_angle, v_axis
from .linalg import plus_plus_state
# kernel_coherence_fid is not called here; perfbench/tracing.py patches it by this name.
from .merit import MERIT_ORDINAL, MeritKind, haar_average, kernel_coherence_fid, kernel_values
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
# Ceiling on Haar samples per grid point: a draw of 10**6 states holds three
# 64 MB arrays at once (the normals, their squares and the states), and a
# larger request is far more likely a typo than a need.
MAX_SAMPLES = 10**6
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
    merits: tuple[MeritKind, ...] = (MeritKind.COHERENCE_FIDELITY, MeritKind.ETA_CHI)
    n_samples: int = DEFAULT_SAMPLES
    master_seed: int = 0

    def validate(self) -> "SweepConfig":
        if self.error_family not in ERROR_FAMILIES:
            raise ValidationError(f"unknown error family {self.error_family!r}")
        if self.theta_points < 1 or self.phi_points < 1:
            raise ValidationError("grid point counts must be >= 1")
        if self.theta_points * self.phi_points >= 2**32:
            raise ValidationError("a grid holds fewer than 2**32 points "
                                  "(each point seed hashes a 32-bit grid index)")
        if not 1 <= self.n_samples <= MAX_SAMPLES:
            raise ValidationError(f"n_samples must be in [1, {MAX_SAMPLES}]")
        if self.master_seed < 0:
            raise ValidationError("the master seed must be >= 0")
        if not self.merits:
            raise ValidationError("at least one merit must be requested")
        bounds = (self.theta_lo, self.theta_hi) + self.phi_bounds()
        if not all(math.isfinite(x) for x in bounds):
            raise ValidationError("sweep ranges must be finite")
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
    records: list[SweepRecord] = field(default_factory=list)

    def surface(self, kind: MeritKind, which: str = "mean") -> np.ndarray:
        """(theta_points, phi_points) array of means or std errors for one merit."""
        values = [getattr(r, which) for r in self.records if r.merit == kind.value]
        if len(values) != self.config.theta_points * self.config.phi_points:
            raise ValidationError(f"sweep does not contain a full {kind.value} surface")
        return np.array(values).reshape(self.config.theta_points, self.config.phi_points)

    def metadata(self) -> dict:
        phi_lo, phi_hi = self.config.phi_bounds()
        return {
            "tool": "epmdiag",
            "version": __version__,
            "kind": "sweep",
            "error_family": self.config.error_family,
            "theta": {"lo": self.config.theta_lo, "hi": self.config.theta_hi,
                      "points": self.config.theta_points},
            "phi": {"lo": phi_lo, "hi": phi_hi, "points": self.config.phi_points},
            "merits": [m.value for m in self.config.merits],
            "n_samples": self.config.n_samples,
            "master_seed": self.config.master_seed,
            "grid_points": self.config.theta_points * self.config.phi_points,
        }


# The hash constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def point_seed(master_seed: int, grid_index, kind: MeritKind):
    """Derive the integer substream seed for one (grid point, merit) pair.

    The seed is SeedSequence(master_seed, spawn_key=(grid_index,
    ordinal)).generate_state(1, np.uint64)[0], computed here with the same
    32-bit hash so that an array of grid indices is hashed in one pass: an
    int index gives an int, an array of indices a uint64 array. The words
    are Python ints until the indices are mixed in and uint32 arrays after;
    the 32-bit masks cut the ints and leave the arrays, which wrap by
    themselves, unchanged. Grid indices are one word each, so below 2**32.
    """
    index = np.asarray(grid_index)
    if master_seed < 0 or index.size and (index.min() < 0 or index.max() > _MASK32):
        raise ValidationError("point seeds need a master seed >= 0 and grid indices "
                              "in [0, 2**32)")
    words, rest = [], int(master_seed)
    while rest or not words:
        words.append(rest & _MASK32)
        rest >>= 32
    words += [0] * (4 - len(words))  # the pool-size padding SeedSequence adds before a spawn key
    entropy = words + [int(index) if index.ndim == 0 else index.astype(np.uint32),
                       MERIT_ORDINAL[kind]]

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const, halves = _INIT_B, []
    for word in pool[:2]:
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        halves.append(word ^ (word >> 16))
    if index.ndim == 0:
        return halves[0] | halves[1] << 32
    return halves[0].astype(np.uint64) | halves[1].astype(np.uint64) << np.uint64(32)


def _evaluate_row(task) -> list[tuple[tuple[float, float], ...]]:
    """(mean, std_error) per phi point and merit along one theta row.

    Consecutive points of the row are averaged together, as many per call
    as fit in STATE_BUDGET states (at least one).
    """
    family, theta, phis, merits, n_samples, seeds = task
    u = g_gate(theta)
    noisy = np.stack([ERROR_FAMILIES[family](theta, phi) for phi in phis])
    hamiltonian = local_hamiltonian_2q()
    step = max(1, STATE_BUDGET // n_samples)
    per_merit = []
    for kind, merit_seeds in zip(merits, seeds):
        averages = []
        for start in range(0, len(phis), step):
            averages += haar_average(kind, u, noisy[start:start + step], hamiltonian,
                                     n_samples=n_samples, seed=merit_seeds[start:start + step])
        per_merit.append([(a.mean, a.std_error) for a in averages])
    return list(zip(*per_merit))


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Evaluate every requested merit on the configured (theta, phi) grid.

    Workers > 1 fan theta rows out to a process pool; per-point seeds make
    the result identical for any worker count.
    """
    config.validate()
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    thetas = config.thetas().tolist()
    phis = config.phis().tolist()
    grid_index = np.arange(len(thetas) * len(phis))
    seeds = [point_seed(config.master_seed, grid_index, kind).tolist()
             for kind in config.merits]
    tasks = [(config.error_family, theta, phis, config.merits, config.n_samples,
              [merit_seeds[i * len(phis):(i + 1) * len(phis)] for merit_seeds in seeds])
             for i, theta in enumerate(thetas)]

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


@dataclass
class Fig3Curves:
    """Theory curves of the single-state diagnostics at fixed phi.

    Conditional probabilities for the five standard inputs, plus the
    |++>-state eta_chi kernel and coherence-mismatch kernel as functions
    of theta; the writer adds their max-normalized copies.
    """

    thetas: np.ndarray
    phi: float
    probabilities: dict[str, np.ndarray]  # input label -> (n_theta, 4)
    eta_chi_kernel: np.ndarray
    coherence_kernel: np.ndarray


def max_normalize(values: np.ndarray) -> np.ndarray:
    """Scale a curve to unit maximum; an all-zero curve stays zero."""
    values = np.asarray(values, dtype=float)
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return values / peak if peak > 0 else values.copy()


def preset_fig3(theta_points: int = 50, phi: float = math.pi / 9) -> Fig3Curves:
    """Single-state diagnostics for the axis error on theta in [0, pi/4].

    The curves are the reconstruction of noise-free synthetic tables: the
    probabilities are the tables' rows, and the kernels are those of the
    reconstruction report.
    """
    if theta_points < 1:
        raise ValidationError(f"theta_points must be >= 1, got {theta_points}")
    thetas = np.linspace(0.0, math.pi / 4, theta_points)
    measured = [(theta, gate_probability_table(v_axis(theta, phi))) for theta in thetas.tolist()]
    report = run_reconstruction(measured, phi=phi)
    probabilities = {label: np.array([table.rows[label] for _, table in measured])
                     for label in BASIS_LABELS + ("++",)}
    return Fig3Curves(thetas=thetas, phi=phi, probabilities=probabilities,
                      eta_chi_kernel=report.eta_curve(), coherence_kernel=report.coherence_curve())


@dataclass
class ReconstructionRow:
    theta: float
    chi_pops: np.ndarray
    g_chi_measured: float
    g_chi_ideal: float
    eta_kernel: float
    coherence_kernel: float | None
    max_row_sum_error: float


@dataclass
class ReconstructionReport:
    """Per-theta coherence diagnostics recovered from probability tables."""

    rows: list[ReconstructionRow]
    error_family: str
    phi: float | None
    flags: list[str] = field(default_factory=list)

    def eta_curve(self) -> np.ndarray:
        return np.array([r.eta_kernel for r in self.rows])

    def coherence_curve(self) -> np.ndarray:
        return np.array([math.nan if r.coherence_kernel is None else r.coherence_kernel
                         for r in self.rows])


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
    angles = [theta for theta, _ in measured] + ([] if phi is None else [phi])
    if not all(math.isfinite(x) for x in angles):
        raise ValidationError("theta and phi must be finite")
    if ideal is not None and len(ideal) != len(measured):
        raise ValidationError(f"{len(measured)} measured tables but {len(ideal)} ideal tables")
    hamiltonian = local_hamiltonian_2q()
    psi_pp = plus_plus_state()
    order = sorted(range(len(measured)), key=lambda k: measured[k][0])
    coherences = [None] * len(measured)
    if phi is not None and measured:
        # one batched kernel call over every table's (ideal, noisy) gate pair
        thetas = [measured[k][0] for k in order]
        coherences = kernel_values(
            MeritKind.COHERENCE_FIDELITY, np.broadcast_to(psi_pp, (len(thetas), 1, 4)),
            np.stack([g_gate(theta) for theta in thetas]),
            np.stack([ERROR_FAMILIES[error_family](theta, phi) for theta in thetas]))[:, 0].tolist()
    rows = []
    flags: list[str] = []
    for k, coherence in zip(order, coherences):
        theta, table = measured[k]
        ideal_table = gate_probability_table(g_gate(theta)) if ideal is None else ideal[k]
        pops = chi_populations(table)
        g_measured = g_chi_from_table(table, hamiltonian)
        g_ideal = g_chi_from_table(ideal_table, hamiltonian)
        row_errors = [abs(float(np.sum(values)) - 1.0) for values in table.rows.values()]
        rows.append(ReconstructionRow(
            theta=theta,
            chi_pops=pops,
            g_chi_measured=g_measured,
            g_chi_ideal=g_ideal,
            eta_kernel=abs(g_measured - g_ideal),
            coherence_kernel=coherence,
            max_row_sum_error=max(row_errors),
        ))
        flags.extend(f"theta {theta!r}: {flag}" for flag in table.flags)
    return ReconstructionReport(rows=rows, error_family=error_family, phi=phi, flags=flags)


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

    `csv_lines()` yields the CSV lines, header first; `json_body()` returns
    the JSON document's entries after "metadata". Only the one the format
    needs is called, and every text is built before any file is written.
    """
    path = Path(path)
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

    return _write_output(path, output_format, result.metadata(), csv_lines, json_body)


def fig3_series(curves: Fig3Curves) -> list[tuple[str, np.ndarray]]:
    """Flatten the fig3 curves into (series name, values) pairs."""
    series = []
    for label in (*BASIS_LABELS, "++"):
        for col, outcome in enumerate(BASIS_LABELS):
            series.append((f"p({outcome}|{label})", curves.probabilities[label][:, col]))
    series.append(("eta_chi_kernel", curves.eta_chi_kernel))
    series.append(("coherence_kernel", curves.coherence_kernel))
    series.append(("eta_chi_kernel_max_norm", max_normalize(curves.eta_chi_kernel)))
    series.append(("coherence_kernel_max_norm", max_normalize(curves.coherence_kernel)))
    return series


def write_fig3(curves: Fig3Curves, path, output_format: str = "csv") -> list[Path]:
    """Write the fig3 curves as long-format theta,series,value rows."""
    metadata = {"tool": "epmdiag", "version": __version__, "kind": "fig3",
                "phi": curves.phi, "theta_points": int(curves.thetas.size)}
    series = fig3_series(curves)

    def csv_lines():
        yield "theta,series,value"
        for i, theta in enumerate(curves.thetas):
            for name, values in series:
                yield f"{_fmt(theta)},{name},{_fmt(values[i])}"

    def json_body():
        return {
            "thetas": [float(t) for t in curves.thetas],
            "series": {name: [float(v) for v in values] for name, values in series},
        }

    return _write_output(path, output_format, metadata, csv_lines, json_body)


def write_reconstruction(report: ReconstructionReport, path, output_format: str = "csv") -> list[Path]:
    """Write a reconstruction report; empty coherence column when phi unknown."""
    metadata = {"tool": "epmdiag", "version": __version__, "kind": "reconstruction",
                "error_family": report.error_family, "phi": report.phi,
                "theta_points": len(report.rows), "flags": report.flags}
    eta_norm = max_normalize(report.eta_curve())
    coh_curve = report.coherence_curve()
    coh_norm = max_normalize(np.nan_to_num(coh_curve)) if report.phi is not None else coh_curve

    def csv_lines():
        yield ("theta,p_chi_00,p_chi_01,p_chi_10,p_chi_11,g_chi_measured,g_chi_ideal,"
               "eta_chi_kernel,eta_chi_kernel_max_norm,coherence_kernel,"
               "coherence_kernel_max_norm,max_row_sum_error")
        for i, row in enumerate(report.rows):
            coherence = "" if row.coherence_kernel is None else _fmt(row.coherence_kernel)
            coherence_n = "" if report.phi is None else _fmt(coh_norm[i])
            yield ",".join([
                _fmt(row.theta),
                *(_fmt(p) for p in row.chi_pops),
                _fmt(row.g_chi_measured),
                _fmt(row.g_chi_ideal),
                _fmt(row.eta_kernel),
                _fmt(eta_norm[i]),
                coherence,
                coherence_n,
                _fmt(row.max_row_sum_error),
            ])

    def json_body():
        return {"rows": [
            {
                "theta": row.theta,
                "chi_populations": [float(p) for p in row.chi_pops],
                "g_chi_measured": row.g_chi_measured,
                "g_chi_ideal": row.g_chi_ideal,
                "eta_chi_kernel": row.eta_kernel,
                "eta_chi_kernel_max_norm": float(eta_norm[i]),
                "coherence_kernel": row.coherence_kernel,
                "coherence_kernel_max_norm": None if report.phi is None else float(coh_norm[i]),
                "max_row_sum_error": row.max_row_sum_error,
            }
            for i, row in enumerate(report.rows)
        ]}

    return _write_output(path, output_format, metadata, csv_lines, json_body)
