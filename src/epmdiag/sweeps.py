"""Parameter sweeps over (theta, phi) grids and the figure presets.

A sweep evaluates Haar-averaged merits on a rectangular grid of ideal gate
angle theta and error parameter phi. Randomness is derived per grid point
from the master seed, so results are independent of worker count and
scheduling, and output files are byte-identical across runs. A row is
averaged in chunks of points with one Haar draw per chunk, shared by the
merits; every point of the draw keeps its own key.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import errno
import itertools
import json
import math
import operator
import os
import stat
import sys
from collections import namedtuple
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
    CHI_LABELS,
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
# Ceiling on grid points: each point holds its key and values (~0.13 kB at
# a run's peak) and costs at least ~17 us, so 10**6 points take ~0.13 GB and
# ~20 s at one sample; a larger request is far more likely a typo than a need.
MAX_GRID_POINTS = 10**6
# Ceiling on |angle| in radians: the gates take cos and sin of small
# multiples of an angle, which overflow to inf (and give nan) near the
# largest double; at 1e6 a double still resolves the angle to ~1e-10.
MAX_ANGLE = 1e6
# Ceiling on fig3 theta points: a point adds ~1.1 kB of peak RSS, as CSV or
# JSON, and ~25 us, so 10**5 points peak at ~0.14 GB and take ~2.5 s; a
# larger request is far more likely a typo than a need.
MAX_THETA_POINTS = 10**5
# Ceiling on --workers: each worker is a thread with its own draw buffer and
# malloc arena, so threads beyond the cores add memory and no speed; a larger
# request is far more likely a typo than a need.
MAX_WORKERS = 256
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
        if len(set(self.merits)) < len(self.merits):
            raise ValidationError("each merit may be requested once only")
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


# One point and merit of a sweep, as SweepResult.records lists them.
SweepRecord = namedtuple("SweepRecord", "theta phi merit mean std_error n_samples")


@dataclass(eq=False)
class SweepResult:
    """A sweep's config and its grid of Haar averages, one (mean, std_error) per point and merit."""

    config: SweepConfig
    values: np.ndarray  # float64, (theta, phi, merit, 2): values[i, j, m] is merits[m] at (i, j)

    @property
    def records(self) -> list[SweepRecord]:
        # only perfbench's traced run reads this (it compares two runs); ROADMAP item 1's PR B drops it
        rows = _sweep_rows(self.config, self.values)
        return [SweepRecord(*row, self.config.n_samples) for row in rows]


def _sweep_rows(config: SweepConfig, values: np.ndarray, axis=float):
    """(theta, phi, merit, mean, std_error) rows, a theta row at a time; `axis` maps theta, phi."""
    phis = [axis(phi) for phi in config.phis().tolist()]
    for theta, plane in zip(config.thetas().tolist(), values):
        theta = axis(theta)
        for phi, point in zip(phis, plane.tolist()):
            for kind, (mean, std_error) in zip(config.merits, point):
                yield theta, phi, kind.value, mean, std_error


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


def _evaluate_row(config: SweepConfig, theta: float, keys: list[int]) -> np.ndarray:
    """(phi, merit, 2) array of (mean, std_error) along one theta row.

    The row's noisy gates are built as one stack. Consecutive points of the
    row are averaged together, as many per call as fit in STATE_BUDGET
    states (at least one), and each call draws its points' states once for
    all the merits; each point keeps its own key.
    """
    u = g_gate(theta)
    noisy = ERROR_FAMILIES[config.error_family](theta, config.phis())
    hamiltonian = local_hamiltonian_2q()
    step = max(1, STATE_BUDGET // config.n_samples)
    row = np.empty((config.phi_points, len(config.merits), 2))
    for start in range(0, config.phi_points, step):
        per_merit = haar_average(tuple(config.merits), u, noisy[start:start + step], hamiltonian,
                                 n_samples=config.n_samples, seed=keys[start:start + step])
        # one run of floats, merit by merit, each a block of (mean, std_error) pairs
        flat = np.fromiter(itertools.chain.from_iterable(itertools.chain(*per_merit)), float)
        row[start:start + step] = flat.reshape(len(per_merit), -1, 2).swapaxes(0, 1)
    return row


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Evaluate every requested merit on the configured (theta, phi) grid.

    Workers > 1 fan theta rows out to a thread pool of at most one thread
    per row; per-point keys make the result identical for any worker count.
    """
    config.validate()
    if not 1 <= workers <= MAX_WORKERS:
        raise ValidationError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
    thetas = config.thetas().tolist()
    n = config.phi_points
    # the merit does not enter a key, so the first one stands for all
    keys = point_seed(config.master_seed, range(len(thetas) * n), config.merits[0])
    args = (itertools.repeat(config), thetas, [keys[i * n:(i + 1) * n] for i in range(len(thetas))])
    workers = min(workers, len(thetas))
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_evaluate_row, *args))
    else:
        rows = list(map(_evaluate_row, *args))
    return SweepResult(config=config, values=np.stack(rows))


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
    table: ProbabilityTable  # the five rows chi reads, as (n, 4) stacks of the measured tables
    chi_pops: np.ndarray  # (n, 4)
    g_chi_measured: np.ndarray
    g_chi_ideal: np.ndarray
    eta_kernel: np.ndarray
    coherence_kernel: np.ndarray | None
    max_row_sum_error: np.ndarray
    error_family: str
    phi: float | None
    flags: list[str]


def _stack(tables: list[ProbabilityTable]) -> ProbabilityTable:
    """One table whose rows, the five that chi reads, are (T, 4) stacks over `tables`."""
    for table in tables:
        table.require(CHI_LABELS)
    rows = np.array([[table.rows[label] for table in tables] for label in CHI_LABELS])
    return ProbabilityTable(rows=dict(zip(CHI_LABELS, rows.reshape(5, len(tables), 4))))


def _report(thetas: np.ndarray, measured, ideal, phi, error_family: str) -> ReconstructionReport:
    """The report's columns, with no flags, at ascending `thetas`: `measured()` returns the
    stacked table, and `ideal` lists the ideal tables (None: the perfect gate's). Both are
    stacked after the coherence batch; stacking first raised the peak RSS of `reconstruct`."""
    _check_angles([] if phi is None else [phi], "phi")
    hamiltonian = local_hamiltonian_2q()
    ideal_gates = g_gate(thetas)
    # one batched kernel call over every table's (ideal, noisy) gate pair
    coherence = None if phi is None else kernel_values(
        MeritKind.COHERENCE_FIDELITY, np.broadcast_to(plus_plus_state(), (len(thetas), 1, 4)),
        ideal_gates, ERROR_FAMILIES[error_family](thetas, phi))[:, 0]
    # a flagged row may hold values whose sums overflow, and the writer refuses what is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        g_ideal = g_chi_from_table(gate_probability_table(ideal_gates) if ideal is None
                                   else _stack(ideal), hamiltonian)
        del ideal_gates  # freed before the measured stack is built
        table = measured()
        pops = chi_populations(table)
        g_measured = g_chi_from_table(table, hamiltonian)
        row_error = np.max([np.abs(rows.sum(axis=1) - 1.0) for rows in table.rows.values()], 0)
    return ReconstructionReport(
        thetas=thetas, table=table, chi_pops=pops,
        g_chi_measured=g_measured, g_chi_ideal=g_ideal, eta_kernel=np.abs(g_measured - g_ideal),
        coherence_kernel=coherence, max_row_sum_error=row_error, error_family=error_family,
        phi=phi, flags=[])


def run_reconstruction(
    measured: list[tuple[float, ProbabilityTable]],
    ideal: list[ProbabilityTable] | None = None,
    phi: float | None = None,
    error_family: str = "axis",
) -> ReconstructionReport:
    """Recover chi populations, G_chi and the eta_chi kernel per theta point.

    `measured` pairs each table with its theta. The k-th table of `ideal`
    goes with the k-th measured table; when `ideal` is None the ideal
    tables, of the perfect gate at every theta, are built as one stacked
    table. Rows come out sorted by theta. A theory coherence-mismatch
    curve is included when phi is given. The columns come from one stack.
    """
    if error_family not in ERROR_FAMILIES:
        raise ValidationError(f"unknown error family {error_family!r}")
    _check_angles([theta for theta, _ in measured], "theta")
    if ideal is not None and len(ideal) != len(measured):
        raise ValidationError(f"{len(measured)} measured tables but {len(ideal)} ideal tables")
    order = sorted(range(len(measured)), key=lambda k: measured[k][0])
    thetas = [measured[k][0] for k in order]
    tables = [measured[k][1] for k in order]
    ideal_tables = None if ideal is None else [ideal[k] for k in order]
    report = _report(np.array(thetas, dtype=float), lambda: _stack(tables), ideal_tables, phi,
                     error_family)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, table in enumerate(tables):
            if len(table.rows) > 5:  # its rows outside the five count too
                report.max_row_sum_error[i] = max(abs(float(np.sum(row)) - 1.0)
                                                  for row in table.rows.values())
    groups = [("", tables)] + ([] if ideal is None else [("ideal ", ideal_tables)])
    report.flags = [f"theta {theta!r}: {kind}{flag}" for i, theta in enumerate(thetas)
                    for kind, group in groups for flag in group[i].flags]
    return report


def preset_fig3(theta_points: int = 50, phi: float = math.pi / 9) -> ReconstructionReport:
    """Single-state diagnostics for the axis error on theta in [0, pi/4].

    The reconstruction of noise-free synthetic tables, built as one stacked
    table: its rows are the conditional probabilities, and the report's
    kernels are the |++>-state eta_chi and coherence-mismatch curves.
    """
    if not 1 <= theta_points <= MAX_THETA_POINTS:
        raise ValidationError(f"theta_points must be in [1, {MAX_THETA_POINTS}], "
                              f"got {theta_points}")
    thetas = np.linspace(0.0, math.pi / 4, theta_points)
    return _report(thetas, lambda: gate_probability_table(v_axis(thetas, phi)), None, phi, "axis")


# ---------------------------------------------------------------------------
# Writers. Floats are rendered with repr() so identical results produce
# byte-identical files.
# ---------------------------------------------------------------------------

def _csv_lines(header: str, values: np.ndarray, lines):
    """`header`, then `lines`, which print the floats of `values`; one test of `values` at the
    first line drawn refuses the first non-finite value in row order before any line goes."""
    finite = np.isfinite(values)
    if not finite.all():
        value = values[~finite][0].item()
        raise ValidationError(f"refusing to write the non-finite value {value!r} as CSV")
    yield header
    yield from lines


class _Items(list):
    """An iterable as a list to the JSON encoder, which writes a list it finds empty as []
    before iterating it: it holds the iterable's first item, if any, and iterating it draws
    the rest from the iterable as the encoder writes them."""

    def __init__(self, iterable):
        self.rest = iter(iterable)
        super().__init__(itertools.islice(self.rest, 1))

    def __iter__(self):
        return itertools.chain(super().__iter__(), self.rest)


def _json_chunks(doc: dict):
    """`doc` as indented JSON plus a newline, in the encoder's chunks. An ndarray goes as its
    list; any other iterable, a generator say, as a list of its items, each made when written."""
    try:
        yield from json.JSONEncoder(
            allow_nan=False, indent=2,
            default=lambda value: value.tolist() if isinstance(value, np.ndarray) else _Items(value),
        ).iterencode(doc)
    except ValueError:
        raise ValidationError("refusing to write a non-finite value as JSON") from None
    yield "\n"


def _sidecar(path: Path) -> Path:
    """The `.meta.json` file that goes with a CSV at `path`."""
    return path.with_name(path.stem + ".meta.json")


def _write_output(path, output_format: str, metadata: dict | None, lines, body: dict) -> list[Path]:
    """Write one result as CSV plus a `.meta.json` sidecar, or as one JSON file; with
    `path` None, print the CSV or the JSON document, built whole before it is printed.

    The metadata block is "tool" and "version", then `metadata`; with `metadata` None
    there is no block and no sidecar. `lines` yields the CSV lines, header first, and
    `body` holds the JSON document's entries after "metadata", as arrays and generators
    the encoder lists as it writes them. Both are lazy, so nothing is made of the format
    that is not asked for. Each file is streamed into a temporary file beside it and all
    are moved into place once complete. A temporary's name is random and of fixed length,
    so a target name near the longest one the file system allows is not refused for its
    temporary's sake.
    """
    sidecar = []
    if metadata is not None:
        metadata = {"tool": "epmdiag", "version": __version__, **metadata}
        sidecar = [_json_chunks(metadata)]  # a generator: nothing is made unless it is written
    if output_format == "json":
        texts = [_json_chunks(body if metadata is None else {"metadata": metadata, **body})]
    elif output_format == "csv":
        texts = [(line + "\n" for line in lines), *sidecar]
    else:
        raise ValidationError(f"unknown output format {output_format!r}")
    if path is None:
        sys.stdout.write("".join(texts[0]))
        return []
    path = Path(path)
    texts = dict(zip([path, _sidecar(path)], texts))
    temps = []
    try:
        for target, chunks in texts.items():
            target.parent.mkdir(parents=True, exist_ok=True)
            with contextlib.suppress(FileNotFoundError):  # a name too long fails here, before any move
                if stat.S_ISDIR(os.lstat(target).st_mode):  # refused before any file is moved
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
            temp = target.with_name(f".{os.urandom(6).hex()}.tmp")
            with open(temp, "x", encoding="utf-8") as file:  # the mode write_text gives
                temps.append(temp)
                # joined a thousand at a time: one write per JSON token or CSV line is slower
                for batch in iter(lambda: list(itertools.islice(chunks, 1024)), []):
                    file.write("".join(batch))
        for temp, target in zip(temps, texts):
            os.replace(temp, target)
    finally:  # only the temporary files of a failed write are still there
        for temp in temps:
            temp.unlink(missing_ok=True)
    return list(texts)


def write_sweep(result: SweepResult, path, output_format: str = "csv") -> list[Path]:
    """Write a sweep as long-format CSV (+ JSON sidecar) or as one JSON file."""
    config = result.config.validate()  # theta and phi go out unchecked: refuse what run_sweep would
    phi_lo, phi_hi = config.phi_bounds()
    metadata = {"kind": "sweep", "error_family": config.error_family,
                "theta": {"lo": config.theta_lo, "hi": config.theta_hi,
                          "points": config.theta_points},
                "phi": {"lo": phi_lo, "hi": phi_hi, "points": config.phi_points},
                "merits": [m.value for m in config.merits], "n_samples": config.n_samples,
                "master_seed": config.master_seed,
                "grid_points": config.theta_points * config.phi_points}
    columns = ("theta", "phi", "merit", "mean", "std_error", "n_samples")
    lines = (f"{theta},{phi},{merit},{mean!r},{std_error!r},{config.n_samples}"
             for theta, phi, merit, mean, std_error in _sweep_rows(config, result.values, axis=repr))
    records = (dict(zip(columns, (*row, config.n_samples)))
               for row in _sweep_rows(config, result.values))
    return _write_output(path, output_format, metadata,
                         _csv_lines(",".join(columns), result.values, lines), {"records": records})


def fig3_series(report: ReconstructionReport) -> list[tuple[str, np.ndarray]]:
    """Flatten a fig3 report into (series name, values) pairs: the tables'
    conditional probabilities, then the kernels and their max-normalized copies."""
    if report.coherence_kernel is None:
        raise ValidationError("fig3 series need the coherence curve of a report made with phi")
    series = [(f"p({outcome}|{label})", rows[:, col])
              for label, rows in report.table.rows.items()
              for col, outcome in enumerate(BASIS_LABELS)]
    kernels = [("eta_chi_kernel", report.eta_kernel), ("coherence_kernel", report.coherence_kernel)]
    return series + kernels + [(name + "_max_norm", max_normalize(values))
                               for name, values in kernels]


def write_fig3(report: ReconstructionReport, path, output_format: str = "csv") -> list[Path]:
    """Write a fig3 report as long-format theta,series,value rows."""
    metadata = {"kind": "fig3", "phi": report.phi, "theta_points": len(report.thetas)}
    series = fig3_series(report)

    def lines():
        matrix = np.column_stack([report.thetas] + [v for _, v in series])
        # one .tolist() per theta row: the whole grid as Python floats would set the peak RSS
        rows = ((repr(theta), values) for theta, *values in map(np.ndarray.tolist, matrix))
        yield from _csv_lines("theta,series,value", matrix, (f"{theta},{name},{value!r}"
                              for theta, values in rows for (name, _), value in zip(series, values)))

    return _write_output(path, output_format, metadata, lines(),
                         {"thetas": report.thetas, "series": dict(series)})


def write_reconstruction(report: ReconstructionReport, path, output_format: str = "csv") -> list[Path]:
    """Write a reconstruction report; empty coherence cells when phi is unknown."""
    metadata = {"kind": "reconstruction", "error_family": report.error_family,
                "phi": report.phi, "theta_points": len(report.thetas), "flags": report.flags}
    coherence = report.coherence_kernel
    columns = {
        "theta": report.thetas,
        "chi_populations": report.chi_pops,
        "g_chi_measured": report.g_chi_measured,
        "g_chi_ideal": report.g_chi_ideal,
        "eta_chi_kernel": report.eta_kernel,
        "eta_chi_kernel_max_norm": max_normalize(report.eta_kernel),
        "coherence_kernel": coherence,
        "coherence_kernel_max_norm": None if coherence is None else max_normalize(coherence),
        "max_row_sum_error": report.max_row_sum_error,
    }
    header = ",".join(columns).replace("chi_populations",
                                       ",".join(f"p_chi_{b}" for b in BASIS_LABELS))

    def lines():
        matrix = np.column_stack([v for v in columns.values() if v is not None])
        line = ",".join(["{!r}"] * 9 + ["" if coherence is None else "{!r}"] * 2 + ["{!r}"])
        yield from _csv_lines(header, matrix, (line.format(*row) for row in matrix.tolist()))

    def rows():  # lists of Python floats, made only for JSON
        lists = [[None] * len(report.thetas) if v is None else v.tolist() for v in columns.values()]
        yield from (dict(zip(columns, row)) for row in zip(*lists))

    return _write_output(path, output_format, metadata, lines(), {"rows": rows()})
