"""The benchmark's workloads: inputs made from the seed, commands and checks.

Every workload is one `epmdiag` CLI command. Its set-up command is the same
command on a minimal input (a 1x1 grid with one sample, or one table), so
set-up time covers interpreter start, imports, argument parsing, pool
start-up and a trivial write.
"""
from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from epmdiag.merit import MeritKind
from epmdiag.sweeps import ERROR_FAMILIES, SweepConfig

import checks

# Every workload uses the axis error, the family of fig1 panel b.
ERROR_FAMILY = "axis"
# Reconstruct inputs: counting shots per table row, the share of exact
# (noise-free) tables, and the share of noisy rows pushed out of the CLI's
# default 2 % row-sum tolerance.
SHOTS = 4096
NOISE_FREE_SHARE = 0.1
PERTURBED_SHARE = 0.02


class Prepared:
    """A workload's command made concrete for one seed inside one work directory."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.setup_out = work / "setup.csv"
        self.out = work / "out.csv"

    def outputs(self) -> list[Path]:
        return [self.out, checks.sidecar_of(self.out)]


@dataclass(frozen=True)
class SweepSpec:
    """A `fig1` or `sweep` command on a square (theta, phi) grid."""

    command: str  # "fig1" or "sweep"
    resolution: int
    samples: int
    workers: int
    merits: tuple[MeritKind, ...]

    @property
    def items(self) -> int:
        return self.resolution**2 * len(self.merits)

    def config(self, seed: int) -> SweepConfig:
        """The in-process equivalent of the command."""
        return SweepConfig(error_family=ERROR_FAMILY, theta_points=self.resolution,
                           phi_points=self.resolution, merits=self.merits,
                           n_samples=self.samples, master_seed=seed)

    def command_argv(self, seed: int, out: Path, minimal: bool = False) -> list[str]:
        resolution, samples = (1, 1) if minimal else (self.resolution, self.samples)
        if self.command == "fig1":
            head = ["fig1", "--panel", "b"]
        else:  # the CLI's default merits, which `merits` must list
            head = ["sweep", "--error", ERROR_FAMILY]
        return head + ["--resolution", str(resolution), "--samples", str(samples),
                       "--workers", str(self.workers), "--seed", str(seed), "--out", str(out)]

    def prepare(self, seed: int, work: Path) -> PreparedSweep:
        return PreparedSweep(self, seed, work)


class PreparedSweep(Prepared):
    def __init__(self, spec: SweepSpec, seed: int, work: Path):
        super().__init__(seed, work)
        self.spec = spec

    def argv(self, minimal: bool = False) -> list[str]:
        return self.spec.command_argv(self.seed, self.setup_out if minimal else self.out,
                                      minimal)

    def check(self, stderr_text: str) -> list[str]:
        return checks.check_sweep(self.out, self.spec, self.seed)


@dataclass(frozen=True)
class ReconstructSpec:
    """A `reconstruct` command over seeded probability tables."""

    tables: int

    @property
    def items(self) -> int:
        return self.tables

    def prepare(self, seed: int, work: Path) -> PreparedReconstruct:
        """Generate the tables for `seed`; nothing here is timed."""
        return PreparedReconstruct(generate_tables(self, seed, work / "tables"), seed, work)


@dataclass
class Tables:
    """Generated reconstruct inputs and what the output must show for them."""

    paths: list[Path]
    thetas: list[float]  # ascending, as the report orders its rows
    phi: float
    probabilities: np.ndarray  # (tables, 5, 4), rows 00, 01, 10, 11, ++
    noise_free: np.ndarray  # (tables,) bool
    perturbed_rows: int
    error_family: str


class PreparedReconstruct(Prepared):
    def __init__(self, tables: Tables, seed: int, work: Path):
        super().__init__(seed, work)
        self.tables = tables

    def argv(self, minimal: bool = False) -> list[str]:
        measured = self.tables.paths[:1] if minimal else self.tables.paths
        out = self.setup_out if minimal else self.out
        return ["reconstruct", "--measured", *map(str, measured),
                "--phi", repr(self.tables.phi), "--out", str(out)]

    def check(self, stderr_text: str) -> list[str]:
        return checks.check_reconstruction(self.out, stderr_text, self.tables)


def generate_tables(spec: ReconstructSpec, seed: int, directory: Path) -> Tables:
    """Write seeded probability-table CSVs with shot noise and perturbed rows.

    A share of tables is exact (noise-free). The others carry multinomial
    counting noise with SHOTS shots per row, and a share of their
    rows is scaled down by 4-12 %, which puts the row sum outside the
    CLI's default 2 % tolerance and makes it warn exactly once per row.
    """
    rng = np.random.default_rng([seed, 0x7AB1E5])
    n = spec.tables
    phi = float(rng.uniform(0.2, 1.4))
    thetas = np.sort(rng.uniform(0.0, math.pi, n))
    if len(np.unique(thetas)) != n:
        raise RuntimeError("generated thetas collide; choose another seed")
    inputs = np.vstack([np.eye(4), np.full(4, 0.5)])  # 00, 01, 10, 11, ++
    family = ERROR_FAMILIES[ERROR_FAMILY]
    exact = np.array([np.abs(inputs @ family(float(t), phi).T) ** 2 for t in thetas])

    noise_free = np.zeros(n, dtype=bool)
    noise_free[rng.choice(n, max(1, round(NOISE_FREE_SHARE * n)), replace=False)] = True
    probabilities = exact.copy()
    noisy = np.flatnonzero(~noise_free)
    for t in noisy:
        for r in range(5):
            p = exact[t, r] / exact[t, r].sum()
            probabilities[t, r] = rng.multinomial(SHOTS, p) / SHOTS
    noisy_rows = [(int(t), r) for t in noisy for r in range(5)]
    count = max(1, round(PERTURBED_SHARE * len(noisy_rows)))
    for k in rng.choice(len(noisy_rows), count, replace=False):
        t, r = noisy_rows[int(k)]
        probabilities[t, r] *= 1.0 - rng.uniform(0.04, 0.12)

    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    paths = []
    labels = ("00", "01", "10", "11", "++")
    for t, theta in enumerate(thetas):
        lines = [f"# theta = {float(theta)!r}", f"# phi = {phi!r}", "input,p00,p01,p10,p11"]
        lines += [label + "," + ",".join(repr(float(x)) for x in probabilities[t, r])
                  for r, label in enumerate(labels)]
        path = directory / f"t{t:05d}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return Tables(paths=paths, thetas=[float(t) for t in thetas], phi=phi,
                  probabilities=probabilities, noise_free=noise_free,
                  perturbed_rows=count, error_family=ERROR_FAMILY)


@dataclass
class Workload:
    """One named workload; BENCHMARK.json records why it was chosen."""

    name: str
    spec: SweepSpec | ReconstructSpec
    # The reference.py program that gauges the host for this workload: "blas"
    # where the time goes to matrix products on OpenBLAS threads, else "serial".
    reference: str = "serial"

    @property
    def items(self) -> int:
        return self.spec.items

    def prepare(self, seed: int, work: Path) -> Prepared:
        """Make the workload's inputs for `seed`; nothing here is timed."""
        work.mkdir(parents=True, exist_ok=True)
        return self.spec.prepare(seed, work)


def _workloads(fig1: tuple[int, int], sweep: tuple[int, int], tables: int) -> dict[str, Workload]:
    b = (MeritKind.ETA_CHI,)
    default = (MeritKind.COHERENCE_FIDELITY, MeritKind.ETA_CHI)
    items = [
        Workload("fig1-b-serial", SweepSpec("fig1", *fig1, workers=1, merits=b), "blas"),
        # Not declared in BENCHMARK.json: with the BLAS threads oversubscribing the
        # pool, its runs are long and vary so much that its spread exceeds any
        # bound the benchmark may set.
        Workload("fig1-b-parallel", SweepSpec("fig1", *fig1, workers=2, merits=b), "blas"),
        Workload("sweep-fine", SweepSpec("sweep", *sweep, workers=1, merits=default)),
        Workload("reconstruct", ReconstructSpec(tables)),
    ]
    return {w.name: w for w in items}


# (resolution, samples) per sweep workload, and the table count.
FULL = _workloads(fig1=(41, 5000), sweep=(81, 100), tables=5000)
TINY = _workloads(fig1=(3, 200), sweep=(4, 20), tables=20)
SCALES = {"full": FULL, "tiny": TINY}

