"""Output checks. Each returns a list of problems; an empty list means correct.

Sweep outputs are checked for a complete, finite surface on the expected
grid, for the exact zero-error null in the phi = 0 column, for bit-exact
agreement of sampled rows with an in-process evaluation, and for
statistical agreement with an independent estimate built from the
element-sum references over separately drawn Haar states. Reconstruction
outputs are checked row by row against the generated tables.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from epmdiag.element_sums import element_sum_kernel
from epmdiag.energetics import local_hamiltonian_2q
from epmdiag.gates import g_gate
from epmdiag.linalg import plus_plus_state
from epmdiag.merit import MeritKind, haar_average, kernel_values
from epmdiag.sweeps import ERROR_FAMILIES, point_seed

SWEEP_HEADER = ["theta", "phi", "merit", "mean", "std_error", "n_samples"]
RECONSTRUCTION_HEADER = [
    "theta", "p_chi_00", "p_chi_01", "p_chi_10", "p_chi_11", "g_chi_measured",
    "g_chi_ideal", "eta_chi_kernel", "eta_chi_kernel_max_norm", "coherence_kernel",
    "coherence_kernel_max_norm", "max_row_sum_error",
]
# Agreement with the independent estimate, in combined standard errors.
Z_LIMIT = 5.0
INDEPENDENT_STATES = 1000
EXACT_POINTS = 8
INDEPENDENT_POINTS = 3
KERNEL_TOLERANCE = 1e-9


def sha256_files(paths) -> dict[str, str]:
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def sidecar_of(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def _read_csv(path: Path, header: list[str]) -> tuple[list[list[str]], list[str]]:
    if not path.is_file():
        return [], [f"missing output {path.name}"]
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        return [], [f"{path.name}: bad header {rows[:1]!r}"]
    problems = [f"{path.name}: row {i} has {len(r)} fields" for i, r in enumerate(rows[1:], 1)
                if len(r) != len(header)]
    return rows[1:], problems


def _haar_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random two-qubit states drawn independently of epmdiag.linalg."""
    gauss = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    return gauss / np.linalg.norm(gauss, axis=1)[:, None]


def check_sweep(out: Path, spec, seed: int) -> list[str]:
    """Check a sweep CSV (plus sidecar) written for `spec` with master seed `seed`."""
    rows, problems = _read_csv(out, SWEEP_HEADER)
    if problems or not rows:
        return problems or [f"{out.name}: no rows"]
    config = spec.config(seed)
    thetas, phis = config.thetas(), config.phis()
    family = ERROR_FAMILIES[config.error_family]
    merits = [m.value for m in spec.merits]
    expected = len(thetas) * len(phis) * len(merits)
    if len(rows) != expected:
        return [f"{out.name}: {len(rows)} rows, expected {expected}"]

    values = {}
    for index, row in enumerate(rows):
        gi, mi = divmod(index, len(merits))
        i, j = divmod(gi, len(phis))
        grid = (repr(float(thetas[i])), repr(float(phis[j])), merits[mi])
        if tuple(row[:3]) != grid:
            problems.append(f"row {index + 1} is {row[:3]}, expected {list(grid)}")
            break
        try:
            mean, std_error = float(row[3]), float(row[4])
        except ValueError:
            problems.append(f"row {index + 1} has non-numeric values {row[3:5]}")
            break
        if not (math.isfinite(mean) and math.isfinite(std_error)) or row[5] != str(spec.samples):
            problems.append(f"row {index + 1} is not a finite {spec.samples}-sample value: {row}")
            break
        if j == 0 and (mean != 0.0 or std_error != 0.0):
            problems.append(f"row {index + 1}: zero-error null is {mean!r}, not exactly 0")
        values[gi, merits[mi]] = (row[3], row[4], mean, std_error)
    if problems:
        return problems

    sidecar = sidecar_of(out)
    try:
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"sidecar {sidecar.name} unreadable: {exc}"]
    if meta.get("grid_points") != len(thetas) * len(phis) or meta.get("master_seed") != seed:
        problems.append(f"sidecar {sidecar.name} does not describe this sweep")

    rng = np.random.default_rng([seed, 0x5EED])
    n_points = len(thetas) * len(phis)
    hamiltonian = local_hamiltonian_2q()

    # Bit-exact rows: the CLI (any worker count) must match in-process evaluation.
    picks = {0, n_points - 1, *rng.choice(n_points, min(EXACT_POINTS, n_points), replace=False)}
    for gi in sorted(int(p) for p in picks):
        i, j = divmod(gi, len(phis))
        theta, phi = float(thetas[i]), float(phis[j])
        for kind in spec.merits:
            avg = haar_average(kind, g_gate(theta), family(theta, phi), hamiltonian,
                               n_samples=spec.samples, seed=point_seed(seed, gi, kind))
            written, expected = values[gi, kind.value][:2], (repr(avg.mean), repr(avg.std_error))
            if written != expected:
                problems.append(f"grid point {gi} {kind.value}: wrote {written}, "
                                f"in-process evaluation gives {expected}")

    # Statistical agreement with element-sum kernels over independent states.
    off_null = [gi for gi in range(n_points) if gi % len(phis) != 0]
    count = min(INDEPENDENT_POINTS, len(off_null))
    for gi in rng.choice(off_null, count, replace=False):
        gi = int(gi)
        i, j = divmod(gi, len(phis))
        theta, phi = float(thetas[i]), float(phis[j])
        u, v = g_gate(theta), family(theta, phi)
        states = _haar_states(rng, INDEPENDENT_STATES)
        for kind in spec.merits:
            sample = np.array([element_sum_kernel(kind, s, u, v, hamiltonian) for s in states])
            ind_mean, ind_sd = float(sample.mean()), float(sample.std(ddof=1))
            _, _, mean, std_error = values[gi, kind.value]
            # The kernels are skewed, so a small CLI sample can miss the tail
            # and understate its own error; the larger sample's spread bounds it.
            cli_se = max(std_error, ind_sd / math.sqrt(spec.samples))
            limit = Z_LIMIT * math.hypot(cli_se, ind_sd / math.sqrt(len(sample))) + 1e-12
            if abs(mean - ind_mean) > limit:
                problems.append(f"grid point {gi} {kind.value}: mean {mean!r} disagrees with "
                                f"independent estimate {ind_mean!r} beyond {limit!r}")
    return problems


def check_reconstruction(out: Path, stderr_text: str, tables) -> list[str]:
    """Check a reconstruction CSV and the CLI's warnings against the generated tables."""
    rows, problems = _read_csv(out, RECONSTRUCTION_HEADER)
    if problems:
        return problems
    if len(rows) != len(tables.thetas):
        return [f"{out.name}: {len(rows)} rows, expected {len(tables.thetas)}"]
    warnings = [line for line in stderr_text.splitlines() if line.startswith("warning: ")]
    if len(warnings) != tables.perturbed_rows:
        problems.append(f"{len(warnings)} warnings for {tables.perturbed_rows} perturbed rows")

    hamiltonian = local_hamiltonian_2q()
    weights = hamiltonian.exp_diag(-1.0)
    moment = float(np.sum(np.abs(plus_plus_state()) ** 2 * hamiltonian.exp_diag(1.0)))
    family = ERROR_FAMILIES[tables.error_family]
    for index, (row, theta) in enumerate(zip(rows, tables.thetas)):
        if row[0] != repr(theta):
            problems.append(f"row {index + 1}: theta {row[0]}, expected {theta!r}")
            break
        try:
            numbers = [float(x) for x in row[1:]]
        except ValueError:
            problems.append(f"row {index + 1} has non-numeric values")
            break
        if not all(math.isfinite(x) for x in numbers):
            problems.append(f"row {index + 1} has non-finite values")
            break
        probs = tables.probabilities[index]
        chi = probs[4] - probs[:4].sum(axis=0) / 4.0
        g_measured = moment * float(np.sum(weights * chi))
        if abs(numbers[4] - g_measured) > KERNEL_TOLERANCE:
            problems.append(f"row {index + 1}: g_chi_measured {row[5]}, tables give {g_measured!r}")
        if tables.noise_free[index]:
            exact = float(kernel_values(MeritKind.ETA_CHI, plus_plus_state(), g_gate(theta),
                                        family(theta, tables.phi), hamiltonian)[0])
            if abs(numbers[6] - exact) > KERNEL_TOLERANCE:
                problems.append(f"row {index + 1}: eta_chi_kernel {row[7]}, "
                                f"kernel_values gives {exact!r}")
        if len(problems) > 10:
            break
    return problems
