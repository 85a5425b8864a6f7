"""Fixed reference programs that gauge how fast the host runs right now.

    python3 perfbench/reference.py serial|blas WORK_DIR

`serial` does a fixed amount of the kinds of work the epmdiag CLI does on
one core, without importing epmdiag: interpreter start and the numpy
import, Philox normal draws and element-wise complex arithmetic on arrays
of a few thousand rows, many small-array calls, float formatting, and
writing, listing and parsing small text files. Nothing in it uses BLAS.

`blas` computes Haar averages over 5000 states as the fig1 path does:
Philox normal draws, complex matrix products that OpenBLAS spreads over
its threads as it finds them, and reductions. It gauges the host for
workloads whose time goes to this: their BLAS threads keep every core
busy, so they slow down when any core is contended.

The benchmark runs one of them between the CLI runs it times and divides
by its median time, which cancels a slow drift in the host's speed. The
programs never change with the code under test.
"""
import csv
import sys
from pathlib import Path

import numpy as np

ARRAY_ROUNDS = 360
SMALL_CALLS = 6000
PRODUCTS = 250
TEXT_ROWS = 15000
FILES = 300


def arrays() -> float:
    total = 0.0
    for i in range(ARRAY_ROUNDS):
        z = np.random.Generator(np.random.Philox(i)).standard_normal((2000, 8))
        psi = z[:, :4] + 1j * z[:, 4:]
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2, axis=1))[:, None]
        values = np.abs(psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2]) ** 2
        total += float(values.mean()) + float(np.std(values))
    return total


def small_calls() -> float:
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    total = 0.0
    for i in range(SMALL_CALLS):
        g = np.kron(np.eye(2), x * (i % 7))
        total += float(np.diag(g).sum()) + float(np.exp(-0.5 * g[0, 1]))
    return total


def text(work: Path) -> float:
    table = work / "reference.csv"
    with open(table, "w", encoding="utf-8") as handle:
        for i in range(TEXT_ROWS):
            x = (i * 0.6180339887498949) % 1.0
            handle.write(",".join(repr(x * k) for k in range(1, 7)) + "\n")
    total = 0.0
    with open(table, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            total += float(row[2])
    for i in range(FILES):
        (work / f"reference{i:03d}.csv").write_text(f"# n = {i}\nx,y\n{i},{i / 3!r}\n",
                                                      encoding="utf-8")
    for path in sorted(work.glob("reference*.csv")):
        total += len(path.read_text(encoding="utf-8"))
    return total


def products() -> float:
    """Haar averages as the fig1 path computes them, frozen here."""
    rng = np.random.default_rng(1)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    v = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    w = np.exp(-np.arange(4.0))
    total = 0.0
    for i in range(PRODUCTS):
        z = np.random.Generator(np.random.Philox(i)).standard_normal((5000, 8))
        states = z[:, :4] + 1j * z[:, 4:]
        states /= np.sqrt(np.sum(states.real**2 + states.imag**2, axis=1))[:, None]
        a, b = states @ u.T, states @ v.T
        values = (b.real**2 + b.imag**2) @ w - (a.real**2 + a.imag**2) @ w
        total += float(values.mean()) + float(np.std(values))
    return total


def main() -> int:
    kind, work = sys.argv[1], Path(sys.argv[2])
    if kind == "serial":
        work.mkdir(parents=True, exist_ok=True)
        total = arrays() + small_calls() + text(work)
    elif kind == "blas":
        total = products()
    else:
        print(f"unknown reference {kind!r}", file=sys.stderr)
        return 2
    print(repr(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
