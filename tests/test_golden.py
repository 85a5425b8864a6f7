"""Golden output bytes: sha256 digests of CLI output files for pinned runs.

Each case runs the `epmdiag` CLI in-process and hashes every file it
writes: small sweeps for both error families with all six merits, one
fig3, and a reconstruction over synthetic tables with and without phi,
each as CSV (+ sidecar) and as JSON. A fig3 of a single theta point and a
reconstruction given the ideal tables of the perfect gate pin the one-row
normalization and the explicit ideal path, also in both formats. Two more
CSV reconstructions pin the loader's row sums: tables of every
separable-plan row in shuffled order, where the worst row-sum error lies
outside the five rows G_chi reads, and `--renormalize` on rows off their
sums. Three more CSV sweeps sit on the
edges of how a theta row is split into evaluation calls: one sample per
point, more samples than one call holds, and rows of five points split
unevenly, on a grid with theta from exactly 0 and phi symmetric about an
exact 0.0. `haar-avg` (CSV and JSON) and `protocol` (separable with
waveplate settings, and straightforward) pin the two commands that print
their output unless given `--out`. The digests depend on the numpy/BLAS
build that computed them, so the test skips when numpy is a different
version. They also depend on the SIMD code numpy dispatches to: where the
CPU has FMA (x86-64-v3 and up), numpy's complex multiply rounds its real
part as fma(ar, br, -(ai bi)), and with those targets disabled
(NPY_DISABLE_CPU_FEATURES) the sweep, fig3 and haar-avg digests come out
different on the same numpy. So the test probes one product, and where
its real part is not rounded once it skips those cases by name and runs
the others. Regenerate a digest only together with a CHANGES.md entry
that declares the byte change.
"""
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from epmdiag.cli import main
from epmdiag.gates import g_gate, v_axis
from epmdiag.merit import MeritKind
from epmdiag.reconstruct import protocol_plan
from helpers import table_from_plan

NUMPY_VERSION = "2.4.6"
# the cases whose digests were made with an FMA-rounded complex multiply
FMA_CASES = {"sweep-axis-csv", "sweep-axis-json", "sweep-angle-csv", "sweep-angle-json",
             "fig3-csv", "fig3-json", "haar-avg-csv", "haar-avg-json", "sweep-one-sample-csv",
             "sweep-one-point-per-call-csv", "sweep-uneven-rows-csv"}

GOLDEN = {
    "sweep-axis-csv": {
        "out.csv": "096c3e4947085a5ed127cc06741001d56b7f3ee537efa7d0059ca4d2865fedc8",
        "out.meta.json": "eb0fb84c8dc2c36803ec74a07fe1edecdb7debe445b6d8a03e97bbf8bb49a66c",
    },
    "sweep-axis-json": {
        "out.json": "dca13ad92862cd07c8a910b43c8c3625dab3f165c3f2d84d48b912146f4b943f",
    },
    "sweep-angle-csv": {
        "out.csv": "d4538eef9cdab7edf88470c75436ce7f16fb9cad8711c775562e2740e0736cb5",
        "out.meta.json": "e714cf03ccb7e97c7788bb7451cc0208cd225a91db9b37492dc3a43920d86a10",
    },
    "sweep-angle-json": {
        "out.json": "3312ba812d973d4620aaf76ec509297c9018d1254e2e391019586603b2b5dd49",
    },
    "fig3-csv": {
        "out.csv": "e3b7c90a7a17bed9c0a019c1739f5f17a1aab1744c192c74d36bd07bc4c4bf49",
        "out.meta.json": "7c91f5c7e6d6f46e1a07c06fb7cbc28b5460a53bcc62f4ebc8e18675b714a5a6",
    },
    "fig3-json": {
        "out.json": "6cdb7a79e9b714ae426cdea06aa66750fc98abb11ce9c2c445a16fa302491731",
    },
    "fig3-one-point-csv": {
        "out.csv": "1059b4cab7732b5982e68b377e416545fea54e2c865265ea15cc0289726f962f",
        "out.meta.json": "902fc64001ed830ebd1ec35f722a82a7409fbabcfada30e0b055fa9658cb286a",
    },
    "fig3-one-point-json": {
        "out.json": "74cbda799739e2aa5db1c2fa8c9c519d12d01d13240eec2bfeafb865c6d6e4d3",
    },
    "reconstruct-phi-csv": {
        "out.csv": "dc41460942d05b4fab0d0cca7c7f716db0ea04463e78cece181756736c3f203b",
        "out.meta.json": "9721d97e59cc08416176b5d594b7d6c22f35be4b8d281c552f26880461035a03",
    },
    "reconstruct-phi-json": {
        "out.json": "2a036a3efb24bb58920259343569f71ec1bce9f7db78dc7cb2d3afa49a516417",
    },
    "reconstruct-nophi-csv": {
        "out.csv": "7b69b4e035e730da6113a653e86656822577f63ed691cffa1dcba480fcadb3d1",
        "out.meta.json": "6b83187df02bdaa1122495e31d1907ed41a47a7f292e5bb6dd30c495f77fe2f7",
    },
    "reconstruct-nophi-json": {
        "out.json": "4cc541dd9693ef0b7bfe31ad092612f960c2b7615c80adf88d92255a812255ea",
    },
    # the same bytes as reconstruct-phi: the given ideal tables are the synthesized ones
    "reconstruct-ideal-csv": {
        "out.csv": "dc41460942d05b4fab0d0cca7c7f716db0ea04463e78cece181756736c3f203b",
        "out.meta.json": "9721d97e59cc08416176b5d594b7d6c22f35be4b8d281c552f26880461035a03",
    },
    "reconstruct-ideal-json": {
        "out.json": "2a036a3efb24bb58920259343569f71ec1bce9f7db78dc7cb2d3afa49a516417",
    },
    "reconstruct-extra-rows-csv": {
        "out.csv": "3f3ffefd6b75f22a465f4adf1987bb8cd1a6783501b7c7d37cdf39c03c753cfa",
        "out.meta.json": "0ecadf4751d6e435c3b0fbed27ce328ab70dd7fdb49493f1a6116d1e21e50a3c",
    },
    "reconstruct-renormalize-csv": {
        "out.csv": "28f234a16a42a5ec6f906906964066730bfa9911e3830bf5cfe8338917e373b8",
        "out.meta.json": "176036dc93fad22febd0622d0eb8e820de6bdd66a78fe818841b6baa2fcf793e",
    },
    "sweep-one-sample-csv": {
        "out.csv": "4db97a5626c7d62ef534c7872738993f170b663939dc7458104486f1ba84e30c",
        "out.meta.json": "22fd3b37f624894c02bd98d10e693bcb33c27d44e3bc1cc6517b58a4e236ffb0",
    },
    "sweep-one-point-per-call-csv": {
        "out.csv": "242d73fdff60ee5fe89f0443592c906fcd3cb728ba26013b4dbc4c21233d4894",
        "out.meta.json": "faa4f4dff9bf3031043643ff5b30bed8a475f0104823f3e88f1b70fd697f11dd",
    },
    "sweep-uneven-rows-csv": {
        "out.csv": "21cf3845c66cf7c4aad17d075d4be0f7362aa726f050eddb2a1864a5f8a77af6",
        "out.meta.json": "ee8aa8878a9ba2ab07d1cdff4646e56a0f73397af51b9d7d681e236943f48aeb",
    },
    "haar-avg-csv": {
        "out.csv": "d4338d0fabdcf0adc512eb5de070d476161f8a91ec3967b3d6731da6e1eeb81b",
    },
    "haar-avg-json": {
        "out.json": "839e1fcd87002126002bb2effdc4c2375fd01383c92e981aa89b33242ab0fe2c",
    },
    "protocol-separable-json": {
        "out.json": "e5e3828767eb0d4f88a4d41cd540aab8576edf8f52433947e6d288112d636f67",
    },
    "protocol-straightforward-json": {
        "out.json": "f97a64253c3ccade8ea6c09fee6703ee5ab5e8c0c28ef6330f1314cbb641bb96",
    },
}

TABLE_PHI = 0.35
TABLE_THETAS = np.linspace(0.05, 1.2, 7)


# (table, row, factor): the rows pushed off their sums; row 4 is ++
OFF_ROWS = ((3, 4, 0.9),)
# for --renormalize: one above its sum, one nearly in tolerance, one halved
RENORMALIZE_OFF_ROWS = ((3, 4, 0.9), (1, 0, 1.07), (5, 2, 0.975), (6, 1, 0.5))


def _write_table_files(directory, tables):
    """One CSV per (theta, [(label, row), ...]) of `tables`; the paths as str."""
    directory.mkdir()
    paths = []
    for i, (theta, rows) in enumerate(tables):
        lines = [f"# theta = {float(theta)!r}", "input,p00,p01,p10,p11"]
        lines += [label + "," + ",".join(repr(float(p)) for p in row) for label, row in rows]
        path = directory / f"t{i}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def _write_tables(directory, ideal=False, off_rows=OFF_ROWS):
    """Seven five-row tables of the axis-error gate, the `off_rows` scaled off
    their sums; with `ideal`, the exact tables of the perfect gate."""
    inputs = np.vstack([np.eye(4), np.full(4, 0.5)])
    tables = []
    for i, theta in enumerate(TABLE_THETAS):
        gate = g_gate(float(theta)) if ideal else v_axis(float(theta), TABLE_PHI)
        probabilities = np.abs(inputs @ gate.T) ** 2
        for table, row, factor in () if ideal else off_rows:
            if table == i:
                probabilities[row] *= factor
        tables.append((theta, zip(("00", "01", "10", "11", "++"), probabilities)))
    return _write_table_files(directory, tables)


def _write_plan_tables(directory):
    """Seven tables of all 14 separable-plan rows in shuffled order; in the
    third, the row 00+01, outside the five that G_chi reads, is 10 % short."""
    plan = protocol_plan("separable")
    rng = np.random.default_rng(31)
    tables = []
    for i, theta in enumerate(TABLE_THETAS):
        rows = table_from_plan(v_axis(float(theta), TABLE_PHI), plan).rows
        labels = [str(label) for label in rng.permutation([label for label, _ in plan.states])]
        tables.append((theta, [(label, rows[label] * (0.9 if i == 2 and label == "00+01" else 1))
                               for label in labels]))
    return _write_table_files(directory, tables)


# Sweeps on the edges of the per-call state budget, all six merits.
BATCH_EDGE_SWEEPS = {
    "sweep-one-sample": ["--error", "axis", "--resolution", "4", "--samples", "1",
                         "--seed", "17"],
    "sweep-one-point-per-call": ["--error", "angle", "--resolution", "2",
                                 "--samples", "8200", "--seed", "19"],
    "sweep-uneven-rows": ["--error", "axis", "--theta-range", "0", "1.1",
                          "--phi-range", "-0.6", "0.6", "--resolution", "5",
                          "--samples", "3000", "--seed", "23"],
}


def _argv(case, tmp_path):
    name, output_format = case.rsplit("-", 1)
    out = tmp_path / f"out.{output_format}"
    tail = ["--format", output_format, "--out", str(out)]
    merits = [arg for kind in MeritKind for arg in ("--merit", kind.value)]
    if name == "haar-avg":
        return ["haar-avg", "--error", "angle", "--theta", "0.4", "--phi", "0.7",
                "--samples", "300", "--seed", "29", *merits, *tail]
    if name.startswith("protocol-"):
        waveplates = ["--theta", "0.5", "--phi", "0.25"] if name == "protocol-separable" else []
        return ["protocol", "--kind", name[len("protocol-"):], *waveplates, "--out", str(out)]
    if name in BATCH_EDGE_SWEEPS:
        return ["sweep", *BATCH_EDGE_SWEEPS[name], *merits, *tail]
    if name.startswith("sweep-"):
        return ["sweep", "--error", name[len("sweep-"):], "--resolution", "5",
                "--samples", "500", "--seed", "17", *merits, *tail]
    if name.startswith("fig3"):
        return ["fig3", "--theta-points", "1" if name == "fig3-one-point" else "12", *tail]
    phi = ["--phi", repr(TABLE_PHI)] if name != "reconstruct-nophi" else []
    ideal = (["--ideal", *_write_tables(tmp_path / "ideal", ideal=True)]
             if name == "reconstruct-ideal" else [])
    renormalize = ["--renormalize"] if name == "reconstruct-renormalize" else []
    if name == "reconstruct-extra-rows":
        measured = _write_plan_tables(tmp_path / "tables")
    else:
        measured = _write_tables(tmp_path / "tables",
                                 off_rows=RENORMALIZE_OFF_ROWS if renormalize else OFF_ROWS)
    return ["reconstruct", "--measured", *measured, *ideal, *phi, *renormalize, *tail]


CASES = [f"{name}-{fmt}" for name in ("sweep-axis", "sweep-angle", "fig3", "fig3-one-point",
                                      "reconstruct-phi", "reconstruct-nophi",
                                      "reconstruct-ideal", "haar-avg")
         for fmt in ("csv", "json")] + [f"{name}-csv" for name in BATCH_EDGE_SWEEPS] + [
    "reconstruct-extra-rows-csv", "reconstruct-renormalize-csv",
    "protocol-separable-json", "protocol-straightforward-json"]


def complex_multiply_is_fma_rounded() -> bool:
    """Whether numpy's complex multiply rounds the real part ar br - ai bi once.

    With ar = br = 1 + 2**-30 and ai = bi = 1, ar br needs 61 bits: rounded
    first, as the plain formula does, it loses its 2**-60. The once-rounded
    value comes from exact fractions: math.fma is new in Python 3.13.
    """
    x = np.array([complex(1 + 2**-30, 1.0)])
    once = Fraction(x.real[0]) ** 2 - Fraction(x.imag[0] * x.imag[0])
    return float((x * x).real[0]) == float(once)


def digests(case, tmp_path):
    """sha256 of every file the case's CLI run writes, keyed by file name."""
    assert main(_argv(case, tmp_path)) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.glob("out*"))}


@pytest.mark.parametrize("case", CASES)
def test_golden_output_bytes(case, tmp_path, capsys):
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"digests were made with numpy {NUMPY_VERSION}, running {np.__version__}")
    if case in FMA_CASES and not complex_multiply_is_fma_rounded():
        pytest.skip("digest made where numpy's complex multiply rounds with one FMA, "
                    "and this numpy's does not")
    assert digests(case, tmp_path) == GOLDEN[case]
