"""Golden output bytes: sha256 digests of CLI output files for pinned runs.

Each case runs the `epmdiag` CLI in-process and hashes every file it
writes: small sweeps for both error families with all six merits, one
fig3, and a reconstruction over synthetic tables with and without phi,
each as CSV (+ sidecar) and as JSON. Three more CSV sweeps sit on the
edges of how a theta row is split into evaluation calls: one sample per
point, more samples than one call holds, and rows of five points split
unevenly, on a grid with theta from exactly 0 and phi symmetric about an
exact 0.0. The digests depend on the numpy/BLAS
build that computed them, so the test skips when numpy is a different
version. Regenerate a digest only together with a CHANGES.md entry that
declares the byte change.
"""
import hashlib

import numpy as np
import pytest

from epmdiag.cli import main
from epmdiag.gates import v_axis
from epmdiag.merit import MeritKind

NUMPY_VERSION = "2.4.6"

GOLDEN = {
    "sweep-axis-csv": {
        "out.csv": "aad3a863cfe25f75b039108c2075833c35a8ce11f980f390c0104e884eb1396e",
        "out.meta.json": "eb0fb84c8dc2c36803ec74a07fe1edecdb7debe445b6d8a03e97bbf8bb49a66c",
    },
    "sweep-axis-json": {
        "out.json": "fc888cdd4393ae91f1bd62100505fc657a20da4557bf7db50aa67102e1592bbb",
    },
    "sweep-angle-csv": {
        "out.csv": "ad76b90fc1919fe4f11c3345b0630871d2de08bc56f5a181abde8002584306d9",
        "out.meta.json": "e714cf03ccb7e97c7788bb7451cc0208cd225a91db9b37492dc3a43920d86a10",
    },
    "sweep-angle-json": {
        "out.json": "6c19eaff4488a335d4ee4cf0a20a5e62d78331965d7273fd5d1ee6fb63332ad9",
    },
    "fig3-csv": {
        "out.csv": "e3b7c90a7a17bed9c0a019c1739f5f17a1aab1744c192c74d36bd07bc4c4bf49",
        "out.meta.json": "7c91f5c7e6d6f46e1a07c06fb7cbc28b5460a53bcc62f4ebc8e18675b714a5a6",
    },
    "fig3-json": {
        "out.json": "6cdb7a79e9b714ae426cdea06aa66750fc98abb11ce9c2c445a16fa302491731",
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
    "sweep-one-sample-csv": {
        "out.csv": "c915da37de21ad9196cb6ef0c41fdf8c93fcec36522617d21a37826f574eb890",
        "out.meta.json": "22fd3b37f624894c02bd98d10e693bcb33c27d44e3bc1cc6517b58a4e236ffb0",
    },
    "sweep-one-point-per-call-csv": {
        "out.csv": "e8b92c9fe5003ad75c5ff480b3f9998044d17af6f7d2845d04b7ba01436d8a75",
        "out.meta.json": "faa4f4dff9bf3031043643ff5b30bed8a475f0104823f3e88f1b70fd697f11dd",
    },
    "sweep-uneven-rows-csv": {
        "out.csv": "189480f8acdc6f8f287f3626d313f4b5148cc045b1bcd6ee3ad5313ca87f4982",
        "out.meta.json": "ee8aa8878a9ba2ab07d1cdff4646e56a0f73397af51b9d7d681e236943f48aeb",
    },
}

TABLE_PHI = 0.35
TABLE_THETAS = np.linspace(0.05, 1.2, 7)


def _write_tables(directory):
    """Seven five-row tables of the axis-error gate, one row pushed off its sum."""
    directory.mkdir()
    inputs = np.vstack([np.eye(4), np.full(4, 0.5)])
    paths = []
    for i, theta in enumerate(TABLE_THETAS):
        probabilities = np.abs(inputs @ v_axis(float(theta), TABLE_PHI).T) ** 2
        if i == 3:
            probabilities[4] *= 0.9
        lines = [f"# theta = {float(theta)!r}", "input,p00,p01,p10,p11"]
        lines += [label + "," + ",".join(repr(float(p)) for p in row)
                  for label, row in zip(("00", "01", "10", "11", "++"), probabilities)]
        path = directory / f"t{i}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


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
    if name in BATCH_EDGE_SWEEPS:
        return ["sweep", *BATCH_EDGE_SWEEPS[name], *merits, *tail]
    if name.startswith("sweep-"):
        return ["sweep", "--error", name[len("sweep-"):], "--resolution", "5",
                "--samples", "500", "--seed", "17", *merits, *tail]
    if name == "fig3":
        return ["fig3", "--theta-points", "12", *tail]
    phi = ["--phi", repr(TABLE_PHI)] if name == "reconstruct-phi" else []
    return ["reconstruct", "--measured", *_write_tables(tmp_path / "tables"), *phi, *tail]


CASES = [f"{name}-{fmt}" for name in ("sweep-axis", "sweep-angle", "fig3",
                                      "reconstruct-phi", "reconstruct-nophi")
         for fmt in ("csv", "json")] + [f"{name}-csv" for name in BATCH_EDGE_SWEEPS]


def digests(case, tmp_path):
    """sha256 of every file the case's CLI run writes, keyed by file name."""
    assert main(_argv(case, tmp_path)) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.glob("out*"))}


@pytest.mark.parametrize("case", CASES)
def test_golden_output_bytes(case, tmp_path, capsys):
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"digests were made with numpy {NUMPY_VERSION}, running {np.__version__}")
    assert digests(case, tmp_path) == GOLDEN[case]
