"""Golden output bytes: sha256 digests of CLI output files for pinned runs.

Each case runs the `epmdiag` CLI in-process and hashes every file it
writes: small sweeps for both error families with all six merits, one
fig3, and a reconstruction over synthetic tables with and without phi,
each as CSV (+ sidecar) and as JSON. The digests depend on the numpy/BLAS
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
        "out.csv": "89aaea503b08439da17dc06041c8e664643b064d6ca4cd55faae8d4375e19b9d",
        "out.meta.json": "eb0fb84c8dc2c36803ec74a07fe1edecdb7debe445b6d8a03e97bbf8bb49a66c",
    },
    "sweep-axis-json": {
        "out.json": "ab79494e8e88796c336f6e37d68bce74cc4acefba8f973b4845a3ae2300d8c65",
    },
    "sweep-angle-csv": {
        "out.csv": "768bab7e40a47398d2ac95871bb64a2dcbfcf99955586468f4eb76fab589dcc7",
        "out.meta.json": "e714cf03ccb7e97c7788bb7451cc0208cd225a91db9b37492dc3a43920d86a10",
    },
    "sweep-angle-json": {
        "out.json": "5a9aa697da11166c39f9b5ee75482df09a1bcc6322ee085d37672554bab5033c",
    },
    "fig3-csv": {
        "out.csv": "11b70ef8ecedc72a2332605c7b687343022fe0087d3b4cb072376491956cafd6",
        "out.meta.json": "7c91f5c7e6d6f46e1a07c06fb7cbc28b5460a53bcc62f4ebc8e18675b714a5a6",
    },
    "fig3-json": {
        "out.json": "918ae71e1c977b904744d71c212843c2cce8bd03b7b3eb0a5d5a3e67a033d3e5",
    },
    "reconstruct-phi-csv": {
        "out.csv": "d46578694f3a7ec21c6ff21145f2608f02ce85bc7d1e8f6a8a46660c742626fc",
        "out.meta.json": "9721d97e59cc08416176b5d594b7d6c22f35be4b8d281c552f26880461035a03",
    },
    "reconstruct-phi-json": {
        "out.json": "4274332128581399c3510cae57d3e50a940cdfc1999611caa5d906e5f7cdfdf0",
    },
    "reconstruct-nophi-csv": {
        "out.csv": "7b69b4e035e730da6113a653e86656822577f63ed691cffa1dcba480fcadb3d1",
        "out.meta.json": "6b83187df02bdaa1122495e31d1907ed41a47a7f292e5bb6dd30c495f77fe2f7",
    },
    "reconstruct-nophi-json": {
        "out.json": "4cc541dd9693ef0b7bfe31ad092612f960c2b7615c80adf88d92255a812255ea",
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


def _argv(case, tmp_path):
    name, output_format = case.rsplit("-", 1)
    out = tmp_path / f"out.{output_format}"
    tail = ["--format", output_format, "--out", str(out)]
    if name.startswith("sweep-"):
        merits = [arg for kind in MeritKind for arg in ("--merit", kind.value)]
        return ["sweep", "--error", name[len("sweep-"):], "--resolution", "5",
                "--samples", "500", "--seed", "17", *merits, *tail]
    if name == "fig3":
        return ["fig3", "--theta-points", "12", *tail]
    phi = ["--phi", repr(TABLE_PHI)] if name == "reconstruct-phi" else []
    return ["reconstruct", "--measured", *_write_tables(tmp_path / "tables"), *phi, *tail]


CASES = [f"{name}-{fmt}" for name in ("sweep-axis", "sweep-angle", "fig3",
                                      "reconstruct-phi", "reconstruct-nophi")
         for fmt in ("csv", "json")]


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
