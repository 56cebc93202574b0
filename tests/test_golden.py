"""Golden corpus: the ten commands run in process, through `cli.main`, on
the committed inputs in tests/golden, against the outputs they gave when
the corpus was made.

The inputs are JSON, so no random stream runs here: a state at S = 64, a
two-arc window and its complement, and a 24 x 24 explicit Gram file (below
the 1 MiB at which the entry cache starts).

Validation and the prolate `localize` keep their bytes at every OpenBLAS
kernel tried (the default, Haswell, Sandybridge, Zen and SkylakeX) and
thread count, and are checked by SHA-256.  Every other output goes
through BLAS or LAPACK: the weights' `np.correlate` and the Toeplitz
product's `np.convolve` are BLAS `dot`, so even density, window
probabilities and the kernel check move in their last bits between
kernels.  These are checked by value against tests/golden/expected: draws
within 1e-10, the contract of `sample`, and every other number within
8 S eps, the error bound the README gives for an eigensolve (at most
76 eps moved between kernels).  Abscissas (angles, sizes, q) and strings
must match exactly.

A change that moves an output regenerates the corpus with
`PYTHONPATH=src python tests/test_golden.py`, which rewrites
tests/golden/expected and prints the digests to paste below, and says in
CHANGES.md which outputs moved and why.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from phaseobs.cli import main

GOLDEN = Path(__file__).parent / "golden"
EPS = np.finfo(float).eps

STATE = str(GOLDEN / "state64.json")
GRAM = str(GOLDEN / "gram24.json")
HALF = f"0:{math.pi!r}"
EXP = ["--matrix", "exponential", "--q", "0.9", "--dim", "64"]

# argv without --out, and the file name of the output
OPS = {
    "validate-explicit": (["validate", "--matrix", GRAM], "json"),
    "validate-exponential": (["validate", *EXP], "json"),
    "density": (["density", *EXP, "--state", STATE, "--grid", "256"], "csv"),
    "window-prob": (["window-prob", *EXP, "--state", STATE,
                     "--window", str(GOLDEN / "window.json")], "json"),
    "window-prob-complement": (["window-prob", *EXP, "--state", STATE,
                                "--window", str(GOLDEN / "complement.json")], "json"),
    "kernel-check": (["kernel-check", *EXP, "--state", STATE], "csv"),
    "localize-canonical-32": (["localize", "--matrix", "canonical", "--dim", "32",
                               "--window", HALF], "json"),
    "localize-canonical-64": (["localize", "--matrix", "canonical", "--dim", "64",
                               "--window", HALF], "json"),
    "cdf": (["cdf", *EXP, "--state", STATE, "--grid", "256"], "csv"),
    "kraus": (["kraus", "--matrix", GRAM], "json"),
    "moment": (["moment", *EXP], "csv"),
    "localize-explicit": (["localize", "--matrix", GRAM, "--window", HALF], "json"),
    "localize-exponential": (["localize", *EXP, "--window", str(GOLDEN / "window.json")],
                             "json"),
    "sweep": (["sweep", *EXP, "--window", HALF, "--truncations", "8,16,32,64"], "csv"),
    "q-sweep": (["sweep", *EXP, "--window", HALF, "--q-sweep", "0.1,0.5,0.9"], "csv"),
    "sample": (["sample", *EXP, "--state", STATE, "--samples", "500", "--seed", "7"], "txt"),
}

# SHA-256 of the outputs that keep their bytes
DIGESTS = {
    "validate-explicit": "9897b7c83eb7dbca4b0411f2aaaad2f98b5681a2ad3ad5654f217c4a287c3e72",
    "validate-exponential": "a99c7a1422565dedeffc65b3dfb3194c7e0a7f2ea0f0e1a0fb7d3c4b761d94e5",
    "localize-canonical-32": "be31c96e87bdb29db557e3d79e548ce8b8aaf6e75f7361fc03f86ca8961ffa75",
    "localize-canonical-64": "9e93191095e4bb56e54315070173f0b8f08a0da6da9a8f08e102814ca717341c",
}

VALUE_OPS = [name for name in OPS if name not in DIGESTS]


def run(name, out_dir):
    argv, ext = OPS[name]
    out = Path(out_dir) / f"{name}.{ext}"
    assert main([*argv, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", list(DIGESTS))
def test_bytes(name, tmp_path, capsys):
    out = run(name, tmp_path)
    assert capsys.readouterr() == ("", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]


def csv_rows(path):
    lines = Path(path).read_text().splitlines()
    return lines[0], np.array([[float(cell) for cell in line.split(",")]
                               for line in lines[1:]])


def leaves(doc, key=""):
    """(key, leaf) pairs of a JSON document, depth first; a leaf's key is
    the name of the object field it sits under."""
    if isinstance(doc, dict):
        return [pair for k, v in doc.items() for pair in leaves(v, k)]
    if isinstance(doc, list):
        return [pair for v in doc for pair in leaves(v, key)]
    return [(key, doc)]


def close(got, want, bound):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    excess = np.abs(got - want) - bound
    assert np.all(excess <= 0), f"{np.max(excess):.3g} beyond the bound"


@pytest.mark.parametrize("name", VALUE_OPS)
def test_values(name, tmp_path, capsys):
    out = run(name, tmp_path)
    assert capsys.readouterr() == ("", "")
    expected = GOLDEN / "expected" / out.name
    bound = 8 * (24 if GRAM in OPS[name][0] else 64) * EPS
    if out.suffix == ".txt":
        close(out.read_text().split(), expected.read_text().split(), 1e-10)
    elif out.suffix == ".csv":
        head, got = csv_rows(out)
        want_head, want = csv_rows(expected)
        assert head == want_head and got.shape == want.shape
        assert got[:, 0].tobytes() == want[:, 0].tobytes()
        # a truncation S of a sweep is good to 8 S eps
        close(got[:, 1:], want[:, 1:], 8 * EPS * got[:, :1] if head == "S,lambda_max" else bound)
    else:
        got = leaves(json.loads(out.read_bytes()))
        want = leaves(json.loads(expected.read_bytes()))
        assert [key for key, _ in got] == [key for key, _ in want]
        for (key, value), (_, reference) in zip(got, want):
            if isinstance(reference, str) and key != "gap":
                assert value == reference
            else:
                close(value, reference, bound)


if __name__ == "__main__":
    (GOLDEN / "expected").mkdir(exist_ok=True)
    for name in VALUE_OPS:
        run(name, GOLDEN / "expected")
    for name in DIGESTS:
        out = run(name, GOLDEN)
        print(f'    "{name}": "{hashlib.sha256(out.read_bytes()).hexdigest()}",')
        out.unlink()
