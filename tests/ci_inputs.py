"""Write the input files of the CI memory guards.

    python tests/ci_inputs.py state PATH DIM SEED
    python tests/ci_inputs.py gram PATH DIM SEED

`state` writes {"coeffs": [[re, im], ...]}: DIM pairs of standard normals
from `numpy.random.default_rng(SEED)`, scaled to unit norm.  `gram` writes an
explicit DIM x DIM phase matrix: the Hermitian part of the Gram matrix of
DIM random unit vectors in C^(2 DIM), with its diagonal set to exactly 1.
The same arguments give the same bytes.
"""

import json
import sys

import numpy as np


def state(dim: int, seed: int) -> dict:
    a = np.random.default_rng(seed).standard_normal((dim, 2))
    return {"coeffs": (a / np.linalg.norm(a)).tolist()}


def gram(dim: int, seed: int) -> dict:
    r = np.random.default_rng(seed)
    v = r.standard_normal((dim, 2 * dim)) + 1j * r.standard_normal((dim, 2 * dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    g = v.conj() @ v.T
    g = (g + g.conj().T) / 2
    g[np.diag_indices(dim)] = 1
    return {"kind": "explicit", "dim": dim, "entries": np.stack([g.real, g.imag], -1).tolist()}


def main(argv: list[str]) -> int:
    kind, path, dim, seed = argv
    doc = {"state": state, "gram": gram}[kind](int(dim), int(seed))
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
