"""The benchmark's workloads: seeded inputs and one round of CLI operations.

`build(seed, workdir)` writes a workload's input files and returns them with
the reference data the checks need; `round_ops(inputs)` lists the operations
of one round, each a CLI argument vector plus the check of its output.  The
runner makes that list once per run and repeats it every round, so the share
of failed operations is the same in every run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

Q = 0.9
HALF = [[0.0, math.pi]]
HALF_INLINE = f"0:{math.pi!r}"
STARTUP_ARGV = ["validate", "--matrix", "canonical", "--dim", "8"]
STARTUP_PROBES = 5  # minimal invocations per round, timed as startup_s


@dataclass
class Op:
    label: str
    argv: list[str]  # CLI arguments without --out, which the runner appends
    out: Path
    check: Callable[[Path], None]  # raises oracle.CheckFailed or oracle.OpFailed
    startup: bool = False


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _state(rng, dim: int) -> np.ndarray:
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return raw / np.linalg.norm(raw)


def _state_file(path: Path, a: np.ndarray) -> str:
    return _write_json(path, {"coeffs": np.stack([a.real, a.imag], -1).tolist()})


def _two_arcs(rng) -> list[list[float]]:
    """Two disjoint arcs with every gap, the wrap-around included, >= 0.05."""
    while True:
        p = np.sort(rng.uniform(0.0, oracle.TWO_PI, 4))
        gaps = np.diff(np.concatenate([p, [p[0] + oracle.TWO_PI]]))
        if gaps.min() >= 0.05 and p[0] > 0.0:
            return [[float(p[0]), float(p[1])], [float(p[2]), float(p[3])]]


def _exp(dim: int, *rest) -> list[str]:
    return ["--matrix", "exponential", "--q", repr(Q), "--dim", str(dim), *rest]


def startup_ops(workdir: Path) -> list[Op]:
    out = workdir / "startup.json"
    check = lambda path: oracle.check_valid(path, 8)  # noqa: E731
    return [Op("startup", STARTUP_ARGV, out, check, startup=True)
            for _ in range(STARTUP_PROBES)]


# ----------------------------------------------------------------- tabulate


def build_tabulate(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng([seed, 1])
    a = _state(rng, 128)
    arcs = _two_arcs(rng)
    return {
        "workdir": workdir,
        "state": _state_file(workdir / "state.json", a),
        "window": _write_json(workdir / "window.json", {"arcs": arcs}),
        "complement": _write_json(workdir / "complement.json",
                                  {"arcs": oracle.complement(arcs)}),
        "arcs": arcs,
        "w128": oracle.weights(oracle.exponential_matrix(Q, 128), a),
        "w256": oracle.weights(oracle.exponential_matrix(Q, 256), a),
        "spots": sorted(int(j) for j in rng.choice(np.arange(1, 256), 3, replace=False)),
    }


def tabulate_ops(inp: dict) -> list[Op]:
    d, state = inp["workdir"], inp["state"]
    seen = {}

    def prob_x(path):
        seen["x"] = oracle.check_window_probability(path, inp["w256"], inp["arcs"])

    def prob_complement(path):
        p = oracle.check_window_probability(path, inp["w256"],
                                            oracle.complement(inp["arcs"]))
        oracle.require("x" in seen and abs(seen["x"] + p - 1.0) <= 1e-10,
                       f"P(X) + P(X^c) = {seen.get('x', math.nan) + p!r}")

    return startup_ops(d) + [
        Op("cdf", ["cdf", *_exp(128, "--state", state, "--grid", "256")], d / "cdf.csv",
           lambda p: oracle.check_cdf(p, inp["w128"], 256, inp["spots"])),
        Op("density", ["density", *_exp(256, "--state", state, "--grid", "1024")],
           d / "density.csv", lambda p: oracle.check_density(p, inp["w256"], 1024)),
        Op("window-prob", ["window-prob", *_exp(256, "--state", state,
                                                 "--window", inp["window"])],
           d / "prob_x.json", prob_x),
        Op("window-prob-complement", ["window-prob", *_exp(256, "--state", state,
                                                            "--window", inp["complement"])],
           d / "prob_xc.json", prob_complement),
        Op("kernel-check", ["kernel-check", *_exp(256, "--state", state)],
           d / "kernel.csv", lambda p: oracle.check_kernel(p, inp["w256"])),
    ]


# ----------------------------------------------------------------- spectrum

TRUNCATIONS = [16, 32, 64, 128, 256, 512, 1024]
ORACLE_TRUNCATIONS = (16, 32, 64)
GRAM_DIM = 512


def build_spectrum(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng([seed, 2])
    vecs = (rng.standard_normal((GRAM_DIM, 2 * GRAM_DIM))
            + 1j * rng.standard_normal((GRAM_DIM, 2 * GRAM_DIM)))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    gram = vecs.conj() @ vecs.T
    gram = 0.5 * (gram + gram.conj().T)
    gram[np.diag_indices(GRAM_DIM)] = 1.0
    entries = np.stack([gram.real, gram.imag], -1).tolist()
    return {
        "workdir": workdir,
        "gram_file": _write_json(workdir / "gram.json",
                                 {"kind": "explicit", "dim": GRAM_DIM, "entries": entries}),
        "gram": gram,
        "qs": [float(q) for q in np.sort(rng.uniform(0.05, 0.95, 5))],
        "reference": {},  # oracle eigenvalues, filled by the first check
    }


def _references(inp: dict, key: str, compute: Callable[[], dict]) -> dict:
    if key not in inp["reference"]:
        inp["reference"][key] = compute()
    return inp["reference"][key]


def spectrum_ops(inp: dict) -> list[Op]:
    d, gram_file, qs = inp["workdir"], inp["gram_file"], inp["qs"]

    def sweep(path):
        ref = _references(inp, "sweep", lambda: {
            s: oracle.top_eigenvalue(oracle.exponential_matrix(Q, s), HALF)
            for s in ORACLE_TRUNCATIONS})
        oracle.check_sweep(path, "S,lambda_max", TRUNCATIONS, ref, monotone=True)

    def q_sweep(path):
        ref = _references(inp, "q_sweep", lambda: {
            q: oracle.top_eigenvalue(oracle.exponential_matrix(q, 256), HALF) for q in qs})
        oracle.check_sweep(path, "q,lambda_max", qs, ref, monotone=False)

    def canonical(dim):
        return lambda p: oracle.check_localize(p, np.ones((dim, dim)), HALF)

    return startup_ops(d) + [
        Op("sweep", ["sweep", *_exp(1024, "--window", HALF_INLINE, "--truncations",
                                     ",".join(map(str, TRUNCATIONS)))],
           d / "sweep.csv", sweep),
        # --q is a dummy here: the exponential builtin demands it before the
        # sweep branch reads --q-sweep.
        Op("q-sweep", ["sweep", *_exp(256, "--window", HALF_INLINE,
                                       "--q-sweep", ",".join(map(repr, qs)))],
           d / "q_sweep.csv", q_sweep),
        Op("moment", ["moment", *_exp(1024)], d / "moment.csv",
           lambda p: oracle.check_moment(p, 1024)),
        Op("validate-explicit", ["validate", "--matrix", gram_file], d / "valid.json",
           lambda p: oracle.check_valid(p, GRAM_DIM)),
        Op("kraus-explicit", ["kraus", "--matrix", gram_file], d / "kraus.json",
           lambda p: oracle.check_kraus(p, inp["gram"])),
        Op("localize-explicit", ["localize", "--matrix", gram_file, "--window", HALF_INLINE],
           d / "localize.json", lambda p: oracle.check_localize(p, inp["gram"], HALF)),
        Op("localize-canonical-32", ["localize", "--matrix", "canonical", "--dim", "32",
                                     "--window", HALF_INLINE],
           d / "canonical32.json", canonical(32)),
        Op("localize-canonical-64", ["localize", "--matrix", "canonical", "--dim", "64",
                                     "--window", HALF_INLINE],
           d / "canonical64.json", canonical(64)),
    ]


# -------------------------------------------------------------------- draws

DRAWS = ((64, 20000), (256, 2000))


def build_draws(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng([seed, 3])
    inp = {"workdir": workdir}
    for dim, _ in DRAWS:
        a = _state(rng, dim)
        inp[f"state{dim}"] = _state_file(workdir / f"state{dim}.json", a)
        inp[f"w{dim}"] = oracle.weights(oracle.exponential_matrix(Q, dim), a)
        inp[f"seed{dim}"] = str(int(rng.integers(0, 2**63)))
    return inp


def draws_ops(inp: dict) -> list[Op]:
    d = inp["workdir"]
    first = {}

    def argv(dim, count):
        return ["sample", *_exp(dim, "--state", inp[f"state{dim}"], "--samples", str(count),
                                "--seed", inp[f"seed{dim}"])]

    def draws(dim, count):
        return lambda p: oracle.check_draws(p, inp[f"w{dim}"], count)

    def original(path):
        first["bytes"] = oracle.check_draws(path, inp["w64"], DRAWS[0][1])

    def repeat(path):
        raw = oracle.check_draws(path, inp["w64"], DRAWS[0][1])
        oracle.require(raw == first.get("bytes"), "a repeated seed gave different draws")

    (small, n_small), (large, n_large) = DRAWS
    return startup_ops(d) + [
        Op("sample-64", argv(small, n_small), d / "draws64.txt", original),
        Op("sample-256", argv(large, n_large), d / "draws256.txt", draws(large, n_large)),
        Op("sample-64-repeat", argv(small, n_small), d / "draws64_repeat.txt", repeat),
    ]


WORKLOADS = {
    "tabulate": (build_tabulate, tabulate_ops),
    "spectrum": (build_spectrum, spectrum_ops),
    "draws": (build_draws, draws_ops),
}
