"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run standalone with `pytest tests/test_acceptance.py -s`.
"""

import functools
import json
import math

import numpy as np
import pytest

from conftest import eig2, random_gram_matrix, random_state, random_window
from phaseobs import (
    HardyState,
    PhaseMatrix,
    PhaseWindow,
    TWO_PI,
    check_covariance,
    check_interference,
    density,
    density_grid,
    exact_cdf,
    kernel_C,
    kernel_apply,
    kraus_decompose,
    kraus_reconstruct,
    localization,
    moment_spectrum,
    normalize,
    sample,
)
from phaseobs.cli import main as cli_main

HALF = PhaseWindow(((0.0, math.pi),))
PLUS = normalize([1, 1])


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}")
                raise
            print(f"[PASS] criterion {number}: {title}")

        return run

    return wrap


def matrix_zoo(rng, dim):
    mats = [
        PhaseMatrix.canonical(dim),
        PhaseMatrix.trivial(dim),
        PhaseMatrix.exponential(0.3, dim),
        PhaseMatrix.exponential(0.7, dim),
    ]
    mats.extend(random_gram_matrix(rng, dim) for _ in range(10))
    return mats


@criterion(1, "normalization and positivity")
def test_normalization_positivity():
    rng = np.random.default_rng(101)
    dim = 32
    mats = matrix_zoo(rng, dim)
    states = [random_state(rng, dim) for _ in range(100)]
    for mat in mats:
        diag = np.real(np.diag(mat.entries))
        for psi in states:
            total = float(diag @ (np.abs(psi.coeffs) ** 2))
            assert abs(total - 1.0) <= 1e-12
            grid = density_grid(mat, psi, 10_000)
            assert grid.min() >= -1e-12
            assert abs(grid.mean() - 1.0) <= 1e-8


@criterion(2, "phase shift covariance (Condition 3)")
def test_covariance():
    rng = np.random.default_rng(102)
    for _ in range(100):
        mat = random_gram_matrix(rng, 8)
        psi = random_state(rng, 8)
        alpha = float(rng.random() * 4 * math.pi - 2 * math.pi)
        window = random_window(rng, max_arcs=3)
        assert check_covariance(mat, psi, alpha, window) <= 1e-12


@criterion(3, "interference expansion (Condition 2)")
def test_interference():
    rng = np.random.default_rng(103)
    for _ in range(100):
        mat = random_gram_matrix(rng, 8)
        psi = random_state(rng, 8)
        phi = random_state(rng, 8)
        c1 = complex(rng.standard_normal(), rng.standard_normal())
        c2 = complex(rng.standard_normal(), rng.standard_normal())
        norm = np.linalg.norm(c1 * psi.coeffs + c2 * phi.coeffs)
        theta = float(rng.random() * TWO_PI)
        assert check_interference(mat, psi, phi, c1 / norm, c2 / norm, theta) <= 1e-12
    # exact worked case: eta_0, eta_1 under the canonical matrix give 1 + cos
    mat = PhaseMatrix.canonical(2)
    c = 1 / math.sqrt(2)
    eta0, eta1 = HardyState.basis(0, 2), HardyState.basis(1, 2)
    for theta in np.linspace(0.0, TWO_PI, 17):
        assert check_interference(mat, eta0, eta1, c, c, float(theta)) <= 1e-12
        assert density(mat, PLUS, PLUS, float(theta)).real == pytest.approx(
            1 + math.cos(theta), abs=1e-12
        )


@criterion(4, "Kraus round trip")
def test_kraus_round_trip():
    rng = np.random.default_rng(104)
    dim = 16
    for mat in matrix_zoo(rng, dim):
        family = kraus_decompose(mat)
        rebuilt = kraus_reconstruct(family)
        np.testing.assert_allclose(rebuilt.entries, mat.entries, atol=1e-10)
        np.testing.assert_allclose(
            np.linalg.norm(family.z, axis=0), np.ones(dim), atol=1e-10
        )
    canonical = kraus_decompose(PhaseMatrix.canonical(dim))
    assert canonical.rank == 1
    np.testing.assert_allclose(canonical.z[0], np.ones(dim), atol=1e-9)
    trivial = kraus_decompose(PhaseMatrix.trivial(dim))
    assert trivial.rank == dim
    mags = np.abs(trivial.z)
    np.testing.assert_allclose(mags.sum(axis=0), np.ones(dim), atol=1e-10)
    np.testing.assert_allclose(mags.sum(axis=1), np.ones(dim), atol=1e-10)


@criterion(5, "kernel sharpness bound and sandwich quadrature")
def test_kernel():
    dim = 20
    canonical = PhaseMatrix.canonical(dim)
    for s in range(17):
        assert kernel_C(canonical, s, 0.0, 0.0).real == pytest.approx(
            (s + 1) ** 2, abs=1e-9
        )
    others = [
        PhaseMatrix.trivial(dim),
        PhaseMatrix.exponential(0.3, dim),
        PhaseMatrix.exponential(0.7, dim),
        PhaseMatrix.exponential(0.99, dim),
    ]
    for mat in others:
        for s in range(1, 17):
            assert kernel_C(mat, s, 0.0, 0.0).real < (s + 1) ** 2 - 1e-6
    rng = np.random.default_rng(105)
    for _ in range(20):
        s = int(rng.integers(1, dim))
        mat = random_gram_matrix(rng, dim)
        psi = random_state(rng, dim, band_limit=s)
        theta = float(rng.random() * TWO_PI)
        assert kernel_apply(mat, s, psi, theta) == pytest.approx(
            density(mat, psi, psi, theta).real, abs=1e-6
        )


@criterion(6, "nonlocalizability surrogate (Theorem 1)")
def test_localization():
    dims = [2, 4, 8, 16, 32, 64, 512]
    big = PhaseMatrix.canonical(512)
    lams = [localization(big.truncated(s), HALF).lam for s in dims]
    assert lams[0] == pytest.approx(0.5 + 1 / math.pi, abs=1e-10)
    assert all(b > a for a, b in zip(lams, lams[1:])), "not strictly increasing"
    # NOTE: 1 - lambda_max decays like exp(-c S); beyond S ~ 20 it is below
    # the dense eigensolver's error, and localization computes it on the
    # exact prolate path, returning an mpmath number that compares exactly.
    below_one = [lam < 1.0 for lam in lams]
    assert all(below_one), (
        "lambda_max < 1 unresolvable in double precision at "
        f"S={[s for s, ok in zip(dims, below_one) if not ok]}, "
        f"values={[repr(l) for l, ok in zip(lams, below_one) if not ok]}"
    )
    for dim in (2, 8, 32):
        lam = localization(PhaseMatrix.trivial(dim), HALF).lam
        assert lam == pytest.approx(0.5, abs=1e-14)
    full = PhaseWindow.full_circle()
    rng = np.random.default_rng(106)
    for mat in (PhaseMatrix.canonical(8), PhaseMatrix.exponential(0.4, 8),
                random_gram_matrix(rng, 8)):
        lam = localization(mat, full).lam
        assert lam == pytest.approx(1.0, abs=1e-12)


@criterion(7, "first moment operator spectra")
def test_first_moment():
    np.testing.assert_allclose(
        moment_spectrum(PhaseMatrix.trivial(9)), math.pi * np.ones(9)
    )
    np.testing.assert_allclose(
        moment_spectrum(PhaseMatrix.canonical(2)), eig2(math.pi, 1.0), atol=1e-10
    )
    rng = np.random.default_rng(107)
    from phaseobs import first_moment

    for mat in matrix_zoo(rng, 16):
        assert np.all(np.diag(first_moment(mat)) == math.pi)
        spectrum = moment_spectrum(mat)
        assert spectrum[0] >= -1e-9
        assert spectrum[-1] <= TWO_PI + 1e-9


def ks_distance(draws, cdf):
    draws = np.sort(draws)
    n = draws.size
    values = cdf(draws)
    lower = np.max(values - np.arange(n) / n)
    upper = np.max((np.arange(1, n + 1)) / n - values)
    return max(lower, upper)


@criterion(8, "inverse-CDF sampling statistics")
def test_sampling():
    count = 100_000
    rng = np.random.default_rng(108)
    trivial = PhaseMatrix.trivial(4)
    psi = random_state(rng, 4)
    draws = sample(trivial, psi, count, seed=1)
    assert ks_distance(draws, lambda t: t / TWO_PI) < 0.01

    canonical = PhaseMatrix.canonical(2)
    draws = sample(canonical, PLUS, count, seed=2)
    cdf = np.vectorize(lambda t: exact_cdf(canonical, PLUS, float(t)))
    # closed form of the same CDF keeps the check fast on 1e5 points
    closed = lambda t: (t + np.sin(t)) / TWO_PI
    np.testing.assert_allclose(closed(np.linspace(0, TWO_PI, 7)),
                               cdf(np.linspace(0, TWO_PI, 7)), atol=1e-12)
    assert ks_distance(draws, closed) < 0.01

    exponential = PhaseMatrix.exponential(0.5, 8)
    psi8 = random_state(rng, 8)
    draws = sample(exponential, psi8, count, seed=3)
    grid = np.linspace(0.0, TWO_PI, 4097)
    cdf_grid = np.array([exact_cdf(exponential, psi8, float(t)) for t in grid])
    interp = lambda t: np.interp(t, grid, cdf_grid)
    assert ks_distance(draws, interp) < 0.01


@criterion(9, "CLI determinism and exit codes")
def test_cli_determinism(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"kind": "exponential", "dim": 6, "q": 0.5}))
    state = tmp_path / "state.json"
    coeffs = (np.arange(1, 7) / np.linalg.norm(np.arange(1, 7))).tolist()
    state.write_text(json.dumps({"coeffs": [[c, 0.0] for c in coeffs]}))
    window = f"0.5:{math.pi}"

    invocations = {
        "validate": ["validate", "--matrix", str(matrix)],
        "density": ["density", "--matrix", str(matrix), "--state", str(state),
                    "--grid", "32"],
        "cdf": ["cdf", "--matrix", str(matrix), "--state", str(state),
                "--grid", "16"],
        "window-prob": ["window-prob", "--matrix", str(matrix),
                        "--state", str(state), "--window", window],
        "kraus": ["kraus", "--matrix", str(matrix)],
        "kernel-check": ["kernel-check", "--matrix", str(matrix),
                         "--state", str(state)],
        "moment": ["moment", "--matrix", str(matrix)],
        "localize": ["localize", "--matrix", str(matrix), "--window", window],
        "sweep": ["sweep", "--matrix", str(matrix), "--window", window,
                  "--truncations", "2,4,6"],
        "sample": ["sample", "--matrix", str(matrix), "--state", str(state),
                   "--samples", "500", "--seed", "99"],
    }
    for name, argv in invocations.items():
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"{name}-{attempt}.out"
            assert cli_main(argv + ["--out", str(out)]) == 0, name
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{name} output not byte-identical"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "explicit",
        "dim": 2,
        "entries": [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]],
    }))
    assert cli_main(["validate", "--matrix", str(bad)]) == 2
    capsys.readouterr()
