"""Independent oracle for the benchmark's output checks.

Nothing here imports phaseobs.  Every reference value is rebuilt from the
generated inputs with this file's own index arithmetic (numpy) or by scipy
quadrature, and every other check is a property the method guarantees.

Conventions (the paper's): the state a = (a_0..a_{S-1}), the phase matrix
c_{n,m}, the density f(theta) = sum_k w_k e^{ik theta} with
w_k = sum_{n-m=k} c_{n,m} conj(a_n) a_m, and window probabilities
(1/2pi) int_X f.
"""

from __future__ import annotations

import csv
import json
import math
from decimal import Decimal

import numpy as np
from scipy import integrate

TWO_PI = 2.0 * math.pi


class CheckFailed(Exception):
    """The program returned a wrong answer."""


class OpFailed(Exception):
    """The operation is counted as failed (a known fault of the program)."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ----------------------------------------------------------- reference math


def exponential_matrix(q: float, dim: int) -> np.ndarray:
    n = np.arange(dim)
    return q ** np.abs(n[:, None] - n[None, :]).astype(float)


def weights(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """w_k for k = -(S-1)..(S-1), accumulated by offset with bincount."""
    dim = c.shape[0]
    a = np.pad(np.asarray(a, dtype=complex), (0, dim - len(a)))
    n = np.arange(dim)
    offset = (n[:, None] - n[None, :] + dim - 1).ravel()
    prod = (c * np.conj(a)[:, None] * a[None, :]).ravel()
    size = 2 * dim - 1
    return (np.bincount(offset, prod.real, size)
            + 1j * np.bincount(offset, prod.imag, size))


def _modes(w: np.ndarray) -> np.ndarray:
    dim = (len(w) + 1) // 2
    return np.arange(-dim + 1, dim)


def density(w: np.ndarray, thetas) -> np.ndarray:
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    return np.real(np.exp(1j * np.outer(thetas, _modes(w))) @ w)


def cdf(w: np.ndarray, thetas, chunk: int = 2048) -> np.ndarray:
    """F(theta) = w_0 theta/2pi + sum_{k!=0} w_k (e^{ik theta} - 1)/(2 pi i k)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    ks = _modes(w)
    nz = ks != 0
    coeff = w[nz] / (TWO_PI * 1j * ks[nz])
    out = np.empty(thetas.size)
    for lo in range(0, thetas.size, chunk):
        part = thetas[lo:lo + chunk]
        phases = np.exp(1j * np.outer(part, ks[nz])) - 1.0
        out[lo:lo + chunk] = w[~nz][0].real * part / TWO_PI + np.real(phases @ coeff)
    return out


def cdf_by_quadrature(w: np.ndarray, theta: float) -> float:
    value, _ = integrate.quad(lambda x: density(w, x)[0], 0.0, theta,
                              limit=4000, epsabs=1e-13, epsrel=1e-13)
    return value / TWO_PI


def window_symbol(arcs, dim: int) -> np.ndarray:
    """t_k = (1/2pi) int_X e^{ik theta} for k = -(S-1)..(S-1)."""
    ks = np.arange(-dim + 1, dim)
    t = np.zeros(ks.size, dtype=complex)
    nz = ks != 0
    for lo, hi in arcs:
        t[~nz] += (hi - lo) / TWO_PI
        t[nz] += (np.exp(1j * ks[nz] * hi) - np.exp(1j * ks[nz] * lo)) / (TWO_PI * 1j * ks[nz])
    return t


def window_operator(c: np.ndarray, arcs) -> np.ndarray:
    """C o T(t): entry (n, m) is c_{n,m} t_{n-m}, by index arithmetic."""
    dim = c.shape[0]
    n = np.arange(dim)
    return c * window_symbol(arcs, dim)[n[:, None] - n[None, :] + dim - 1]


def window_probability(w: np.ndarray, arcs) -> float:
    dim = (len(w) + 1) // 2
    return float(np.real(np.sum(w * window_symbol(arcs, dim))))


def complement(arcs) -> list[list[float]]:
    gaps, cursor = [], 0.0
    for lo, hi in arcs:
        if lo > cursor:
            gaps.append([cursor, lo])
        cursor = hi
    if cursor < TWO_PI:
        gaps.append([cursor, TWO_PI])
    return gaps


def ks_critical(n: int, alpha: float = 1e-6) -> float:
    """Asymptotic Kolmogorov-Smirnov critical distance at level alpha."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) / math.sqrt(n)


# ------------------------------------------------------------- output parsing


def read_csv(path, header: str) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows and ",".join(rows[0]) == header,
            f"{path}: header {rows[0] if rows else None!r}, expected {header!r}")
    return np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)


def read_json(path, **kwargs):
    with open(path) as fh:
        return json.load(fh, **kwargs)


def pairs(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


# ------------------------------------------------------------------- checks


def check_cdf(path, w, grid: int, spot_thetas) -> None:
    data = read_csv(path, "theta,value")
    require(data.shape == (grid + 1, 2), f"cdf has shape {data.shape}")
    theta, value = data[:, 0], data[:, 1]
    expected_theta = TWO_PI * np.arange(grid + 1) / grid
    require(np.max(np.abs(theta - expected_theta)) <= 1e-12, "cdf grid is not 2*pi*j/G")
    require(abs(value[0]) <= 1e-12, f"F(0) = {value[0]!r}")
    require(abs(value[-1] - 1.0) <= 1e-12, f"F(2pi) = {value[-1]!r}")
    require(np.all(np.diff(value) >= -1e-12), "cdf decreases")
    err = np.max(np.abs(value - cdf(w, expected_theta)))
    require(err <= 1e-9, f"cdf differs from the closed form by {err:g}")
    for j in spot_thetas:
        ref = cdf_by_quadrature(w, expected_theta[j])
        require(abs(value[j] - ref) <= 1e-8,
                f"F({expected_theta[j]}) = {value[j]!r}, quadrature {ref!r}")


def check_density(path, w, grid: int) -> None:
    data = read_csv(path, "theta,value")
    require(data.shape == (grid, 2), f"density has shape {data.shape}")
    value = data[:, 1]
    require(abs(np.mean(value) - 1.0) <= 1e-10, f"density grid mean {np.mean(value)!r}")
    require(np.min(value) >= -1e-9, f"density {np.min(value)!r} is negative")
    err = np.max(np.abs(value - density(w, data[:, 0])))
    require(err <= 1e-9, f"density differs from the closed form by {err:g}")


def check_window_probability(path, w, arcs) -> float:
    out = read_json(path)
    prob = float(out["probability"])
    ref = window_probability(w, arcs)
    require(0.0 <= prob <= 1.0, f"probability {prob!r} outside [0, 1]")
    require(abs(prob - ref) <= 1e-10, f"P(X) = {prob!r}, closed form {ref!r}")
    measure = sum(hi - lo for lo, hi in arcs)
    require(abs(out["window_measure"] - measure) <= 1e-12, "window measure is wrong")
    return prob


def check_kernel(path, w) -> None:
    data = read_csv(path, "theta,density,kernel,abs_err")
    require(data.shape == (8, 4), f"kernel-check has shape {data.shape}")
    theta, direct, kernel, abs_err = data.T
    require(np.max(np.abs(theta - TWO_PI * np.arange(8) / 8)) <= 1e-12, "kernel grid")
    err = np.max(np.abs(direct - density(w, theta)))
    require(err <= 1e-9, f"kernel-check density differs from the closed form by {err:g}")
    require(np.max(abs_err) <= 1e-9, f"kernel sandwich error {np.max(abs_err):g}")
    require(np.max(np.abs(np.abs(direct - kernel) - abs_err)) <= 1e-12,
            "abs_err column does not match |density - kernel|")


def top_eigenvalue(c: np.ndarray, arcs) -> float:
    return float(np.linalg.eigvalsh(window_operator(c, arcs))[-1])


def check_sweep(path, header: str, keys, reference: dict, monotone: bool) -> None:
    """A sweep stays in (0, 1), is nondecreasing when it runs over nested
    truncations, and matches the eigenvalues in `reference` (key -> value)."""
    data = read_csv(path, header)
    require(data.shape == (len(keys), 2), f"sweep has shape {data.shape}")
    require(np.all(data[:, 0] == np.asarray(keys, dtype=float)), "sweep keys")
    lam = data[:, 1]
    require(not monotone or np.all(np.diff(lam) >= -1e-12), "sweep decreases")
    require(np.all((lam > 0.0) & (lam < 1.0)), "sweep leaves (0, 1)")
    for key, ref in reference.items():
        got = lam[list(keys).index(key)]
        require(abs(got - ref) <= 1e-10, f"lambda_max at {key} = {got!r}, oracle {ref!r}")


def check_moment(path, dim: int) -> None:
    data = read_csv(path, "index,eigenvalue")
    require(data.shape == (dim, 2), f"moment has shape {data.shape}")
    ev = data[:, 1]
    require(np.all(data[:, 0] == np.arange(dim)), "moment index column")
    require(np.all(np.diff(ev) >= 0.0), "moment eigenvalues are not ascending")
    require(ev[0] >= -1e-9 and ev[-1] <= TWO_PI + 1e-9, "moment spectrum leaves [0, 2pi]")
    require(abs(ev.sum() - dim * math.pi) <= 1e-9 * dim * math.pi,
            f"moment trace {ev.sum()!r}, expected S*pi = {dim * math.pi!r}")


def check_valid(path, dim: int) -> None:
    out = read_json(path)
    require(out == {"valid": True, "dim": dim, "issues": []}, f"validate says {out}")


def check_kraus(path, c: np.ndarray) -> None:
    z = pairs(read_json(path)["rows"])
    require(z.ndim == 2 and z.shape[1] == c.shape[0], f"kraus shape {z.shape}")
    col_err = np.max(np.abs(np.linalg.norm(z, axis=0) - 1.0))
    require(col_err <= 1e-10, f"kraus columns deviate from unit norm by {col_err:g}")
    err = np.max(np.abs(z.T @ z.conj() - c))
    require(err <= 1e-9, f"Z^T conj(Z) differs from the input matrix by {err:g}")


def check_localize(path, c: np.ndarray, arcs) -> None:
    """Theorem 1: lambda_max < 1 strictly, read as an exact decimal (or a
    positive `gap`); failing it is the known precision fault, counted as a
    failed operation.  The maximizer must be a unit eigenvector."""
    out = read_json(path, parse_float=Decimal)
    lam = Decimal(out["lambda_max"])
    gap = out.get("gap")
    if not (lam < 1 or (gap is not None and Decimal(gap) > 0)):
        raise OpFailed(f"lambda_max = {lam} is not below 1")
    v = np.array([complex(float(re), float(im)) for re, im in out["maximizer"]["coeffs"]])
    require(v.shape == (c.shape[0],), f"maximizer has shape {v.shape}")
    require(abs(np.linalg.norm(v) - 1.0) <= 1e-10, "maximizer is not a unit vector")
    e = window_operator(c, arcs)
    residual = np.linalg.norm(e @ v - float(lam) * v)
    require(residual <= 1e-9, f"maximizer residual ||Ev - lambda v|| = {residual:g}")
    top = float(np.linalg.eigvalsh(e)[-1])
    require(abs(float(lam) - top) <= 1e-10, f"lambda_max {lam} is not the top eigenvalue {top!r}")


def check_draws(path, w, count: int) -> bytes:
    with open(path, "rb") as fh:
        raw = fh.read()
    x = np.array([float(line) for line in raw.splitlines()])
    require(x.size == count, f"{x.size} draws, expected {count}")
    require(np.all((x >= 0.0) & (x < TWO_PI)), "a draw lies outside [0, 2pi)")
    f = cdf(w, np.sort(x))
    i = np.arange(1, count + 1)
    dist = float(max(np.max(i / count - f), np.max(f - (i - 1) / count)))
    require(dist < ks_critical(count),
            f"Kolmogorov-Smirnov distance {dist:.4g} >= {ks_critical(count):.4g}")
    return raw
