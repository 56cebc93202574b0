import math
import tracemalloc

import numpy as np
import pytest

from phaseobs import HardyState, PhaseMatrix, PhaseObsError, PhaseWindow
from phaseobs.hardy import BLOCK

TWO_PI = 2.0 * math.pi


@pytest.fixture(autouse=True)
def _cache_home(tmp_path_factory, monkeypatch):
    """Every test, and every child process it starts, keeps its
    explicit-matrix cache in a fresh directory of its own, never in the
    user's."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))


def traced_peak(run):
    """Peak bytes numpy and Python allocate while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def span_bytes(arr):
    """Bytes between the first and the last byte that `arr` can reach: 16 S^2
    for a complex S x S array, 16 (2S - 1) for a Toeplitz view of one
    symbol."""
    lo, hi = np.lib.array_utils.byte_bounds(arr)
    return hi - lo


def random_state(rng, dim, band_limit=None):
    """Random unit state; optionally band-limited to indices <= band_limit."""
    head = dim if band_limit is None else band_limit + 1
    raw = rng.standard_normal(head) + 1j * rng.standard_normal(head)
    vec = np.zeros(dim, dtype=complex)
    vec[:head] = raw / np.linalg.norm(raw)
    return HardyState(vec)


def wavefunction(psi, theta):
    """psi(theta) = sum_n a_n exp(-i n theta) as the dense sum: the matrix of
    every exp(-i n theta) times the coefficients, O(S x N) memory for N
    angles.  The oracle of `hardy.evaluate`, which takes the Horner loop;
    a scalar theta gives a 0-d array."""
    theta = np.asarray(theta, dtype=float)
    return np.exp(-1j * np.multiply.outer(theta, np.arange(psi.dim))) @ psi.coeffs


def random_gram_matrix(rng, dim, ambient=None):
    """Random phase matrix as the Gram matrix of unit vectors.

    The ambient dimension defaults to 2*dim so the Gram matrix stays well
    conditioned (no accidental near-zero eigenvalues).
    """
    amb = ambient or 2 * dim
    vecs = rng.standard_normal((dim, amb)) + 1j * rng.standard_normal((dim, amb))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return PhaseMatrix.from_gram(vecs)


def random_window(rng, max_arcs=3):
    count = int(rng.integers(1, max_arcs + 1))
    pts = np.sort(rng.random(2 * count) * TWO_PI)
    arcs = tuple(
        (float(pts[2 * i]), float(pts[2 * i + 1]))
        for i in range(count)
        if pts[2 * i] < pts[2 * i + 1]
    )
    if not arcs:
        arcs = ((0.0, math.pi),)
    return PhaseWindow(arcs)


def walked_pairs(rows):
    """Complex array of nested [re, im] pairs by a pure-Python walk of the
    tree, level by level, with the rules numpy applies to a float array:
    lists, tuples and arrays are levels, the nodes of a level are all levels
    or all leaves, and levels of one depth have one length; each leaf
    converts by float(), None to nan.  The oracle of `hardy._complex_pairs`,
    which raises PhaseObsError exactly where this does."""
    level, shape = [rows], []
    while any(isinstance(node, (list, tuple, np.ndarray)) for node in level):
        if not all(isinstance(node, (list, tuple, np.ndarray)) for node in level):
            raise PhaseObsError("not a regular array")
        lengths = {len(node) for node in level}
        if len(lengths) != 1:
            raise PhaseObsError("not a regular array")
        shape.append(lengths.pop())
        level = [child for node in level for child in node]
    try:
        leaves = [math.nan if leaf is None else float(leaf) for leaf in level]
    except (TypeError, ValueError) as exc:
        raise PhaseObsError("not a regular array") from exc
    if not shape or shape[-1] != 2:
        raise PhaseObsError("not an array of pairs")
    return np.array(leaves, dtype=float).reshape(shape).view(complex)[..., 0]


def loop_fix_phase(vec):
    """One vector rotated so that its first component above 1e-8 of its
    largest is real positive: the per-vector form of
    `observable._fix_vector_phase`."""
    mags = np.abs(vec)
    peak = float(mags.max())
    if peak == 0.0:
        return vec
    idx = int(np.argmax(mags > 1e-8 * peak))
    pivot = vec[idx]
    return vec * (pivot.conjugate() / abs(pivot))


def eig2(a, b):
    """Eigenvalues of [[a, b], [conj(b), a]]: independent 2x2 oracle."""
    return a - abs(b), a + abs(b)


# Loop forms of the window quantities: the double sums exactly as defined,
# kept as oracles for the vectorized Schur-Toeplitz path.


def loop_window_integral(k, window):
    """(1/2pi) int_X exp(i k theta) dtheta, in closed form arc by arc."""
    if window.is_full_circle():
        return 1.0 + 0.0j if k == 0 else 0.0j
    total = 0.0j
    for lo, hi in window.arcs:
        if k == 0:
            total += (hi - lo) / TWO_PI
        else:
            total += (np.exp(1j * k * hi) - np.exp(1j * k * lo)) / (TWO_PI * 1j * k)
    return total


def loop_window_operator(matrix, window):
    """entries[n][m] = c_{n,m} * (1/2pi) int_X exp(i (n - m) theta) dtheta."""
    dim = matrix.dim
    entries = np.empty((dim, dim), dtype=complex)
    for n in range(dim):
        for m in range(dim):
            entries[n, m] = matrix.entries[n, m] * loop_window_integral(n - m, window)
    return entries


def loop_window_probability(matrix, psi, window):
    """sum_{n,m} conj(a_n) c_{n,m} t_{n-m} a_m, unclamped."""
    a = psi.padded(matrix.dim).coeffs
    entries = loop_window_operator(matrix, window)
    total = 0.0j
    for n in range(matrix.dim):
        for m in range(matrix.dim):
            total += a[n].conjugate() * entries[n, m] * a[m]
    return total.real


def loop_density(matrix, psi, phi, theta):
    """sum_{n,m} c_{n,m} exp(i (n - m) theta) conj(a_n) b_m at an array
    theta, with b = a when phi is None."""
    a = psi.padded(matrix.dim).coeffs
    b = a if phi is None else phi.padded(matrix.dim).coeffs
    theta = np.asarray(theta, dtype=float)
    total = np.zeros(theta.shape, dtype=complex)
    for n in range(matrix.dim):
        for m in range(matrix.dim):
            phase = np.exp(1j * (n - m) * theta)
            total += matrix.entries[n, m] * phase * a[n].conjugate() * b[m]
    return total


def trapezoid_coefficients(a: np.ndarray, grid_size: int) -> np.ndarray:
    """(1/G) sum_j exp(i n x_j) psi(x_j) for n = 0..s at x_j = 2*pi*j/G,
    psi(x) = sum_n a_n exp(-i n x): a itself once G > s.  The table of
    exp(-i n x_j) is gathered from the grid's roots of unity at (j n) mod G,
    so that no argument grows past 2*pi, and walked in blocks of about BLOCK
    entries, so that beyond the G roots its working memory does not grow
    with the grid.  The quadrature oracle of `distribution.kernel_apply`,
    which takes the coefficients themselves: the rule is exact for G > s."""
    n = np.arange(a.size)
    roots = np.exp(-1j * (TWO_PI * np.arange(grid_size) / grid_size))
    total = np.zeros(a.size, dtype=complex)
    rows = max(1, BLOCK // a.size)
    for lo in range(0, grid_size, rows):
        index = np.outer(np.arange(lo, min(lo + rows, grid_size)), n)
        index %= grid_size
        modes = roots[index]  # exp(-i n x_j) on this block of the grid
        total += (modes @ a).conj() @ modes
    return total.conj() / grid_size


def bincount_weights(matrix, psi, phi=None):
    """w_k = sum_{n-m=k} c_{n,m} conj(a_n) b_m for k = -(S-1)..(S-1), b = a
    unless phi is given, by binning the S x S products of the dense entries
    on their diagonals n - m: the oracle of the generator weights."""
    a = psi.padded(matrix.dim).coeffs
    b = a if phi is None else phi.padded(matrix.dim).coeffs
    dim = matrix.dim
    n = np.arange(dim)
    bins = np.subtract.outer(n, n).ravel() + (dim - 1)
    prod = (matrix.entries * np.outer(a.conj(), b)).ravel()
    size = 2 * dim - 1
    return np.bincount(bins, prod.real, size) + 1j * np.bincount(bins, prod.imag, size)


def arc_cdf(matrix, psi, theta):
    """Probability of [0, theta) at a 1-D array theta, as the pairing
    sum_k w_k t_k(theta) over k = -(S-1)..(S-1) with the arc symbol
    t_0 = theta/2pi, t_k = (exp(i k theta) - 1)/(2 pi i k) and
    t_{-k} = conj(t_k).  The weights w_k are the sums of the diagonals
    n - m = k of c_{n,m} conj(a_n) a_m.  O(S x N) memory."""
    a = psi.padded(matrix.dim).coeffs
    sandwich = matrix.entries * np.outer(a.conj(), a)
    upper = np.array([np.trace(sandwich, offset=-k) for k in range(matrix.dim)])
    lower = np.array([np.trace(sandwich, offset=k) for k in range(1, matrix.dim)])
    theta = np.asarray(theta, dtype=float)
    k = np.arange(1, matrix.dim)[:, None]
    arcs = (np.exp(1j * k * theta) - 1.0) / (TWO_PI * 1j * k)
    total = upper[0] * theta / TWO_PI + upper[1:] @ arcs + lower @ arcs.conj()
    return total.real


def bisect_sample(matrix, psi, count, seed):
    """Inverse-CDF sampling by plain bisection on [0, 2*pi): each round
    evaluates `arc_cdf` at every midpoint, until every bracket is at most
    1e-10 wide.  O(S x count) memory per round."""
    u = np.random.default_rng(seed).random(count)
    lo = np.zeros(count)
    hi = np.full(count, TWO_PI)
    while float(np.max(hi - lo, initial=0.0)) > 1e-10:
        mid = 0.5 * (lo + hi)
        below = arc_cdf(matrix, psi, mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)
