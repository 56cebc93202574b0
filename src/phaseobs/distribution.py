"""Phase probability densities, window probabilities, kernels, and sampling.

Every quantity pairs the phase matrix (c_{n,m}) with a Hermitian Toeplitz
symbol t, t_{-k} = conj(t_k): either as the sum sum_k w_k t_k over the
diagonal weights w_k = sum_{n-m=k} c_{n,m} conj(a_n) b_m of two states, or
as the Schur product C o T(t) with T(t)_{n,m} = t_{n-m}.  The symbols are
exp(i k theta) for the density at theta, the window integral
(1/2pi) int_X exp(i k theta) dtheta for the probability of a window X
(X = [0, theta) for the CDF), and i/(m - n) for the first moment.  Closed
forms are used on every production path; quadrature appears only in test
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PhaseObsError, ValidationError
from .hardy import TWO_PI, HardyState, PhaseWindow, phase_shift, superpose
from .observable import PhaseMatrix

# Imaginary residue / probability-bound tolerance: larger deviations signal
# an invalid matrix and raise instead of being clamped away.
TOL_PROB = 1e-10


def _aligned(matrix: PhaseMatrix, state: HardyState) -> np.ndarray:
    if state.dim > matrix.dim:
        raise PhaseObsError(
            f"state dimension {state.dim} exceeds matrix dimension {matrix.dim}"
        )
    return state.padded(matrix.dim).coeffs


def _fold(bins: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Complex sums of `values` over equal `bins`, for bins 0..size-1."""
    return np.bincount(bins, values.real, size) + 1j * np.bincount(
        bins, values.imag, size
    )


def _diagonal_weights(
    matrix: PhaseMatrix, psi: HardyState, phi: HardyState | None = None
) -> np.ndarray:
    """w_k = sum_{n-m=k} c_{n,m} conj(a_n) b_m for k = -(S-1)..(S-1), with
    b = a unless phi is given, so that f_{psi,phi}(theta) = sum_k w_k
    exp(i k theta)."""
    a = _aligned(matrix, psi)
    b = a if phi is None or phi is psi else _aligned(matrix, phi)
    dim = matrix.dim
    n = np.arange(dim)
    bins = np.subtract.outer(n, n).ravel() + (dim - 1)
    prod = (matrix.entries * np.outer(a.conj(), b)).ravel()
    return _fold(bins, prod, 2 * dim - 1)


def _arc_symbol(size: int, lo: float, hi) -> np.ndarray:
    """(1/2pi) int_lo^hi exp(i k theta) dtheta for k = 0..size-1 along the
    first axis, broadcast over an array `hi`; a whole turn is exactly the
    delta symbol."""
    k = np.arange(size).reshape((size,) + (1,) * np.ndim(hi))
    # row k = 0 is overwritten below; max(k, 1) only keeps 0/0 out
    t = (np.exp(1j * k * hi) - np.exp(1j * k * lo)) / (TWO_PI * 1j * np.maximum(k, 1))
    t[0] = (hi - lo) / TWO_PI
    # exp(2*pi*i*k) rounds to 1 + O(k eps), so zero the k > 0 terms by hand
    t[1:] *= hi - lo != TWO_PI
    return t


def _window_symbol(window: PhaseWindow, size: int) -> np.ndarray:
    """Window integrals t_k for k = 0..size-1, summed in closed form per arc."""
    arcs = ((0.0, TWO_PI),) if window.is_full_circle() else window.arcs
    return sum((_arc_symbol(size, lo, hi) for lo, hi in arcs), np.zeros(size, complex))


def _pair(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k w_k t_k over k = -(S-1)..(S-1), for weights w from
    `_diagonal_weights` and a Hermitian symbol given by t_0..t_{S-1} along
    the first axis of t (t_{-k} = conj(t_k)).  einsum sums each column in
    the same order whatever the trailing shape, so a lone theta and a grid
    of them agree bit for bit."""
    size = t.shape[0]
    upper = np.einsum("k,k...->...", w[size - 1 :], t)
    lower = np.einsum("k,k...->...", w[: size - 1][::-1].conj(), t[1:])
    return upper + lower.conj()


def _schur_toeplitz(entries: np.ndarray, t: np.ndarray) -> np.ndarray:
    """C o T(t): entry (n, m) is c_{n,m} t_{n-m} for the Hermitian symbol
    t_0..t_{S-1}; T(t) is a strided view of the symbol, never materialized."""
    size = entries.shape[0]
    full = np.concatenate((t[:0:-1].conj(), t))  # t_{-(S-1)} .. t_{S-1}
    return entries * sliding_window_view(full[::-1], size)[::-1]


def _probability(value, what: str):
    """Real part of `value` after the imaginary-residue check, clamped to
    [0, 1] only within tolerance."""
    residue = float(np.max(np.abs(np.imag(value)), initial=0.0))
    if residue > TOL_PROB:
        raise ValidationError(f"{what} has imaginary residue {residue:g}")
    p = np.real(value)
    worst = float(np.max(np.abs(p - np.clip(p, 0.0, 1.0)), initial=0.0))
    if worst > TOL_PROB:
        raise ValidationError(f"{what} escapes [0, 1] by {worst:g}")
    return np.clip(p, 0.0, 1.0)


def fourier_window_integral(k: int, window: PhaseWindow) -> complex:
    """(1/2pi) int_X exp(i k theta) dtheta, summed in closed form per arc."""
    t = _window_symbol(window, abs(k) + 1)[abs(k)]
    return complex(t if k >= 0 else t.conjugate())


def density(
    matrix: PhaseMatrix,
    psi: HardyState,
    phi: HardyState | None = None,
    theta: float = 0.0,
) -> complex:
    """f_{psi,phi}(theta) = sum_{n,m} c_{n,m} exp(i (n - m) theta) conj(a_n) b_m."""
    w = _diagonal_weights(matrix, psi, phi)
    return complex(_pair(w, np.exp(1j * np.arange(matrix.dim) * float(theta))))


def density_grid(matrix: PhaseMatrix, psi: HardyState, grid_size: int) -> np.ndarray:
    """Real density values at theta_j = 2*pi*j/G, exact for any G >= 1.

    exp(i k theta_j) depends on k only modulo G, so the weights are folded
    into G bins and one inverse FFT evaluates the grid.
    """
    if grid_size < 1:
        raise PhaseObsError("grid size must be >= 1")
    dim = matrix.dim
    bins = np.arange(1 - dim, dim) % grid_size
    spectrum = _fold(bins, _diagonal_weights(matrix, psi), grid_size)
    values = grid_size * np.fft.ifft(spectrum)
    worst_imag = float(np.max(np.abs(values.imag)))
    if worst_imag > TOL_PROB:
        raise ValidationError(f"density has imaginary residue {worst_imag:g}")
    return values.real


def window_probability(
    matrix: PhaseMatrix, psi: HardyState, window: PhaseWindow
) -> float:
    """(1/2pi) int_X f_{psi,psi}; imaginary residue below tolerance is
    discarded and values are clamped to [0, 1] only within tolerance."""
    value = _pair(_diagonal_weights(matrix, psi), _window_symbol(window, matrix.dim))
    return float(_probability(value, "window probability"))


@dataclass(frozen=True, eq=False)
class WindowOperator:
    """Truncated POM effect E(X): Hermitian with spectrum in [0, 1]."""

    entries: np.ndarray
    window: PhaseWindow
    source: str

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def expectation(self, psi: HardyState) -> float:
        a = psi.padded(self.dim).coeffs
        return float(np.real(a.conj() @ self.entries @ a))


def window_operator(
    matrix: PhaseMatrix, window: PhaseWindow, dim: int | None = None
) -> WindowOperator:
    """entries[n][m] = c_{n,m} * (1/2pi) int_X exp(i (n-m) theta) dtheta.

    `dim` selects a top-left truncation of the matrix (default: full size).
    The full circle yields the identity exactly.
    """
    mat = matrix if dim is None else matrix.truncated(dim)
    entries = _schur_toeplitz(mat.entries, _window_symbol(window, mat.dim))
    return WindowOperator(entries=entries, window=window, source=mat.label)


def check_interference(
    matrix: PhaseMatrix,
    psi: HardyState,
    phi: HardyState,
    c1: complex,
    c2: complex,
    theta: float,
) -> float:
    """Residual of the sesquilinear expansion of f at a normalized
    superposition c1*psi + c2*phi; zero for a genuine phase observable."""
    combined = superpose(c1, psi, c2, phi)
    lhs = density(matrix, combined, combined, theta)
    rhs = (
        abs(c1) ** 2 * density(matrix, psi, psi, theta)
        + abs(c2) ** 2 * density(matrix, phi, phi, theta)
        + np.conj(c1) * c2 * density(matrix, psi, phi, theta)
        + c1 * np.conj(c2) * density(matrix, phi, psi, theta)
    )
    return abs(lhs - rhs)


def check_covariance(
    matrix: PhaseMatrix, psi: HardyState, alpha: float, window: PhaseWindow
) -> float:
    """Residual of phase-shift covariance: shifting the state equals
    shifting the window."""
    lhs = window_probability(matrix, phase_shift(psi, alpha), window)
    rhs = window_probability(matrix, psi, window.shifted(alpha))
    return abs(lhs - rhs)


def kernel_C(matrix: PhaseMatrix, s: int, x: float, y: float) -> complex:
    """Partial-sum kernel sum_{n,m<=s} exp(-i n x) c_{n,m} exp(i m y)."""
    if not 0 <= s < matrix.dim:
        raise PhaseObsError(f"kernel order {s} outside [0, {matrix.dim})")
    n = np.arange(s + 1)
    left = np.exp(-1j * n * float(x))
    right = np.exp(1j * n * float(y))
    return complex(left @ matrix.entries[: s + 1, : s + 1] @ right)


def kernel_apply(
    matrix: PhaseMatrix,
    s: int,
    psi: HardyState,
    theta: float,
    grid_size: int = 4096,
) -> float:
    """Kernel sandwich (1/2pi)^2 double integral of
    conj(psi(x)) C_s(x - theta, y - theta) psi(y) by the periodic
    trapezoid rule on a G x G grid (computed separably).

    Requires psi band-limited to indices <= s; then the result matches the
    density at theta once G exceeds the band limit.
    """
    if not 0 <= s < matrix.dim:
        raise PhaseObsError(f"kernel order {s} outside [0, {matrix.dim})")
    a = psi.coeffs
    if a.size > s + 1 and np.any(a[s + 1 :] != 0):
        raise PhaseObsError(f"state is not band-limited to index {s}")
    if grid_size < 2:
        raise PhaseObsError("grid size must be >= 2")
    xs = TWO_PI * np.arange(grid_size) / grid_size
    n = np.arange(s + 1)
    samples = np.exp(-1j * np.outer(xs, np.arange(a.size))) @ a  # psi on grid
    modes = np.exp(-1j * np.outer(n, xs - float(theta)))
    left = modes @ samples.conj() / grid_size
    right = (modes.conj() @ samples) / grid_size
    value = complex(left @ matrix.entries[: s + 1, : s + 1] @ right)
    if abs(value.imag) > 1e-8:
        raise ValidationError(f"kernel sandwich has imaginary residue {value.imag:g}")
    return value.real


def exact_cdf(matrix: PhaseMatrix, psi: HardyState, theta):
    """Probability of [0, theta); theta may be an array, and theta = 2*pi
    closes the full circle."""
    theta_arr = np.asarray(theta, dtype=float)
    if not np.all((0.0 <= theta_arr) & (theta_arr <= TWO_PI)):
        raise PhaseObsError(f"theta {theta} outside [0, 2*pi]")
    arcs = _arc_symbol(matrix.dim, 0.0, theta_arr)
    p = _probability(_pair(_diagonal_weights(matrix, psi), arcs), "cdf")
    if np.isscalar(theta) or theta_arr.ndim == 0:
        return float(p)
    return p


def sample(
    matrix: PhaseMatrix, psi: HardyState, count: int, seed: int
) -> np.ndarray:
    """Inverse-CDF sampling of phase outcomes in [0, 2*pi).

    Bisection (never Newton: the density may vanish) narrows each bracket
    below 1e-10, each round pairing the weights with the [0, mid) arc
    symbol of every midpoint; the generator is private to the call, so a
    fixed seed is fully deterministic.
    """
    if count < 0:
        raise PhaseObsError("sample count must be non-negative")
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    weights = _diagonal_weights(matrix, psi)
    lo = np.zeros(count)
    hi = np.full(count, TWO_PI)
    while float(np.max(hi - lo, initial=0.0)) > 1e-10:
        mid = 0.5 * (lo + hi)
        below = _pair(weights, _arc_symbol(matrix.dim, 0.0, mid)).real < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)
