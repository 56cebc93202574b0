"""Phase probability densities, window probabilities, kernels, and sampling.

Every quantity pairs the phase matrix (c_{n,m}) with a Hermitian Toeplitz
symbol t, t_{-k} = conj(t_k): either as the sum sum_k w_k t_k over the
diagonal weights w_k = sum_{n-m=k} c_{n,m} conj(a_n) b_m of two states, or
as the Schur product C o T(t) with T(t)_{n,m} = t_{n-m}
(`observable.schur_toeplitz`).  The symbols are
exp(i k theta) for the density at theta, the window integral
(1/2pi) int_X exp(i k theta) dtheta for the probability of a window X, and
i/(m - n) for the first moment.  The density is a trigonometric polynomial
in theta and the CDF, the probability of [0, theta), is w_0 theta/2pi plus
one; `density`, `density_grid`, `exact_cdf` and `sample` evaluate them by
one Horner loop in z = exp(i theta) (`_horner`), in O(S N) time for N
angles taken BLOCK at a time, so that their working memory beyond the
weights and the result does not grow with N.  A point's value does not
depend on the blocking.  The kernel sandwich `kernel_apply` of a state
band-limited to s is a finite sum over its coefficients a_0..a_s: the
trapezoid rule on any grid of more than s points gives it exactly, so it
takes no grid.  Closed forms are used on every production path; quadrature
appears only in test oracles.
"""

from __future__ import annotations

import numpy as np

from .errors import PhaseObsError, ValidationError
from .hardy import BLOCK, TWO_PI, HardyState, PhaseWindow, _blocks, phase_shift, superpose
from .observable import PhaseMatrix, _diagonal_weights, _window_symbol, schur_toeplitz

# Imaginary residue / probability-bound tolerance: larger deviations signal
# an invalid matrix and raise instead of being clamped away.
TOL_PROB = 1e-10

# Width below which `sample` closes a bracket: half the 1e-10 of its contract.
_BRACKET = 5e-11
# A Newton step shorter than this is lengthened by it, past the root.
_OVERSHOOT = 1e-11
# Rounds after which `sample` only bisects, so that every draw closes.
_NEWTON_ROUNDS = 16


def _pair(w: np.ndarray, t: np.ndarray) -> complex:
    """sum_k w_k t_k over k = -(S-1)..(S-1) for a Hermitian symbol t_0..t_{S-1}
    (t_{-k} = conj(t_k)); the halves are summed apart, so weights that are
    not Hermitian leave an imaginary residue."""
    size = t.size
    upper = np.einsum("k,k", w[size - 1 :], t)
    return upper + np.einsum("k,k", w[: size - 1][::-1].conj(), t[1:]).conjugate()


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_j coeffs[r, j] z^j for each row r at a 1-D array z, accumulated
    in place: O(rows x N) memory."""
    acc = np.zeros((coeffs.shape[0], z.size), dtype=complex)
    for column in coeffs.T[::-1, :, None]:
        acc *= z
        acc += column
    return acc


def _check(excess: float, message: str) -> None:
    """Raise when `excess` is beyond tolerance: an invalid matrix, not
    rounding."""
    if excess > TOL_PROB:
        raise ValidationError(f"{message} {excess:g}")


def _residue(value) -> float:
    """The largest |imaginary part| of `value`."""
    return float(np.max(np.abs(np.imag(value)), initial=0.0))


def fourier_window_integral(k: int, window: PhaseWindow) -> complex:
    """(1/2pi) int_X exp(i k theta) dtheta, summed in closed form per arc."""
    t = _window_symbol(window, abs(k) + 1)[abs(k)]
    return complex(t if k >= 0 else t.conjugate())


def density(
    matrix: PhaseMatrix,
    psi: HardyState,
    phi: HardyState | None = None,
    theta=0.0,
):
    """f_{psi,phi}(theta) = sum_{n,m} c_{n,m} exp(i (n - m) theta) conj(a_n) b_m;
    theta may be an array, and the weights are built once for all of it.
    Each angle is evaluated alone (`_density_at`), so a lone theta and an
    array of them agree bit for bit."""
    rows = _density_rows(matrix, psi, phi)
    theta_arr = np.asarray(theta, dtype=float)
    flat = theta_arr.ravel()
    values = np.empty(flat.size, dtype=complex)
    for part in _blocks(flat.size, BLOCK):
        values[part] = _density_at(rows, flat[part])
    values = values.reshape(theta_arr.shape)
    return complex(values) if theta_arr.ndim == 0 else values


def _density_rows(matrix: PhaseMatrix, psi: HardyState, phi: HardyState | None = None):
    """The Horner rows w_0..w_{S-1} and conj(w_{-k}), k >= 1, of the density."""
    w = _diagonal_weights(matrix, psi, phi)
    rows = np.stack((w[matrix.dim - 1 :], w[matrix.dim - 1 :: -1].conj()))
    rows[1, 0] = 0.0
    return rows


def _density_at(rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """f = upper + conj(lower) at a 1-D array of theta, from `_density_rows`."""
    upper, lower = _horner(rows, np.exp(1j * theta))
    return upper + lower.conj()


def density_grid(matrix: PhaseMatrix, psi: HardyState, grid_size: int) -> np.ndarray:
    """Real density values at theta_j = 2*pi*j/G, for any G >= 1, after the
    imaginary-residue check."""
    if grid_size < 1:
        raise PhaseObsError("grid size must be >= 1")
    rows = _density_rows(matrix, psi)
    out = np.empty(grid_size)
    residue = 0.0
    for part in _blocks(grid_size, BLOCK):
        values = _density_at(rows, TWO_PI * np.arange(part.start, part.stop) / grid_size)
        residue = max(residue, _residue(values))
        out[part] = values.real
    _check(residue, "density has imaginary residue")
    return out


def window_probability(
    matrix: PhaseMatrix, psi: HardyState, window: PhaseWindow
) -> float:
    """(1/2pi) int_X f_{psi,psi}; imaginary residue below tolerance is
    discarded and values are clamped to [0, 1] only within tolerance.  The
    full circle has probability exactly 1."""
    value = _pair(_diagonal_weights(matrix, psi), _window_symbol(window, matrix.dim))
    _check(abs(value.imag), "window probability has imaginary residue")
    p = float(min(max(value.real, 0.0), 1.0))
    _check(abs(value.real - p), "window probability escapes [0, 1] by")
    # the pairing gives w_0 = ||psi||^2 there, a few ulps off 1 for a unit state
    return 1.0 if window.is_full_circle() else p


def window_operator(matrix: PhaseMatrix, window: PhaseWindow) -> np.ndarray:
    """E(X), read-only, with entry (n, m) c_{n,m} * (1/2pi) int_X
    exp(i (n-m) theta) dtheta.  The full circle yields the identity
    exactly."""
    return schur_toeplitz(matrix, _window_symbol(window, matrix.dim))


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
    """Partial-sum kernel sum_{n,m<=s} exp(-i n x) c_{n,m} exp(i m y), by
    `PhaseMatrix.bilinear`: one convolution for a builtin."""
    if not 0 <= s < matrix.dim:
        raise PhaseObsError(f"kernel order {s} outside [0, {matrix.dim})")
    n = np.arange(s + 1)
    left = np.exp(-1j * n * float(x))
    right = np.exp(1j * n * float(y))
    return complex(matrix.truncated(s + 1).bilinear(left, right))


def kernel_apply(matrix: PhaseMatrix, s: int, psi: HardyState, theta):
    """Kernel sandwich (1/2pi)^2 double integral of
    conj(psi(x)) C_s(x - theta, y - theta) psi(y), in closed form.

    psi must be band-limited to indices <= s.  The integrand is then a
    trigonometric polynomial of degree s in each variable, so the periodic
    trapezoid rule on any G > s points is exact (Trefethen & Weideman 2014)
    and projects psi onto its own coefficients a_0..a_s: the sandwich is the
    finite sum sum_{n,m<=s} conj(u_n) c_{n,m} u_m, u_n = a_n exp(-i n theta),
    which is the density at theta.  theta may be an array: each theta
    enters as the exact phase factors exp(+-i n theta).  The block C_s is
    applied by `PhaseMatrix.bilinear`, in O(S) for a builtin.
    """
    if not 0 <= s < matrix.dim:
        raise PhaseObsError(f"kernel order {s} outside [0, {matrix.dim})")
    a = psi.coeffs
    if a.size > s + 1 and np.any(a[s + 1 :] != 0):
        raise PhaseObsError(f"state is not band-limited to index {s}")
    n = np.arange(s + 1)
    right = np.zeros(s + 1, dtype=complex)
    right[: a.size] = a[: s + 1]
    block = matrix.truncated(s + 1)
    values = np.empty(np.shape(theta), dtype=complex)
    for index, t in np.ndenumerate(np.asarray(theta, dtype=float)):
        shifted = right * np.exp(-1j * n * t)
        values[index] = block.bilinear(shifted.conj(), shifted)
    residue = _residue(values)
    if residue > 1e-8:
        raise ValidationError(f"kernel sandwich has imaginary residue {residue:g}")
    return float(values.real) if values.ndim == 0 else values.real


def exact_cdf(matrix: PhaseMatrix, psi: HardyState, theta):
    """Probability of [0, theta); theta may be an array.  theta = 0 gives
    exactly 0, and theta = 2*pi closes the full circle, whose probability
    is exactly 1."""
    theta_arr = np.asarray(theta, dtype=float)
    flat = theta_arr.ravel()
    # min and max build no array; a nan fails both comparisons
    if flat.size and not (0.0 <= flat.min() and flat.max() <= TWO_PI):
        raise PhaseObsError(f"theta {theta} outside [0, 2*pi]")
    w = _diagonal_weights(matrix, psi)
    p = np.empty(flat.size)
    worst = 0.0
    for part in _blocks(flat.size, BLOCK):
        cdf = _cdf_and_slope(w, flat[part])[0]
        block = np.clip(cdf, 0.0, 1.0, out=p[part])
        worst = max(worst, float(np.max(np.abs(cdf - block))))
        # Horner gives w_0 = ||psi||^2 there, a few ulps off 1 for a unit state
        block[flat[part] == TWO_PI] = 1.0
    _check(worst, "cdf escapes [0, 1] by")
    p = p.reshape(theta_arr.shape)
    return float(p) if theta_arr.ndim == 0 else p


def _cdf_and_slope(w: np.ndarray, theta: np.ndarray):
    """F(theta) and F'(theta) = f(theta)/2pi at a 1-D array of theta, by
    Horner in z = exp(i theta): O(S) work per point, and no S x N array.
    Callers pass at most BLOCK points.

    With g_k = w_k/(2 pi i k), F = w_0 theta/2pi + 2 Re sum_k g_k (z^k - 1)
    = w_0 theta/2pi + 2 Re (z - 1) Q(z), where Q(z) = sum_j Q_j z^j and
    Q_j = sum_{k>j} g_k; the factor z - 1 makes F(0) exactly 0."""
    dim = (w.size + 1) // 2
    k = np.arange(1, dim)
    w0, g = w[dim - 1].real, w[dim:] / (1j * TWO_PI * k)
    z = np.exp(1j * theta)
    # row 0 sums Q_j z^j, row 1 w_{j+1} z^j/2pi = i (j+1) g_{j+1} z^j
    suffix = np.cumsum(g[::-1])[::-1]
    acc = _horner(np.stack((suffix, 1j * k * g)), z)
    # never into an input: numpy multiplies a lone complex element in place
    # by scalar code that rounds otherwise, so a block of one point would
    # differ from the same point in a longer block
    slope = acc[1] * z
    z -= 1.0
    cdf = np.multiply(acc[0], z, out=acc[1])
    return (w0 * theta / TWO_PI + 2.0 * cdf.real,
            w0 / TWO_PI + 2.0 * slope.real)


def _first_iterate(u, grid, table, nodes):
    """The bracket [lo, hi] of each u in its grid cell and the first iterate
    x, by linear interpolation in the table."""
    cell = np.clip(np.searchsorted(table, u), 1, grid.size - 1)
    # The table only locates the cell: its ends are kept where the pointwise
    # F brackets u, and replaced by 0 or 2pi, which bracket every u.
    lo = np.where(nodes[cell - 1] < u, grid[cell - 1], 0.0)
    hi = np.where(nodes[cell] >= u, grid[cell], TWO_PI)
    rise = table[cell] - table[cell - 1]
    share = np.divide(u - table[cell - 1], rise, out=np.full(u.size, 0.5), where=rise > 0)
    return lo, hi, np.clip(grid[cell - 1] + share * grid[1], lo, hi)


def _invert_cdf(w, u, grid, table, nodes) -> np.ndarray:
    """For each u, the midpoint of a bracket [lo, hi] narrower than
    _BRACKET with F(lo) < u <= F(hi), F evaluated pointwise; `nodes` is F
    evaluated pointwise on `grid`, and the non-decreasing `table` locates
    the cell of each u."""
    lo, hi, x = _first_iterate(u, grid, table, nodes)
    out = np.empty_like(u)
    todo = np.arange(u.size)
    count, rounds = u.size, 0
    while count:
        count = _newton_round(w, u, out, todo[:count], lo[:count], hi[:count], x[:count],
                              rounds < _NEWTON_ROUNDS)
        rounds += 1
    return out


def _newton_round(w, u, out, todo, lo, hi, x, newton: bool) -> int:
    """One round of `_invert_cdf` over the live draws `todo`, their brackets
    and iterates: a draw whose bracket closes is written to `out`, and the
    others move to the front of each array, in place, with their next
    iterate (a bisection unless `newton`).  Returns how many stay live; the
    round's temporaries are freed before the next one evaluates F."""
    cdf, slope = _cdf_and_slope(w, x)
    below = cdf < u[todo]
    np.copyto(lo, x, where=below)
    np.copyto(hi, x, where=~below)
    done = hi - lo < _BRACKET
    out[todo[done]] = 0.5 * (lo[done] + hi[done])
    live = ~done
    count = int(np.count_nonzero(live))
    arrays = (todo, lo, hi, x, cdf, slope, below)
    for v in arrays:
        v[:count] = v[live]
    todo, lo, hi, x, cdf, slope, below = (v[:count] for v in arrays)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = (u[todo] - cdf) / slope
    # a step too short to close the bracket is carried past the root, so
    # that the next evaluation lands on its far side
    short = np.abs(step) < _OVERSHOOT
    step[short] += np.where(below[short], _OVERSHOOT, -_OVERSHOOT)
    step += x  # the Newton iterate
    keep = (slope > 0) & (lo < step) & (step < hi) & newton
    x[:] = np.where(keep, step, 0.5 * (lo + hi))
    return count


def sample(
    matrix: PhaseMatrix, psi: HardyState, count: int, seed: int
) -> np.ndarray:
    """Inverse-CDF sampling of phase outcomes in [0, 2*pi).

    The CDF is exactly w_0 theta/2pi plus a trigonometric polynomial.  F is
    evaluated by Horner in exp(i theta) at the nodes of a grid of G >= 4S
    points (a power of two), and each uniform u is placed in a grid cell by
    binary search in the running maximum of those values.  Inside the cell,
    Newton steps with the exact derivative f/2pi (also by Horner) shrink a
    bracket F(lo) < u <= F(hi) that is checked against the pointwise F at
    the nodes and at each iterate; a step that leaves the bracket or meets
    a zero density is a bisection, and after _NEWTON_ROUNDS rounds every
    step is.  Each draw is the midpoint of a bracket narrower than 5e-11,
    half the 1e-10 of the sampling contract.  Nodes and draws are solved
    BLOCK at a time, so working memory beyond the returned array does not
    grow with `count`, and a draw does not depend on the blocking; the
    generator is private to the call, so a fixed seed is fully
    deterministic.
    """
    if count < 0:
        raise PhaseObsError("sample count must be non-negative")
    draws = np.random.default_rng(seed).random(count)
    w = _diagonal_weights(matrix, psi)
    size = 1 << (4 * matrix.dim - 1).bit_length()
    grid = TWO_PI * np.arange(size + 1) / size
    nodes = np.empty(size + 1)
    for part in _blocks(size + 1, BLOCK):
        nodes[part] = _cdf_and_slope(w, grid[part])[0]
    table = np.maximum.accumulate(nodes)
    for part in _blocks(count, BLOCK):
        draws[part] = _invert_cdf(w, draws[part], grid, table, nodes)
    return draws
