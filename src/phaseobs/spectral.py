"""First-moment (Toeplitz) operators and nonlocalizability probes.

The first moment of a phase observable has entries pi on the diagonal and
c_{n,m} * i/(m - n) off it; its spectrum sits inside [0, 2*pi].  The
nonlocalizability probe reports the largest eigenvalue of a window
operator: strictly below 1 whenever the window misses part of the circle,
approaching 1 monotonically as the truncation grows.

On one arc of length L centred at c the window symbol is
exp(i k c) sin(k L/2)/(pi k), so E(X) = D (C o P) D^* with
D = diag(exp(i n c)) and P the real prolate symbol (Slepian 1978).  Every
C on one arc is solved in that form: a real C takes a real symmetric
eigensolve, several times cheaper than the complex Hermitian one, and a
real persymmetric C (J C J = C for the reversal J, as every builtin is)
splits C o P into even and odd blocks of half the size (Cantoni & Butler
1976); two or more arcs and the full circle take E(X) itself.  The
values come from eigvalsh; the maximizer from inverse iteration, or from
eigh where the top eigenvalue is not simple.

The gap 1 - lambda_max shrinks like exp(-c S) for the canonical matrix, so
a dense double eigensolve cannot resolve it beyond S ~ 20.  Where it
cannot, the canonical matrix on a single arc takes an exact path through
Slepian's prolate matrix in mpmath; any other case is refused.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PrecisionError
from .hardy import TWO_PI, HardyState, PhaseWindow, normalize
from .observable import (PhaseMatrix, _arc_symbol, _fix_vector_phase, _real_form,
                         _schur_toeplitz, _window_symbol, schur_toeplitz)

# A dense symmetric eigensolve is backward stable: lambda_max carries an
# absolute error of order S * eps * ||E||, and ||E|| <= 1.  1 - lambda_max
# from eigh is trusted only above 8 * S * eps; the errors seen stay below
# 1.3 * S * eps (300 random canonical arcs, S < 90) and 0.1 * S * eps (half
# circle, S = 32, 64, 512).
_DENSE_RESOLUTION = 8 * np.finfo(float).eps

# Working-precision ceiling of the exact path, in decimal digits: a gap
# below about 10**-20000 is refused rather than computed.
_MAX_DIGITS = 20_000
_MAX_RQI_STEPS = 30
# Inverse-iteration solves for a maximizer before eigh takes over.
_INVERSE_SOLVES = 3


def first_moment(matrix: PhaseMatrix) -> np.ndarray:
    """The read-only operator with entry (n, m) c_{n,m} t_{n-m}, t_0 = pi,
    t_k = -i/k: pi on the diagonal and c_{n,m} * i / (m - n) off it;
    spectrum in [0, 2*pi]."""
    t = np.empty(matrix.dim, dtype=complex)
    t[0] = math.pi
    t[1:] = -1j / np.arange(1, matrix.dim)
    return schur_toeplitz(matrix, t)


def moment_spectrum(matrix: PhaseMatrix) -> np.ndarray:
    """Ascending real eigenvalues of the first-moment operator.

    For a real C the operator is pi I + i B with B_{nm} = c_{nm} / (m - n)
    real antisymmetric.  If C is also persymmetric (as every builtin is),
    J B J = -B for the reversal J, which makes R = J B symmetric and
    unitarily similar to i B, with J R J = -R: R maps even vectors
    (x = J x) to odd ones.  In the basis (y, +-J y)/sqrt2 it is
    [[0, K^T], [K, 0]] with K = R_11 + R_12 J (and sqrt2 R_{n,mid} as a
    last column for an odd size), so the spectrum is pi +- svdvals(K), plus
    pi once for an odd size (Cantoni & Butler 1976): a real solve at half
    size, symmetric about pi by construction.
    """
    c, persymmetric = _real_form(matrix)
    if not persymmetric:
        return np.linalg.eigvalsh(first_moment(matrix))
    size, half = matrix.dim, matrix.dim // 2
    # R_{nm} = (J B)_{nm} = c_{S-1-n,m} h_{n+m}: h_j = 1/(j - (S-1)), h_{S-1} = 0
    offsets = np.arange(2 * size - 1, dtype=float) - (size - 1)
    h = np.divide(1.0, offsets, out=np.zeros_like(offsets), where=offsets != 0)
    # the top rows of c_{S-1-n,m} and of h_{n+m}, taken half x half
    rows, hankel = c[::-1][:half], sliding_window_view(h, size)[:half]
    k = rows[:, :half] * hankel[:, :half]
    k += rows[:, ::-1][:, :half] * hankel[:, ::-1][:, :half]
    if size % 2:
        k = np.column_stack((k, math.sqrt(2) * (rows[:, half] * hankel[:, half])))
    s = np.linalg.svd(k, compute_uv=False)  # descending
    return math.pi + np.concatenate((-s, np.zeros(size % 2), s[::-1]))


class Localization(NamedTuple):
    """lambda_max with its gap 1 - lambda_max, both floats on the "dense"
    path and mpmath numbers at working precision on the "prolate" path;
    the maximizer is None when only the values were asked for.

    A prolate lam and gap belong to an mpmath context private to the call:
    they are not instances of `mpmath.mpf`, and two calls give two classes.
    Compare them by value, and tell the paths apart by `method`."""

    lam: Any
    gap: Any
    method: str
    maximizer: HardyState | None


def _unit(vec: np.ndarray) -> HardyState:
    return normalize(_fix_vector_phase(vec))


def _prolate_top(ctx, size: int, length) -> list:
    """Unit top eigenvector of the tridiagonal that commutes with the prolate
    matrix of half-bandwidth W = length / 4pi (diagonal ((S-1)/2 - n)^2
    cos 2piW, off-diagonal n (S - n) / 2; Slepian 1978, Percival & Walden
    1993 ch. 8), by Rayleigh quotient iteration from the double eigenvector.
    Its spectrum is simple and its top eigenvector is the prolate's, which is
    even (Slepian 1978): the double start comes from the even block alone."""
    cos = ctx.cos(length / 2)
    diag = [(ctx.mpf(size - 1) / 2 - n) ** 2 * cos for n in range(size)]
    off = [ctx.mpf(n * (size - n)) / 2 for n in range(1, size)]
    f_off = np.array(off, dtype=float)
    dense = np.diag(np.array(diag, dtype=float)) + np.diag(f_off, 1) + np.diag(f_off, -1)
    start = _lift(np.linalg.eigh(_halves(dense)[0])[1][:, -1], size, 1.0)
    v = [ctx.mpf(float(x)) for x in start * np.sign(start.sum())]
    tol = ctx.mpf(10) ** (-ctx.dps // 2)
    for _ in range(_MAX_RQI_STEPS):
        tv = [d * x for d, x in zip(diag, v)]
        for n, b in enumerate(off):
            tv[n] += b * v[n + 1]
            tv[n + 1] += b * v[n]
        mu = ctx.fdot(v, tv)
        # (T - mu) x = v by elimination without pivoting: mu is at most the
        # top eigenvalue and close to it, so every leading block of T - mu is
        # negative definite and only the last pivot can vanish.
        pivots, rhs = [diag[0] - mu], [v[0]]
        for n, b in enumerate(off):
            ratio = b / pivots[-1]
            pivots.append(diag[n + 1] - mu - ratio * b)
            rhs.append(v[n + 1] - ratio * rhs[-1])
        if pivots[-1] == 0:
            pivots[-1] = ctx.eps * size * size
        x = [rhs[-1] / pivots[-1]]
        for n in range(size - 2, -1, -1):
            x.append((rhs[n] - off[n] * x[-1]) / pivots[n])
        x.reverse()
        scale = ctx.sqrt(ctx.fdot(x, x)) * ctx.sign(ctx.fsum(x))
        x = [xi / scale for xi in x]
        if max(abs(a - b) for a, b in zip(x, v)) < tol:
            return x
        v = x
    raise PrecisionError(f"prolate eigenvector at S={size} did not converge")


def _prolate_row(ctx, size: int, length, c: int) -> list:
    """Row c of the prolate matrix of an arc of length L: P_cm =
    sin(x (c - m)) / (pi (c - m)) with x = L/2, and P_cc = L / 2pi.

    The sines come from sin((j+1) x) = 2 cos x sin(j x) - sin((j-1) x) in
    place of S separate evaluations.  An error made at step j reaches
    sin(k x) multiplied by sin((k-j) x) / sin x, so the recurrence carries
    log10(S / sin x) + 5 guard digits."""
    x = length / 2
    with ctx.extradps(int(math.log10(size / math.sin(float(x)))) + 5):
        twice_cos = 2 * ctx.cos(x)
        sines = [ctx.zero, ctx.sin(x)]
        while len(sines) < size:
            sines.append(twice_cos * sines[-1] - sines[-2])
    return [sines[abs(c - m)] / (ctx.pi * abs(c - m)) if m != c else length / (2 * ctx.pi)
            for m in range(size)]


def _prolate_gap(size: int, start: float, end: float) -> tuple[Any, np.ndarray]:
    """1 - lambda_max and the unit top eigenvector of the prolate matrix
    P_{nm} = sin(L (n - m) / 2) / (pi (n - m)), P_nn = L / 2pi, of the arc
    from `start` to `end` (through 2pi when end <= start) of length L.

    v is an eigenvector of P to working precision, so one row gives the
    gap: 1 - (P v)_c / v_c at the largest component c, which costs O(S)
    where v^T P v costs O(S^2) and agrees with it to the working precision.
    The gap is kept only when it stands 20 digits above S times the
    rounding unit; the working precision starts at 0.8 S + 30 digits (the
    half-circle gap falls like 10**(-0.76 S)) and grows until it does."""
    from mpmath import MPContext

    ctx = MPContext()
    digits = int(0.8 * size) + 30
    while digits <= _MAX_DIGITS:
        ctx.dps = digits
        turn = 2 * ctx.pi
        lo, hi = (turn if x == TWO_PI else ctx.mpf(x) for x in (start, end))
        length = hi - lo + (turn if end <= start else 0)
        v = _prolate_top(ctx, size, length)
        c = max(range(size), key=v.__getitem__)
        row = _prolate_row(ctx, size, length, c)
        gap = 1 - ctx.fdot(row, v) / v[c]
        if gap > size * ctx.mpf(10) ** (20 - digits):
            return gap, np.array(v, dtype=float)
        digits = 2 * digits if gap <= 0 else int(-ctx.log10(gap / size)) + 40
    raise PrecisionError(
        f"1 - lambda_max at S={size} is below 10**-{_MAX_DIGITS}, the precision "
        "ceiling of the exact path"
    )


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of a real symmetric a with J a J = a: in the
    basis (y, +-J y)/sqrt2 a is diag(A_11 + A_12 J, A_11 - A_12 J), and for
    an odd size the middle row and column join the even block, scaled by
    sqrt2 (Cantoni & Butler 1976)."""
    size, half = a.shape[0], a.shape[0] // 2
    a11, a12j = a[:half, :half], a[:half, ::-1][:, :half]
    even = np.empty((size - half, size - half))
    even[:half, :half] = a11 + a12j
    if size % 2:
        even[half, :half] = even[:half, half] = math.sqrt(2) * a[half, :half]
        even[half, half] = a[half, half]
    return even, a11 - a12j


def _lift(y: np.ndarray, size: int, sign: float) -> np.ndarray:
    """(y, sign J y)/sqrt2 of length `size` from an eigenvector y of the even
    (sign +1) or odd (sign -1) block of `_halves`; y of the even block ends
    in the middle entry at an odd size."""
    half = size // 2
    v = np.zeros(size)
    v[:half] = y[:half] / math.sqrt(2)
    v[size - half:] = sign * v[:half][::-1]
    if size % 2 and sign > 0:
        v[half] = y[half]
    return v


def _inverse_iteration(a: np.ndarray, lam: float, bound: float) -> np.ndarray | None:
    """Unit eigenvector of the Hermitian a for its simple eigenvalue lam, by
    at most _INVERSE_SOLVES solves of (a - lam I) x = y from a fixed start;
    None when ||a y - lam y|| stays above `bound` or a - lam I is singular."""
    shifted = a.copy()
    shifted[np.diag_indices_from(a)] -= lam
    y = np.ones(a.shape[0], dtype=a.dtype)
    for _ in range(_INVERSE_SOLVES):
        try:
            y = np.linalg.solve(shifted, y)
        except np.linalg.LinAlgError:
            return None
        y /= np.linalg.norm(y)
        if np.linalg.norm(a @ y - lam * y) <= bound:
            return y
    return None


def _top_vector(entries, blocks, spectra, win: int, bound: float) -> np.ndarray:
    """Top eigenvector of `entries`, whose eigenvalues are the `spectra` of
    its `blocks` (itself, or the two `_halves`), the top one in blocks[win]:
    inverse iteration on that block, lifted to full size, or eigh of
    `entries` where the top eigenvalue is not simple to `bound` or the
    iteration does not reach it."""
    values = np.sort(np.concatenate(spectra))
    if values.size == 1 or values[-1] - values[-2] > bound:
        y = _inverse_iteration(blocks[win], values[-1], bound)
        if y is not None:
            return y if len(blocks) == 1 else _lift(y, entries.shape[0], 1.0 - 2 * win)
    return np.linalg.eigh(entries)[1][:, -1]


def localization(matrix: PhaseMatrix, window: PhaseWindow,
                 maximizer: bool = True) -> Localization:
    """lambda_max, its gap and maximizer, with the path that resolved them.

    lambda_max comes from a dense eigvalsh and is kept wherever
    1 - lambda_max clears its error bound (and on the full circle, where
    lambda_max = 1 exactly).  On one arc of length L centred at c,
    E(X) = D (C o P) D^* with D = diag(exp(i n c)) and P the real prolate
    symbol; that form is solved, real for a real C, and for a real
    persymmetric C through its even and odd blocks at half size.  The
    maximizer v, lifted to D v, comes from inverse iteration on the block
    or operator that holds lambda_max; where that eigenvalue is not simple
    to the bound or the residual does not reach it, from eigh of the whole
    operator.  Below the bound the canonical matrix on a single arc takes
    the prolate path; anything else raises PrecisionError.
    """
    full = window.is_full_circle()
    arc = None if full else window.arc
    if arc is not None:
        start, end = arc
        length = end - start + (TWO_PI if end <= start else 0.0)
        phases = np.exp(1j * np.arange(matrix.dim) * (start + length / 2))
        c, persymmetric = _real_form(matrix)
        entries = _schur_toeplitz(c, _arc_symbol(matrix.dim, length))
    else:
        phases = 1.0  # E(X) itself: no diagonal unitary to undo
        entries = schur_toeplitz(matrix, _window_symbol(window, matrix.dim))
    split = arc is not None and matrix.dim > 1 and persymmetric
    blocks = _halves(entries) if split else (entries,)
    spectra = [np.linalg.eigvalsh(b) for b in blocks]
    win = int(np.argmax([s[-1] for s in spectra]))
    lam = float(spectra[win][-1])
    bound = _DENSE_RESOLUTION * matrix.dim
    if 1.0 - lam > bound or full:
        top = None
        if maximizer:
            top = _unit(_top_vector(entries, blocks, spectra, win, bound) * phases)
        return Localization(lam, 1.0 - lam, "dense", top)
    if arc is None or not np.all(c == 1):
        raise PrecisionError(
            f"1 - lambda_max = {1.0 - lam:.3g} at truncation S={matrix.dim} is "
            f"within the dense eigensolver's error bound 8*S*eps = {bound:.3g}; "
            "the exact path covers only the canonical matrix on a single arc"
        )
    gap, vec = _prolate_gap(matrix.dim, start, end)
    top = _unit(vec * phases) if maximizer else None
    return Localization(1 - gap, gap, "prolate", top)

