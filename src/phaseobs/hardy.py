"""Truncated Hardy-space states and phase windows.

A state holds the Fourier coefficients (a_0, ..., a_{S-1}) of the phase
wave function psi(theta) = sum_n a_n exp(-i n theta), normalized so that
sum |a_n|^2 = 1; psi (`evaluate`) and the density and CDF of
`distribution` all take the one Horner loop `_horner`.  A window is a
finite union of disjoint half-open arcs inside [0, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhaseObsError, ValidationError

TWO_PI = 2.0 * math.pi

# Unit-norm tolerance; double precision leaves ample headroom up to S = 4096.
TOL_NORM = 1e-12

# Points that a pointwise evaluation (density, CDF, draws) and the CSV writer
# take at a time, so that their working memory does not grow with the number
# of points.
BLOCK = 8192


def _blocks(size: int, step: int):
    """Consecutive slices of at most `step` indices that cover range(size)."""
    return (slice(lo, min(lo + step, size)) for lo in range(0, size, step))


def _member(data, key: str, what: str):
    """data[key] of a JSON object read as a `what` (a state, a window, a
    matrix, ...), refused with a message naming the field when data is not
    an object or has no `key`."""
    if type(data) is not dict:
        raise PhaseObsError(f"a {what} must be a JSON object, not {type(data).__name__}")
    if key not in data:
        raise PhaseObsError(f"{what} has no {key!r} field")
    return data[key]


def canonical_angle(alpha: float) -> float:
    """Reduce an angle to [0, 2*pi) by exact floating-point remainder."""
    alpha = math.fmod(alpha, TWO_PI)
    if alpha < 0.0:
        alpha += TWO_PI
    return alpha


def _as_complex_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1 or arr.size < 1:
        raise PhaseObsError("coefficients must form a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise PhaseObsError("coefficients must be finite")
    return arr


def _pair_list(values, what: str) -> list[tuple[float, float]]:
    message = f"{what} must be a list of finite [lo, hi] pairs"
    try:
        pairs = [tuple(float(x) for x in item) for item in values]
    except (TypeError, ValueError) as exc:
        raise PhaseObsError(message) from exc
    if not all(len(pair) == 2 and all(map(math.isfinite, pair)) for pair in pairs):
        raise PhaseObsError(message)
    return pairs


def _complex_pairs(rows, what: str) -> np.ndarray:
    """Complex array from nested [re, im] pairs (the last axis of `rows`)."""
    try:
        arr = np.ascontiguousarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise PhaseObsError(f"{what} must be a regular array of pairs") from exc
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise PhaseObsError(f"{what} entries must be [re, im] pairs")
    # reinterpret each float64 pair as one complex128: exact, zero-copy
    return arr.view(complex)[..., 0]


def _pair_floats(arr: np.ndarray) -> np.ndarray:
    """The (..., 2) float view of a complex array: [re, im] along the last
    axis.  orjson writes it as the nested lists of `_pairs`, byte for byte."""
    arr = np.ascontiguousarray(arr)
    return arr.view(float).reshape(arr.shape + (2,))


def _pairs(arr: np.ndarray) -> list:
    """Nested [re, im] lists of a complex array, the inverse of
    `_complex_pairs`."""
    return _pair_floats(arr).tolist()


@dataclass(frozen=True, eq=False)
class HardyState:
    """Unit vector of the truncated Hardy space, stored as Fourier coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vector(self.coeffs).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > TOL_NORM:
            raise ValidationError(
                f"state norm {norm} deviates from 1 beyond {TOL_NORM}"
            )

    @property
    def dim(self) -> int:
        return self.coeffs.size

    @classmethod
    def basis(cls, n: int, dim: int) -> "HardyState":
        """Number state eta_n at truncation `dim` (coefficient a_n = 1)."""
        if not 0 <= n < dim:
            raise PhaseObsError(f"basis index {n} outside [0, {dim})")
        c = np.zeros(dim, dtype=complex)
        c[n] = 1.0
        return cls(c)

    def padded(self, dim: int) -> "HardyState":
        """Zero-pad to a larger truncation (identity if already that size)."""
        if dim < self.dim:
            raise PhaseObsError("cannot pad to a smaller dimension")
        if dim == self.dim:
            return self
        c = np.zeros(dim, dtype=complex)
        c[: self.dim] = self.coeffs
        return HardyState(c)

    def to_dict(self) -> dict:
        return {"coeffs": _pairs(self.coeffs)}

    @classmethod
    def from_dict(cls, data: dict) -> "HardyState":
        return cls(_complex_pairs(_member(data, "coeffs", "state"), "coeffs"))


def normalize(raw) -> HardyState:
    """Scale a raw coefficient vector to unit norm.

    The vector is first scaled by the power of two nearest 1/max|a_n|
    (an exact step), so the squares summed by the norm can neither overflow
    nor underflow: entries of 1e200 or 1e-320 normalize like any others.
    """
    pairs = np.ascontiguousarray(_as_complex_vector(raw)).view(float)
    peak = float(np.max(np.abs(pairs)))
    if peak == 0.0:
        raise PhaseObsError("cannot normalize the zero vector")
    arr = np.ldexp(pairs, -math.frexp(peak)[1]).view(complex)
    return HardyState(arr / np.linalg.norm(arr))


def phase_shift(psi: HardyState, alpha: float) -> HardyState:
    """Shift the phase: new wave function is theta -> psi(theta + alpha).

    Multiplies a_n by exp(-i n alpha); the norm is preserved exactly.
    """
    alpha = canonical_angle(alpha)
    if alpha == 0.0:
        return psi
    n = np.arange(psi.dim)
    return HardyState(psi.coeffs * np.exp(-1j * n * alpha))


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_j coeffs[r, j] z^j for each row r at a 1-D array z, accumulated
    in place: O(rows x N) memory."""
    acc = np.zeros((coeffs.shape[0], z.size), dtype=complex)
    for column in coeffs.T[::-1, :, None]:
        acc *= z
        acc += column
    return acc


def evaluate(psi: HardyState, theta):
    """psi(theta) = sum_n a_n z^n at z = exp(-i theta), by `_horner`: theta
    may be an array, whose shape the result takes, and a scalar theta gives
    a complex.  O(S + N) memory for N angles."""
    theta_arr = np.asarray(theta, dtype=float)
    values = _horner(psi.coeffs[None], np.exp(-1j * theta_arr.ravel()))[0]
    return complex(values[0]) if theta_arr.ndim == 0 else values.reshape(theta_arr.shape)


def superpose(c1: complex, psi: HardyState, c2: complex, phi: HardyState) -> HardyState:
    """Coefficient-wise c1*psi + c2*phi; smaller state is zero-padded.

    The result must already be a unit vector; `normalize` scales a raw one.
    """
    dim = max(psi.dim, phi.dim)
    vec = c1 * psi.padded(dim).coeffs + c2 * phi.padded(dim).coeffs
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise PhaseObsError("superposition collapsed to the zero vector")
    if abs(norm - 1.0) > TOL_NORM:
        raise ValidationError(
            f"superposition norm {norm} deviates from 1 beyond {TOL_NORM}"
        )
    return HardyState(vec)


@dataclass(frozen=True)
class PhaseWindow:
    """Finite union of disjoint half-open arcs [lo, hi) within [0, 2*pi).

    Pieces that touch (lo equal to the previous hi) are stored merged, as
    one arc."""

    arcs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        arcs: list[tuple[float, float]] = []
        for lo, hi in _pair_list(self.arcs, "arcs"):
            if not (0.0 <= lo < hi <= TWO_PI):
                raise PhaseObsError(f"arc ({lo}, {hi}) outside 0 <= lo < hi <= 2*pi")
            if arcs and lo < arcs[-1][1]:
                raise PhaseObsError("arcs must be sorted by lo and pairwise disjoint")
            if arcs and lo == arcs[-1][1]:
                arcs[-1] = (arcs[-1][0], hi)
            else:
                arcs.append((lo, hi))
        object.__setattr__(self, "arcs", tuple(arcs))

    @classmethod
    def full_circle(cls) -> "PhaseWindow":
        return cls(((0.0, TWO_PI),))

    @property
    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.arcs)

    def is_full_circle(self) -> bool:
        """True when the arcs tile all of [0, 2*pi) with no gaps."""
        return self.arcs == ((0.0, TWO_PI),)

    @property
    def arc(self) -> tuple[float, float] | None:
        """(start, end) of the one arc the window is, joined across
        0 = 2*pi when it wraps (then end <= start); None when the window is
        empty or two or more arcs."""
        arcs = self.arcs
        if len(arcs) == 2 and arcs[0][0] == 0.0 and arcs[1][1] == TWO_PI:
            return arcs[1][0], arcs[0][1]
        return arcs[0] if len(arcs) == 1 else None

    def shifted(self, alpha: float) -> "PhaseWindow":
        """Translate every arc by alpha mod 2*pi, re-splitting wrapped arcs.

        An end at 2*pi lands where a start at 0 does, at alpha exactly, so
        the images of arcs that touch across 0 = 2*pi touch and merge.  An
        image piece whose two ends round to the same double (its measure is
        below their spacing there) is dropped."""
        alpha = canonical_angle(alpha)
        if alpha == 0.0:
            return self
        pieces = []
        for lo, hi in self.arcs:
            lo2 = lo + alpha
            if hi < TWO_PI and hi + alpha <= TWO_PI:
                pieces.append((lo2, hi + alpha))
                continue
            wrapped = alpha if hi == TWO_PI else hi + alpha - TWO_PI
            if lo2 >= TWO_PI:
                pieces.append((lo2 - TWO_PI, wrapped))
            else:
                pieces += [(lo2, TWO_PI), (0.0, wrapped)]
        return PhaseWindow(tuple(sorted(p for p in pieces if p[0] < p[1])))

    def complement(self) -> "PhaseWindow":
        gaps = []
        cursor = 0.0
        for lo, hi in self.arcs:
            if lo > cursor:
                gaps.append((cursor, lo))
            cursor = hi
        if cursor < TWO_PI:
            gaps.append((cursor, TWO_PI))
        return PhaseWindow(tuple(gaps))

    def to_dict(self) -> dict:
        return {"arcs": [[lo, hi] for lo, hi in self.arcs]}

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseWindow":
        return cls(_member(data, "arcs", "window"))

