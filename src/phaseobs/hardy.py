"""Truncated Hardy-space states and phase windows.

A state holds the Fourier coefficients (a_0, ..., a_{S-1}) of the phase
wave function psi(theta) = sum_n a_n exp(-i n theta), normalized so that
sum |a_n|^2 = 1.  A window is a finite union of disjoint half-open arcs
inside [0, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import PhaseObsError, ValidationError

TWO_PI = 2.0 * math.pi

# Unit-norm tolerance; double precision leaves ample headroom up to S = 4096.
TOL_NORM = 1e-12


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
    pairs = []
    for item in values:
        pair = tuple(float(x) for x in item)
        if len(pair) != 2 or not all(math.isfinite(x) for x in pair):
            raise PhaseObsError(f"{what} entries must be finite [lo, hi] pairs")
        pairs.append(pair)
    return pairs


def _float_array(rows) -> np.ndarray:
    """`np.ascontiguousarray(rows, dtype=float)`, with a nested list
    flattened level by level and its leaves converted by one call.

    Each level must hold only lists of one length; the flat list of leaves
    then goes to one `np.array` call.  numpy's own scalar discovery on that
    flat list gives every leaf the conversion, or the refusal, that it gets
    in the whole tree.  Anything else (an array, tuples, ragged or mixed
    nesting, leaves that are sequences) is left to numpy's conversion of
    the tree, which decides as before.
    """
    shape, node = [], rows
    while type(node) is list:
        shape.append(len(node))
        if not node:
            break
        node = node[0]
    level, regular = [rows], bool(shape)
    for size in shape:
        regular = set(map(type, level)) == {list} and set(map(len, level)) == {size}
        if not regular:
            break
        level = list(chain.from_iterable(level))
    if regular:
        flat = np.array(level, dtype=float)
        if flat.ndim == 1:
            return flat.reshape(shape)
    return np.ascontiguousarray(rows, dtype=float)


def _complex_pairs(rows, what: str) -> np.ndarray:
    """Complex array from nested [re, im] pairs (the last axis of `rows`)."""
    try:
        arr = _float_array(rows)
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
        return cls(_complex_pairs(data["coeffs"], "coeffs"))


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


def evaluate(psi: HardyState, theta):
    """Evaluate psi(theta) = sum_n a_n exp(-i n theta); theta may be an array."""
    theta_arr = np.asarray(theta, dtype=float)
    n = np.arange(psi.dim)
    values = np.exp(-1j * np.multiply.outer(theta_arr, n)) @ psi.coeffs
    if np.isscalar(theta) or theta_arr.ndim == 0:
        return complex(values)
    return values


def superpose(
    c1: complex,
    psi: HardyState,
    c2: complex,
    phi: HardyState,
    renormalize: bool = False,
) -> HardyState:
    """Coefficient-wise c1*psi + c2*phi; smaller state is zero-padded.

    In strict mode (default) the result must already be a unit vector.
    """
    dim = max(psi.dim, phi.dim)
    vec = c1 * psi.padded(dim).coeffs + c2 * phi.padded(dim).coeffs
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise PhaseObsError("superposition collapsed to the zero vector")
    if renormalize:
        return HardyState(vec / norm)
    if abs(norm - 1.0) > TOL_NORM:
        raise ValidationError(
            f"superposition norm {norm} deviates from 1 beyond {TOL_NORM}"
        )
    return HardyState(vec)


@dataclass(frozen=True)
class PhaseWindow:
    """Finite union of disjoint half-open arcs [lo, hi) within [0, 2*pi)."""

    arcs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        arcs = tuple(
            (float(lo), float(hi)) for lo, hi in _pair_list(self.arcs, "arcs")
        )
        prev_hi = 0.0
        for lo, hi in arcs:
            if not (0.0 <= lo < hi <= TWO_PI):
                raise PhaseObsError(f"arc ({lo}, {hi}) outside 0 <= lo < hi <= 2*pi")
            if lo < prev_hi:
                raise PhaseObsError("arcs must be sorted by lo and pairwise disjoint")
            prev_hi = hi
        object.__setattr__(self, "arcs", arcs)

    @classmethod
    def full_circle(cls) -> "PhaseWindow":
        return cls(((0.0, TWO_PI),))

    @property
    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.arcs)

    def is_full_circle(self) -> bool:
        """True when the arcs tile all of [0, 2*pi) with no gaps."""
        return not self.complement().arcs and bool(self.arcs)

    def shifted(self, alpha: float) -> "PhaseWindow":
        """Translate every arc by alpha mod 2*pi, re-splitting wrapped arcs."""
        alpha = canonical_angle(alpha)
        if alpha == 0.0:
            return self
        pieces = []
        for lo, hi in self.arcs:
            lo2, hi2 = lo + alpha, hi + alpha
            if lo2 >= TWO_PI:
                pieces.append((lo2 - TWO_PI, hi2 - TWO_PI))
            elif hi2 > TWO_PI:
                pieces.append((lo2, TWO_PI))
                if hi2 - TWO_PI > 0.0:
                    pieces.append((0.0, hi2 - TWO_PI))
            else:
                pieces.append((lo2, hi2))
        pieces.sort()
        return PhaseWindow(tuple(pieces))

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
        return cls(tuple(_pair_list(data["arcs"], "arcs")))

