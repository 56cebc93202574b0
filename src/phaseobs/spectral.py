"""First-moment (Toeplitz) operators and nonlocalizability probes.

The first moment of a phase observable has entries pi on the diagonal and
c_{n,m} * i/(m - n) off it; its spectrum sits inside [0, 2*pi].  The
nonlocalizability probe reports the largest eigenvalue of a window
operator: strictly below 1 whenever the window misses part of the circle,
approaching 1 monotonically as the truncation grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhaseObsError
from .hardy import HardyState, PhaseWindow
from .observable import PhaseMatrix, _fix_vector_phase
from .distribution import _schur_toeplitz, window_operator


@dataclass(frozen=True, eq=False)
class MomentOperator:
    """Truncated first-moment operator: Hermitian, diagonal pi, spectrum in
    [0, 2*pi]."""

    entries: np.ndarray
    source: str

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def first_moment(matrix: PhaseMatrix, dim: int | None = None) -> MomentOperator:
    """entries[n][m] = c_{n,m} t_{n-m} with t_0 = pi, t_k = -i/k: pi on the
    diagonal and c_{n,m} * i / (m - n) off it."""
    mat = matrix if dim is None else matrix.truncated(dim)
    t = np.empty(mat.dim, dtype=complex)
    t[0] = math.pi
    t[1:] = -1j / np.arange(1, mat.dim)
    return MomentOperator(entries=_schur_toeplitz(mat.entries, t), source=mat.label)


def moment_spectrum(matrix: PhaseMatrix, dim: int | None = None) -> np.ndarray:
    """Ascending real eigenvalues of the first-moment operator."""
    op = first_moment(matrix, dim)
    return np.linalg.eigvalsh(op.entries)


def localization_max(
    matrix: PhaseMatrix, window: PhaseWindow, dim: int | None = None
) -> tuple[float, HardyState]:
    """Largest eigenvalue of the window operator and its unit maximizer.

    The eigenvector phase is fixed so the first significant component is
    real positive.
    """
    op = window_operator(matrix, window, dim)
    evals, evecs = np.linalg.eigh(op.entries)
    vec = _fix_vector_phase(evecs[:, -1])
    vec = vec / np.linalg.norm(vec)
    return float(evals[-1]), HardyState(vec)


def localization_sweep(
    matrix: PhaseMatrix, window: PhaseWindow, dims: list[int]
) -> list[tuple[int, float]]:
    """Largest window-operator eigenvalue at each truncation in `dims`.

    The values are nondecreasing (nested compressions of a fixed positive
    operator) and stay below 1 for any window smaller than the full circle.
    """
    if list(dims) != sorted(dims):
        raise PhaseObsError("truncation list must be ascending")
    return [(int(s), localization_max(matrix, window, s)[0]) for s in dims]
