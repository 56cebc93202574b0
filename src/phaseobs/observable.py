"""Phase matrices and their contraction (Kraus) decompositions.

A phase matrix is a Hermitian, positive semidefinite complex matrix with
unit diagonal; it parameterizes a covariant phase observable.  The Kraus
side stores the weight matrix (z_{n,k}): column k collects the weights of
the number state |k> across the diagonal contractions V_n, with
sum_n |z_{n,k}|^2 = 1 and sum_n z_{n,k} * conj(z_{n,l}) = c_{k,l}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhaseObsError, ValidationError
from .hardy import _complex_pairs, _pairs

TOL_HERM = 1e-12
TOL_DIAG = 1e-12
TOL_PSD_FACTOR = 1e-10  # PSD tolerance is TOL_PSD_FACTOR * S
TOL_KRAUS = 1e-10


def _as_square_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise PhaseObsError("expected a non-empty square matrix")
    if not np.all(np.isfinite(arr)):
        raise PhaseObsError("matrix entries must be finite")
    return arr


@dataclass(frozen=True)
class ValidationIssue:
    prop: str  # "hermitian" | "diagonal" | "psd"
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    dim: int
    issues: tuple[ValidationIssue, ...]

    @property
    def valid(self) -> bool:
        return not self.issues

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "dim": self.dim,
            "issues": [
                {"property": i.prop, "magnitude": i.magnitude} for i in self.issues
            ],
        }


def validate(entries) -> ValidationReport:
    """Check hermiticity, unit diagonal, and positive semidefiniteness
    within TOL_HERM, TOL_DIAG and TOL_PSD_FACTOR * S.

    Each failed property is reported with the worst offending magnitude.
    PSD is certified by a Cholesky factorization of the Hermitian part
    shifted by the tolerance: its backward error, of order S^2 * eps, is far
    inside TOL_PSD_FACTOR * S.  Only when that fails does `eigvalsh` run,
    to decide and report the smallest eigenvalue.
    """
    arr = _as_square_matrix(entries)
    dim = arr.shape[0]
    issues = []
    herm_defect = float(np.max(np.abs(arr - arr.conj().T)))
    if herm_defect > TOL_HERM:
        issues.append(ValidationIssue("hermitian", herm_defect))
    diag_defect = float(np.max(np.abs(np.diag(arr) - 1.0)))
    if diag_defect > TOL_DIAG:
        issues.append(ValidationIssue("diagonal", diag_defect))
    sym = 0.5 * (arr + arr.conj().T)
    tol = TOL_PSD_FACTOR * dim
    try:
        np.linalg.cholesky(sym + tol * np.eye(dim))
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(sym)[0])
        if min_eig < -tol:
            issues.append(ValidationIssue("psd", -min_eig))
    return ValidationReport(dim=dim, issues=tuple(issues))


@dataclass(frozen=True, eq=False)
class PhaseMatrix:
    """Hermitian PSD unit-diagonal matrix (c_{n,m}) plus a family label."""

    entries: np.ndarray
    label: str = "explicit"
    q: float | None = None

    def __post_init__(self):
        arr = _as_square_matrix(self.entries).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def canonical(cls, dim: int) -> "PhaseMatrix":
        """All-ones matrix: the sharpest phase observable."""
        if dim < 1:
            raise PhaseObsError("dimension must be >= 1")
        return cls(np.ones((dim, dim), dtype=complex), label="canonical")

    @classmethod
    def trivial(cls, dim: int) -> "PhaseMatrix":
        """Identity matrix: the uniform (phase-blind) observable."""
        if dim < 1:
            raise PhaseObsError("dimension must be >= 1")
        return cls(np.eye(dim, dtype=complex), label="trivial")

    @classmethod
    def exponential(cls, q: float, dim: int) -> "PhaseMatrix":
        """Interpolating family c_{n,m} = q^|n-m|; q=1 is canonical, q=0 trivial.

        PSD because it is the correlation matrix of an AR(1) process.
        """
        if dim < 1:
            raise PhaseObsError("dimension must be >= 1")
        if not 0.0 <= q <= 1.0:
            raise PhaseObsError(f"exponential parameter q={q} outside [0, 1]")
        n = np.arange(dim)
        entries = np.power(float(q), np.abs(np.subtract.outer(n, n)), dtype=float)
        entries = entries.astype(complex)
        entries[np.diag_indices(dim)] = 1.0
        return cls(entries, label="exponential", q=float(q))

    @classmethod
    def from_gram(cls, vectors) -> "PhaseMatrix":
        """Gram matrix of unit vectors: c_{n,m} = <u_n, u_m> (conjugate-linear
        in the first slot).  Valid by construction."""
        mat = np.asarray(vectors, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] < 1:
            raise PhaseObsError("expected a non-empty list of equal-length vectors")
        norms = np.linalg.norm(mat, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise PhaseObsError("Gram construction requires unit vectors")
        entries = mat.conj() @ mat.T
        entries[np.diag_indices(mat.shape[0])] = 1.0
        return cls(entries, label="explicit")

    @classmethod
    def explicit(cls, entries) -> "PhaseMatrix":
        """Accept an explicit matrix after validation.

        The diagonal (within 1e-12 of 1) is renormalized to exactly 1 and the
        off-diagonals rescaled accordingly.
        """
        arr = _as_square_matrix(entries)
        report = validate(arr)
        if not report.valid:
            worst = ", ".join(f"{i.prop} ({i.magnitude:g})" for i in report.issues)
            raise ValidationError(f"not a phase matrix: {worst}")
        scale = 1.0 / np.sqrt(np.real(np.diag(arr)))
        fixed = arr * np.outer(scale, scale)
        fixed[np.diag_indices(arr.shape[0])] = 1.0
        return cls(fixed, label="explicit")

    def to_dict(self) -> dict:
        data: dict = {"kind": self.label, "dim": self.dim}
        if self.label == "exponential":
            data["q"] = self.q
        if self.label == "explicit":
            data["entries"] = _pairs(self.entries)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseMatrix":
        kind = data.get("kind")
        if kind == "canonical":
            return cls.canonical(int(data["dim"]))
        if kind == "trivial":
            return cls.trivial(int(data["dim"]))
        if kind == "exponential":
            return cls.exponential(float(data["q"]), int(data["dim"]))
        if kind == "explicit":
            return cls.explicit(_complex_pairs(data["entries"], "entries"))
        raise PhaseObsError(f"unknown matrix kind {kind!r}")

    def truncated(self, dim: int) -> "PhaseMatrix":
        """Top-left principal submatrix (still a phase matrix)."""
        if not 1 <= dim <= self.dim:
            raise PhaseObsError(f"truncation {dim} outside [1, {self.dim}]")
        if dim == self.dim:
            return self
        return PhaseMatrix(self.entries[:dim, :dim], label=self.label, q=self.q)


@dataclass(frozen=True, eq=False)
class KrausFamily:
    """Weight matrix (z_{n,k}) of the diagonal contractions V_n, one row per
    retained contraction; columns are unit norm."""

    z: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.z, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise PhaseObsError("weight matrix must be 2-D and non-empty")
        if not np.all(np.isfinite(arr)):
            raise PhaseObsError("weights must be finite")
        col_norms = np.linalg.norm(arr, axis=0)
        worst = float(np.max(np.abs(col_norms - 1.0)))
        if worst > TOL_KRAUS:
            raise ValidationError(
                f"column norm deviates from 1 by {worst:g} (tolerance {TOL_KRAUS})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "z", arr)

    @property
    def rank(self) -> int:
        return self.z.shape[0]

    @property
    def dim(self) -> int:
        return self.z.shape[1]

    def to_dict(self) -> dict:
        return {"rows": _pairs(self.z)}

    @classmethod
    def from_dict(cls, data: dict) -> "KrausFamily":
        return cls(_complex_pairs(data["rows"], "rows"))


def _fix_vector_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate each nonzero vector (along the last axis) so that its first
    significant component is real positive."""
    mags = np.abs(vecs)
    first = np.argmax(mags > 1e-8 * mags.max(axis=-1, keepdims=True), axis=-1)
    pivot = np.take_along_axis(vecs, first[..., None], axis=-1)
    return vecs * (pivot.conj() / np.abs(pivot))


def kraus_decompose(matrix: PhaseMatrix) -> KrausFamily:
    """Factor c_{k,l} = sum_n z_{n,k} * conj(z_{n,l}) via Hermitian
    eigendecomposition, clipping eigenvalues within the PSD tolerance of
    zero and dropping the resulting zero rows.

    Rows are ordered by descending eigenvalue; each eigenvector's phase is
    fixed (first significant component real positive) and exact eigenvalue
    ties are broken lexicographically, so the output is deterministic.
    """
    dim = matrix.dim
    tol = TOL_PSD_FACTOR * dim
    evals, evecs = np.linalg.eigh(matrix.entries)
    if evals[0] < -tol:
        raise ValidationError(
            f"matrix is not PSD: min eigenvalue {evals[0]:g} below -{tol:g}"
        )
    kept = evals > tol
    if not kept.any():
        raise ValidationError("matrix has no eigenvalue above the clipping tolerance")
    # descending eigenvalue by a stable sort, so tied rows keep eigh's order
    lams = evals[kept]
    order = np.argsort(-lams, kind="stable")
    lams = lams[order]
    rows = np.sqrt(lams)[:, None] * _fix_vector_phase(evecs.T[kept][order])
    # a run of exactly equal eigenvalues is ordered by its rows' entries as
    # interleaved (re, im) floats; np.lexsort is stable, last key first
    cuts = np.flatnonzero(lams[1:] != lams[:-1]) + 1
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, lams.size]):
        if hi - lo > 1:
            run = rows[lo:hi]
            rows[lo:hi] = run[np.lexsort(run.view(float).T[::-1])]
    return KrausFamily(rows)


def kraus_reconstruct(family: KrausFamily) -> PhaseMatrix:
    """Rebuild the phase matrix: c_{k,l} = sum_n z_{n,k} * conj(z_{n,l})."""
    entries = family.z.T @ family.z.conj()
    return PhaseMatrix.explicit(entries)
