"""Phase matrices, their Schur-Toeplitz operators C o T(t)
(`schur_toeplitz`), and their contraction (Kraus) decompositions.

A phase matrix is a Hermitian, positive semidefinite complex matrix with
unit diagonal; it parameterizes a covariant phase observable.  The
builtins are its real symmetric Toeplitz case c_{n,m} = c_{|n-m|}: their
entries are a read-only strided view of 2S-1 values, and this module alone
knows it, through their generator c_0 .. c_{S-1}, which gives the O(S)
forms of `PhaseMatrix.bilinear` and `_diagonal_weights` and the
persymmetry of `_real_form`.  The Kraus side stores the weight matrix
(z_{n,k}): column k collects the weights of the number state |k> across
the diagonal contractions V_n, with sum_n |z_{n,k}|^2 = 1 and
sum_n z_{n,k} * conj(z_{n,l}) = c_{k,l}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PhaseObsError, ValidationError
from .hardy import (BLOCK, TWO_PI, HardyState, PhaseWindow, _blocks, _complex_pairs, _member,
                    _pairs)

TOL_HERM = 1e-12
TOL_DIAG = 1e-12
TOL_PSD_FACTOR = 1e-10  # PSD tolerance is TOL_PSD_FACTOR * S
TOL_KRAUS = 1e-10

BUILTIN_KINDS = ("canonical", "trivial", "exponential")


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
    to decide and report the smallest eigenvalue.  Besides `entries` and
    Cholesky's factor, one S x S buffer holds the Hermitian part.
    """
    arr = _as_square_matrix(entries)
    dim = arr.shape[0]
    issues = []
    herm_defect = max(float(np.max(np.abs(arr[rows] - arr[:, rows].conj().T)))
                      for rows in _blocks(dim, max(1, BLOCK // dim)))
    if herm_defect > TOL_HERM:
        issues.append(ValidationIssue("hermitian", herm_defect))
    diag_defect = float(np.max(np.abs(np.diag(arr) - 1.0)))
    if diag_defect > TOL_DIAG:
        issues.append(ValidationIssue("diagonal", diag_defect))
    # 0.5 * (arr + arr^H), built in one buffer with the same bits; C order
    # whatever the input's, so that `diagonal` is a view of it
    sym = np.conjugate(arr.T, out=np.empty_like(arr, order="C"))
    sym += arr
    sym *= 0.5
    diagonal = sym.reshape(-1)[::dim + 1]
    saved = diagonal.copy()
    tol = TOL_PSD_FACTOR * dim
    diagonal += tol
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        # (d + tol) - tol is not always d: restore the Hermitian part exactly
        diagonal[:] = saved
        min_eig = float(np.linalg.eigvalsh(sym)[0])
        if min_eig < -tol:
            issues.append(ValidationIssue("psd", -min_eig))
    return ValidationReport(dim=dim, issues=tuple(issues))


def _toeplitz(full: np.ndarray) -> np.ndarray:
    """The Toeplitz matrix T_{n,m} = t_{n-m} of full = t_{-(S-1)} .. t_{S-1},
    as a read-only strided view of `full`: nothing is copied."""
    return sliding_window_view(full[::-1], (full.size + 1) // 2)[::-1]


def _symmetric(generator: np.ndarray) -> np.ndarray:
    """c_{S-1} .. c_1 c_0 c_1 .. c_{S-1}: the full symbol of the real
    symmetric Toeplitz matrix with generator c_0 .. c_{S-1}."""
    return np.concatenate((generator[:0:-1], generator))


def _schur_toeplitz(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """C o T(t), entry (n, m) c_{n,m} t_{n-m} for the Hermitian symbol
    t_0..t_{S-1}, as a new array: C times a strided view of T(t)."""
    return c * _toeplitz(np.concatenate((t[:0:-1].conj(), t)))  # t_{-(S-1)} .. t_{S-1}


def schur_toeplitz(matrix: PhaseMatrix, symbol) -> np.ndarray:
    """C o T(t) of a phase matrix and a Hermitian symbol t_0..t_{S-1},
    read-only: the POM effect of a window (`distribution.window_operator`)
    or the first moment (`spectral.first_moment`)."""
    t = np.asarray(symbol, dtype=complex)
    if t.shape != (matrix.dim,):
        raise PhaseObsError(f"symbol of shape {t.shape} for a matrix of dimension {matrix.dim}")
    arr = _schur_toeplitz(matrix.entries, t)
    arr.setflags(write=False)
    return arr


def _arc_symbol(size: int, length: float) -> np.ndarray:
    """Real symbol P_0 = L/2pi, P_k = sin(k L/2)/(pi k) for k = 0..size-1:
    (1/2pi) int exp(i k theta) dtheta over the arc of length L centred at 0
    (Slepian 1978).  A whole turn is exactly the delta symbol."""
    k = np.arange(1, size)
    t = np.empty(size)
    t[0] = length / TWO_PI
    # sin(k pi) rounds to O(k eps), so zero the k > 0 terms by hand
    t[1:] = np.sin(k * (length / 2)) / (np.pi * k) * (length != TWO_PI)
    return t


def _window_symbol(window: PhaseWindow, size: int) -> np.ndarray:
    """Window integrals t_k for k = 0..size-1: per arc, the centred symbol
    turned to the arc's centre c by exp(i k c) (phase-shift covariance)."""
    k = np.arange(size)
    return sum((np.exp(1j * k * ((lo + hi) / 2)) * _arc_symbol(size, hi - lo)
                for lo, hi in window.arcs), np.zeros(size, complex))


def _field(data: dict, key: str, kind: type):
    """data[key] of a matrix dict: a JSON integer for kind int, any JSON
    number for kind float.  A bool, a string or a fraction is refused."""
    value = _member(data, key, "matrix")
    if type(value) not in ((int,) if kind is int else (int, float)):
        noun = "an integer" if kind is int else "a number"
        raise PhaseObsError(f"matrix {key} must be {noun}, not {value!r}")
    return value


def _kind(data: dict) -> str:
    """The kind of a matrix dict, refused when it is unknown or when the dict
    has a field that only another kind reads; fields no kind reads pass."""
    if type(data) is not dict:
        raise PhaseObsError(f"a matrix must be a JSON object, not {type(data).__name__}")
    kind = data.get("kind")
    if kind not in (*BUILTIN_KINDS, "explicit"):
        raise PhaseObsError(f"unknown matrix kind {kind!r}")
    for key, owner in (("q", "exponential"), ("entries", "explicit")):
        if key in data and kind != owner:
            raise PhaseObsError(f"matrix kind {kind!r} takes no {key}")
    return kind


def _explicit_entries(data: dict) -> np.ndarray:
    """The complex entries of an explicit matrix dict, refused when its
    `dim`, if present, is not their number of rows."""
    entries = _complex_pairs(_member(data, "entries", "matrix"), "entries")
    if "dim" in data and entries.shape[:1] != (_field(data, "dim", int),):
        raise PhaseObsError(f"matrix dim {data['dim']} does not match entries {entries.shape}")
    return entries


@dataclass(frozen=True, eq=False)
class PhaseMatrix:
    """Hermitian PSD unit-diagonal matrix (c_{n,m}) plus a family label.

    `PhaseMatrix(entries)` validates dense entries and renormalizes their
    diagonal (within 1e-12 of 1) to exactly 1, a block of rows at a time
    into one new array (the bits of `arr * np.outer(scale, scale)`); its
    label is "explicit".  The builtins (`canonical`, `trivial`,
    `exponential`) are real symmetric Toeplitz, c_{n,m} = c_{|n-m|}: they
    keep their generator c_0 .. c_{S-1}, and their `entries` are a
    read-only complex strided view of the 2S-1 values c_{S-1} .. c_0 ..
    c_{S-1}, which numpy's linear algebra takes as it is; nothing S x S is
    held.
    """

    entries: np.ndarray

    # the family and its parameter, set only by the builtins through `_adopt`
    label = "explicit"
    q = None
    # real generator of a builtin, read-only; None for dense matrices
    _generator = None

    def __post_init__(self):
        arr = _as_square_matrix(self.entries)
        report = validate(arr)
        if not report.valid:
            worst = ", ".join(f"{i.prop} ({i.magnitude:g})" for i in report.issues)
            raise ValidationError(f"not a phase matrix: {worst}")
        scale = 1.0 / np.sqrt(np.real(np.diag(arr)))
        fixed = np.empty_like(arr, order="C")
        for rows in _blocks(arr.shape[0], max(1, BLOCK // arr.shape[0])):
            np.multiply(arr[rows], np.outer(scale[rows], scale), out=fixed[rows])
        fixed[np.diag_indices(arr.shape[0])] = 1.0
        fixed.setflags(write=False)
        object.__setattr__(self, "entries", fixed)

    @classmethod
    def _adopt(cls, label: str, q: float | None = None, *, entries=None,
               generator=None) -> "PhaseMatrix":
        """A phase matrix that this class built or already checked, made
        read-only as it is, with no scan and no copy: over square complex
        `entries`, or over the real `generator` of a builtin, whose entries
        default to the Toeplitz view of its full symbol."""
        if entries is None:
            entries = _toeplitz(_symmetric(generator).astype(complex))
        matrix = cls.__new__(cls)
        for name, value in (("label", label), ("q", q), ("entries", entries),
                            ("_generator", generator)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(matrix, name, value)
        return matrix

    def __repr__(self) -> str:
        return f"PhaseMatrix(label={self.label!r}, dim={self.dim}, q={self.q!r})"

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def canonical(cls, dim: int) -> "PhaseMatrix":
        """All-ones matrix: the sharpest phase observable."""
        if dim < 1:
            raise PhaseObsError("dimension must be >= 1")
        return cls._adopt("canonical", generator=np.ones(dim))

    @classmethod
    def trivial(cls, dim: int) -> "PhaseMatrix":
        """Identity matrix: the uniform (phase-blind) observable."""
        if dim < 1:
            raise PhaseObsError("dimension must be >= 1")
        generator = np.zeros(dim)
        generator[0] = 1.0
        return cls._adopt("trivial", generator=generator)

    @classmethod
    def exponential(cls, q: float, dim: int) -> "PhaseMatrix":
        """Interpolating family c_{n,m} = q^|n-m|; q=1 is canonical, q=0 trivial.

        PSD because it is the correlation matrix of an AR(1) process.
        """
        if dim < 1:
            raise PhaseObsError("dimension must be >= 1")
        if not 0.0 <= q <= 1.0:
            raise PhaseObsError(f"exponential parameter q={q} outside [0, 1]")
        generator = np.power(float(q), np.arange(dim), dtype=float)
        return cls._adopt("exponential", float(q), generator=generator)

    @classmethod
    def from_gram(cls, vectors) -> "PhaseMatrix":
        """Gram matrix of unit vectors: c_{n,m} = <u_n, u_m> (conjugate-linear
        in the first slot), valid by construction up to rounding."""
        mat = np.asarray(vectors, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] < 1:
            raise PhaseObsError("expected a non-empty list of equal-length vectors")
        norms = np.linalg.norm(mat, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise PhaseObsError("Gram construction requires unit vectors")
        entries = mat.conj() @ mat.T
        entries[np.diag_indices(mat.shape[0])] = 1.0
        return cls(entries)

    def to_dict(self) -> dict:
        data: dict = {"kind": self.label, "dim": self.dim}
        if self.label == "exponential":
            data["q"] = self.q
        if self.label == "explicit":
            data["entries"] = _pairs(self.entries)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseMatrix":
        kind = _kind(data)
        if kind == "explicit":
            return cls(_explicit_entries(data))
        if kind == "exponential":
            return cls.exponential(_field(data, "q", float), _field(data, "dim", int))
        return getattr(cls, kind)(_field(data, "dim", int))

    def truncated(self, dim: int) -> "PhaseMatrix":
        """Top-left principal submatrix (still a phase matrix), a new object
        at every size over read-only views of the entries and, for a
        builtin, of the generator: nothing is copied."""
        if not 1 <= dim <= self.dim:
            raise PhaseObsError(f"truncation {dim} outside [1, {self.dim}]")
        generator = None if self._generator is None else self._generator[:dim]
        return PhaseMatrix._adopt(self.label, self.q, entries=self.entries[:dim, :dim],
                                  generator=generator)

    def bilinear(self, left: np.ndarray, right: np.ndarray) -> complex:
        """left @ C @ right for two vectors of length S.  A builtin applies C
        to `right` as one convolution of its symmetric generator, in O(S)
        memory and with no S x S C."""
        if self._generator is None:
            return left @ self.entries @ right
        return left @ np.convolve(_symmetric(self._generator), right, "valid")


def _diagonal_weights(
    matrix: PhaseMatrix, psi: HardyState, phi: HardyState | None = None
) -> np.ndarray:
    """w_k = sum_{n-m=k} c_{n,m} conj(a_n) b_m for k = -(S-1)..(S-1), with
    b = a unless phi is given, so that f_{psi,phi}(theta) = sum_k w_k
    exp(i k theta).  A builtin gives w_k = c_|k| sum_m conj(a_{m+k}) b_m,
    one correlation in O(S) memory; a dense C bins its S x S products."""
    for state in (psi, phi):
        if state is not None and state.dim > matrix.dim:
            raise PhaseObsError(
                f"state dimension {state.dim} exceeds matrix dimension {matrix.dim}"
            )
    a = psi.padded(matrix.dim).coeffs
    b = a if phi is None or phi is psi else phi.padded(matrix.dim).coeffs
    if matrix._generator is not None:
        return _symmetric(matrix._generator) * np.correlate(a, b, "full").conj()
    dim = matrix.dim
    n = np.arange(dim)
    bins = np.subtract.outer(n, n).ravel() + (dim - 1)
    prod = (matrix.entries * np.outer(a.conj(), b)).ravel()
    size = 2 * dim - 1
    return np.bincount(bins, prod.real, size) + 1j * np.bincount(bins, prod.imag, size)


def _real_form(matrix: PhaseMatrix) -> tuple[np.ndarray, bool]:
    """C as the spectral solves take it, and whether it is real symmetric
    persymmetric (J C J = C for the reversal J).  A builtin gives the real
    part of its view, persymmetric by construction; a dense C gives its
    entries, real where no imaginary part is nonzero, and is checked
    exactly."""
    if matrix._generator is not None:
        return matrix.entries.real, True
    c = matrix.entries if matrix.entries.imag.any() else matrix.entries.real
    return c, (c.dtype == float and np.array_equal(c, c.T)
               and np.array_equal(c, c[::-1, ::-1]))


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
        return cls(_complex_pairs(_member(data, "rows", "Kraus family"), "rows"))


def _fix_vector_phase(vecs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rotate each nonzero vector (along the last axis) so that its first
    significant component is real positive; into `out` when given, which may
    be `vecs` itself."""
    mags = np.abs(vecs)
    first = np.argmax(mags > 1e-8 * mags.max(axis=-1, keepdims=True), axis=-1)
    del mags
    pivot = np.take_along_axis(vecs, first[..., None], axis=-1)
    return np.multiply(vecs, pivot.conj() / np.abs(pivot), out=out)


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
    kept = np.flatnonzero(evals > tol)
    if not kept.size:
        raise ValidationError("matrix has no eigenvalue above the clipping tolerance")
    # descending eigenvalue by a stable sort, so tied rows keep eigh's order
    lams = evals[kept]
    order = np.argsort(-lams, kind="stable")
    lams = lams[order]
    # the kept eigenvectors as rows in output order, gathered once; the rest
    # is done in place, once the eigenvectors are released
    rows = evecs.T[kept[order]]
    del evecs
    _fix_vector_phase(rows, out=rows)
    rows *= np.sqrt(lams)[:, None]
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
    return PhaseMatrix(entries)
