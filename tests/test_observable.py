import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (eig2, loop_fix_phase, random_gram_matrix, random_state, span_bytes,
                      traced_peak)
from phaseobs import (
    HardyState,
    KrausFamily,
    PhaseMatrix,
    PhaseObsError,
    ValidationError,
    kraus_decompose,
    kraus_reconstruct,
    validate,
)
from phaseobs.observable import TOL_PSD_FACTOR, _fix_vector_phase


def eigvalsh_rule(mat):
    """The PSD issue's magnitude by a full eigvalsh of the complex Hermitian
    part, or None when the smallest eigenvalue is within tolerance."""
    mat = np.asarray(mat, dtype=complex)
    min_eig = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0])
    return -min_eig if min_eig < -TOL_PSD_FACTOR * len(mat) else None


def tuple_key_rows(matrix):
    """kraus_decompose's rows sorted by a per-row Python key: descending
    eigenvalue, then the row's interleaved (re, im) entries as a tuple."""
    evals, evecs = np.linalg.eigh(matrix.entries)
    rows = [
        (float(lam), np.sqrt(lam) * _fix_vector_phase(vec))
        for lam, vec in zip(evals, evecs.T)
        if lam > TOL_PSD_FACTOR * matrix.dim
    ]
    rows.sort(key=lambda item: (-item[0], tuple(x for z in item[1] for x in (z.real, z.imag))))
    return np.array([row for _, row in rows])


class TestValidate:
    def test_all_ones_valid(self):
        assert validate(np.ones((3, 3))).valid

    def test_identity_valid(self):
        assert validate(np.eye(3)).valid

    def test_psd_failure_reported(self):
        # 2x2 oracle: eigenvalues of [[1,2],[2,1]] are 1 -/+ 2
        lo, hi = eig2(1.0, 2.0)
        assert lo == -1.0
        report = validate(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not report.valid
        (issue,) = report.issues
        assert issue.prop == "psd"
        assert issue.magnitude == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_and_diagonal_failures(self):
        report = validate(np.array([[1.0, 1.0], [0.0, 2.0]]))
        props = {i.prop for i in report.issues}
        assert "hermitian" in props and "diagonal" in props

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(PhaseObsError):
            validate(np.ones((2, 3)))
        with pytest.raises(PhaseObsError):
            validate(np.array([[1.0, math.nan], [math.nan, 1.0]]))

    @pytest.mark.parametrize("dim", [2, 7, 64, 512])
    def test_psd_verdict_is_the_eigvalsh_rule(self, dim):
        # smallest eigenvalue just outside, just inside, at zero and far below
        # the tolerance, in a spread spectrum and under a canonical-like top
        # eigenvalue S; the psd issue must be the eigvalsh rule's, bit for bit
        rng = np.random.default_rng(dim)
        tol = TOL_PSD_FACTOR * dim
        unitary, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                                  + 1j * rng.standard_normal((dim, dim)))
        ones = np.ones((dim, dim)) / dim
        for lam, fails in ((-(1 + 1e-3) * tol, True), (-(1 - 1e-3) * tol, False),
                           (0.0, False), (-1.0, True)):
            spectrum = np.concatenate([[lam], rng.uniform(0.5, 1.5, dim - 1)])
            spread = (unitary * spectrum) @ unitary.conj().T
            top = dim * ones + lam * (np.eye(dim) - ones)
            # a Fortran-ordered copy must give the same verdict
            for mat in (spread, top, np.asfortranarray(top)):
                issues = {i.prop: i.magnitude for i in validate(mat).issues}
                assert issues.get("psd") == eigvalsh_rule(mat)
                assert ("psd" in issues) == fails

    def test_valid_matrix_needs_no_eigvalsh(self, monkeypatch):
        # full rank, rank 64 and rank 1: the last two have zero eigenvalues
        rng = np.random.default_rng(31)
        mats = (random_gram_matrix(rng, 512), random_gram_matrix(rng, 512, 64),
                PhaseMatrix.canonical(512))

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called on a valid matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for mat in mats:
            assert validate(mat.entries).valid
            # the shift reaches Cholesky whatever the input's memory layout
            assert validate(np.asfortranarray(mat.entries)).valid


class TestFamilies:
    def test_canonical_entries(self):
        np.testing.assert_array_equal(
            PhaseMatrix.canonical(2).entries, np.ones((2, 2))
        )

    def test_exponential_endpoints(self):
        for dim in (1, 3, 7):
            np.testing.assert_array_equal(
                PhaseMatrix.exponential(1.0, dim).entries,
                PhaseMatrix.canonical(dim).entries,
            )
            np.testing.assert_array_equal(
                PhaseMatrix.exponential(0.0, dim).entries,
                PhaseMatrix.trivial(dim).entries,
            )

    def test_exponential_matches_power_table(self):
        """The Toeplitz view of q^k gives the entries of q^|n-m| bit for bit."""
        for q in (0.0, 0.3, 0.9, 1.0):
            for dim in (1, 2, 7, 1024):
                n = np.arange(dim)
                expected = np.power(q, np.abs(np.subtract.outer(n, n)), dtype=float)
                expected[np.diag_indices(dim)] = 1.0
                entries = PhaseMatrix.exponential(q, dim).entries
                assert entries.tobytes() == expected.astype(complex).tobytes()

    def test_exponential_half(self):
        mat = PhaseMatrix.exponential(0.5, 2)
        np.testing.assert_allclose(mat.entries, [[1, 0.5], [0.5, 1]])
        np.testing.assert_allclose(
            sorted(eig2(1.0, 0.5)), np.linalg.eigvalsh(mat.entries)
        )

    def test_exponential_parameter_range(self):
        with pytest.raises(PhaseObsError):
            PhaseMatrix.exponential(1.5, 3)
        with pytest.raises(PhaseObsError):
            PhaseMatrix.exponential(-0.1, 3)

    def test_builtins_all_validate(self):
        for dim in (1, 2, 5, 16):
            for mat in (
                PhaseMatrix.canonical(dim),
                PhaseMatrix.trivial(dim),
                PhaseMatrix.exponential(0.4, dim),
            ):
                assert validate(mat.entries).valid

    def test_exponential_grid_psd_and_bounded(self):
        for q in np.linspace(0.0, 1.0, 11):
            mat = PhaseMatrix.exponential(float(q), 9)
            assert validate(mat.entries).valid
            assert np.max(np.abs(mat.entries)) <= 1.0 + 1e-12

    def test_canonical_spectrum(self):
        for dim in (2, 8, 33):
            evals = np.linalg.eigvalsh(PhaseMatrix.canonical(dim).entries)
            np.testing.assert_allclose(
                evals, [0.0] * (dim - 1) + [dim], atol=1e-10 * dim
            )


class TestEntries:
    def test_built_entries_are_read_only(self):
        rng = np.random.default_rng(17)
        for mat in (PhaseMatrix.canonical(4), PhaseMatrix.trivial(4),
                    PhaseMatrix.exponential(0.5, 4),
                    PhaseMatrix(random_gram_matrix(rng, 4).entries)):
            assert not mat.entries.flags.writeable
            with pytest.raises(ValueError):
                mat.entries[0, 1] = 2.0

    def test_truncation_is_a_read_only_view(self):
        # an explicit matrix's truncation views its entries; a builtin's is
        # the same builtin over its generator's prefix, at the full size too
        rng = np.random.default_rng(18)
        for full in (PhaseMatrix.exponential(0.9, 16), random_gram_matrix(rng, 16)):
            for dim in (1, 2, 7, 15, 16):
                cut = full.truncated(dim)
                if full.label == "explicit":
                    assert np.shares_memory(cut.entries, full.entries)
                assert not cut.entries.flags.writeable
                with pytest.raises(ValueError):
                    cut.entries[0, 0] = 2.0
                np.testing.assert_array_equal(cut.entries, full.entries[:dim, :dim])
                assert (cut.label, cut.q, cut.dim) == (full.label, full.q, dim)

    def test_builtin_truncation_builds_no_parent_entries(self):
        # a dense copy of the parent's entries would be 4096 x 4096: 256 MB
        full = PhaseMatrix.exponential(0.9, 4096)
        peak = traced_peak(lambda: PhaseMatrix.exponential(0.9, 4096).truncated(16).entries)
        assert peak < 2**20
        entries = full.truncated(16).entries
        assert span_bytes(full.entries) == 16 * (2 * 4096 - 1)
        assert np.shares_memory(entries, full.entries)
        np.testing.assert_array_equal(entries, PhaseMatrix.exponential(0.9, 16).entries)

    def test_builtin_entries_are_a_toeplitz_view(self):
        # one read-only complex buffer of 2S - 1 values, viewed S x S
        mat = PhaseMatrix.exponential(0.9, 4096)
        assert repr(mat) == "PhaseMatrix(label='exponential', dim=4096, q=0.9)"
        assert mat.to_dict() == {"kind": "exponential", "dim": 4096, "q": 0.9}
        assert span_bytes(mat.entries) == 16 * (2 * 4096 - 1)
        assert span_bytes(mat.truncated(16).entries) == 16 * (2 * 16 - 1)
        small = PhaseMatrix.exponential(0.5, 5)
        assert small.entries is small.entries and small.entries.dtype == complex
        assert not small.entries.flags.writeable
        np.testing.assert_array_equal(small.entries, 0.5 ** np.abs(np.subtract.outer(
            np.arange(5), np.arange(5))))

    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    def test_bilinear_matches_entries(self, dim):
        # a builtin applies its generator, in O(S) memory; a dense matrix
        # takes left @ C @ right itself
        rng = np.random.default_rng(19)
        left, right = (rng.standard_normal((dim, 2)) @ [1, 1j] for _ in range(2))
        for make in (lambda: PhaseMatrix.exponential(0.9, dim),
                     lambda: PhaseMatrix.canonical(dim), lambda: PhaseMatrix.trivial(dim)):
            mat = make()
            got = mat.bilinear(left, right)
            assert traced_peak(lambda: mat.bilinear(left, right)) < max(16 * dim * dim, 2**13)
            assert span_bytes(mat.entries) == 16 * (2 * dim - 1)
            assert abs(got - left @ make().entries @ right) <= 1e-12 * dim
        gram = random_gram_matrix(rng, dim)
        assert gram.bilinear(left, right) == left @ gram.entries @ right

    def test_constructor_takes_entries_alone(self):
        # a dense matrix is "explicit": the family and its parameter are not
        # the caller's to claim
        entries = random_gram_matrix(np.random.default_rng(20), 3).entries
        for extra in ({"label": "exponential"}, {"q": 0.9}, {"label": "explicit"}):
            with pytest.raises(TypeError):
                PhaseMatrix(entries, **extra)
        with pytest.raises(TypeError):
            PhaseMatrix(entries, "canonical")
        mat = PhaseMatrix(entries)
        assert (mat.label, mat.q, mat._generator) == ("explicit", None, None)

    def test_public_constructor_copies(self):
        given = np.eye(3, dtype=complex)
        mat = PhaseMatrix(given)
        assert not np.shares_memory(mat.entries, given)
        assert given.flags.writeable and not mat.entries.flags.writeable
        with pytest.raises(PhaseObsError):
            PhaseMatrix(np.full((2, 2), np.nan, dtype=complex))


class TestFromGram:
    def test_equal_vectors_give_canonical(self):
        vecs = np.tile(np.array([3, 4j]) / 5.0, (4, 1))
        mat = PhaseMatrix.from_gram(vecs)
        np.testing.assert_allclose(mat.entries, np.ones((4, 4)), atol=1e-15)

    def test_orthonormal_vectors_give_trivial(self):
        mat = PhaseMatrix.from_gram(np.eye(5))
        np.testing.assert_array_equal(mat.entries, np.eye(5))

    def test_inner_product_oracle(self):
        u0 = np.array([1.0, 0.0])
        u1 = np.array([1.0, 1.0]) / math.sqrt(2)
        mat = PhaseMatrix.from_gram([u0, u1])
        assert mat.entries[0, 1] == pytest.approx(1 / math.sqrt(2))

    def test_rejects_nonunit(self):
        with pytest.raises(PhaseObsError):
            PhaseMatrix.from_gram([[1.0, 1.0], [1.0, 0.0]])

    def test_always_validates(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mat = random_gram_matrix(rng, 12)
            assert validate(mat.entries).valid


class TestExplicit:
    def test_diagonal_renormalization(self):
        eps = 1e-13
        entries = np.array([[1.0 + eps, 0.5], [0.5, 1.0 - eps]])
        mat = PhaseMatrix(entries)
        assert mat.entries[0, 0] == 1.0 and mat.entries[1, 1] == 1.0

    def test_rejects_invalid(self):
        with pytest.raises(ValidationError):
            PhaseMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestKraus:
    def test_canonical_single_identity_row(self):
        for dim in (2, 5, 16):
            family = kraus_decompose(PhaseMatrix.canonical(dim))
            assert family.rank == 1
            # V_0 = I up to global phase; the phase convention pins it exactly
            np.testing.assert_allclose(family.z[0], np.ones(dim), atol=1e-9)

    def test_trivial_permuted_basis_rows(self):
        dim = 6
        family = kraus_decompose(PhaseMatrix.trivial(dim))
        assert family.rank == dim
        rounded = np.abs(family.z)
        # each row and each column holds exactly one unit entry
        np.testing.assert_allclose(rounded.sum(axis=0), np.ones(dim), atol=1e-10)
        np.testing.assert_allclose(rounded.sum(axis=1), np.ones(dim), atol=1e-10)
        np.testing.assert_allclose(rounded.max(axis=1), np.ones(dim), atol=1e-10)

    def test_exponential_half_reconstructs(self):
        family = kraus_decompose(PhaseMatrix.exponential(0.5, 2))
        rebuilt = family.z.T @ family.z.conj()
        np.testing.assert_allclose(rebuilt, [[1, 0.5], [0.5, 1]], atol=1e-12)

    def test_round_trip_on_random_gram(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            mat = random_gram_matrix(rng, 10)
            rebuilt = kraus_reconstruct(kraus_decompose(mat))
            np.testing.assert_allclose(rebuilt.entries, mat.entries, atol=1e-10)

    def test_column_norms(self):
        rng = np.random.default_rng(9)
        mat = random_gram_matrix(rng, 14)
        family = kraus_decompose(mat)
        np.testing.assert_allclose(
            np.linalg.norm(family.z, axis=0), np.ones(14), atol=1e-10
        )

    def test_contraction_norms(self):
        rng = np.random.default_rng(10)
        for mat in (
            PhaseMatrix.canonical(9),
            PhaseMatrix.exponential(0.8, 9),
            random_gram_matrix(rng, 9),
        ):
            family = kraus_decompose(mat)
            assert float(np.max(np.abs(family.z))) <= 1.0 + 1e-12

    def test_reconstruct_trivial_cases(self):
        dim = 4
        ones = KrausFamily(np.ones((1, dim)) )
        np.testing.assert_allclose(
            kraus_reconstruct(ones).entries, np.ones((dim, dim)), atol=1e-12
        )
        identity = KrausFamily(np.eye(dim))
        np.testing.assert_array_equal(
            kraus_reconstruct(identity).entries, np.eye(dim)
        )

    def test_order_matches_tuple_key(self):
        rng = np.random.default_rng(12)
        # canonical(3) + canonical(2) + canonical(2) + trivial(2): eigenvalues
        # 3, 2, 2, 1, 1 and four zeros, the 2s with eigenvectors off the basis
        blocks = np.zeros((9, 9), dtype=complex)
        blocks[:3, :3] = 1.0
        blocks[3:5, 3:5] = 1.0
        blocks[5:7, 5:7] = 1.0
        blocks[7:, 7:] = np.eye(2)
        for mat in (
            PhaseMatrix.trivial(6),
            PhaseMatrix(blocks),
            PhaseMatrix.canonical(5),
            PhaseMatrix.exponential(0.6, 9),
            random_gram_matrix(rng, 12),
        ):
            np.testing.assert_array_equal(kraus_decompose(mat).z, tuple_key_rows(mat))
        # tied rows really are reordered: e_5 sorts first, e_0 last
        np.testing.assert_array_equal(
            kraus_decompose(PhaseMatrix.trivial(6)).z, np.eye(6)[::-1]
        )

    def test_phase_fix_matches_vector_loop(self):
        # every row at once, bit for bit as one vector at a time; the
        # block and trivial eigenvectors start with (near-)zero components
        rng = np.random.default_rng(16)
        for entries in (random_gram_matrix(rng, 40).entries,
                        PhaseMatrix.exponential(0.3, 40).entries,
                        np.kron(np.eye(3), random_gram_matrix(rng, 4).entries),
                        np.eye(5)):
            vecs = np.linalg.eigh(entries)[1].T
            expected = np.array([loop_fix_phase(vec) for vec in vecs])
            assert _fix_vector_phase(vecs).tobytes() == expected.tobytes()

    def test_decompose_rejects_non_psd(self):
        # the constructor refuses a matrix that is not PSD; adopted
        # unchecked, it is refused by the decomposition's own guard
        entries = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
        with pytest.raises(ValidationError, match=r"^not a phase matrix: psd \(1\)$"):
            PhaseMatrix(entries)
        bad = PhaseMatrix._adopt("explicit", entries=entries)
        with pytest.raises(ValidationError, match=r"^matrix is not PSD: min eigenvalue -1 "):
            kraus_decompose(bad)

    def test_decompose_needs_an_eigenvalue_above_the_clip(self):
        zero = PhaseMatrix._adopt("explicit", entries=np.zeros((3, 3), dtype=complex))
        with pytest.raises(ValidationError,
                           match="^matrix has no eigenvalue above the clipping tolerance$"):
            kraus_decompose(zero)

    def test_family_rejects_bad_columns(self):
        with pytest.raises(ValidationError):
            KrausFamily(np.array([[0.5, 1.0]]))


class TestJson:
    def test_builtin_round_trip(self):
        for mat in (
            PhaseMatrix.canonical(3),
            PhaseMatrix.trivial(4),
            PhaseMatrix.exponential(0.25, 5),
        ):
            again = PhaseMatrix.from_dict(json.loads(json.dumps(mat.to_dict())))
            np.testing.assert_array_equal(again.entries, mat.entries)

    def test_round_trip_is_bit_identical(self):
        # a dense matrix is validated and renormalized as it is built, so
        # reading its dict back repeats nothing: the same kind, q and bits
        rng = np.random.default_rng(21)
        nudged = random_gram_matrix(rng, 5).entries.copy()
        nudged[np.diag_indices(5)] += [1e-13, -1e-13, 5e-13, 0.0, -8e-13]
        for mat in (
            PhaseMatrix.canonical(3),
            PhaseMatrix.trivial(4),
            PhaseMatrix.exponential(0.25, 5),
            PhaseMatrix.exponential(0.9, 3).truncated(2),
            random_gram_matrix(rng, 6),
            PhaseMatrix(nudged),
            PhaseMatrix(np.eye(3)),
            kraus_reconstruct(kraus_decompose(random_gram_matrix(rng, 4))),
        ):
            again = PhaseMatrix.from_dict(json.loads(json.dumps(mat.to_dict())))
            assert (again.label, again.q, again.dim) == (mat.label, mat.q, mat.dim)
            assert again.entries.tobytes() == mat.entries.tobytes()
            assert again.to_dict() == mat.to_dict()

    def test_explicit_round_trip(self):
        rng = np.random.default_rng(11)
        mat = random_gram_matrix(rng, 6)
        again = PhaseMatrix.from_dict(json.loads(json.dumps(mat.to_dict())))
        np.testing.assert_allclose(again.entries, mat.entries, atol=1e-15)

    def test_kraus_rows_match_element_loop(self):
        rng = np.random.default_rng(13)
        for mat in (PhaseMatrix.trivial(4), random_gram_matrix(rng, 16)):
            family = kraus_decompose(mat)
            loop = {"rows": [[[z.real, z.imag] for z in row] for row in family.z]}
            assert json.dumps(family.to_dict()) == json.dumps(loop)

    def test_entries_and_coeffs_match_element_loop(self):
        rng = np.random.default_rng(14)
        mat = random_gram_matrix(rng, 16)
        loop = [[[z.real, z.imag] for z in row] for row in mat.entries]
        assert json.dumps(mat.to_dict()["entries"]) == json.dumps(loop)
        for psi in (random_state(rng, 16),
                    HardyState([complex(0.6, -0.0), complex(-0.0, 0.8)])):
            loop = {"coeffs": [[z.real, z.imag] for z in psi.coeffs]}
            assert json.dumps(psi.to_dict()) == json.dumps(loop)

    def test_kraus_round_trip(self):
        family = kraus_decompose(PhaseMatrix.exponential(0.6, 5))
        again = KrausFamily.from_dict(json.loads(json.dumps(family.to_dict())))
        np.testing.assert_array_equal(again.z, family.z)


@pytest.mark.parametrize("step,order", [("validate", "C"), ("validate", "F"),
                                        ("explicit", "C"), ("explicit", "F"),
                                        ("kraus", "C")])
def test_explicit_steps_hold_about_two_matrices(step, order):
    # beyond its input, each step holds at most about two S x S complex
    # arrays (its result or Cholesky's factor, and one working buffer) plus
    # row blocks, whatever the input's memory layout; with whole-matrix
    # temporaries they peaked at 3.00, 3.00 and 3.65 matrices
    dim = 256
    matrix = random_gram_matrix(np.random.default_rng(40), dim)
    raw = np.array(matrix.entries, order=order)
    run = {"validate": lambda: validate(raw),
           "explicit": lambda: PhaseMatrix(raw),
           "kraus": lambda: kraus_decompose(matrix)}[step]
    run()
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result is not None
    assert peak <= 2.25 * 16 * dim**2


@pytest.mark.parametrize("step", ["validate", "kraus"])
def test_builtin_steps_hold_two_matrices(step):
    # a builtin's entries are its Toeplitz view, so validating or factoring
    # one, from its construction on, holds the working copies alone: a dense
    # copy of C besides them peaked at 3.0 matrices
    dim = 512
    run = {"validate": lambda: validate(PhaseMatrix.exponential(0.9, dim).entries),
           "kraus": lambda: kraus_decompose(PhaseMatrix.exponential(0.9, dim))}[step]
    assert traced_peak(run) / (16 * dim**2) < 2.5
