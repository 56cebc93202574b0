import json
import math

import numpy as np
import pytest

from conftest import eig2, loop_fix_phase, random_gram_matrix, random_state
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
            for mat in (spread, top):
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
        mat = PhaseMatrix.explicit(entries)
        assert mat.entries[0, 0] == 1.0 and mat.entries[1, 1] == 1.0

    def test_rejects_invalid(self):
        with pytest.raises(ValidationError):
            PhaseMatrix.explicit(np.array([[1.0, 2.0], [2.0, 1.0]]))


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
        bad = PhaseMatrix(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))
        with pytest.raises(ValidationError):
            kraus_decompose(bad)

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
