import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eig2, random_gram_matrix, span_bytes, traced_peak
from phaseobs import (
    PhaseMatrix,
    PhaseObsError,
    PhaseWindow,
    PrecisionError,
    TWO_PI,
    first_moment,
    localization,
    moment_spectrum,
    window_operator,
    window_probability,
)
from phaseobs import spectral
from phaseobs.observable import _arc_symbol, _schur_toeplitz, _window_symbol, schur_toeplitz
from phaseobs.spectral import _halves, _lift, _prolate_gap, _prolate_row

HALF = PhaseWindow(((0.0, math.pi),))
EPS = np.finfo(float).eps


class TestFirstMoment:
    def test_canonical_entries(self):
        op = first_moment(PhaseMatrix.canonical(4))
        for n in range(4):
            assert op[n, n] == math.pi
            for m in range(4):
                if n != m:
                    assert op[n, m] == pytest.approx(1j / (m - n))

    def test_trivial_scaled_identity(self):
        op = first_moment(PhaseMatrix.trivial(5))
        np.testing.assert_array_equal(op, math.pi * np.eye(5))

    def test_canonical_two_level_spectrum(self):
        # 2x2 oracle on [[pi, i], [-i, pi]]
        spectrum = moment_spectrum(PhaseMatrix.canonical(2))
        np.testing.assert_allclose(spectrum, eig2(math.pi, 1.0), atol=1e-10)

    def test_diagonal_pi_for_any_matrix(self):
        rng = np.random.default_rng(50)
        mat = random_gram_matrix(rng, 9)
        op = first_moment(mat)
        assert np.all(np.diag(op) == math.pi)

    def test_hermitian_and_toeplitz_for_builtins(self):
        for mat in (
            PhaseMatrix.canonical(8),
            PhaseMatrix.trivial(8),
            PhaseMatrix.exponential(0.5, 8),
        ):
            entries = first_moment(mat)
            assert np.max(np.abs(entries - entries.conj().T)) <= 1e-12
            for k in range(1, 8):
                diag = np.diag(entries, k)
                assert np.max(np.abs(diag - diag[0])) <= 1e-15


    def test_factory_array_frozen(self):
        for mat in (PhaseMatrix.exponential(0.5, 6),
                    random_gram_matrix(np.random.default_rng(52), 6)):
            assert not first_moment(mat).flags.writeable


class TestMomentSpectrum:
    def test_trivial_all_pi(self):
        np.testing.assert_allclose(
            moment_spectrum(PhaseMatrix.trivial(7)), math.pi * np.ones(7)
        )

    def test_confinement_and_mean(self):
        rng = np.random.default_rng(51)
        for mat in (
            PhaseMatrix.canonical(16),
            PhaseMatrix.exponential(0.7, 16),
            random_gram_matrix(rng, 16),
        ):
            spectrum = moment_spectrum(mat)
            assert spectrum[0] >= -1e-9
            assert spectrum[-1] <= TWO_PI + 1e-9
            assert spectrum.mean() == pytest.approx(math.pi, abs=1e-10)

    def test_canonical_sweep_spreads(self):
        mins, maxs = [], []
        for dim in (4, 8, 16, 32):
            spectrum = moment_spectrum(PhaseMatrix.canonical(dim))
            mins.append(spectrum[0])
            maxs.append(spectrum[-1])
        assert all(b < a for a, b in zip(mins, mins[1:]))
        assert all(b > a for a, b in zip(maxs, maxs[1:]))


@pytest.fixture
def moment_builds(monkeypatch):
    """Counts the complex first-moment operators `moment_spectrum` builds."""
    calls = []

    def spy(matrix):
        calls.append(matrix.dim)
        return first_moment(matrix)

    monkeypatch.setattr(spectral, "first_moment", spy)
    return calls


class TestMomentRealForm:
    """A real persymmetric C takes pi + eigvalsh(J B), a real solve."""

    @pytest.mark.parametrize("size", [1, 2, 7, 63, 64, 65, 300])
    def test_matches_complex_path(self, size, moment_builds):
        for mat in (
            PhaseMatrix.exponential(0.9, size),
            PhaseMatrix.exponential(0.3, size),
            PhaseMatrix.canonical(size),
            PhaseMatrix.trivial(size),
        ):
            reference = np.linalg.eigvalsh(first_moment(mat))
            assert np.max(np.abs(moment_spectrum(mat) - reference)) <= 1e-13
        assert np.all(moment_spectrum(PhaseMatrix.trivial(size)) == math.pi)
        assert moment_builds == []

    @pytest.mark.parametrize("size", [1, 2, 7, 63, 64, 1024])
    def test_symmetric_about_pi(self, size):
        """pi +- the singular values of the half-size block, and pi itself
        at the middle of an odd size."""
        for mat in (PhaseMatrix.exponential(0.9, size), PhaseMatrix.canonical(size)):
            spectrum = moment_spectrum(mat)
            assert spectrum.shape == (size,)
            assert np.all(np.diff(spectrum) >= 0.0)
            if size % 2:
                assert spectrum[size // 2] == math.pi
            below, above = spectrum[: size // 2], spectrum[size - size // 2:]
            assert np.all(below < math.pi) and np.all(above > math.pi)
            # each pair rounds pi - s and pi + s of one singular value s
            assert np.max(np.abs(below + above[::-1] - TWO_PI), initial=0.0) <= 2 * TWO_PI * EPS

    def test_other_matrices_take_complex_path(self, moment_builds):
        rng = np.random.default_rng(54)
        real = real_gram_matrix(rng, 16)
        assert not real.entries.imag.any()
        assert not np.array_equal(real.entries, real.entries[::-1, ::-1])
        for mat in (real, random_gram_matrix(rng, 16)):
            reference = np.linalg.eigvalsh(first_moment(mat))
            np.testing.assert_array_equal(moment_spectrum(mat), reference)
        assert moment_builds == [16, 16]


    def test_label_does_not_vouch(self, moment_builds):
        # a real matrix that is not persymmetric, with a builtin's label but
        # no generator, still takes the checked path
        real = real_gram_matrix(np.random.default_rng(55), 16)
        fake = PhaseMatrix._adopt("exponential", 0.9, entries=real.entries)
        reference = np.linalg.eigvalsh(first_moment(real))
        np.testing.assert_array_equal(moment_spectrum(fake), reference)
        assert moment_builds == [16]


class TestGeneratorSolves:
    """A builtin's spectra come from its generator: no dense C and no
    symmetry scan, and the bytes of its public-constructor dense copy."""

    @pytest.mark.parametrize("size", [1, 2, 7, 64, 65])
    def test_bytes_of_dense_copy(self, size):
        windows = (HALF, PhaseWindow(((0.0, 1.0), (5.0, TWO_PI))),
                   PhaseWindow(((0.5, 2.0), (3.0, 5.5))), PhaseWindow.full_circle())
        for mat in (PhaseMatrix.exponential(0.9, size), PhaseMatrix.exponential(0.2, size),
                    PhaseMatrix.trivial(size), PhaseMatrix.canonical(min(size, 7))):
            copy = PhaseMatrix(mat.entries)
            np.testing.assert_array_equal(moment_spectrum(mat), moment_spectrum(copy))
            for window in windows:
                ours, theirs = localization(mat, window), localization(copy, window)
                assert (ours.lam, ours.gap, ours.method) == (theirs.lam, theirs.gap, theirs.method)
                np.testing.assert_array_equal(ours.maximizer.coeffs, theirs.maximizer.coeffs)

    def test_no_dense_matrix(self):
        # one complex S x S array is 16 S^2 bytes: the moment solve holds
        # less than one, and a localization, the real S x S operator it
        # solves included, less than two; 8 kB covers the fixed overhead
        for mat in (PhaseMatrix.exponential(0.9, 64), PhaseMatrix.canonical(16)):
            square = 16 * mat.dim**2
            assert traced_peak(lambda: moment_spectrum(mat)) < square + 2**13
            assert traced_peak(lambda: localization(mat, HALF)) < 2 * square + 2**13
            for s in (4, 9, 16):
                cut = mat.truncated(s)
                peak = traced_peak(lambda: localization(cut, HALF, maximizer=False))
                assert peak < 2 * 16 * s * s + 2**13
            assert span_bytes(mat.entries) == 16 * (2 * mat.dim - 1)
            assert span_bytes(mat.truncated(9).entries) == 16 * (2 * 9 - 1)


class TestLocalization:
    def test_full_circle_identity(self):
        rng = np.random.default_rng(52)
        for mat in (PhaseMatrix.canonical(6), random_gram_matrix(rng, 6)):
            lam = localization(mat, PhaseWindow.full_circle()).lam
            assert lam == pytest.approx(1.0, abs=1e-12)

    def test_trivial_half_circle(self):
        lam = localization(PhaseMatrix.trivial(8), HALF).lam
        assert lam == pytest.approx(0.5, abs=1e-14)

    def test_canonical_two_level(self):
        loc = localization(PhaseMatrix.canonical(2), HALF)
        lam, maximizer = loc.lam, loc.maximizer
        assert lam == pytest.approx(0.5 + 1 / math.pi, abs=1e-12)
        assert window_probability(
            PhaseMatrix.canonical(2), maximizer, HALF
        ) == pytest.approx(lam, abs=1e-10)

    def test_maximizer_attains_maximum(self):
        rng = np.random.default_rng(53)
        mat = random_gram_matrix(rng, 8)
        from conftest import random_window

        window = random_window(rng)
        loc = localization(mat, window)
        lam, maximizer = loc.lam, loc.maximizer
        assert window_probability(mat, maximizer, window) == pytest.approx(
            lam, abs=1e-10
        )

    def test_sweep_monotone_below_one(self):
        # 1 - lambda_max decays roughly like exp(-c S) and drops below machine
        # epsilon past S ~ 20, where the exact prolate path takes over
        mat = PhaseMatrix.canonical(32)
        lams = [localization(mat.truncated(s), HALF, maximizer=False).lam
                for s in (2, 4, 8, 16, 32)]
        assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))
        assert all(lam < 1.0 for lam in lams)
        assert all(lam <= 1.0 + 1e-12 for lam in lams)

    def test_sweep_trivial_constant(self):
        mat = PhaseMatrix.trivial(16)
        for s in (2, 4, 16):
            lam = localization(mat.truncated(s), HALF, maximizer=False).lam
            assert lam == pytest.approx(0.5, abs=1e-14)


def mpmath_gap(size, lo, hi, dps=80):
    """1 - lambda_max of the canonical window operator of [lo, hi), built and
    diagonalized densely in mpmath: the oracle for the prolate path."""
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        sym = [(b - a) / (2 * mpmath.pi)] + [
            (mpmath.expj(k * b) - mpmath.expj(k * a)) / (2j * mpmath.pi * k)
            for k in range(1, size)
        ]
        entries = mpmath.matrix(size, size)
        for n in range(size):
            for m in range(size):
                entries[n, m] = sym[n - m] if n >= m else mpmath.conj(sym[m - n])
        return 1 - max(mpmath.eighe(entries, eigvals_only=True))


def slepian_gap(size, length):
    """Slepian's asymptotic 1 - lambda_0 of the prolate matrix of an arc of
    length L (Slepian 1978, with 2 pi W = L/2), an oracle independent of the
    program's eigenvector: sqrt(pi) 2^(9/4) alpha^(1/4) (2 - alpha)^(-1/2)
    S^(1/2) gamma^(-S), alpha = 1 - cos(L/2), gamma = (sqrt2 + sqrt alpha) /
    (sqrt2 - sqrt alpha)."""
    alpha = 1 - mpmath.cos(mpmath.mpf(length) / 2)
    root2, root_alpha = mpmath.sqrt(2), mpmath.sqrt(alpha)
    gamma = (root2 + root_alpha) / (root2 - root_alpha)
    return (mpmath.sqrt(mpmath.pi) * mpmath.mpf(2) ** mpmath.mpf(2.25) * alpha ** 0.25
            / mpmath.sqrt(2 - alpha) * mpmath.sqrt(size) * gamma ** -size)


def relative(a, b):
    return float(abs(a - b) / abs(b))


class TestExactGap:
    @pytest.mark.parametrize("size", [8, 16, 24])
    @pytest.mark.parametrize("arc", [(0.0, math.pi), (1.0, 2.0), (0.5, 6.0)])
    def test_prolate_matches_dense_mpmath(self, size, arc):
        gap, _ = _prolate_gap(size, *arc)
        assert relative(gap, mpmath_gap(size, *arc)) <= 1e-6

    @pytest.mark.parametrize("size", [4, 8, 12, 16])
    def test_dense_gap_within_its_bound(self, size):
        loc = localization(PhaseMatrix.canonical(size), HALF)
        assert loc.method == "dense"
        gap, _ = _prolate_gap(size, 0.0, math.pi)
        assert abs(loc.gap - gap) <= 8 * size * np.finfo(float).eps

    def test_dense_error_within_bound_on_random_arcs(self):
        rng = np.random.default_rng(60)
        for _ in range(40):
            size = int(rng.integers(1, 60))
            lo, hi = np.sort(rng.uniform(0.0, TWO_PI, 2))
            window = PhaseWindow(((lo, hi),))
            entries = window_operator(PhaseMatrix.canonical(size), window)
            dense = 1.0 - np.linalg.eigvalsh(entries)[-1]
            gap, _ = _prolate_gap(size, lo, hi)
            assert abs(dense - gap) <= 8 * size * np.finfo(float).eps

    def test_known_values(self):
        assert _prolate_gap(2, 0.0, math.pi)[0] == pytest.approx(0.5 - 1 / math.pi, rel=1e-12)
        # 1 - v^T P v from the full quadratic form (not the one row used by
        # the program), to 8 digits
        expected = {32: "1.4805157e-23", 64: "6.7382061e-48", 512: "2.0777225e-390"}
        for size, value in expected.items():
            gap = localization(PhaseMatrix.canonical(size), HALF).gap
            assert relative(gap, mpmath.mpf(value)) <= 1e-7

    def test_matches_slepian_asymptotic(self):
        # the formula's relative error is flat in S and grows as the arc
        # shrinks: about 0.63/S at L = 6.1, 1.0/S at L = 2 and 6/S at L = 0.3
        rng = np.random.default_rng(64)
        prolate = 0
        for size in (32, 33, 64, 97, 128):
            for _ in range(4):
                window = random_arc(rng)
                loc = localization(PhaseMatrix.canonical(size), window, maximizer=False)
                if loc.method != "prolate":
                    continue
                prolate += 1
                lo, hi = window.arc
                rel = abs(mpmath.mpf(loc.gap) / slepian_gap(size, hi - lo) - 1)
                assert rel <= (1 + 2 / (hi - lo)) / size
        assert prolate >= 8

    def test_shift_covariance(self):
        mat = PhaseMatrix.canonical(48)
        windows = [
            HALF,
            PhaseWindow(((1.0, 1.0 + math.pi),)),
            PhaseWindow(((0.0, 1.0), (1.0, math.pi))),  # two touching pieces
            HALF.shifted(5.0),  # wraps through 2*pi
        ]
        assert len(windows[-1].arcs) == 2
        locs = [localization(mat, window) for window in windows]
        assert all(loc.method == "prolate" for loc in locs)
        for loc in locs[1:]:
            assert relative(loc.gap, locs[0].gap) <= 1e-9

    def test_complement_of_small_arc(self):
        # the window misses only [1, 1.5): the gap is the bottom eigenvalue
        # of the small arc's operator, far below the 0.75 S + 30 digits
        window = PhaseWindow(((1.0, 1.5),)).complement()
        loc = localization(PhaseMatrix.canonical(16), window)
        assert loc.method == "prolate"
        assert relative(loc.gap, mpmath_gap(16, 1.5, 1.0 + TWO_PI)) <= 1e-6
        assert loc.lam < 1

    @pytest.mark.parametrize("size", [32, 64])
    @pytest.mark.parametrize("window", [HALF, HALF.shifted(5.0)], ids=["half", "wrapped"])
    def test_maximizer_residual(self, size, window):
        mat = PhaseMatrix.canonical(size)
        loc = localization(mat, window)
        lam, maximizer = loc.lam, loc.maximizer
        assert 0 < 1 - lam < 1e-20
        entries = window_operator(mat, window)
        v = maximizer.coeffs
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(entries @ v - float(lam) * v) <= 1e-9

    def test_explicit_all_ones_takes_exact_path(self):
        mat = PhaseMatrix(np.ones((40, 40)))
        loc = localization(mat, HALF)
        assert loc.method == "prolate"
        assert loc.gap == localization(PhaseMatrix.canonical(40), HALF).gap

    def test_two_arcs_refused(self):
        window = PhaseWindow(((0.0, 1.0), (2.0, 4.0)))
        with pytest.raises(PhaseObsError, match="S=64"):
            localization(PhaseMatrix.canonical(64), window)
        with pytest.raises(PrecisionError):
            localization(PhaseMatrix.canonical(64).truncated(64), window, maximizer=False)

    def test_noncanonical_unresolved_refused(self):
        nearly_full = PhaseWindow(((1e-17, TWO_PI),))
        with pytest.raises(PrecisionError):
            localization(PhaseMatrix.exponential(0.5, 8), nearly_full)


def real_gram_matrix(rng, dim):
    """Random phase matrix with no imaginary part: the Gram matrix of real
    unit vectors."""
    vecs = rng.standard_normal((dim, 2 * dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return PhaseMatrix.from_gram(vecs)


def random_arc(rng):
    lo, hi = np.sort(rng.uniform(0.0, TWO_PI, 2))
    return PhaseWindow(((float(lo), float(hi)),))


@pytest.fixture
def complex_calls(monkeypatch):
    """The symbols of the complex operators `localization` builds: the E(X)
    path of two or more arcs and the full circle."""
    calls = []

    def spy(matrix, symbol):
        calls.append(symbol)
        return schur_toeplitz(matrix, symbol)

    monkeypatch.setattr(spectral, "schur_toeplitz", spy)
    return calls


class TestRealForm:
    """Every matrix on one arc is solved as C o P, real symmetric for a real
    matrix."""

    @pytest.mark.parametrize("size", [1, 2, 7, 33, 200])
    def test_matches_complex_eigh(self, size, complex_calls):
        rng = np.random.default_rng(70 + size)
        matrices = [
            PhaseMatrix.exponential(float(rng.uniform(0.05, 0.95)), size),
            PhaseMatrix.canonical(size),
            PhaseMatrix.trivial(size),
            real_gram_matrix(rng, size),
        ]
        windows = [
            random_arc(rng),
            random_arc(rng),
            HALF.shifted(5.0),  # wraps through 2*pi
            PhaseWindow(((0.0, 1.0), (1.0, math.pi))),  # two touching pieces
            HALF,
        ]
        assert len(windows[2].arcs) == 2
        for mat in matrices:
            for window in windows:
                loc = localization(mat, window)
                entries = window_operator(mat, window)
                evals = np.linalg.eigvalsh(entries)
                assert abs(float(loc.lam) - evals[-1]) <= 8 * size * EPS
                v = loc.maximizer.coeffs
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(entries @ v - float(loc.lam) * v) <= 1e-12
        assert complex_calls == []

    def test_dense_error_within_bound_on_random_arcs(self, complex_calls):
        rng = np.random.default_rng(61)
        for _ in range(40):
            size = int(rng.integers(1, 60))
            window = random_arc(rng)
            (lo, hi), = window.arcs
            bound = 8 * size * EPS
            gap, _ = _prolate_gap(size, lo, hi)
            real = _schur_toeplitz(np.ones((size, size)), _arc_symbol(size, hi - lo))
            assert abs(1.0 - np.linalg.eigvalsh(real)[-1] - gap) <= bound
            loc = localization(PhaseMatrix.canonical(size), window)
            if loc.method == "dense":
                assert abs(loc.gap - gap) <= bound
            else:
                assert loc.gap == gap
        assert complex_calls == []

    def test_complex_matrix_takes_complex_path(self, complex_calls):
        rng = np.random.default_rng(62)
        mat = random_gram_matrix(rng, 24)
        assert mat.entries.imag.any()
        for window in (HALF, random_arc(rng), HALF.shifted(5.0)):
            loc = localization(mat, window)
            entries = window_operator(mat, window)
            assert abs(loc.lam - np.linalg.eigh(entries)[0][-1]) <= 8 * mat.dim * EPS
            v = loc.maximizer.coeffs
            assert np.linalg.norm(entries @ v - loc.lam * v) <= 1e-12
        assert complex_calls == []

    def test_two_arcs_take_complex_path(self, complex_calls):
        window = PhaseWindow(((0.0, 1.0), (2.0, 4.0)))
        loc = localization(PhaseMatrix.exponential(0.7, 24), window)
        np.testing.assert_array_equal(complex_calls, [_window_symbol(window, 24)])
        assert loc.method == "dense"

    def test_full_circle_stays_exact(self, complex_calls):
        full = PhaseWindow.full_circle()
        for mat in (PhaseMatrix.exponential(0.7, 24), PhaseMatrix.canonical(24)):
            loc = localization(mat, full)
            assert loc.lam == 1.0 and loc.gap == 0.0 and loc.method == "dense"
        np.testing.assert_array_equal(complex_calls, [_window_symbol(full, 24)] * 2)


def arc_window(lo, length):
    """The arc [lo, lo + length), split at 2*pi when it wraps."""
    hi = lo + length
    if hi <= TWO_PI:
        return PhaseWindow(((lo, hi),))
    return PhaseWindow(((0.0, hi - TWO_PI), (lo, TWO_PI)))


class TestSzegoBound:
    """For exponential(q) on one arc of length L, lambda_max stays below
    (2/pi) arctan((1+q)/(1-q) tan(L/4)), the largest value of the Toeplitz
    symbol of E(X), the Poisson kernel of radius q integrated over the arc,
    and rises toward it with S (Grenander & Szego 1958).  The bound depends
    on L only, not on the arc's centre."""

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.97])
    @pytest.mark.parametrize("length", [0.1, 1.5, math.pi, 5.8])
    def test_below_and_rising(self, q, length):
        bound = 2 / math.pi * math.atan((1 + q) / (1 - q) * math.tan(length / 4))
        for lo in (0.0, 2.0, 5.5):  # 5.5 wraps through 2*pi for each length > 0.79
            window = arc_window(lo, length)
            for sizes in ((16, 64, 256), (15, 63, 255)):  # even and odd halves
                shortfalls = [
                    bound - localization(PhaseMatrix.exponential(q, s), window,
                                         maximizer=False).lam
                    for s in sizes
                ]
                assert 0 < shortfalls[2] < shortfalls[1] < shortfalls[0]
        assert len(arc_window(5.5, length).arcs) == (2 if length > 0.79 else 1)

    def test_half_circle_shortfalls(self):
        bound = 2 / math.pi * math.atan(19 * math.tan(math.pi / 4))
        assert bound == pytest.approx(0.9665245832868518, abs=1e-15)
        half = PhaseWindow(((0.0, math.pi),))
        for size, shortfall in ((16, 7.0e-4), (64, 4.08e-5), (256, 2.51e-6), (1024, 1.57e-7)):
            lam = localization(PhaseMatrix.exponential(0.9, size), half, maximizer=False).lam
            assert bound - lam == pytest.approx(shortfall, rel=5e-3)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(0.1, TWO_PI - 0.1), st.floats(0.0, TWO_PI))
    def test_bound_at_any_arc(self, q, length, centre):
        bound = 2 / math.pi * math.atan((1 + q) / (1 - q) * math.tan(length / 4))
        window = arc_window(math.fmod(centre - length / 2 + TWO_PI, TWO_PI), length)
        full = PhaseMatrix.exponential(q, 128)
        lams = [localization(full.truncated(size), window, maximizer=False).lam
                for size in (8, 32, 128)]
        for size, lam in zip((8, 32, 128), lams):
            assert lam <= bound + 8 * size * EPS
        # nested compressions of one operator: nondecreasing to rounding
        assert lams[0] <= lams[1] + 8 * 32 * EPS and lams[1] <= lams[2] + 8 * 128 * EPS


@pytest.fixture
def vector_solves(monkeypatch):
    """Counts the dense eigensolves that also return eigenvectors."""
    calls = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


class TestTruncationWrappers:
    """localization of a truncation m.truncated(s), on the dense and the
    prolate path: its values-only form gives the same lambda_max, bit for
    bit."""

    def test_equal_localization_of_truncation(self):
        rng = np.random.default_rng(82)
        two_arcs = PhaseWindow(((0.0, 1.0), (2.0, 4.0)))
        cases = [
            (PhaseMatrix.exponential(0.9, 64), HALF, [1, 8, 33, 64]),
            (PhaseMatrix.canonical(40), HALF, [2, 8, 32, 40]),  # dense, then prolate
            (PhaseMatrix(np.ones((32, 32))), HALF, [4, 16, 32]),
            (real_gram_matrix(rng, 24), random_arc(rng), [2, 9, 24]),
            (random_gram_matrix(rng, 24), two_arcs, [3, 17, 24]),
        ]
        methods = set()
        for mat, window, dims in cases:
            for s in dims:
                loc = localization(mat.truncated(s), window)
                methods.add((mat.label, loc.method))
                assert localization(mat.truncated(s), window, maximizer=False).lam == loc.lam
        assert methods == {("exponential", "dense"), ("canonical", "dense"),
                           ("canonical", "prolate"), ("explicit", "dense"),
                           ("explicit", "prolate")}


class TestValuesOnly:
    """Sweeps keep only lambda_max, so they solve for eigenvalues only."""

    @pytest.mark.parametrize("size", [1, 2, 7, 33, 200])
    def test_matches_eigh(self, size):
        rng = np.random.default_rng(80 + size)
        matrices = [
            PhaseMatrix.exponential(float(rng.uniform(0.05, 0.95)), size),
            PhaseMatrix.canonical(size),
            PhaseMatrix.trivial(size),
            real_gram_matrix(rng, size),
            random_gram_matrix(rng, size),
        ]
        windows = [random_arc(rng), PhaseWindow(((0.0, 1.0), (2.0, 4.0))), HALF]
        for mat in matrices:
            for window in windows:
                try:
                    full = localization(mat, window)
                except PrecisionError:
                    with pytest.raises(PrecisionError):
                        localization(mat, window, maximizer=False)
                    continue
                values = localization(mat, window, maximizer=False)
                assert values.maximizer is None
                assert values.method == full.method
                if full.method == "dense":
                    assert abs(values.lam - full.lam) <= 8 * size * EPS
                else:
                    assert values.gap == full.gap and values.lam == full.lam

    def test_sweep_takes_no_eigenvectors(self, vector_solves):
        rng = np.random.default_rng(81)
        for mat in (PhaseMatrix.exponential(0.9, 128), random_gram_matrix(rng, 32)):
            dims = [8, 16, mat.dim]
            lams = [localization(mat.truncated(s), HALF, maximizer=False).lam for s in dims]
            assert vector_solves == []
            for lam, s in zip(lams, dims):
                assert abs(lam - localization(mat.truncated(s), HALF).lam) <= 8 * s * EPS
            vector_solves.clear()

    @pytest.mark.parametrize("size", [32, 64])
    def test_prolate_rows_unchanged(self, size):
        mat = PhaseMatrix.canonical(size)
        lam = localization(mat.truncated(size), HALF, maximizer=False).lam
        full = localization(mat, HALF)
        assert full.method == "prolate"
        assert lam == full.lam


def wrapped_arc(rng):
    """A random arc across 0 = 2*pi, stored as two pieces."""
    lo, hi = np.sort(rng.uniform(0.0, TWO_PI, 2))
    return PhaseWindow(((0.0, float(lo)), (float(hi), TWO_PI)))


@pytest.fixture
def value_solves(monkeypatch):
    """Counts the sizes of the eigenvalue-only solves."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


class TestHalfSize:
    """A real persymmetric C on one arc is solved through the even and odd
    blocks of C o P, and the maximizer comes from inverse iteration."""

    @pytest.mark.parametrize("size", [1, 2, 7, 63, 64, 1024])
    def test_blocks_hold_the_spectrum(self, size):
        rng = np.random.default_rng(90 + size)
        bound = 8 * size * EPS
        mat = PhaseMatrix.exponential(float(rng.uniform(0.05, 0.95)), size)
        windows = [random_arc(rng), wrapped_arc(rng)] + (
            [] if size == 1024 else [random_arc(rng), wrapped_arc(rng)])
        for window in windows:
            start, end = window.arc
            length = end - start + (TWO_PI if end <= start else 0.0)
            entries = _schur_toeplitz(mat.entries.real, _arc_symbol(size, length))
            full = np.linalg.eigvalsh(entries)
            halves = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in _halves(entries)]))
            assert np.max(np.abs(halves - full)) <= bound
            loc = localization(mat, window, maximizer=False)
            assert abs(loc.lam - full[-1]) <= bound

    @pytest.mark.parametrize("size", [1, 2, 7, 64])
    def test_lift_gives_eigenvectors(self, size):
        rng = np.random.default_rng(100 + size)
        a = rng.standard_normal((size, size))
        a = a + a.T
        a = a + a[::-1, ::-1]
        reversal = np.eye(size)[::-1]
        for sign, block in zip((1.0, -1.0), _halves(a)):
            evals, evecs = np.linalg.eigh(block)
            for lam, y in zip(evals, evecs.T):
                v = _lift(y, size, sign)
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
                np.testing.assert_array_equal(reversal @ v, sign * v)
                assert np.linalg.norm(a @ v - lam * v) <= 8 * size * EPS * np.linalg.norm(a, 2)

    @pytest.mark.parametrize("size", [2, 7, 64, 200])
    def test_maximizer_residual(self, size):
        rng = np.random.default_rng(110 + size)
        bound = 8 * size * EPS
        q = float(rng.uniform(0.05, 0.95))
        steps = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
        matrices = [
            PhaseMatrix.exponential(q, size),
            # (-q)^|n-m|: real persymmetric, with an odd top eigenvector at even S
            PhaseMatrix((-q) ** steps),
            PhaseMatrix.canonical(size),
            PhaseMatrix.trivial(size),
            random_gram_matrix(rng, size),
            random_gram_matrix(rng, size),
        ]
        windows = [random_arc(rng), wrapped_arc(rng), PhaseWindow(((0.0, 1.0), (2.0, 4.0)))]
        for mat in matrices:
            for window in windows:
                try:
                    loc = localization(mat, window)
                except PrecisionError:
                    continue
                if loc.method == "dense":
                    v = loc.maximizer.coeffs
                    entries = window_operator(mat, window)
                    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
                    assert np.linalg.norm(entries @ v - loc.lam * v) <= bound

    @pytest.mark.parametrize("size", [64, 200])
    def test_maximizer_without_eigh(self, size, vector_solves):
        """A simple top eigenvalue needs no dense eigenvector solve."""
        rng = np.random.default_rng(120 + size)
        for mat in (PhaseMatrix.exponential(0.9, size), random_gram_matrix(rng, size)):
            for window in (HALF, random_arc(rng), wrapped_arc(rng)):
                assert localization(mat, window).method == "dense"
        assert vector_solves == []

    def test_near_tie_takes_eigh(self, vector_solves):
        """A top eigenvalue within 8*S*eps of the next is left to eigh."""
        entries = np.eye(8)
        entries[0, 1] = entries[1, 0] = 1e-14
        loc = localization(PhaseMatrix(entries), HALF)
        assert vector_solves == [8]
        assert loc.maximizer is not None

    @pytest.mark.parametrize("size", [1, 2, 7, 64])
    def test_trivial_maximizer_is_last_basis_vector(self, size):
        rng = np.random.default_rng(130 + size)
        mat = PhaseMatrix.trivial(size)
        for window in (HALF, random_arc(rng), wrapped_arc(rng), PhaseWindow.full_circle()):
            v = localization(mat, window).maximizer.coeffs
            assert np.flatnonzero(v).tolist() == [size - 1]
            assert abs(v[-1]) == pytest.approx(1.0, abs=1e-15)

    def test_builtin_sweeps_solve_at_half_size(self, value_solves):
        dims = [1, 2, 7, 8, 33, 128]
        for mat in (
            PhaseMatrix.exponential(0.9, 128),
            PhaseMatrix.canonical(16),
            PhaseMatrix.trivial(128),
        ):
            for window in (HALF, random_arc(np.random.default_rng(140)), HALF.shifted(5.0)):
                sizes = [s for s in dims if s <= mat.dim]
                value_solves.clear()
                for s in sizes:
                    localization(mat.truncated(s), window, maximizer=False)
                expected = [b for s in sizes for b in ((s - s // 2, s // 2) if s > 1 else (1,))]
                assert value_solves == expected


class TestProlateRow:
    @pytest.mark.parametrize("size", [2, 33, 256])
    @pytest.mark.parametrize("length", [1e-6, 0.05, 1.0, math.pi, TWO_PI - 0.05, TWO_PI - 1e-6])
    def test_matches_entrywise_sines(self, size, length):
        ctx = mpmath.MPContext()
        ctx.dps = int(0.8 * size) + 30
        arc = ctx.mpf(length)
        for c in (0, size // 3, size - 1):
            row = _prolate_row(ctx, size, arc, c)
            with ctx.extradps(20):  # the entry-by-entry row, 20 digits further
                reference = [ctx.sin(arc * (c - m) / 2) / (ctx.pi * (c - m)) if m != c
                             else arc / (2 * ctx.pi) for m in range(size)]
            assert len(row) == size
            assert max(abs(a - b) for a, b in zip(row, reference)) <= ctx.mpf(10) ** -ctx.dps
