import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (
    arc_cdf,
    bincount_weights,
    bisect_sample,
    eig2,
    loop_density,
    loop_window_integral,
    loop_window_operator,
    loop_window_probability,
    random_gram_matrix,
    random_state,
    random_window,
    span_bytes,
    traced_peak,
    trapezoid_coefficients,
    wavefunction,
)
from phaseobs import (
    HardyState,
    PhaseMatrix,
    PhaseObsError,
    PhaseWindow,
    TWO_PI,
    check_covariance,
    check_interference,
    density,
    density_grid,
    exact_cdf,
    first_moment,
    fourier_window_integral,
    kernel_C,
    kernel_apply,
    normalize,
    sample,
    window_operator,
    window_probability,
)
from phaseobs import ValidationError, distribution
from phaseobs.distribution import _invert_cdf
from phaseobs.observable import _diagonal_weights, _window_symbol, schur_toeplitz

HALF = PhaseWindow(((0.0, math.pi),))
PLUS = normalize([1, 1])  # (eta_0 + eta_1)/sqrt(2)


def quad_window_integral(k, window):
    """Adaptive-quadrature oracle for (1/2pi) int_X exp(i k theta)."""
    total = 0.0 + 0.0j
    for lo, hi in window.arcs:
        re, _ = quad(lambda t: math.cos(k * t), lo, hi)
        im, _ = quad(lambda t: math.sin(k * t), lo, hi)
        total += (re + 1j * im) / TWO_PI
    return total


class TestFourierWindowIntegral:
    def test_measure_ratio(self):
        assert fourier_window_integral(0, HALF) == pytest.approx(0.5)

    def test_full_circle_orthogonality(self):
        full = PhaseWindow.full_circle()
        assert fourier_window_integral(1, full) == pytest.approx(0.0, abs=1e-15)

    def test_quadrature_oracle(self):
        assert fourier_window_integral(1, HALF) == pytest.approx(1j / math.pi)
        rng = np.random.default_rng(20)
        for _ in range(10):
            window = random_window(rng)
            k = int(rng.integers(-5, 6))
            assert fourier_window_integral(k, window) == pytest.approx(
                quad_window_integral(k, window), abs=1e-10
            )


class TestWindowSymbol:
    """Per arc, the centred sin symbol turned to the arc's centre."""

    @pytest.mark.parametrize("size", [1, 2, 7, 33])
    def test_matches_loop_oracle(self, size):
        rng = np.random.default_rng(26 + size)
        for _ in range(20):
            window = random_window(rng)
            expected = [loop_window_integral(k, window) for k in range(size)]
            np.testing.assert_allclose(
                _window_symbol(window, size), expected, rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("lo, length", [
        (1.0, 1e-9), (0.0, 1e-9), (6.2, 1e-9), (0.5, 1e-6), (2.0, 1e-3), (3.0, 0.05),
    ])
    def test_short_arcs_match_mpmath(self, lo, length):
        size = 64
        hi = lo + length
        given = _window_symbol(PhaseWindow(((lo, hi),)), size)
        with mpmath.workdps(40):
            a, b = mpmath.mpf(lo), mpmath.mpf(hi)
            for k in range(size):
                exact = ((b - a) / (2 * mpmath.pi) if k == 0 else
                         (mpmath.expj(k * b) - mpmath.expj(k * a)) / (2j * mpmath.pi * k))
                assert abs(given[k] - exact) <= 1e-13 * abs(exact)


class TestDensity:
    def test_trivial_is_uniform(self):
        rng = np.random.default_rng(21)
        mat = PhaseMatrix.trivial(6)
        psi = random_state(rng, 6)
        for theta in (0.0, 1.0, 2.5, 6.0):
            assert density(mat, psi, psi, theta) == pytest.approx(1.0)

    def test_basis_state_is_uniform_for_any_matrix(self):
        rng = np.random.default_rng(22)
        mat = random_gram_matrix(rng, 5)
        for n in range(5):
            eta = HardyState.basis(n, 5)
            assert density(mat, eta, eta, 1.3) == pytest.approx(1.0)

    def test_canonical_interference_fringe(self):
        # brute-force double sum gives 1 + cos(theta)
        mat = PhaseMatrix.canonical(2)
        assert density(mat, PLUS, PLUS, 0.0) == pytest.approx(2.0)
        for theta in np.linspace(0, TWO_PI, 13):
            assert density(mat, PLUS, PLUS, float(theta)).real == pytest.approx(
                1 + math.cos(theta), abs=1e-12
            )

    def test_canonical_equals_wavefunction_modulus(self):
        rng = np.random.default_rng(23)
        psi = random_state(rng, 9)
        mat = PhaseMatrix.canonical(9)
        for theta in np.linspace(0, TWO_PI, 11):
            assert density(mat, psi, psi, float(theta)) == pytest.approx(
                abs(complex(wavefunction(psi, theta))) ** 2, abs=1e-12
            )

    def test_trivial_cross_density_is_inner_product(self):
        rng = np.random.default_rng(24)
        psi = random_state(rng, 7)
        phi = random_state(rng, 7)
        mat = PhaseMatrix.trivial(7)
        expected = complex(psi.coeffs.conj() @ phi.coeffs)
        for theta in (0.0, 2.0, 5.0):
            assert density(mat, psi, phi, theta) == pytest.approx(expected)

    def test_self_density_real_nonnegative(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            mat = random_gram_matrix(rng, 8)
            psi = random_state(rng, 8)
            values = density_grid(mat, psi, 256)
            assert values.min() >= -1e-12

    def test_grid_matches_direct_sum(self):
        rng = np.random.default_rng(26)
        mat = random_gram_matrix(rng, 6)
        psi = random_state(rng, 6)
        grid = density_grid(mat, psi, 32)
        for j in (0, 5, 17, 31):
            direct = loop_density(mat, psi, None, TWO_PI * j / 32)
            assert grid[j] == pytest.approx(direct.real, abs=1e-12)

    def test_coarse_grid_matches_direct_sum(self):
        # G < 2S - 1 folds several Fourier modes into one bin
        rng = np.random.default_rng(42)
        mat = random_gram_matrix(rng, 7)
        psi = random_state(rng, 7)
        for grid_size in (1, 2, 3, 5, 12):
            grid = density_grid(mat, psi, grid_size)
            direct = loop_density(mat, psi, None, TWO_PI * np.arange(grid_size) / grid_size)
            np.testing.assert_allclose(grid, direct.real, rtol=0, atol=1e-12)

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(45)
        for dim in (1, 7, 256):
            mat = random_gram_matrix(rng, dim)
            psi, phi = random_state(rng, dim), random_state(rng, dim)
            thetas = TWO_PI * np.arange(8) / 8
            for other in (None, phi):
                values = density(mat, psi, other, thetas)
                assert values.shape == thetas.shape
                np.testing.assert_array_equal(
                    values, [density(mat, psi, other, t) for t in thetas]
                )

    def test_dimension_mismatch(self):
        with pytest.raises(PhaseObsError):
            density(PhaseMatrix.canonical(2), normalize([1, 1, 1]))


class TestWindowProbability:
    def test_full_circle_normalization(self):
        rng = np.random.default_rng(27)
        mat = random_gram_matrix(rng, 7)
        psi = random_state(rng, 7)
        assert window_probability(mat, psi, PhaseWindow.full_circle()) == 1.0

    def test_trivial_uniform(self):
        rng = np.random.default_rng(28)
        psi = random_state(rng, 5)
        assert window_probability(PhaseMatrix.trivial(5), psi, HALF) == pytest.approx(
            0.5
        )

    def test_canonical_lobes(self):
        # quadrature of (1 + cos)/2pi over [0, pi/2) u [3pi/2, 2pi)
        window = PhaseWindow(((0.0, math.pi / 2), (3 * math.pi / 2, TWO_PI)))
        expected, _ = quad(lambda t: (1 + math.cos(t)) / TWO_PI, 0, math.pi / 2)
        tail, _ = quad(lambda t: (1 + math.cos(t)) / TWO_PI, 3 * math.pi / 2, TWO_PI)
        expected += tail
        assert expected == pytest.approx(0.5 + 1 / math.pi)
        assert window_probability(
            PhaseMatrix.canonical(2), PLUS, window
        ) == pytest.approx(expected, abs=1e-12)

    def test_finite_additivity(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            mat = random_gram_matrix(rng, 6)
            psi = random_state(rng, 6)
            cuts = np.sort(rng.random(3) * TWO_PI)
            x1 = PhaseWindow(((float(cuts[0]), float(cuts[1])),))
            x2 = PhaseWindow(((float(cuts[1]), float(cuts[2])),))
            both = PhaseWindow(((float(cuts[0]), float(cuts[2])),))
            assert window_probability(mat, psi, x1) + window_probability(
                mat, psi, x2
            ) == pytest.approx(window_probability(mat, psi, both), abs=1e-12)

    def test_complementarity_probe(self):
        # number states see every proper window with probability |X|/2pi
        rng = np.random.default_rng(30)
        mat = random_gram_matrix(rng, 6)
        for n in range(6):
            eta = HardyState.basis(n, 6)
            for window in (HALF, PhaseWindow(((1.0, 1.5), (4.0, 5.5)))):
                p = window_probability(mat, eta, window)
                assert p == pytest.approx(window.measure / TWO_PI, abs=1e-12)
                assert 0.0 < p < 1.0


class TestWindowOperator:
    def test_trivial_scaled_identity(self):
        op = window_operator(PhaseMatrix.trivial(4), HALF)
        np.testing.assert_allclose(op, 0.5 * np.eye(4), atol=1e-15)

    def test_full_circle_identity_exact(self):
        op = window_operator(PhaseMatrix.canonical(5), PhaseWindow.full_circle())
        np.testing.assert_array_equal(op, np.eye(5))

    def test_canonical_half_circle_entries(self):
        # entry (n, m) carries the k = n - m window integral; with the
        # paper's operator display this puts -i/pi at (0, 1)
        op = window_operator(PhaseMatrix.canonical(2), HALF)
        np.testing.assert_allclose(
            op,
            [[0.5, -1j / math.pi], [1j / math.pi, 0.5]],
            atol=1e-15,
        )
        np.testing.assert_allclose(
            np.linalg.eigvalsh(op),
            sorted(eig2(0.5, 1 / math.pi)),
            atol=1e-14,
        )

    def test_expectation_matches_probability(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            mat = random_gram_matrix(rng, 7)
            psi = random_state(rng, 7)
            window = random_window(rng)
            op = window_operator(mat, window)
            a = psi.coeffs
            dense = a.conj() @ op @ a
            assert abs(dense.imag) <= 1e-12
            assert dense.real == pytest.approx(window_probability(mat, psi, window), abs=1e-12)

    def test_caller_array_copied_not_frozen(self):
        # the operator neither freezes nor aliases the caller's symbol
        for mat in (PhaseMatrix.canonical(4), dense_copy(PhaseMatrix.canonical(4))):
            given = _window_symbol(HALF, 4)
            op = schur_toeplitz(mat, given)
            assert given.flags.writeable
            assert not np.shares_memory(op, given)
            given[0] = 2.0
            np.testing.assert_array_equal(op, window_operator(mat, HALF))

    def test_factory_array_not_copied(self):
        mat = PhaseMatrix.exponential(0.9, 256)
        tracemalloc.start()
        entries = window_operator(mat, HALF)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert not entries.flags.writeable
        # a copy would hold two S x S complex arrays at once
        assert peak < 1.5 * entries.nbytes

    def test_hermitian_and_spectrum(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            mat = random_gram_matrix(rng, 8)
            op = window_operator(mat, random_window(rng))
            assert np.max(np.abs(op - op.conj().T)) <= 1e-12
            evals = np.linalg.eigvalsh(op)
            assert evals[0] >= -1e-10 and evals[-1] <= 1 + 1e-10


class TestSchurToeplitz:
    """The one operator form: a phase matrix and a symbol give a read-only
    array."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 16])
    def test_first_moment_expectation_is_mean_phase(self, dim):
        rng = np.random.default_rng(120 + dim)
        for _ in range(3):
            mat = random_gram_matrix(rng, dim)
            psi = random_state(rng, dim)
            mean, _ = quad(lambda t: t * density(mat, psi, None, t).real,
                           0.0, TWO_PI, limit=200, epsabs=1e-13, epsrel=1e-13)
            a = psi.coeffs
            dense = a.conj() @ first_moment(mat) @ a
            assert abs(dense.imag) <= 1e-12
            assert dense.real == pytest.approx(mean / TWO_PI, abs=1e-10)

    def test_entries_read_only(self):
        rng = np.random.default_rng(125)
        mat = random_gram_matrix(rng, 9)
        window = random_window(rng)
        entries = window_operator(mat, window)
        for op in (entries, window_operator(mat.truncated(9), window),
                   first_moment(PhaseMatrix.exponential(0.6, 5))):
            assert not op.flags.writeable
        np.testing.assert_allclose(
            entries, loop_window_operator(mat, window), rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("shape", [(0,), (3,), (5,), (4, 1)])
    def test_wrong_symbol_length_raises(self, shape):
        for mat in (PhaseMatrix.canonical(4), dense_copy(PhaseMatrix.canonical(4))):
            with pytest.raises(PhaseObsError):
                schur_toeplitz(mat, np.ones(shape, dtype=complex))


class TestLoopOracles:
    """The Schur-Toeplitz path against the double loops over (n, m)."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 33])
    def test_window_quantities_match_loops(self, dim):
        rng = np.random.default_rng(100 + dim)
        for trial in range(6):
            mat = random_gram_matrix(rng, dim)
            psi = random_state(rng, dim)
            window = PhaseWindow.full_circle() if trial == 0 else random_window(rng)
            entries = window_operator(mat, window)
            np.testing.assert_allclose(
                entries, loop_window_operator(mat, window), rtol=0, atol=1e-13
            )
            if trial == 0:
                np.testing.assert_array_equal(entries, np.eye(dim))
            assert window_probability(mat, psi, window) == pytest.approx(
                loop_window_probability(mat, psi, window), abs=1e-13
            )


class TestConditions:
    def test_interference_collapse(self):
        mat = PhaseMatrix.canonical(3)
        psi = HardyState.basis(0, 3)
        phi = HardyState.basis(1, 3)
        assert check_interference(mat, psi, psi, 1.0, 0.0, 0.3) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_interference_fringe_case(self):
        # symbolic expansion: cross terms exp(-+ i theta)/2 complete 1 + cos
        mat = PhaseMatrix.canonical(2)
        c = 1 / math.sqrt(2)
        eta0, eta1 = HardyState.basis(0, 2), HardyState.basis(1, 2)
        for theta in np.linspace(0, TWO_PI, 9):
            assert check_interference(
                mat, eta0, eta1, c, c, float(theta)
            ) == pytest.approx(0.0, abs=1e-12)
            combined = density(mat, PLUS, PLUS, float(theta))
            assert combined.real == pytest.approx(1 + math.cos(theta), abs=1e-12)

    def test_interference_random(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            mat = random_gram_matrix(rng, 5)
            psi = random_state(rng, 5)
            phi = random_state(rng, 5)
            c1 = complex(rng.standard_normal(), rng.standard_normal())
            c2 = complex(rng.standard_normal(), rng.standard_normal())
            norm = np.linalg.norm(c1 * psi.coeffs + c2 * phi.coeffs)
            c1, c2 = c1 / norm, c2 / norm
            theta = float(rng.random() * TWO_PI)
            assert check_interference(mat, psi, phi, c1, c2, theta) <= 1e-12

    def test_covariance_trivial_angles(self):
        rng = np.random.default_rng(34)
        mat = random_gram_matrix(rng, 6)
        psi = random_state(rng, 6)
        for alpha in (0.0, TWO_PI):
            assert check_covariance(mat, psi, alpha, HALF) == pytest.approx(
                0.0, abs=1e-15
            )

    def test_covariance_random(self):
        rng = np.random.default_rng(35)
        edges = np.random.default_rng(135)
        for _ in range(100):
            mat = random_gram_matrix(rng, 6)
            psi = random_state(rng, 6)
            alpha = float(rng.random() * 4 * math.pi - 2 * math.pi)
            lo, hi = np.sort(edges.random(2) * TWO_PI)
            windows = (
                random_window(rng),
                PhaseWindow(((float(lo), TWO_PI),)),  # ends at 2*pi
                PhaseWindow(((0.0, float(lo)), (float(hi), TWO_PI))),  # wraps
                PhaseWindow.full_circle(),
            )
            for window in windows:
                assert check_covariance(mat, psi, alpha, window) <= 1e-12


class TestKernel:
    def test_order_zero_constant(self):
        rng = np.random.default_rng(36)
        mat = random_gram_matrix(rng, 4)
        for x, y in ((0.0, 0.0), (1.0, 2.0), (5.0, 0.5)):
            assert kernel_C(mat, 0, x, y) == pytest.approx(1.0)

    def test_canonical_diagonal_peak(self):
        mat = PhaseMatrix.canonical(20)
        for s in range(17):
            assert kernel_C(mat, s, 0.0, 0.0) == pytest.approx((s + 1) ** 2)

    def test_trivial_two_term(self):
        mat = PhaseMatrix.trivial(3)
        for x, y in ((0.2, 1.1), (3.0, 0.0)):
            assert kernel_C(mat, 1, x, y) == pytest.approx(
                1 + np.exp(-1j * (x - y))
            )
        assert kernel_C(mat, 1, 0.0, 0.0) == pytest.approx(2.0)

    def test_sharpness_bound(self):
        rng = np.random.default_rng(37)
        mats = [
            PhaseMatrix.trivial(10),
            PhaseMatrix.exponential(0.3, 10),
            PhaseMatrix.exponential(0.9, 10),
            random_gram_matrix(rng, 10),
        ]
        for mat in mats:
            for s in range(1, 10):
                peak = kernel_C(mat, s, 0.0, 0.0).real
                assert peak <= (s + 1) ** 2 + 1e-9

    def test_kernel_order_out_of_range(self):
        with pytest.raises(PhaseObsError):
            kernel_C(PhaseMatrix.canonical(3), 3, 0.0, 0.0)

    def test_apply_trivial_basis_state(self):
        mat = PhaseMatrix.trivial(4)
        eta0 = HardyState.basis(0, 4)
        for theta in (0.0, 2.0):
            assert kernel_apply(mat, 0, eta0, theta) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_apply_canonical_fringe(self):
        assert kernel_apply(
            PhaseMatrix.canonical(2), 1, PLUS, 0.0
        ) == pytest.approx(2.0, abs=1e-6)

    def test_apply_matches_density(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            dim = 8
            s = int(rng.integers(1, dim))
            mat = random_gram_matrix(rng, dim)
            psi = random_state(rng, dim, band_limit=s)
            theta = float(rng.random() * TWO_PI)
            assert kernel_apply(mat, s, psi, theta) == pytest.approx(
                density(mat, psi, psi, theta).real, abs=1e-6
            )

    def test_apply_array_matches_scalar(self):
        rng = np.random.default_rng(44)
        mat = random_gram_matrix(rng, 12)
        psi = random_state(rng, 12, band_limit=9)
        thetas = np.concatenate([[0.0], rng.random(6) * TWO_PI])
        values = kernel_apply(mat, 9, psi, thetas)
        assert values.shape == thetas.shape
        np.testing.assert_array_equal(
            values, [kernel_apply(mat, 9, psi, float(t)) for t in thetas]
        )
        np.testing.assert_allclose(
            values, [density(mat, psi, psi, t).real for t in thetas], atol=1e-12
        )

    def test_apply_rejects_wide_band(self):
        psi = normalize([1, 1, 1])
        with pytest.raises(PhaseObsError):
            kernel_apply(PhaseMatrix.canonical(3), 1, psi, 0.0)

    @pytest.mark.parametrize("s, grid", [(0, 2), (10, 11), (40, 41), (64, 1000),
                                         (100, 257), (127, 4096), (200, 4096)])
    def test_apply_matches_quadrature(self, s, grid):
        """The G-point trapezoid rule is exact for G > s, which is why the
        sandwich takes no grid: it equals the dense double sum
        sum_{n,m} conj(u_n) c_{n,m} u_m, u_n = r_n exp(-i n theta), over the
        rule's coefficients r of the quadrature oracle."""
        rng = np.random.default_rng(945 + s)
        psi = random_state(rng, s + 1)
        thetas = np.array([0.0, 1.3, 4.0])
        n = np.arange(s + 1)
        r = trapezoid_coefficients(psi.coeffs, grid)
        for mat in (PhaseMatrix.exponential(0.9, s + 1), random_gram_matrix(rng, s + 1)):
            want = []
            for theta in thetas:
                u = r * np.exp(-1j * n * theta)
                want.append((u.conj()[:, None] * mat.entries * u[None, :]).sum().real)
            scale = np.sum(np.abs(r)) ** 2
            np.testing.assert_allclose(kernel_apply(mat, s, psi, thetas), want,
                                       rtol=0, atol=64 * scale * EPS)


class TestCdfAndSampling:
    def test_trivial_cdf_linear(self):
        rng = np.random.default_rng(39)
        psi = random_state(rng, 5)
        mat = PhaseMatrix.trivial(5)
        for theta in np.linspace(0, TWO_PI, 9):
            assert exact_cdf(mat, psi, float(theta)) == pytest.approx(
                theta / TWO_PI, abs=1e-12
            )

    def test_endpoints(self):
        rng = np.random.default_rng(40)
        mat = random_gram_matrix(rng, 6)
        psi = random_state(rng, 6)
        assert exact_cdf(mat, psi, 0.0) == 0.0
        assert exact_cdf(mat, psi, TWO_PI) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(PhaseObsError):
            exact_cdf(mat, psi, -0.1)

    def test_canonical_half_mass(self):
        expected, _ = quad(lambda t: (1 + math.cos(t)) / TWO_PI, 0, math.pi)
        assert exact_cdf(PhaseMatrix.canonical(2), PLUS, math.pi) == pytest.approx(
            expected, abs=1e-12
        )

    def test_monotone(self):
        rng = np.random.default_rng(41)
        mat = random_gram_matrix(rng, 6)
        psi = random_state(rng, 6)
        thetas = np.linspace(0, TWO_PI, 50)
        values = [exact_cdf(mat, psi, float(t)) for t in thetas]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(43)
        mat = random_gram_matrix(rng, 9)
        psi = random_state(rng, 9)
        thetas = np.concatenate([[0.0], np.sort(rng.random(20) * TWO_PI), [TWO_PI]])
        values = exact_cdf(mat, psi, thetas)
        assert values.shape == thetas.shape
        np.testing.assert_array_equal(
            values, [exact_cdf(mat, psi, float(t)) for t in thetas]
        )
        assert values[0] == 0.0
        with pytest.raises(PhaseObsError):
            exact_cdf(mat, psi, np.array([1.0, 7.0]))

    def test_sampling_deterministic(self):
        mat = PhaseMatrix.canonical(2)
        a = sample(mat, PLUS, 100, seed=7)
        b = sample(mat, PLUS, 100, seed=7)
        np.testing.assert_array_equal(a, b)
        c = sample(mat, PLUS, 100, seed=8)
        assert not np.array_equal(a, c)

    def test_sampling_range(self):
        draws = sample(PhaseMatrix.trivial(3), HardyState.basis(1, 3), 2000, seed=1)
        assert draws.min() >= 0.0 and draws.max() < TWO_PI

    def test_sampling_matches_cdf(self):
        mat = PhaseMatrix.canonical(2)
        draws = np.sort(sample(mat, PLUS, 20000, seed=3))
        cdf_vals = np.array([exact_cdf(mat, PLUS, float(t)) for t in draws[::100]])
        empirical = np.arange(0, 20000, 100) / 20000
        assert np.max(np.abs(cdf_vals - empirical)) < 0.02


ORACLE_MATRICES = {
    "gram": random_gram_matrix,
    "exponential": lambda rng, dim: PhaseMatrix.exponential(0.9, dim),
    "canonical": lambda rng, dim: PhaseMatrix.canonical(dim),
    "trivial": lambda rng, dim: PhaseMatrix.trivial(dim),
}


class TestCdfOracle:
    """exact_cdf (Horner in exp(i theta)) against the arc-symbol pairing."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 64, 256])
    @pytest.mark.parametrize("kind", ORACLE_MATRICES)
    def test_matches_arc_symbol_pairing(self, kind, dim):
        rng = np.random.default_rng(dim)
        mat = ORACLE_MATRICES[kind](rng, dim)
        psi = random_state(rng, dim)
        thetas = np.concatenate([TWO_PI * np.arange(257) / 256, rng.random(64) * TWO_PI])
        np.testing.assert_allclose(
            exact_cdf(mat, psi, thetas), arc_cdf(mat, psi, thetas), rtol=0, atol=1e-13
        )

    def test_exact_endpoints_inside_an_array(self):
        rng = np.random.default_rng(46)
        mat = random_gram_matrix(rng, 64)
        psi = random_state(rng, 64)
        values = exact_cdf(mat, psi, np.array([[1.0, 0.0], [TWO_PI, 3.0]]))
        assert values[0, 1] == 0.0 and values[1, 0] == 1.0

    def test_memory_without_symbol_array(self):
        mat, psi, _ = _exponential_case(256, 0)
        thetas = TWO_PI * np.arange(2**14) / 2**14
        tracemalloc.start()
        try:
            exact_cdf(mat, psi, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an S x G complex symbol array alone would take 64 MiB
        assert peak < 8 * 2**20


class TestDensityOracle:
    """density (Horner in exp(i theta)) against the double sum."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    @pytest.mark.parametrize("kind", ORACLE_MATRICES)
    def test_matches_double_sum(self, kind, dim):
        rng = np.random.default_rng(dim)
        mat = ORACLE_MATRICES[kind](rng, dim)
        psi, phi = random_state(rng, dim), random_state(rng, dim)
        thetas = np.concatenate([TWO_PI * np.arange(256) / 256, rng.random(64) * TWO_PI])
        for other in (None, phi):
            np.testing.assert_allclose(
                density(mat, psi, other, thetas),
                loop_density(mat, psi, other, thetas),
                rtol=0,
                atol=1e-13,
            )

    def test_memory_without_symbol_array(self):
        mat, psi, _ = _exponential_case(256, 0)
        thetas = TWO_PI * np.arange(2**14) / 2**14
        tracemalloc.start()
        try:
            density(mat, psi, None, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an S x G complex exp(i k theta) table alone would take 64 MiB
        assert peak < 8 * 2**20


def _exponential_case(dim, count):
    rng = np.random.default_rng(700 + dim)
    return PhaseMatrix.exponential(0.9, dim), random_state(rng, dim), count


SAMPLER_CASES = {
    **{f"exponential-{dim}": _exponential_case(dim, count) for dim, count in
       ((1, 2000), (2, 2000), (7, 2000), (64, 2000), (256, 500))},
    "trivial": (PhaseMatrix.trivial(5), random_state(np.random.default_rng(71), 5), 2000),
    # density (1 + cos theta)/2pi vanishes at pi
    "canonical-plus": (PhaseMatrix.canonical(2), PLUS, 5000),
    "no-draws": (PhaseMatrix.canonical(2), PLUS, 0),
}


def _sampler_inputs(mat, psi):
    """The weights, grid, table and nodes that `sample` passes to
    `_invert_cdf`, caught on the way in."""
    seen = []

    def spy(w, u, grid, table, nodes):
        seen.append((w, grid, table, nodes))
        return u

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distribution, "_invert_cdf", spy)
        sample(mat, psi, 1, seed=0)
    return seen[0]


class TestSampler:
    """The table-and-Newton sampler against plain bisection."""

    @pytest.mark.parametrize("case", SAMPLER_CASES)
    def test_matches_bisection(self, case):
        mat, psi, count = SAMPLER_CASES[case]
        draws = sample(mat, psi, count, seed=17)
        assert draws.shape == (count,)
        np.testing.assert_allclose(
            draws, bisect_sample(mat, psi, count, seed=17), rtol=0, atol=1e-10
        )

    def test_first_and_last_cells(self):
        mat, psi, count = _exponential_case(64, 3000)
        _, grid, table, _ = _sampler_inputs(mat, psi)
        size = grid.size - 1
        assert size & (size - 1) == 0 and 4 * 64 <= size < 8 * 64
        u = np.random.default_rng(5).random(count)
        assert u.min() < table[1] and u.max() > table[-2]
        np.testing.assert_allclose(
            sample(mat, psi, count, seed=5),
            bisect_sample(mat, psi, count, seed=5),
            rtol=0,
            atol=1e-10,
        )

    @pytest.mark.parametrize("skew", [-0.05, 0.05])
    def test_misplacing_table_still_brackets(self, skew):
        """A table that puts u in the wrong cell costs rounds, not accuracy:
        the cell ends are checked pointwise and fall back to 0 or 2pi."""
        mat, psi, count = _exponential_case(7, 2000)
        w, grid, table, nodes = _sampler_inputs(mat, psi)
        u = np.random.default_rng(8).random(count)
        draws = _invert_cdf(w, u, grid, np.clip(table + skew, 0.0, 1.0), nodes)
        np.testing.assert_allclose(
            draws, bisect_sample(mat, psi, count, seed=8), rtol=0, atol=1e-10
        )

    def test_memory_independent_of_count(self):
        mat, psi, _ = _exponential_case(256, 0)
        peaks = []
        for count in (20_000, 200_000):
            tracemalloc.start()
            try:
                sample(mat, psi, count, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the returned array alone grows by 1.44 MB
        assert abs(peaks[1] - peaks[0]) < 2 * 2**20

    def test_large_dimension(self):
        mat, psi, count = _exponential_case(1024, 100_000)
        draws = sample(mat, psi, count, seed=9)
        assert draws.shape == (count,)
        assert draws.min() >= 0.0 and draws.max() < TWO_PI


@st.composite
def exponential_states(draw):
    dim = draw(st.integers(1, 64))
    q = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return PhaseMatrix.exponential(q, dim), random_state(rng, dim)


class TestCdfProperties:
    @settings(max_examples=60, deadline=None)
    @given(exponential_states())
    def test_cdf_monotone_from_zero_to_one(self, case):
        mat, psi = case
        thetas = np.linspace(0.0, TWO_PI, 257)
        thetas[-1] = TWO_PI
        values = exact_cdf(mat, psi, thetas)
        assert np.all(np.diff(values) >= -1e-12)
        assert values[0] == 0.0
        assert values[-1] == 1.0

    @settings(max_examples=60, deadline=None)
    @given(exponential_states(), st.integers(0, 2**63 - 1))
    def test_draws_invert_the_cdf(self, case, seed):
        mat, psi = case
        count = 64
        draws = sample(mat, psi, count, seed)
        u = np.random.default_rng(seed).random(count)
        below = exact_cdf(mat, psi, np.clip(draws - 1e-10, 0.0, TWO_PI))
        above = exact_cdf(mat, psi, np.clip(draws + 1e-10, 0.0, TWO_PI))
        # exact_cdf and the sampler's Horner evaluation round differently
        assert np.all(below <= u + 1e-13)
        assert np.all(u <= above + 1e-13)


class TestDensityProperties:
    @settings(max_examples=60, deadline=None)
    @given(exponential_states(), st.integers(0, 128))
    def test_grid_is_the_cdf_slope(self, case, extra):
        mat, psi = case
        grid_size = mat.dim + extra
        values = density_grid(mat, psi, grid_size)
        grid = TWO_PI * np.arange(grid_size) / grid_size
        slope = distribution._cdf_and_slope(distribution._diagonal_weights(mat, psi), grid)[1]
        np.testing.assert_allclose(values, TWO_PI * slope, rtol=0, atol=1e-12)
        # for G >= S only k = 0 survives the grid mean: w_0 = ||psi||^2
        assert abs(values.mean() - 1.0) < 1e-12


class TestWindowProbabilityProperties:
    @settings(max_examples=60, deadline=None)
    @given(exponential_states())
    def test_full_circle_is_exactly_one(self, case):
        mat, psi = case
        assert window_probability(mat, psi, PhaseWindow.full_circle()) == 1.0
        two_pieces = PhaseWindow(((0.0, 2.0), (2.0, TWO_PI)))
        assert window_probability(mat, psi, two_pieces) == 1.0


EPS = np.finfo(float).eps


@st.composite
def phase_matrices(draw):
    """A builtin or a Gram matrix of dimension 1..32."""
    dim = draw(st.integers(1, 32))
    kind = draw(st.sampled_from(["canonical", "trivial", "exponential", "gram"]))
    if kind == "exponential":
        return PhaseMatrix.exponential(draw(st.floats(0.0, 1.0)), dim)
    if kind == "gram":
        return random_gram_matrix(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dim)
    return getattr(PhaseMatrix, kind)(dim)


@st.composite
def phase_windows(draw):
    """Empty, full, or arcs between distinct sorted ends inside (0, 2*pi);
    a wrapped window adds ends at 0 and 2*pi, so that its first and last
    arcs meet across 0 = 2*pi."""
    kind = draw(st.sampled_from(["empty", "full", "arcs", "wrapped"]))
    if kind in ("empty", "full"):
        return PhaseWindow(()) if kind == "empty" else PhaseWindow.full_circle()
    inner = st.floats(0.0, TWO_PI, exclude_min=True, exclude_max=True)
    ends = sorted(draw(st.lists(inner, min_size=2, max_size=8, unique=True)))
    if kind == "wrapped":
        ends = [0.0, *ends[: len(ends) // 2 * 2], TWO_PI]
    return PhaseWindow(tuple(zip(ends[0::2], ends[1::2])))


class TestWindowOperatorProperties:
    @settings(max_examples=100, deadline=None)
    @given(phase_matrices(), phase_windows())
    def test_window_and_complement_sum_to_identity(self, mat, window):
        """E(X) + E(X^c) = I.  Entry (n, m) is c_{n,m} times the sum over
        the arcs of X and X^c of their window integrals at k = n - m, which
        add to the delta symbol.  Each arc's integral carries the rounding
        of its centre and length (one step each in [0, 2*pi]) and of its
        sin and exp, and |c_{n,m}| <= 1: an entry is off by about one eps
        per arc (0.65 arcs * eps at most over 3000 random cases at S <= 64),
        so 4 eps per arc bounds it."""
        rest = window.complement()
        total = window_operator(mat, window) + window_operator(mat, rest)
        arcs = len(window.arcs) + len(rest.arcs)
        assert np.max(np.abs(total - np.eye(mat.dim))) <= 4 * arcs * EPS


@st.composite
def narrow_windows(draw):
    """One or two arcs.  Each ends at 2*pi, anywhere past its start, or less
    than 1e-15 past it; the first may start at 0, so that arcs touch 0 =
    2*pi, and an arc that narrow collapses wherever a shift takes it past
    the spacing of doubles."""
    arcs, cursor = [], 0.0
    for _ in range(draw(st.integers(1, 2))):
        if cursor == TWO_PI:
            break
        lo = draw(st.floats(cursor, TWO_PI, exclude_max=True))
        hi = draw(st.one_of(st.just(TWO_PI), st.floats(lo, TWO_PI),
                            st.floats(5e-324, 1e-15).map(lambda width: lo + width)))
        assume(lo < hi)
        arcs.append((lo, hi))
        cursor = hi
    return PhaseWindow(tuple(arcs))


class TestConditionProperties:
    """The paper's covariance and interference conditions hold to the
    tolerances of `TestConditions` for any phase matrix, state, window and
    shift."""

    @settings(max_examples=100, deadline=None)
    @given(phase_matrices(), st.integers(0, 2**32 - 1), narrow_windows(),
           st.floats(allow_nan=False, allow_infinity=False))
    @example(PhaseMatrix.canonical(3), 0, PhaseWindow(((1e-20, 2e-20),)), 1.0)
    @example(PhaseMatrix.exponential(0.9, 4), 1, PhaseWindow(((0.5, 0.5000000000000001),)), 6.0)
    @example(PhaseMatrix.trivial(5), 2, PhaseWindow(((0.0, 1e-16), (6.0, TWO_PI))), -1e-20)
    def test_covariance(self, mat, seed, window, alpha):
        psi = random_state(np.random.default_rng(seed), mat.dim)
        assert check_covariance(mat, psi, alpha, window) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(phase_matrices(), st.integers(0, 2**32 - 1), st.floats(0.0, TWO_PI))
    def test_interference(self, mat, seed, theta):
        rng = np.random.default_rng(seed)
        psi, phi = random_state(rng, mat.dim), random_state(rng, mat.dim)
        c1, c2 = (complex(*rng.standard_normal(2)) for _ in range(2))
        norm = np.linalg.norm(c1 * psi.coeffs + c2 * phi.coeffs)
        assert check_interference(mat, psi, phi, c1 / norm, c2 / norm, theta) <= 1e-12


# An unchecked matrix that is not Hermitian, and one that is Hermitian but
# not PSD: the constructor refuses both, so they are adopted as they are.
NOT_HERMITIAN = PhaseMatrix._adopt("explicit", entries=np.array([[1.0, 0.5], [0.0, 1.0]],
                                                                dtype=complex))
NOT_PSD = PhaseMatrix._adopt("explicit", entries=np.array([[1.0, 2.0], [2.0, 1.0]],
                                                          dtype=complex))


def raised_excess(run, message: str) -> float:
    """The excess that `run()`'s ValidationError reports after `message`."""
    with pytest.raises(ValidationError) as info:
        run()
    text = str(info.value)
    assert text.startswith(message + " ")
    return float(text[len(message) + 1:])


class TestToleranceGuards:
    """A matrix that is not a phase matrix trips each tolerance check
    instead of being clamped or truncated away.  For PLUS the density of
    NOT_HERMITIAN is 1 + exp(-i theta)/4, and for MINUS the density of
    NOT_PSD is 1 - 2 cos(theta)."""

    def test_density_grid_residue(self):
        excess = raised_excess(lambda: density_grid(NOT_HERMITIAN, PLUS, 8),
                               "density has imaginary residue")
        # sin(theta)/4 peaks at theta = pi/2, a grid point
        assert excess == pytest.approx(0.25, rel=1e-5)

    def test_window_probability_residue(self):
        # (1/2pi) int_0^pi exp(-i theta)/4 = -i/(4 pi)
        excess = raised_excess(lambda: window_probability(NOT_HERMITIAN, PLUS, HALF),
                               "window probability has imaginary residue")
        assert excess == pytest.approx(1 / (4 * math.pi), rel=1e-5)

    def test_window_probability_clamp(self):
        # (1/2pi) int_0^1 (1 - 2 cos theta) = (1 - 2 sin 1)/2pi < 0
        window = PhaseWindow(((0.0, 1.0),))
        excess = raised_excess(lambda: window_probability(NOT_PSD, MINUS, window),
                               "window probability escapes [0, 1] by")
        assert excess == pytest.approx((2 * math.sin(1.0) - 1) / TWO_PI, rel=1e-5)

    def test_cdf_clamp(self):
        excess = raised_excess(lambda: exact_cdf(NOT_PSD, MINUS, np.array([0.5, 1.0])),
                               "cdf escapes [0, 1] by")
        assert excess == pytest.approx((2 * math.sin(1.0) - 1) / TWO_PI, rel=1e-5)

    def test_kernel_residue(self):
        # conj(u) C u = 1 + exp(-i theta)/4 for u = PLUS shifted by theta
        excess = raised_excess(lambda: kernel_apply(NOT_HERMITIAN, 1, PLUS, math.pi / 2),
                               "kernel sandwich has imaginary residue")
        assert excess == pytest.approx(0.25, rel=1e-5)


def builtins(dim):
    return (PhaseMatrix.canonical(dim), PhaseMatrix.trivial(dim),
            PhaseMatrix.exponential(0.9, dim), PhaseMatrix.exponential(0.3, dim))


def dense_copy(mat):
    """The same matrix through the public constructor: dense entries, whose
    structure the code does not assume."""
    return PhaseMatrix(mat.entries)


class TestGeneratorWeights:
    """A builtin's weights are c_|k| times one correlation of the states."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 64, 257])
    def test_match_bincount(self, dim):
        rng = np.random.default_rng(900 + dim)
        psi, phi = random_state(rng, dim), random_state(rng, dim)
        short = random_state(rng, (dim + 1) // 2)  # padded to the matrix
        for mat in builtins(dim):
            assert mat._generator is not None
            for left, right in ((psi, None), (psi, phi), (short, psi), (phi, short)):
                w = _diagonal_weights(mat, left, right)
                assert w.shape == (2 * dim - 1,)
                # unit states: 4 S eps ||a|| ||b|| is 4 S eps
                assert np.max(np.abs(w - bincount_weights(mat, left, right))) <= 4 * dim * EPS

    def test_public_constructor_takes_dense_path(self):
        rng = np.random.default_rng(910)
        psi = random_state(rng, 64)
        mat = PhaseMatrix(PhaseMatrix.exponential(0.9, 64).entries)
        assert (mat._generator, mat.label, mat.q) == (None, "explicit", None)
        np.testing.assert_array_equal(_diagonal_weights(mat, psi), bincount_weights(mat, psi))
        # the weights follow the generator, not the label: a dense matrix
        # that is not Toeplitz keeps its own under a builtin's label
        gram = random_gram_matrix(rng, 8)
        fake = PhaseMatrix._adopt("exponential", 0.9, entries=gram.entries)
        psi8 = random_state(rng, 8)
        np.testing.assert_array_equal(_diagonal_weights(fake, psi8), bincount_weights(gram, psi8))

    @pytest.mark.parametrize("dim", [1, 2, 7, 16])
    def test_operators_equal_dense_forms(self, dim):
        window = PhaseWindow(((0.5, 2.0), (3.0, 5.5)))
        for mat in builtins(dim):
            copy = dense_copy(mat)
            for make in (lambda m: window_operator(m, window), first_moment):
                np.testing.assert_array_equal(make(mat), make(copy))
            for s in range(dim):
                np.testing.assert_array_equal(mat.truncated(s + 1).entries,
                                              copy.entries[: s + 1, : s + 1])
                # a convolution against a matrix product: (s+1)^2 terms of
                # modulus <= 1, summed in two orders
                assert abs(kernel_C(mat, s, 0.3, 1.9) - kernel_C(copy, s, 0.3, 1.9)) <= (
                    (s + 1) ** 2 * EPS)

    def test_tabulations_build_no_entries(self):
        # at S = 256 one complex S x S array is 1 MB: the tabulations hold a
        # fraction of it, and E(X) no more than its own output
        rng = np.random.default_rng(920)
        square = 16 * 256**2
        for mat in builtins(256):
            psi = random_state(rng, 256, band_limit=20)

            def tabulate():
                density_grid(mat, psi, 64)
                exact_cdf(mat, psi, np.linspace(0.0, TWO_PI, 9))
                window_probability(mat, psi, HALF)
                kernel_apply(mat, 20, psi, 1.0)
                kernel_C(mat, 20, 0.0, 1.0)
                sample(mat, psi, 10, 1)

            assert traced_peak(tabulate) < square / 4
            assert traced_peak(lambda: window_operator(mat, HALF)) < 1.5 * square
            assert span_bytes(mat.entries) == 16 * (2 * 256 - 1)


class TestBuiltinMemory:
    """Tabulating a builtin takes O(S + G) memory: one dense copy of
    exponential(0.9, 4096) alone is 268 MB."""

    def test_tabulations_at_4096(self):
        mat = PhaseMatrix.exponential(0.9, 4096)
        psi = random_state(np.random.default_rng(930), 4096)
        thetas = TWO_PI * np.arange(4097) / 4096
        for run in (lambda: density_grid(mat, psi, 4096),
                    lambda: window_probability(mat, psi, HALF),
                    lambda: exact_cdf(mat, psi, thetas),
                    lambda: sample(mat, psi, 1000, 5)):
            assert traced_peak(run) < 4e6

    def test_kernel_projection_builds_no_grid_table(self):
        mat = PhaseMatrix.exponential(0.9, 4096)
        psi = random_state(np.random.default_rng(931), 256)
        thetas = TWO_PI * np.arange(8) / 8
        # a G x (s+1) table of exponentials alone would be 16.8 MB
        assert traced_peak(lambda: kernel_apply(mat, 255, psi, thetas)) < 2e6

    def test_kernel_full_band_at_2048(self):
        # a full-band state's block is the whole C: one dense copy is 67 MB
        mat = PhaseMatrix.exponential(0.9, 2048)
        psi = random_state(np.random.default_rng(933), 2048)
        thetas = TWO_PI * np.arange(8) / 8
        assert traced_peak(lambda: kernel_apply(mat, 2047, psi, thetas)) < 2e6

    def test_kernel_C_full_band_at_2048(self):
        # the block read as dense entries was 67 MB
        mat = PhaseMatrix.exponential(0.9, 2048)
        assert traced_peak(lambda: kernel_C(mat, 2047, 0.3, 1.9)) < 2e6

    def test_full_band_kernel_matches_density(self):
        rng = np.random.default_rng(932)
        thetas = TWO_PI * np.arange(8) / 8
        for s in (0, 3, 200, 255):
            mat = PhaseMatrix.exponential(0.9, s + 1)
            psi = random_state(rng, s + 1)
            np.testing.assert_allclose(kernel_apply(mat, s, psi, thetas),
                                       density(mat, psi, psi, thetas).real, atol=1e-12)


# density 1 - cos theta: below 1e-4 for theta < 0.0141, and the CDF
# (theta - sin theta)/2pi below 1e-4 for theta < 0.155
MINUS = normalize([1, -1])


class TestBlocks:
    """Density, CDF and draws are evaluated BLOCK points at a time: beyond
    the result, their memory does not grow with the number of points, and
    no value depends on the blocking."""

    def test_memory_is_result_plus_blocks(self):
        mat = PhaseMatrix.exponential(0.9, 256)
        psi = random_state(np.random.default_rng(940), 256)
        size = 1 << 20
        thetas = TWO_PI * np.arange(size) / size
        # beyond the 8 MiB result, whole-array evaluation held 768 (density)
        # and 1024 (CDF) blocks of doubles, and draws in chunks of 16 384 held 44
        allowed = 8 * size + 32 * 8 * distribution.BLOCK
        for run in (lambda: density_grid(mat, psi, size),
                    lambda: exact_cdf(mat, psi, thetas),
                    lambda: sample(mat, psi, size, 3)):
            assert traced_peak(run) <= allowed

    @pytest.mark.parametrize("block", [1, 7])
    def test_values_do_not_depend_on_the_block(self, block, monkeypatch):
        rng = np.random.default_rng(941)
        mat64, psi64 = PhaseMatrix.exponential(0.9, 64), random_state(rng, 64)
        canonical = PhaseMatrix.canonical(2)
        # 3150 = 7 * 450: theta = 2*pi opens a block of its own, and values
        # spelled in exponent form (the density at indices 1-7, the CDF at
        # more) end and open blocks of 7
        grid = TWO_PI * np.arange(3151) / 3150
        grid[-1] = TWO_PI
        odd = rng.random(101) * TWO_PI

        def values():
            return [density_grid(canonical, MINUS, 3150),
                    exact_cdf(canonical, MINUS, grid),
                    density(mat64, psi64, None, odd),
                    density(mat64, psi64, None, 1.5),
                    exact_cdf(mat64, psi64, odd),
                    exact_cdf(mat64, psi64, 1.5),
                    # 257 nodes: 8192 * k + 1 points leave a lone last one
                    sample(mat64, psi64, 60, 4),
                    sample(canonical, MINUS, 60, 5)]

        expected = values()
        assert 0 < expected[0][7] < 1e-4 and 0 < expected[1][7] < 1e-4
        monkeypatch.setattr(distribution, "BLOCK", block)
        for got, want in zip(values(), expected):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_lone_point_matches_its_array(self):
        """numpy multiplies a lone complex element in place by scalar code
        that rounds otherwise: a block of one point must not take it."""
        rng = np.random.default_rng(942)
        mat, psi = PhaseMatrix.exponential(0.9, 64), random_state(rng, 64)
        w = _diagonal_weights(mat, psi)
        thetas = rng.random(200) * TWO_PI
        together = distribution._cdf_and_slope(w, thetas)
        alone = [distribution._cdf_and_slope(w, thetas[i:i + 1]) for i in range(200)]
        for row, part in enumerate(together):
            assert part.tobytes() == np.concatenate([a[row] for a in alone]).tobytes()

    def test_kernel_projection_recovers_coefficients(self):
        """The sandwich of a state band-limited to s projects it onto its own
        coefficients: for a dense C it is the one of the coefficients
        themselves, bit for bit."""
        rng = np.random.default_rng(943)
        for s in (127, 255, 40, 0):
            mat = random_gram_matrix(rng, s + 1)
            psi = random_state(rng, s + 1)
            theta = float(rng.random() * TWO_PI)
            u = psi.coeffs * np.exp(-1j * np.arange(s + 1) * theta)
            assert kernel_apply(mat, s, psi, theta) == (u.conj() @ mat.entries @ u).real
