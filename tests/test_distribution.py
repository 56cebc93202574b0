import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (
    arc_cdf,
    bisect_sample,
    eig2,
    loop_density,
    loop_window_operator,
    loop_window_probability,
    random_gram_matrix,
    random_state,
    random_window,
)
from phaseobs import (
    HardyState,
    PhaseMatrix,
    PhaseObsError,
    PhaseWindow,
    TWO_PI,
    WindowOperator,
    check_covariance,
    check_interference,
    density,
    density_grid,
    evaluate,
    exact_cdf,
    fourier_window_integral,
    kernel_C,
    kernel_apply,
    normalize,
    sample,
    window_operator,
    window_probability,
)
from phaseobs import distribution
from phaseobs.distribution import _invert_cdf

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
                abs(evaluate(psi, float(theta))) ** 2, abs=1e-12
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
        np.testing.assert_allclose(op.entries, 0.5 * np.eye(4), atol=1e-15)

    def test_full_circle_identity_exact(self):
        op = window_operator(PhaseMatrix.canonical(5), PhaseWindow.full_circle())
        np.testing.assert_array_equal(op.entries, np.eye(5))

    def test_canonical_half_circle_entries(self):
        # entry (n, m) carries the k = n - m window integral; with the
        # paper's operator display this puts -i/pi at (0, 1)
        op = window_operator(PhaseMatrix.canonical(2), HALF)
        np.testing.assert_allclose(
            op.entries,
            [[0.5, -1j / math.pi], [1j / math.pi, 0.5]],
            atol=1e-15,
        )
        np.testing.assert_allclose(
            np.linalg.eigvalsh(op.entries),
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
            assert op.expectation(psi) == pytest.approx(
                window_probability(mat, psi, window), abs=1e-12
            )

    def test_caller_array_copied_not_frozen(self):
        given = 0.5 * np.eye(4, dtype=complex)
        op = WindowOperator(given, window=HALF, source="explicit")
        assert given.flags.writeable
        assert not np.shares_memory(op.entries, given)
        assert not op.entries.flags.writeable
        given[0, 0] = 2.0
        assert op.entries[0, 0] == 0.5

    def test_factory_array_not_copied(self):
        mat = PhaseMatrix.exponential(0.9, 256)
        tracemalloc.start()
        op = window_operator(mat, HALF)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert not op.entries.flags.writeable
        # a copy would hold two S x S complex arrays at once
        assert peak < 1.5 * op.entries.nbytes

    def test_hermitian_and_spectrum(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            mat = random_gram_matrix(rng, 8)
            op = window_operator(mat, random_window(rng))
            assert np.max(np.abs(op.entries - op.entries.conj().T)) <= 1e-12
            evals = np.linalg.eigvalsh(op.entries)
            assert evals[0] >= -1e-10 and evals[-1] <= 1 + 1e-10


class TestLoopOracles:
    """The Schur-Toeplitz path against the double loops over (n, m)."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 33])
    def test_window_quantities_match_loops(self, dim):
        rng = np.random.default_rng(100 + dim)
        for trial in range(6):
            mat = random_gram_matrix(rng, dim)
            psi = random_state(rng, dim)
            window = PhaseWindow.full_circle() if trial == 0 else random_window(rng)
            entries = window_operator(mat, window).entries
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
        for _ in range(100):
            mat = random_gram_matrix(rng, 6)
            psi = random_state(rng, 6)
            alpha = float(rng.random() * 4 * math.pi - 2 * math.pi)
            window = random_window(rng)
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
            assert kernel_apply(mat, 0, eta0, theta, 256) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_apply_canonical_fringe(self):
        assert kernel_apply(
            PhaseMatrix.canonical(2), 1, PLUS, 0.0, 4096
        ) == pytest.approx(2.0, abs=1e-6)

    def test_apply_matches_density(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            dim = 8
            s = int(rng.integers(1, dim))
            mat = random_gram_matrix(rng, dim)
            psi = random_state(rng, dim, band_limit=s)
            theta = float(rng.random() * TWO_PI)
            assert kernel_apply(mat, s, psi, theta, 1024) == pytest.approx(
                density(mat, psi, psi, theta).real, abs=1e-6
            )

    def test_apply_array_matches_scalar(self):
        rng = np.random.default_rng(44)
        mat = random_gram_matrix(rng, 12)
        psi = random_state(rng, 12, band_limit=9)
        thetas = np.concatenate([[0.0], rng.random(6) * TWO_PI])
        values = kernel_apply(mat, 9, psi, thetas, 512)
        assert values.shape == thetas.shape
        np.testing.assert_array_equal(
            values, [kernel_apply(mat, 9, psi, float(t), 512) for t in thetas]
        )
        np.testing.assert_allclose(
            values, [density(mat, psi, psi, t).real for t in thetas], atol=1e-12
        )

    def test_apply_rejects_wide_band(self):
        psi = normalize([1, 1, 1])
        with pytest.raises(PhaseObsError):
            kernel_apply(PhaseMatrix.canonical(3), 1, psi, 0.0, 64)


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
