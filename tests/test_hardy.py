import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import numpy_pairs
from phaseobs import (
    HardyState,
    PhaseObsError,
    PhaseWindow,
    TWO_PI,
    ValidationError,
    evaluate,
    normalize,
    phase_shift,
    superpose,
)
from phaseobs.hardy import _complex_pairs

SQ2 = 1 / math.sqrt(2)


class TestNormalize:
    def test_scaling(self):
        state = normalize([2, 0])
        np.testing.assert_allclose(state.coeffs, [1, 0])

    def test_symmetry(self):
        state = normalize([1, 1])
        np.testing.assert_allclose(state.coeffs, np.array([1, 1]) / math.sqrt(2))

    def test_zero_vector_rejected(self):
        with pytest.raises(PhaseObsError):
            normalize([0, 0])

    @pytest.mark.filterwarnings("error")
    def test_extreme_magnitudes(self):
        # squares of 1e200 overflow and of 1e-320 underflow; neither may
        # reach the norm
        for raw, unit in (([1e200, 1e200], [SQ2, SQ2]), ([1e-320], [1.0]),
                          ([1e-320j, 0.0], [1j, 0.0])):
            np.testing.assert_allclose(normalize(raw).coeffs, unit, rtol=0, atol=1e-15)
        with pytest.raises(PhaseObsError):
            normalize([0.0, -0.0j])

    def test_power_of_two_scale_changes_no_bit(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        base = normalize(raw).coeffs
        for exp in (-900, -60, -1, 1, 7, 900):
            np.testing.assert_array_equal(normalize(np.ldexp(1.0, exp) * raw).coeffs, base)

    def test_norm_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            raw = rng.standard_normal(17) + 1j * rng.standard_normal(17)
            state = normalize(raw)
            assert abs(np.linalg.norm(state.coeffs) - 1.0) <= 1e-12

    def test_nonunit_state_rejected(self):
        with pytest.raises(ValidationError):
            HardyState(np.array([1.0, 1.0]))


class TestPhaseShift:
    def test_identity(self):
        psi = normalize([0.3, 0.4 + 0.2j, 0.1])
        shifted = phase_shift(psi, 0.0)
        np.testing.assert_array_equal(shifted.coeffs, psi.coeffs)

    def test_basis_state_half_turn(self):
        # psi(theta + pi) for eta_1 flips the sign of a_1
        eta1 = HardyState.basis(1, 2)
        shifted = phase_shift(eta1, math.pi)
        np.testing.assert_allclose(shifted.coeffs, [0, -1], atol=1e-15)

    def test_group_law(self):
        rng = np.random.default_rng(1)
        psi = normalize(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        a, b = 1.1, 2.3
        once = phase_shift(phase_shift(psi, a), b)
        both = phase_shift(psi, a + b)
        np.testing.assert_allclose(once.coeffs, both.coeffs, atol=1e-14)

    def test_inverse(self):
        rng = np.random.default_rng(2)
        psi = normalize(rng.standard_normal(16) + 1j * rng.standard_normal(16))
        back = phase_shift(phase_shift(psi, 0.7), -0.7)
        np.testing.assert_allclose(back.coeffs, psi.coeffs, atol=1e-14)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        psi = normalize(rng.standard_normal(32) + 1j * rng.standard_normal(32))
        shifted = phase_shift(psi, 5.1)
        assert abs(np.linalg.norm(shifted.coeffs) - 1.0) <= 1e-15

    def test_evaluate_commutes_with_shift(self):
        rng = np.random.default_rng(4)
        psi = normalize(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        alpha = 2.2
        thetas = np.linspace(0.0, TWO_PI, 1000, endpoint=False)
        lhs = evaluate(phase_shift(psi, alpha), thetas)
        rhs = evaluate(psi, thetas + alpha)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestEvaluate:
    def test_constant_basis_state(self):
        eta0 = HardyState.basis(0, 5)
        for theta in (0.0, 1.0, 4.2):
            assert evaluate(eta0, theta) == pytest.approx(1.0)

    def test_direct_sum_oracle(self):
        psi = normalize([1, 1])
        # oracle: explicit summation
        assert evaluate(psi, 0.0) == pytest.approx(math.sqrt(2))
        eta1 = HardyState.basis(1, 2)
        assert evaluate(eta1, math.pi) == pytest.approx(-1.0)

    def test_grid_matches_scalar(self):
        rng = np.random.default_rng(5)
        psi = normalize(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        thetas = np.array([0.1, 2.0, 5.5])
        grid = evaluate(psi, thetas)
        for theta, value in zip(thetas, grid):
            assert evaluate(psi, float(theta)) == pytest.approx(complex(value))


class TestSuperpose:
    def test_identity_case(self):
        psi = normalize([0.6, 0.8j])
        out = superpose(1.0, psi, 0.0, HardyState.basis(0, 2))
        np.testing.assert_allclose(out.coeffs, psi.coeffs)

    def test_orthonormal_basis(self):
        c = 1 / math.sqrt(2)
        out = superpose(c, HardyState.basis(0, 2), c, HardyState.basis(1, 2))
        np.testing.assert_allclose(out.coeffs, [c, c])

    def test_strict_norm_violation(self):
        eta0 = HardyState.basis(0, 2)
        c = 1 / math.sqrt(2)
        with pytest.raises(ValidationError):
            superpose(c, eta0, c, eta0)
        renorm = superpose(c, eta0, c, eta0, renormalize=True)
        np.testing.assert_allclose(renorm.coeffs, [1, 0], atol=1e-15)

    def test_zero_result(self):
        eta0 = HardyState.basis(0, 2)
        with pytest.raises(PhaseObsError):
            superpose(1.0, eta0, -1.0, eta0)

    def test_mixed_dimensions_zero_pad(self):
        c = 1 / math.sqrt(2)
        out = superpose(c, HardyState.basis(0, 2), c, HardyState.basis(3, 4))
        np.testing.assert_allclose(out.coeffs, [c, 0, 0, c])


class TestPhaseWindow:
    def test_measure(self):
        assert PhaseWindow(((0.0, math.pi),)).measure == pytest.approx(math.pi)

    def test_shift_wraparound(self):
        shifted = PhaseWindow(((3 * math.pi / 2, TWO_PI),)).shifted(math.pi / 2)
        assert len(shifted.arcs) == 1
        lo, hi = shifted.arcs[0]
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(math.pi / 2)

    def test_complement(self):
        comp = PhaseWindow(((0.0, math.pi),)).complement()
        assert comp.arcs == ((math.pi, TWO_PI),)
        assert comp.measure + math.pi == pytest.approx(TWO_PI)

    def test_shift_preserves_measure(self):
        rng = np.random.default_rng(6)
        from conftest import random_window

        for _ in range(25):
            window = random_window(rng)
            alpha = float(rng.random() * 10 - 5)
            assert window.shifted(alpha).measure == pytest.approx(
                window.measure, abs=1e-12
            )

    def test_shift_full_turn_is_identity(self):
        window = PhaseWindow(((0.5, 1.0), (2.0, 3.0)))
        assert window.shifted(TWO_PI).arcs == window.arcs

    def test_rejects_overlap_and_disorder(self):
        with pytest.raises(PhaseObsError):
            PhaseWindow(((0.0, 2.0), (1.0, 3.0)))
        with pytest.raises(PhaseObsError):
            PhaseWindow(((2.0, 3.0), (0.0, 1.0)))
        with pytest.raises(PhaseObsError):
            PhaseWindow(((-0.1, 1.0),))


class TestJson:
    def test_state_round_trip(self):
        psi = normalize([1, 2j, -3])
        again = HardyState.from_dict(json.loads(json.dumps(psi.to_dict())))
        np.testing.assert_array_equal(again.coeffs, psi.coeffs)

    def test_window_round_trip(self):
        window = PhaseWindow(((0.25, 1.5), (2.0, 6.0)))
        again = PhaseWindow.from_dict(json.loads(json.dumps(window.to_dict())))
        assert again.arcs == window.arcs

    def test_nonfinite_rejected(self):
        with pytest.raises(PhaseObsError):
            HardyState.from_dict({"coeffs": [[math.nan, 0.0], [1.0, 0.0]]})
        with pytest.raises(PhaseObsError):
            PhaseWindow.from_dict({"arcs": [[0.0, math.inf]]})


NUMBERS = st.one_of(st.floats(), st.integers(-2**70, 2**70))
LEAVES = st.one_of(
    NUMBERS,
    NUMBERS,
    NUMBERS,
    st.booleans(),
    st.none(),
    st.sampled_from(["1.5", " -2 ", "nan", "-0.0", "1e400", "1_0", "x", ""]),
    st.dictionaries(st.sampled_from(["1", "2", "a"]), st.integers(), max_size=2),
    st.lists(NUMBERS, max_size=2),
    st.tuples(NUMBERS, NUMBERS),
)


@st.composite
def pair_trees(draw):
    """Nested lists of depth 1-3, mostly regular with a last axis of 2;
    some rows ragged, some pairs of length 0, 1 or 3, some leaves not
    numbers, some lists replaced by a sized non-list."""
    depth = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(0, 3), min_size=depth - 1, max_size=depth - 1))
    shape.append(draw(st.sampled_from([2, 2, 2, 2, 0, 1, 3])))
    odd_leaves = draw(st.booleans())

    def build(level):
        if level == depth:
            return draw(LEAVES if odd_leaves else NUMBERS)
        if odd_leaves and draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(["12", {"1": 0, "2": 0}, (1.0, 2.0), ()]))
        size = shape[level]
        if draw(st.integers(0, 9)) == 0:
            size = draw(st.integers(0, 3))
        return [build(level + 1) for _ in range(size)]

    return build(0)


def pairs_or_none(convert, rows):
    try:
        return convert(rows)
    except PhaseObsError:
        return None


class TestPairDecoder:
    """`_complex_pairs` gives numpy's conversion of the whole tree, bit for
    bit, and raises exactly where it does."""

    @settings(max_examples=400)
    @given(pair_trees())
    @example([])
    @example([[]])
    @example([[], []])
    @example([[[]]])
    @example([[1.0, 2.0], [3.0]])
    @example([[1.0, 2.0, 3.0]])
    @example([[1.0], [2.0]])
    @example([[[1.0, 2.0]], []])
    @example([[1.0, 2.0], [3.0, [4.0]]])
    @example([["1.5", None], [True, 2]])
    @example([[{}, 1.0]])
    @example([[1.0, 2.0], "12"])
    @example([[1.0, 2.0], {"1": 0, "2": 0}])
    @example([(1.0, 2.0), (3.0, -0.0)])
    @example([[(1.0, 2.0)], [(3.0, 4.0)]])
    @example([np.array([1.0, 2.0])])
    @example(np.zeros((3, 2)))
    @example("ab")
    @example(1.5)
    def test_matches_numpy(self, rows):
        expected = pairs_or_none(numpy_pairs, rows)
        got = pairs_or_none(lambda r: _complex_pairs(r, "rows"), rows)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
