import numpy as np
import pytest
from scipy.linalg import hadamard

from arraycal import codes
from arraycal.codes import (DEFAULT_TAPS, BinarySequence, default_taps_for_length,
                            generate_msequence, msequence_code, periodic_autocorrelation,
                            to_bipolar, walsh_matrix)
from arraycal.errors import ConfigError, DimensionError, NonMaximalPolynomial
from arraycal.harness import ScenarioConfig
from oracles import aperiodic_autocorrelation, cyclic_shift


def lfsr_by_hand(degree, taps, steps):
    """Independent oracle: step the shift register explicitly, bit by bit."""
    state = [1] * degree
    out = []
    for _ in range(steps):
        out.append(state[-1])
        fb = 0
        for t in taps:
            fb ^= state[t - 1]
        state = [fb] + state[:-1]
    return out


class TestGenerateMsequence:
    def test_degree3_hand_stepped(self):
        # Brute-force oracle: 3-bit register, taps {3,1}, all-ones seed.
        expected = lfsr_by_hand(3, (3, 1), 7)
        seq = generate_msequence(3, (3, 1))
        assert list(seq.bits) == expected
        assert len(seq) == 7
        assert seq.ones_count == 4

    def test_degree6_default_balance(self):
        seq = generate_msequence(6)
        assert len(seq) == 63
        assert seq.ones_count == 32

    def test_reducible_polynomial_rejected(self):
        # x^3 + 1 factors, so the register cycles early.
        with pytest.raises(NonMaximalPolynomial):
            generate_msequence(3, (3,))

    def test_non_primitive_degree4(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2 is not even irreducible.
        with pytest.raises(NonMaximalPolynomial):
            generate_msequence(4, (4, 2))

    @pytest.mark.parametrize("degree", sorted(DEFAULT_TAPS))
    def test_every_default_tap_set_is_maximal(self, degree):
        seq = generate_msequence(degree)
        assert len(seq) == 2**degree - 1
        assert seq.ones_count == 2 ** (degree - 1)

    def test_degree_out_of_range(self):
        with pytest.raises(DimensionError):
            generate_msequence(2)
        with pytest.raises(DimensionError):
            generate_msequence(11)

    def test_taps_must_include_degree(self):
        with pytest.raises(DimensionError):
            generate_msequence(5, (3, 2))

    def test_default_taps_for_length(self):
        assert default_taps_for_length(63) == DEFAULT_TAPS[6]
        assert default_taps_for_length(511) == DEFAULT_TAPS[9]
        with pytest.raises(DimensionError):
            default_taps_for_length(64)


class TestToBipolar:
    def test_mapping(self):
        out = to_bipolar(np.array([0, 1, 0]))
        np.testing.assert_allclose(out, np.array([1, -1, 1]) / np.sqrt(3))

    def test_single_chip(self):
        np.testing.assert_allclose(to_bipolar(np.array([1])), [-1.0])

    def test_unit_self_inner_product(self):
        code = to_bipolar(generate_msequence(3, (3, 1)))
        assert abs(np.dot(code, code) - 1.0) < 1e-12

    def test_length_preserved(self):
        for degree in (3, 5, 7):
            seq = generate_msequence(degree)
            assert to_bipolar(seq).size == len(seq)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            to_bipolar(np.array([]))


class TestCyclicShift:
    def test_zero_shift_identity(self):
        code = msequence_code(7)
        np.testing.assert_array_equal(cyclic_shift(code, 0), code)

    def test_shift_layout(self):
        # Shift moves the last q entries to the front.
        out = cyclic_shift(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
        np.testing.assert_array_equal(out, [4.0, 5.0, 1.0, 2.0, 3.0])

    def test_full_period_identity(self):
        code = msequence_code(7)
        np.testing.assert_array_equal(cyclic_shift(code, 7), code)

    def test_composition(self):
        rng = np.random.default_rng(3)
        code = msequence_code(31)
        for _ in range(20):
            q1, q2 = rng.integers(0, 31, size=2)
            once = cyclic_shift(cyclic_shift(code, q1), q2)
            np.testing.assert_array_equal(once, cyclic_shift(code, (q1 + q2) % 31))


class TestWalshMatrix:
    def test_order2(self):
        np.testing.assert_allclose(walsh_matrix(2, 2),
                                   np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_orthonormal_columns_order4(self):
        c = walsh_matrix(4, 4)
        np.testing.assert_allclose(c.T @ c, np.eye(4), atol=1e-12)

    def test_too_many_codes(self):
        with pytest.raises(DimensionError):
            walsh_matrix(4, 5)

    def test_non_power_of_two(self):
        with pytest.raises(DimensionError):
            walsh_matrix(63, 4)

    @pytest.mark.parametrize("length", [2, 8, 64, 512])
    def test_orthonormality_across_sizes(self, length):
        rng = np.random.default_rng(length)
        count = int(rng.integers(1, length + 1))
        c = walsh_matrix(length, count)
        np.testing.assert_allclose(c.T @ c, np.eye(count), atol=1e-12)

    @pytest.mark.parametrize("length", [2**k for k in range(11)])
    def test_bytes_equal_scipy_hadamard(self, length):
        for count in sorted({1, min(50, length), length // 2 + 1, length}):
            expected = hadamard(length)[:, :count] / np.sqrt(length)
            assert walsh_matrix(length, count).tobytes() == expected.tobytes()


class TestCodeCache:
    """Each distinct code is built once per process; every call gets its own copy."""

    def test_a_mutated_result_leaves_the_next_call_alone(self):
        for build, args in ((msequence_code, (63,)), (msequence_code, (31, [5, 3, 2, 1])),
                            (walsh_matrix, (16, 5))):
            first = build(*args)
            expected = first.tobytes()
            first[...] = 7.0
            again = build(*args)
            assert again.tobytes() == expected
            assert again.flags.writeable and not np.shares_memory(first, again)

    @pytest.mark.parametrize("degree", sorted(DEFAULT_TAPS))
    def test_cached_codes_equal_fresh_ones(self, degree):
        length = 2**degree - 1
        fresh = to_bipolar(generate_msequence(degree))
        assert msequence_code(length).tobytes() == fresh.tobytes()
        assert msequence_code(length).tobytes() == fresh.tobytes()
        for count in (1, min(50, length), length + 1):
            bits = int(count - 1).bit_length()
            fresh = codes._walsh_columns.__wrapped__(length + 1, bits)[:, :count]
            assert walsh_matrix(length + 1, count).tobytes() == fresh.tobytes()
            assert walsh_matrix(length + 1, count).tobytes() == fresh.tobytes()

    def test_bad_taps_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(NonMaximalPolynomial):
                msequence_code(15, (4, 2))
            with pytest.raises(ConfigError, match="taps"):
                ScenarioConfig(scheme="CSMS", code_length=63, n_elements=5,
                               snr_grid_db=(20.0,), taps=(6, 3))


class TestAutocorrelation:
    def test_periodic_peak(self):
        code = msequence_code(63)
        assert periodic_autocorrelation(code, 0) == pytest.approx(1.0, abs=1e-12)

    def test_periodic_off_peak_value(self):
        code = msequence_code(7)
        assert periodic_autocorrelation(code, 3) == pytest.approx(-1.0 / 7, abs=1e-12)

    def test_constant_walsh_column(self):
        ones_column = walsh_matrix(4, 1)[:, 0]
        assert periodic_autocorrelation(ones_column, 1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("degree", [3, 6, 7])
    def test_two_valued_property(self, degree):
        code = to_bipolar(generate_msequence(degree))
        length = code.size
        for lag in range(1, length):
            assert periodic_autocorrelation(code, lag) == pytest.approx(-1.0 / length, abs=1e-12)

    def test_periodic_lag_bounds(self):
        code = msequence_code(7)
        with pytest.raises(DimensionError):
            periodic_autocorrelation(code, 7)

    def test_aperiodic_direct_sum_oracle(self):
        code = msequence_code(7)
        for lag in range(9):
            expected = sum(code[k] * code[k - lag] for k in range(lag, 7))
            assert aperiodic_autocorrelation(code, lag) == pytest.approx(expected, abs=1e-15)

    def test_aperiodic_zero_lag(self):
        code = msequence_code(31)
        assert aperiodic_autocorrelation(code, 0) == pytest.approx(1.0, abs=1e-12)

    def test_aperiodic_beyond_length(self):
        code = msequence_code(7)
        assert aperiodic_autocorrelation(code, 7) == 0.0
        assert aperiodic_autocorrelation(code, 12) == 0.0

    def test_aperiodic_negative_lag_rejected(self):
        with pytest.raises(DimensionError):
            aperiodic_autocorrelation(msequence_code(7), -1)


def test_binary_sequence_is_plain_data():
    seq = BinarySequence(bits=np.array([0, 1, 1], dtype=np.int8), degree=2)
    assert len(seq) == 3 and seq.ones_count == 2
