import numpy as np
import pytest

from arraycal.channel import ElementGains, csms_clean_stream
from arraycal.codes import msequence_code, walsh_matrix
from arraycal.errors import DimensionError
from oracles import (OversampledWaveform, chip_matched_filter_and_sample, cyclic_shift,
                     synthesize_baseband)


class TestSynthesizeBaseband:
    def test_piecewise_constant(self):
        code = np.array([1.0, -1.0]) / np.sqrt(2)
        wf = synthesize_baseband(code, 4)
        assert wf.samples.size == 8
        np.testing.assert_allclose(wf.samples[:4], code[0])
        np.testing.assert_allclose(wf.samples[4:], code[1])

    def test_sample_count(self):
        code = msequence_code(31)
        assert synthesize_baseband(code, 8).samples.size == 31 * 8

    def test_oversample_lower_bound(self):
        with pytest.raises(DimensionError):
            synthesize_baseband(np.ones(4) / 2.0, 1)

    def test_sample_count_must_divide(self):
        with pytest.raises(DimensionError):
            OversampledWaveform(samples=np.zeros(7), oversample=2)


class TestChipMatchedFilter:
    def test_single_chip_peak_normalized(self):
        code = np.array([1.0])
        wf = synthesize_baseband(code, 8)
        out = chip_matched_filter_and_sample(wf)
        np.testing.assert_allclose(out, [1.0], atol=1e-15)

    def test_recovers_chip_values(self):
        code = msequence_code(7)
        for f in (2, 4, 8):
            out = chip_matched_filter_and_sample(synthesize_baseband(code, f))
            np.testing.assert_allclose(out, code, atol=1e-12)

    def test_all_zero_input(self):
        wf = OversampledWaveform(samples=np.zeros(16), oversample=4)
        np.testing.assert_array_equal(chip_matched_filter_and_sample(wf), np.zeros(4))


class TestModelCollapse:
    """Oversample -> chip filter -> chip sample must equal the chip-rate model."""

    @pytest.mark.parametrize("oversample", [2, 4, 8])
    def test_weighted_shift_sum_matches_discrete_model(self, oversample):
        code = msequence_code(7)
        rng = np.random.default_rng(11)
        gains = ElementGains(amplitudes=rng.uniform(0.5, 2.0, 3),
                             phases=rng.uniform(0, 2 * np.pi, 3))
        # composite oversampled waveform: weighted sum of shifted-code pulses
        composite = np.zeros(7 * oversample, dtype=complex)
        for q, w in enumerate(gains.w):
            composite += w * synthesize_baseband(cyclic_shift(code, q), oversample).samples
        received = chip_matched_filter_and_sample(
            OversampledWaveform(samples=composite, oversample=oversample))
        # chip-rate oracle evaluated directly
        oracle = np.zeros(7, dtype=complex)
        for q, w in enumerate(gains.w):
            oracle += w * cyclic_shift(code, q)
        np.testing.assert_allclose(received, oracle, atol=1e-10)

    @pytest.mark.parametrize("oversample", [2, 4, 8])
    def test_walsh_composite_matches_discrete_model(self, oversample):
        matrix = walsh_matrix(8, 5)
        rng = np.random.default_rng(5)
        gains = ElementGains(amplitudes=np.ones(5), phases=rng.uniform(0, 2 * np.pi, 5))
        composite = np.zeros(8 * oversample, dtype=complex)
        for v in range(5):
            composite += gains.w[v] * synthesize_baseband(matrix[:, v], oversample).samples
        received = chip_matched_filter_and_sample(
            OversampledWaveform(samples=composite, oversample=oversample))
        np.testing.assert_allclose(received, matrix @ gains.w, atol=1e-10)

    def test_stream_prefix_matches_periodic_extension(self):
        # The first L chip samples of a longer oversampled stream agree with
        # the chip-rate periodic-extension model.
        code = msequence_code(15)
        rng = np.random.default_rng(2)
        gains = ElementGains(amplitudes=np.ones(4), phases=rng.uniform(0, 2 * np.pi, 4))
        oracle = csms_clean_stream(code, gains.w)
        composite = np.zeros(15 * 4, dtype=complex)
        for q, w in enumerate(gains.w):
            composite += w * synthesize_baseband(cyclic_shift(code, q), 4).samples
        received = chip_matched_filter_and_sample(
            OversampledWaveform(samples=composite, oversample=4))
        np.testing.assert_allclose(received, oracle[:15], atol=1e-10)
