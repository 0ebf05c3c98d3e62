import itertools

import numpy as np
import pytest

from arraycal.channel import ElementGains, csms_clean_stream
from arraycal.codes import msequence_code, periodic_autocorrelation, walsh_matrix
from arraycal.errors import DimensionError, ReferenceZero, SingularError
from arraycal.receiver import (MismatchReport, ZfEqualizer, _dense_filter, _smooth_length,
                               csms_matched_filter, csms_peaks, extract_mismatch, oma_estimate,
                               wrap_degrees, zf_equalize)
from oracles import build_correlation_matrix, two_angle_mismatch, zf_inverse_matrix


class TestOmaEstimate:
    def test_noise_free_recovers_gains(self):
        c = walsh_matrix(64, 50)
        rng = np.random.default_rng(0)
        gains = ElementGains.with_random_phases(50, rng)
        window = c @ gains.w
        np.testing.assert_allclose(oma_estimate(c, window), gains.w, atol=1e-14)

    def test_hand_multiply(self):
        c = walsh_matrix(2, 2)
        out = oma_estimate(c, np.array([1 + 1j, 0]))
        np.testing.assert_allclose(out, np.array([1 + 1j, 1 + 1j]) / np.sqrt(2), atol=1e-15)

    def test_window_length_checked(self):
        with pytest.raises(DimensionError):
            oma_estimate(walsh_matrix(4, 2), np.zeros(3, dtype=complex))
        with pytest.raises(DimensionError, match="code matrix"):
            oma_estimate(walsh_matrix(4, 1)[:, 0], np.zeros(4, dtype=complex))

    def test_planes_give_the_complex_product(self):
        # One real product of both planes with the Walsh columns.
        c = walsh_matrix(64, 50)
        windows = complex_normal(np.random.default_rng(1), 5, 64)
        planes = np.stack((windows.real, windows.imag))
        got = oma_estimate(c, planes)
        np.testing.assert_allclose(got, windows.real @ c + 1j * (windows.imag @ c),
                                   rtol=0, atol=1e-13)
        assert oma_estimate(c, windows).tobytes() == got.tobytes()


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestCsmsPeaks:
    def test_single_element_unit_peak(self):
        code = msequence_code(7)
        gains = ElementGains(amplitudes=np.array([1.3]), phases=np.array([0.7]))
        stream = csms_clean_stream(code, gains.w)
        peaks = csms_peaks(code, 1, stream)
        np.testing.assert_allclose(peaks, gains.w, atol=1e-13)

    def test_noise_free_peaks_equal_matrix_times_gains(self):
        code = msequence_code(7)
        rng = np.random.default_rng(4)
        gains = ElementGains(amplitudes=rng.uniform(0.5, 2, 3),
                             phases=rng.uniform(0, 2 * np.pi, 3))
        stream = csms_clean_stream(code, gains.w)
        peaks = csms_peaks(code, 3, stream)
        m = build_correlation_matrix(code, range(3))
        np.testing.assert_allclose(peaks, m @ gains.w, atol=1e-13)

    def test_short_stream_rejected(self):
        code = msequence_code(7)
        with pytest.raises(DimensionError):
            csms_peaks(code, 2, np.zeros(7, dtype=complex))

    @pytest.mark.parametrize("length, n_elements", [(31, 5), (511, 511)],
                             ids=["V<L", "L=V=511"])
    def test_equals_direct_sum(self, length, n_elements):
        code = msequence_code(length)
        stream = complex_normal(np.random.default_rng(31), length + n_elements + 2)
        direct = [code @ stream[q:q + length] for q in range(n_elements)]
        np.testing.assert_allclose(csms_peaks(code, n_elements, stream), direct,
                                   rtol=0, atol=1e-13)

    def test_equals_direct_sum_at_every_stream_length(self, monkeypatch):
        # The first L + V - 1 samples are correlated, whatever the stream's
        # length.  Any FFT length >= L + V - 1 keeps the lags unwrapped; the one
        # used with a spectrum filter is the least such length with no prime
        # factor above 5.  At these sizes the default filter is dense, no FFT.
        def five_smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        fft, lengths = np.fft.rfft, []
        monkeypatch.setattr(np.fft, "rfft",
                            lambda a, n=None, *args, **kwargs:
                            lengths.append(n) or fft(a, n, *args, **kwargs))
        rng = np.random.default_rng(32)
        for length in (7, 15, 31, 63, 127):
            code = msequence_code(length)
            for n in range(length, 301):
                n_elements = min(length, n - length + 1)
                least = next(m for m in itertools.count(length + n_elements - 1) if five_smooth(m))
                spectrum = np.conj(fft(code, least))
                stream = complex_normal(rng, n)
                direct = [code @ stream[q:q + length] for q in range(n_elements)]
                lengths.clear()
                for matched in (None, spectrum):
                    np.testing.assert_allclose(
                        csms_peaks(code, n_elements, stream, matched_filter=matched), direct,
                        rtol=0, atol=1e-12)
                assert lengths == [least], (length, n)

    def test_linearity(self):
        code = msequence_code(15)
        rng = np.random.default_rng(8)
        s1 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        s2 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        summed = csms_peaks(code, 6, s1 + s2)
        np.testing.assert_allclose(summed, csms_peaks(code, 6, s1) + csms_peaks(code, 6, s2),
                                   atol=1e-12)

    @pytest.mark.parametrize("n_elements", [0, 8])
    def test_element_count_outside_one_to_length_rejected(self, n_elements):
        code = msequence_code(7)
        with pytest.raises(DimensionError):
            csms_clean_stream(code, np.ones(n_elements))
        with pytest.raises(DimensionError):
            csms_peaks(code, n_elements, np.zeros(20, dtype=complex))


class TestMatchedFilters:
    """The dense and FFT forms of the CSMS matched filter correlate the same planes
    as the direct sum does, and (L, V) alone chooses between them."""

    # V = 1, V = L, and the last dense and first FFT element counts at L = 255 and 511.
    CASES = [(7, 1), (63, 1), (7, 7), (63, 63), (127, 127), (255, 255), (511, 511),
             (255, 213), (255, 214), (511, 151), (511, 152)]

    @staticmethod
    def direct(code, n_elements, planes):
        shifts = [planes[..., q:q + code.size] @ code for q in range(n_elements)]
        return np.stack(shifts, axis=-1)

    @pytest.mark.parametrize("length, n_elements", CASES)
    def test_both_forms_equal_the_direct_sum(self, length, n_elements):
        code = msequence_code(length)
        rows = length + n_elements - 1
        planes = np.random.default_rng(length + n_elements).standard_normal((2, 5, rows))
        direct = self.direct(code, n_elements, planes)
        direct = direct[0] + 1j * direct[1]
        spectrum = np.conj(np.fft.rfft(code, _smooth_length(rows)))
        for matched in (_dense_filter(code, n_elements), spectrum, None):
            got = csms_peaks(code, n_elements, planes, matched_filter=matched)
            assert got.shape == (5, n_elements)
            assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("length, n_elements", CASES)
    def test_complex_stream_gives_its_planes_peaks(self, length, n_elements):
        code = msequence_code(length)
        stream = complex_normal(np.random.default_rng(7), 3, length + n_elements - 1)
        matched = csms_matched_filter(code, n_elements)
        planes = np.stack((stream.real, stream.imag))
        np.testing.assert_array_equal(csms_peaks(code, n_elements, stream, matched_filter=matched),
                                      csms_peaks(code, n_elements, planes, matched_filter=matched))

    @pytest.mark.parametrize("length, n_elements", [(255, 213), (255, 214), (511, 151),
                                                    (511, 152)])
    def test_default_is_the_chain_filter(self, length, n_elements):
        # The public call and the harness's chain apply one filter, on both sides
        # of the switch; a longer stream gives the peaks of its first L + V - 1 samples.
        code = msequence_code(length)
        rows = length + n_elements - 1
        planes = np.random.default_rng(length + n_elements).standard_normal((2, 5, rows + 9))
        matched = csms_matched_filter(code, n_elements)
        chain = csms_peaks(code, n_elements, planes[..., :rows].copy(), matched_filter=matched)
        for got in (csms_peaks(code, n_elements, planes[..., :rows].copy()),
                    csms_peaks(code, n_elements, planes),
                    csms_peaks(code, n_elements, planes, matched_filter=matched)):
            assert got.tobytes() == chain.tobytes()

    def test_dense_filter_is_the_shifted_code(self):
        code = msequence_code(7)
        matrix = _dense_filter(code, 3)
        assert matrix.shape == (9, 3) and matrix.flags.c_contiguous
        for v in range(3):
            np.testing.assert_array_equal(matrix[:, v], np.roll(np.r_[code, 0.0, 0.0], v))

    def test_size_rule_chooses_the_form(self):
        # Dense while (L + V - 1) * V <= 100 000: every fig5 point (V = 50 up to
        # L = 255), every V at L = 127, L = 255 up to V = 213 and L = 511 up to 151.
        for length in (63, 127, 255):
            assert csms_matched_filter(msequence_code(length), 50).ndim == 2
        for length, n_elements in [(127, 127), (255, 204), (255, 213), (511, 151)]:
            assert csms_matched_filter(msequence_code(length), n_elements).ndim == 2
        for length, n_elements in [(255, 214), (255, 255), (511, 152), (511, 408), (511, 511)]:
            matched = csms_matched_filter(msequence_code(length), n_elements)
            assert matched.shape == (_smooth_length(length + n_elements - 1) // 2 + 1,)

    def test_float_input_must_be_planes(self):
        with pytest.raises(DimensionError, match="planes"):
            csms_peaks(msequence_code(7), 2, np.zeros((3, 8)))
        with pytest.raises(DimensionError, match="planes"):
            oma_estimate(walsh_matrix(4, 2), np.zeros(4))


class TestBuildCorrelationMatrix:
    def test_msequence_structure(self):
        code = msequence_code(7)
        m = build_correlation_matrix(code, [0, 1, 2])
        expected = (np.array([[7, -1, -1], [-1, 7, -1], [-1, -1, 7]])) / 7.0
        np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_structure_independent_of_offsets(self):
        code = msequence_code(31)
        m = build_correlation_matrix(code, [0, 4, 9, 17])
        expected = (np.eye(4) * (31 + 1) - np.ones((4, 4))) / 31.0
        np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_single_element(self):
        np.testing.assert_allclose(build_correlation_matrix(msequence_code(7), [0]), [[1.0]])

    def test_general_code_symmetric_unit_diagonal(self):
        code = walsh_matrix(8, 8)[:, 3]
        m = build_correlation_matrix(code, [0, 1, 3])
        np.testing.assert_allclose(m, m.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(m), np.ones(3), atol=1e-12)


class TestZfEqualizer:
    def test_coefficients_l7_v3(self):
        eq = ZfEqualizer.for_dimensions(7, 3)
        assert eq.cross_coeff == pytest.approx(0.175, abs=1e-12)
        assert eq.diag_coeff == pytest.approx(1.05, abs=1e-12)

    def test_inverts_correlation_matrix(self):
        code = msequence_code(7)
        m = build_correlation_matrix(code, [0, 1, 2])
        eq = ZfEqualizer.for_dimensions(7, 3)
        np.testing.assert_allclose(m @ zf_inverse_matrix(eq), np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("length", [7, 63, 127])
    def test_structured_inverse_matches_numerical(self, length):
        # closed-form coefficients vs general-purpose numerical inverse,
        # at every element count the code admits
        code = msequence_code(length)
        for count in range(2, length):
            m = build_correlation_matrix(code, list(range(count)))
            eq = ZfEqualizer.for_dimensions(length, count)
            np.testing.assert_allclose(zf_inverse_matrix(eq), np.linalg.inv(m), atol=1e-9)

    def test_equalize_matches_matrix_application(self):
        rng = np.random.default_rng(6)
        peaks = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        eq = ZfEqualizer.for_dimensions(63, 10)
        np.testing.assert_allclose(zf_equalize(peaks, eq), zf_inverse_matrix(eq) @ peaks,
                                   atol=1e-12)

    def test_noise_free_round_trip(self):
        code = msequence_code(7)
        m = build_correlation_matrix(code, [0, 1, 2])
        w = np.array([1.0, 1j, -1.0])
        eq = ZfEqualizer.for_dimensions(7, 3)
        np.testing.assert_allclose(zf_equalize(m @ w, eq), w, atol=1e-12)

    def test_singular_when_elements_exceed_length(self):
        with pytest.raises(SingularError):
            ZfEqualizer.for_dimensions(7, 8)

    def test_full_occupancy_is_allowed(self):
        eq = ZfEqualizer.for_dimensions(7, 7)
        code = msequence_code(7)
        m = build_correlation_matrix(code, list(range(7)))
        np.testing.assert_allclose(m @ zf_inverse_matrix(eq), np.eye(7), atol=1e-9)

    def test_peak_count_checked(self):
        eq = ZfEqualizer.for_dimensions(7, 3)
        with pytest.raises(DimensionError):
            zf_equalize(np.zeros(4, dtype=complex), eq)


class TestWrapDegrees:
    def test_plain_values_untouched(self):
        np.testing.assert_allclose(wrap_degrees(np.array([-179.0, 0.0, 180.0])),
                                   [-179.0, 0.0, 180.0])

    def test_wraps_into_half_open_interval(self):
        assert wrap_degrees(181.0) == pytest.approx(-179.0)
        assert wrap_degrees(-181.0) == pytest.approx(179.0)
        assert wrap_degrees(540.0) == pytest.approx(180.0)
        # -180 maps to +180: interval is (-180, 180]
        assert wrap_degrees(-180.0) == 180.0


class TestExtractMismatch:
    def test_reference_case(self):
        report = extract_mismatch(np.array([1.0, 2.0 * np.exp(1j * np.pi / 2)]))
        assert report.gain_db[0] == pytest.approx(20 * np.log10(2), abs=1e-12)
        assert report.phase_deg[0] == pytest.approx(90.0, abs=1e-12)

    def test_identical_elements(self):
        w = 0.3 - 1.2j
        report = extract_mismatch(np.array([w, w]))
        assert report.gain_db[0] == pytest.approx(0.0, abs=1e-12)
        assert report.phase_deg[0] == pytest.approx(0.0, abs=1e-12)

    def test_global_scaling_invariance(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        base = extract_mismatch(w)
        scaled = extract_mismatch((2.7 - 0.4j) * w)
        np.testing.assert_allclose(scaled.gain_db, base.gain_db, atol=1e-10)
        np.testing.assert_allclose(scaled.phase_deg, base.phase_deg, atol=1e-10)

    def test_zero_reference_rejected(self):
        with pytest.raises(ReferenceZero):
            extract_mismatch(np.array([0.0, 1.0 + 0j]))

    def test_matches_two_angle_readout(self):
        rng = np.random.default_rng(45)
        estimates = complex_normal(rng, 64, 50) * rng.uniform(1e-3, 1e3, (64, 1))
        report = extract_mismatch(estimates)
        gain_db, phase_deg = two_angle_mismatch(estimates)
        np.testing.assert_allclose(report.gain_db, gain_db, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.phase_deg, phase_deg, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("reference, element", [
        (1.0, complex(-1.0, 0.0)), (1.0, complex(-2.0, -0.0)),
        (complex(-1.0, 0.0), complex(1.0, 0.0)), (complex(-3.0, 0.0), complex(0.5, 0.0)),
        (1.0, complex(-1.0, -1e-300)), (1j, -1j)],
        ids=["+0", "-0-element", "-0-product", "-0-product-scaled", "tiny-negative",
             "imaginary"])
    def test_opposite_phase_reads_plus_180(self, reference, element):
        # In the -0 product and tiny-negative cases e_v * conj(e_1) has a negative
        # imaginary part and an angle of exactly -180 degrees.
        estimates = np.array([reference, element], dtype=complex)
        assert extract_mismatch(estimates).phase_deg[0] == 180.0
        assert two_angle_mismatch(estimates)[1][0] == 180.0

    def test_report_length(self):
        report = extract_mismatch(np.ones(5, dtype=complex))
        assert len(report) == 4
        assert isinstance(report, MismatchReport)


class TestNoiseFreeEndToEnd:
    def test_oma_exact_recovery(self):
        rng = np.random.default_rng(21)
        c = walsh_matrix(64, 50)
        gains = ElementGains.with_random_phases(50, rng)
        window = c @ gains.w
        report = extract_mismatch(oma_estimate(c, window))
        truth = extract_mismatch(gains.w)
        np.testing.assert_allclose(report.gain_db, truth.gain_db, atol=1e-9)
        np.testing.assert_allclose(report.phase_deg, truth.phase_deg, atol=1e-9)

    def test_csms_zf_exact_recovery(self):
        rng = np.random.default_rng(22)
        code = msequence_code(63)
        gains = ElementGains.with_random_phases(50, rng)
        stream = csms_clean_stream(code, gains.w)
        estimates = zf_equalize(csms_peaks(code, 50, stream),
                                ZfEqualizer.for_dimensions(63, 50))
        report = extract_mismatch(estimates)
        truth = extract_mismatch(gains.w)
        np.testing.assert_allclose(report.gain_db, truth.gain_db, atol=1e-9)
        np.testing.assert_allclose(report.phase_deg, truth.phase_deg, atol=1e-9)


class TestBatchAxes:
    """A (T, ...) batch gives the stacked single-window results."""

    def assert_rows_match(self, batched, single_calls):
        np.testing.assert_allclose(batched, np.stack(single_calls), rtol=0, atol=1e-13)

    def test_oma_estimate(self):
        c = walsh_matrix(64, 50)
        windows = complex_normal(np.random.default_rng(40), 5, 64)
        self.assert_rows_match(oma_estimate(c, windows), [oma_estimate(c, w) for w in windows])

    def test_csms_peaks(self):
        code = msequence_code(63)
        streams = complex_normal(np.random.default_rng(41), 5, 63 + 49)
        self.assert_rows_match(csms_peaks(code, 50, streams),
                               [csms_peaks(code, 50, s) for s in streams])

    def test_batched_csms_peaks_equalize_as_their_rows(self):
        # The report bytes rest on this: csms_peaks returns C-ordered rows, and
        # zf_equalize sums each as it sums that row alone, so a block of any
        # size, one trial included, equalizes as its trials do one by one,
        # also in place, as the receive chain equalizes.
        code = msequence_code(63)
        eq = ZfEqualizer.for_dimensions(63, 50)
        streams = complex_normal(np.random.default_rng(44), 64, 63 + 49)
        for rows in (64, 2, 1):
            peaks = csms_peaks(code, 50, streams[:rows])
            expected = np.stack([zf_equalize(p, eq) for p in peaks]).tobytes()
            assert zf_equalize(peaks, eq).tobytes() == expected
            assert zf_equalize(peaks, eq, peaks).tobytes() == expected

    def test_zf_equalize(self):
        eq = ZfEqualizer.for_dimensions(63, 50)
        peaks = complex_normal(np.random.default_rng(42), 5, 50)
        self.assert_rows_match(zf_equalize(peaks, eq), [zf_equalize(p, eq) for p in peaks])

    def test_extract_mismatch(self):
        estimates = complex_normal(np.random.default_rng(43), 5, 50)
        report = extract_mismatch(estimates)
        singles = [extract_mismatch(e) for e in estimates]
        self.assert_rows_match(report.gain_db, [r.gain_db for r in singles])
        self.assert_rows_match(report.phase_deg, [r.phase_deg for r in singles])
        assert len(report) == 49

    def test_zero_reference_anywhere_in_batch_rejected(self):
        estimates = np.ones((3, 4), dtype=complex)
        estimates[2, 0] = 0.0
        with pytest.raises(ReferenceZero):
            extract_mismatch(estimates)

    def test_last_axis_checked(self):
        with pytest.raises(DimensionError):
            oma_estimate(walsh_matrix(4, 2), np.zeros((3, 3), dtype=complex))
        with pytest.raises(DimensionError):
            csms_peaks(msequence_code(7), 2, np.zeros((3, 7), dtype=complex))
        with pytest.raises(DimensionError):
            zf_equalize(np.zeros((3, 4), dtype=complex), ZfEqualizer.for_dimensions(7, 3))
        with pytest.raises(DimensionError):
            extract_mismatch(np.ones((3, 1), dtype=complex))
