import numpy as np
import pytest

from arraycal.channel import (ElementGains, LinkBudget, complex_awgn, csms_clean_stream,
                              ev_n0_from_link_budget, noise_var_from_snr)
from arraycal.codes import msequence_code, periodic_autocorrelation, walsh_matrix
from arraycal.errors import ConfigError, DimensionError
from arraycal.harness import (PointModel, ScenarioConfig, _realize, figure_configs, rng_stream,
                              scenario_points)
from oracles import cyclic_shift


def summed_blocks_awgn(rng, shape, noise_var):
    """Complex noise as the sum of a scaled real block and an imaginary-scaled block."""
    scale = np.sqrt(noise_var / 2.0)
    return scale * rng.standard_normal(shape) + 1j * scale * rng.standard_normal(shape)


class TestElementGains:
    def test_complex_form(self):
        g = ElementGains(amplitudes=np.array([2.0]), phases=np.array([np.pi / 2]))
        np.testing.assert_allclose(g.w, [2j], atol=1e-15)

    def test_positive_amplitudes_required(self):
        with pytest.raises(DimensionError):
            ElementGains(amplitudes=np.array([1.0, 0.0]), phases=np.zeros(2))

    def test_random_phase_draw_range(self):
        g = ElementGains.with_random_phases(1000, np.random.default_rng(0))
        assert np.all((g.phases >= 0) & (g.phases < 2 * np.pi))
        np.testing.assert_array_equal(g.amplitudes, np.ones(1000))


class TestLinkBudget:
    def test_db_arithmetic(self):
        # oracle: 10 - 200 + 30 + 228 - 30 = 38
        lb = LinkBudget(eirp_dbw=10.0, path_loss_db=200.0, g_over_t_dbk=30.0,
                        ts_seconds=1e-3)
        assert ev_n0_from_link_budget(lb) == pytest.approx(38.0, abs=1e-9)

    def test_linearity_in_path_loss(self):
        base = LinkBudget(eirp_dbw=12.0, path_loss_db=190.0, g_over_t_dbk=25.0,
                          ts_seconds=2e-3)
        worse = LinkBudget(eirp_dbw=12.0, path_loss_db=200.0, g_over_t_dbk=25.0,
                           ts_seconds=2e-3)
        assert ev_n0_from_link_budget(base) - ev_n0_from_link_budget(worse) \
            == pytest.approx(10.0, abs=1e-9)

    def test_ts_scaling(self):
        short = LinkBudget(eirp_dbw=0.0, path_loss_db=100.0, g_over_t_dbk=10.0,
                           ts_seconds=1e-3)
        long = LinkBudget(eirp_dbw=0.0, path_loss_db=100.0, g_over_t_dbk=10.0,
                          ts_seconds=1e-2)
        assert ev_n0_from_link_budget(long) - ev_n0_from_link_budget(short) \
            == pytest.approx(10.0, abs=1e-9)

    def test_from_dict_custom_boltzmann(self):
        lb = LinkBudget.from_dict({"eirp_dbw": 1, "path_loss_db": 2, "g_over_t_dbk": 3,
                                   "ts_seconds": 1.0, "kb_dbw_hz_k": -228.6})
        assert lb.kb_dbw_hz_k == -228.6

    @pytest.mark.parametrize("d, message", [
        ({"eirp_dbw": 1, "path_loss_db": 2, "g_over_t_dbk": 3},
         r"missing fields \['ts_seconds'\]"),
        ({"eirp_dbw": 1, "path_loss_db": "2", "g_over_t_dbk": 3, "ts_seconds": 1.0},
         "path_loss_db must be a number"),
        ({"eirp_dbw": 1, "path_loss_db": 2, "g_over_t_dbk": 3, "ts_seconds": 1.0,
          "kb_dbw_hz_k": None}, "kb_dbw_hz_k must be a number"),
    ], ids=["missing", "str-field", "null-boltzmann"])
    def test_from_dict_refusals_are_config_errors(self, d, message):
        with pytest.raises(ConfigError, match=message):
            LinkBudget.from_dict(d)

    def test_positive_duration_required(self):
        with pytest.raises(DimensionError):
            LinkBudget(eirp_dbw=0, path_loss_db=0, g_over_t_dbk=0, ts_seconds=0.0)


class TestNoiseVarFromSnr:
    def test_direct_inversion(self):
        assert noise_var_from_snr(30.0, 1.0) == pytest.approx(1e-3)

    def test_amplitude_scaling(self):
        assert noise_var_from_snr(30.0, 2.0) == pytest.approx(4e-3)

    def test_zero_db(self):
        assert noise_var_from_snr(0.0, 1.0) == pytest.approx(1.0)


class TestComplexAwgn:
    def test_statistics(self):
        rng = np.random.default_rng(42)
        n = 200_000
        x = complex_awgn(rng, n, 1.0)
        # 3-standard-error bands for mean, per-quadrature variance, cross-corr
        se_mean = np.sqrt(0.5 / n)
        assert abs(x.real.mean()) < 3 * se_mean
        assert abs(x.imag.mean()) < 3 * se_mean
        se_var = 0.5 * np.sqrt(2.0 / n)
        assert abs(x.real.var() - 0.5) < 3 * se_var
        assert abs(x.imag.var() - 0.5) < 3 * se_var
        se_cross = 0.5 / np.sqrt(n)
        assert abs(np.mean(x.real * x.imag)) < 3 * se_cross

    def test_total_variance(self):
        rng = np.random.default_rng(7)
        x = complex_awgn(rng, 100_000, 1.0)
        assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 0.03

    def test_zero_variance(self):
        np.testing.assert_array_equal(complex_awgn(np.random.default_rng(0), 10, 0.0),
                                      np.zeros(10))

    def test_int_length_draws_real_then_imaginary(self):
        # An int n keeps its contract byte for byte: n real normals, then n imaginary.
        rng = np.random.default_rng(3)
        scale = np.sqrt(0.3 / 2.0)
        expected = scale * rng.standard_normal(113) + 1j * scale * rng.standard_normal(113)
        got = complex_awgn(np.random.default_rng(3), 113, 0.3)
        assert got.shape == (113,)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [113, (6, 9)])
    def test_planes_are_the_complex_noise_parts(self, shape):
        # The planes form, drawn in place into a (2, *shape) array and scaled
        # there, holds the complex form's parts byte for byte; a strided view,
        # which cannot take the normals, and planes of another shape are refused.
        noise = complex_awgn(np.random.default_rng(9), shape, 0.3)
        planes = np.empty((2, *noise.shape))
        assert complex_awgn(np.random.default_rng(9), shape, 0.3, planes) is planes
        assert planes[0].tobytes() == noise.real.tobytes()
        assert planes[1].tobytes() == noise.imag.tobytes()
        padded = np.zeros((2, *noise.shape[:-1], noise.shape[-1] + 3))
        with pytest.raises(ValueError):
            complex_awgn(np.random.default_rng(9), shape, 0.3, padded[..., :-3])
        with pytest.raises(DimensionError, match="planes"):
            complex_awgn(np.random.default_rng(9), shape, 0.3, padded)

    def test_block_shape_draw_order(self):
        # A (T, n) block draws all T x n real parts in C order, then all imaginary parts.
        t, n = 6, 9
        normals = np.random.default_rng(5).standard_normal(2 * t * n)
        got = complex_awgn(np.random.default_rng(5), (t, n), 2.0)
        assert got.shape == (t, n)
        np.testing.assert_array_equal(got.real, normals[:t * n].reshape(t, n))
        np.testing.assert_array_equal(got.imag, normals[t * n:].reshape(t, n))


class TestComplexAwgnMatchesSummedBlocks:
    """``complex_awgn`` gives the bytes of two scaled normal blocks summed into a
    complex array: the noise itself at nonzero variance, and the receive windows
    (clean signal planes plus noise planes) at zero variance, where only the
    signs of the noise's zeros could differ."""

    @pytest.mark.parametrize("shape", [113, (6, 9), (1, 1021)])
    def test_noise_bytes_at_nonzero_variance(self, shape):
        expected = summed_blocks_awgn(np.random.default_rng(11), shape, 0.3)
        assert complex_awgn(np.random.default_rng(11), shape, 0.3).tobytes() == expected.tobytes()

    @staticmethod
    def assert_zero_variance_windows_match(point, clean, key):
        shape = (3, clean.shape[-1])
        got = clean + complex_awgn(rng_stream(*key), shape, 0.0, np.empty((2, *shape)))
        noise = summed_blocks_awgn(rng_stream(*key), shape, 0.0)
        expected = clean + np.stack((noise.real, noise.imag))
        assert got.tobytes() == expected.tobytes(), point

    @pytest.mark.parametrize("figure", ["fig5", "fig7"])
    def test_zero_variance_windows_of_figure_points(self, figure):
        for cfg in figure_configs(figure, master_seed=1729, trials=3):
            for point in scenario_points(cfg):
                clean = PointModel.build(cfg, point).signal[1]
                self.assert_zero_variance_windows_match(point, clean, (1729, point.index, 1))

    def test_zero_variance_windows_with_per_trial_phases(self):
        cfg = ScenarioConfig(scheme="CSMS", code_length=127, v_grid=(4, 64, 127), ev_n0_db=25.0,
                             trials=3, master_seed=31337, phase_policy="per-trial")
        for point in scenario_points(cfg):
            model = PointModel.build(cfg, point)
            rng = rng_stream(31337, point.index, 1)
            phases = rng.uniform(0.0, 2.0 * np.pi, (3, point.n_elements))
            _, clean = _realize(point, model.code, phases)
            self.assert_zero_variance_windows_match(point, clean, (31337, point.index, 1))


class TestSynthesizeWindowOma:
    """An OMA receive window is ``code_matrix @ gains.w`` plus ``complex_awgn``."""

    def test_noise_free_hand_multiply(self):
        c = walsh_matrix(2, 2)
        gains = ElementGains(amplitudes=np.array([1.0, 1.0]),
                             phases=np.array([0.0, np.pi / 2]))
        out = c @ gains.w
        # (1/sqrt(2)) * [[1,1],[1,-1]] @ [1, j]
        expected = np.array([1 + 1j, 1 - 1j]) / np.sqrt(2)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_linear_in_gains(self):
        c = walsh_matrix(8, 3)
        rng = np.random.default_rng(1)
        phases = rng.uniform(0, 2 * np.pi, 3)
        small = ElementGains(amplitudes=np.full(3, 1e-9), phases=phases)
        unit = ElementGains(amplitudes=np.ones(3), phases=phases)
        np.testing.assert_allclose(c @ small.w, 1e-9 * (c @ unit.w), rtol=1e-12)


class TestSynthesizeStreamCsms:
    """A CSMS receive stream is ``csms_clean_stream`` plus ``complex_awgn``."""

    def test_single_element_periodic_extension(self):
        code = msequence_code(7)
        gains = ElementGains(amplitudes=np.array([1.5]), phases=np.array([0.3]))
        out = csms_clean_stream(code, gains.w)
        np.testing.assert_allclose(out, gains.w[0] * code, atol=1e-15)

    def test_second_peak_carries_interference(self):
        # Correlating at the second element's epoch yields its gain plus the
        # -1/L leakage from element one: direct correlation oracle.
        code = msequence_code(7)
        gains = ElementGains(amplitudes=np.array([1.0, 2.0]),
                             phases=np.array([0.2, 1.1]))
        stream = csms_clean_stream(code, gains.w)
        assert stream.size == 8
        peak2 = np.dot(code, stream[1:8])
        w = gains.w
        expected = w[1] + w[0] * periodic_autocorrelation(code, 1)
        np.testing.assert_allclose(peak2, expected, atol=1e-12)

    def test_stream_is_sum_of_shifted_codes(self):
        code = msequence_code(15)
        rng = np.random.default_rng(9)
        gains = ElementGains(amplitudes=rng.uniform(0.5, 2, 4),
                             phases=rng.uniform(0, 2 * np.pi, 4))
        clean = csms_clean_stream(code, gains.w)
        assert clean.size == 15 + 3
        for k in range(clean.size):
            expected = sum(w * cyclic_shift(code, q)[k % 15] for q, w in enumerate(gains.w))
            assert clean[k] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("length, n_elements", [(63, 50), (127, 64), (511, 511)])
    def test_batch_rows_equal_single_calls(self, length, n_elements):
        code = msequence_code(length)
        phases = np.random.default_rng(length).uniform(0, 2 * np.pi, (5, n_elements))
        weights = np.exp(1j * phases)
        batch = csms_clean_stream(code, weights)
        assert batch.shape == (5, length + n_elements - 1)
        for row, w in zip(batch, weights):
            assert row.tobytes() == csms_clean_stream(code, w).tobytes()
