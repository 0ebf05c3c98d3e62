import math
import os
import subprocess
import sys
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import exp1

import arraycal
from arraycal.channel import ElementGains, complex_awgn, csms_clean_stream
from arraycal.codes import msequence_code
from arraycal.errors import DimensionError, NegativeRadicand
from arraycal import theory
from arraycal.harness import (PointModel, ScenarioConfig, figure_configs, run_scenario,
                              scenario_points)
from arraycal.receiver import ZfEqualizer, csms_peaks, oma_estimate, wrap_degrees, zf_equalize
from arraycal.theory import (NoiseStats, average_rmse, closed_form_point,
                             csms_gain_noise_stats, csms_peak_noise_cov, gain_rmse_theory,
                             log_ratio_moments, oma_noise_stats, phase_rmse_theory,
                             theory_point)
from oracles import aperiodic_autocorrelation, dense_gain_noise_cov, log_ratio_moments_by_block


@pytest.fixture
def quadrature(monkeypatch):
    """Sets quadrature constants of ``theory`` for the rest of a test:
    ``quadrature(QUAD_NODES=96, QUAD_TAIL=1e-12)``."""
    def set_constants(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(theory, name, value)
    return set_constants


class TestOmaNoiseStats:
    def test_equal_and_uncorrelated(self):
        stats = oma_noise_stats(1e-3, 3)
        np.testing.assert_array_equal(stats.variances, np.full(3, 1e-3))
        np.testing.assert_array_equal(stats.correlations, np.zeros(2))

    def test_two_elements(self):
        stats = oma_noise_stats(1.0, 2)
        np.testing.assert_array_equal(stats.variances, [1.0, 1.0])

    def test_single_element_no_correlations(self):
        stats = oma_noise_stats(0.5, 1)
        assert stats.correlations.size == 0


class TestCsmsPeakNoiseCov:
    def test_diagonal_is_noise_var(self):
        code = msequence_code(63)
        cov = csms_peak_noise_cov(code, 5, 2.5)
        np.testing.assert_allclose(np.diag(cov), np.full(5, 2.5), atol=1e-12)

    def test_single_element(self):
        cov = csms_peak_noise_cov(msequence_code(7), 1, 0.3)
        np.testing.assert_allclose(cov, [[0.3]])

    def test_off_diagonal_matches_aperiodic_autocorrelation(self):
        code = msequence_code(7)
        cov = csms_peak_noise_cov(code, 4, 1.7)
        for y in range(4):
            for z in range(4):
                expected = 1.7 * aperiodic_autocorrelation(code, abs(z - y))
                assert cov[y, z] == pytest.approx(expected, abs=1e-12)

    def test_against_empirical_dmf_noise(self):
        # Oracle: covariance of matched-filter outputs over noise-only streams.
        code = msequence_code(7)
        n_elements, noise_var, n_streams = 3, 1.0, 100_000
        rng = np.random.default_rng(99)
        streams = complex_awgn(rng, (n_streams, 7 + n_elements - 1), noise_var)
        peaks = csms_peaks(code, n_elements, streams)
        empirical = (peaks.conj().T @ peaks).real / n_streams
        predicted = csms_peak_noise_cov(code, n_elements, noise_var)
        # entries are averages of n_streams products: se ~ noise_var/sqrt(n)
        assert np.max(np.abs(empirical - predicted)) < 3 * noise_var / np.sqrt(n_streams) * 1.5

    @pytest.mark.parametrize("length", sorted({
        cfg.code_length for name in ("fig5", "fig7") for cfg in figure_configs(name)
        if cfg.scheme == "CSMS"}))
    def test_lags_bit_equal_to_aperiodic_autocorrelation(self, length):
        code = msequence_code(length)
        lags = np.array([aperiodic_autocorrelation(code, k) for k in range(length)])
        assert csms_peak_noise_cov(code, length, 1.0)[0].tobytes() == lags.tobytes()

    def test_too_many_elements(self):
        with pytest.raises(DimensionError):
            csms_peak_noise_cov(msequence_code(7), 8, 1.0)


# (L, V) of fig5 and fig7 points, from mild to full code occupancy
DENSE_ORACLE_SIZES = [(63, 50), (127, 120), (511, 408), (511, 511)]

# Theory of fig7's L=511, V=408 and V=500 points, written out as raw bytes.
THEORY_BYTES_SCRIPT = """
import sys
from arraycal.harness import (PointModel, ScenarioConfig, figure_configs, run_scenario,
                              scenario_points)
from arraycal.theory import theory_point

cfg = next(c for c in figure_configs("fig7") if c.scheme == "CSMS" and c.code_length == 511)
points = [p for p in scenario_points(cfg) if p.n_elements in (408, 500)]
assert len(points) == 2
for point in points:
    model = PointModel.build(cfg, point)
    stats = model.noise_stats()
    predicted = theory_point(model.gains, stats)
    for values in (stats.variances, stats.correlations,
                   predicted.gain_rmse_db, predicted.phase_rmse_deg):
        sys.stdout.write(values.tobytes().hex() + "\\n")
"""


class TestCsmsGainNoiseStats:
    def test_white_input_amplified(self):
        # Hypothetical white peak noise: output covariance is the squared
        # inverse, with diagonal above the input variance (noise enlargement).
        noise_var = 1e-3
        for length, count in DENSE_ORACLE_SIZES:
            eq = ZfEqualizer.for_dimensions(length, count)
            white = noise_var * np.eye(count)
            stats = csms_gain_noise_stats(eq, white)
            expected = dense_gain_noise_cov(eq, white)
            np.testing.assert_allclose(stats.variances, np.diag(expected), rtol=1e-12)
            assert np.all(stats.variances > noise_var)

    def test_single_element_passthrough(self):
        eq = ZfEqualizer.for_dimensions(63, 1)
        stats = csms_gain_noise_stats(eq, np.array([[2e-3]]))
        assert stats.variances[0] == pytest.approx(2e-3, rel=1e-9)

    def test_correlations_bounded(self):
        code = msequence_code(127)
        for count in (2, 20, 100):
            eq = ZfEqualizer.for_dimensions(127, count)
            stats = csms_gain_noise_stats(eq, csms_peak_noise_cov(code, count, 1e-2))
            assert np.all(np.abs(stats.correlations) <= 1.0)
            assert np.all(stats.variances > 0)

    def test_output_covariance_is_valid(self):
        # The dense product inv @ P @ inv is a valid covariance, and the
        # structured propagation reads its diagonal and first column.
        for length, count in [(63, 30)] + DENSE_ORACLE_SIZES:
            eq = ZfEqualizer.for_dimensions(length, count)
            cov_in = csms_peak_noise_cov(msequence_code(length), count, 1e-3)
            cov_out = dense_gain_noise_cov(eq, cov_in)
            np.testing.assert_allclose(cov_out, cov_out.T, atol=1e-15)
            assert np.min(np.linalg.eigvalsh(cov_out)) > -1e-12
            variances = np.diag(cov_out)
            stats = csms_gain_noise_stats(eq, cov_in)
            np.testing.assert_allclose(stats.variances, variances, rtol=1e-12)
            np.testing.assert_allclose(
                stats.correlations, cov_out[1:, 0] / np.sqrt(variances[1:] * variances[0]),
                rtol=0, atol=1e-12)

    def test_shape_checked(self):
        eq = ZfEqualizer.for_dimensions(63, 3)
        with pytest.raises(DimensionError):
            csms_gain_noise_stats(eq, np.eye(4))

    def test_bytes_independent_of_blas_threads(self):
        # The BLAS thread count is set only in the environment of the children.
        src = os.path.dirname(os.path.dirname(arraycal.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            child = subprocess.run([sys.executable, "-c", THEORY_BYTES_SCRIPT], env=env,
                                   capture_output=True, text=True, timeout=120, check=True)
            outputs.append(child.stdout)
        assert outputs[0].count("\n") == 8
        assert outputs[0] == outputs[1]


class TestReceiverErrorsMatchNoiseStats:
    """The receiver's raw estimates are the truth plus noise of the point's
    ``NoiseStats``: each element's error variance, and its error's correlation
    with the reference element's, agree with the model to Monte-Carlo error."""

    # (scheme, L, V, trials) at 30 dB: OMA, CSMS at V < L, and V = L on both
    # correlator forms (127/127 dense, 511/511 FFT).
    CASES = [("OMA", 64, 50, 8000), ("CSMS", 127, 127, 8000), ("CSMS", 255, 50, 8000),
             ("CSMS", 511, 511, 2000)]

    @staticmethod
    def errors(model, trials, rng, block=500):
        """Raw OMA or ZF estimates minus the true gains, block by block, from the
        public stages."""
        w, v = model.gains.w, model.point.n_elements
        oma = model.point.scheme == "OMA"
        clean = model.code @ w if oma else csms_clean_stream(model.code, w)
        for start in range(0, trials, block):
            noise = complex_awgn(rng, (min(block, trials - start), clean.size), model.noise_var)
            if oma:
                estimates = oma_estimate(model.code, clean + noise)
            else:
                estimates = zf_equalize(csms_peaks(model.code, v, clean + noise), model.eq)
            yield estimates - w

    def test_variances_and_reference_correlations(self):
        z = []
        for scheme, length, v, trials in self.CASES:
            cfg = ScenarioConfig(scheme=scheme, code_length=length, n_elements=v,
                                 snr_grid_db=(30.0,), trials=trials, master_seed=1729)
            model = PointModel.build(cfg, scenario_points(cfg)[0])
            stats = model.noise_stats()
            power, cross = np.zeros(v), np.zeros(v - 1, complex)
            for e in self.errors(model, trials, np.random.default_rng(1729)):
                power += (np.abs(e) ** 2).sum(axis=0)
                cross += (e[:, 1:] * e[:, :1].conj()).sum(axis=0)
            power, cross = power / trials, cross / trials
            # |n|^2 is exponential, so its mean over T trials has sd mean / sqrt(T).
            z.append((power / stats.variances - 1.0) * math.sqrt(trials))
            rho, r = cross / np.sqrt(power[1:] * power[0]), stats.correlations
            # A real correlation r: Re rho has sd (1 - r^2) / sqrt(2T), Im rho sqrt((1 - r^2) / 2T).
            z.append((rho.real - r) / ((1.0 - r**2) / math.sqrt(2 * trials)))
            z.append(rho.imag / np.sqrt((1.0 - r**2) / (2 * trials)))
        z = np.concatenate(z)
        # Bonferroni: every |z| stays below it with probability at least 99%.
        bound = NormalDist().inv_cdf(1.0 - 0.005 / z.size)
        assert np.max(np.abs(z)) < bound, (np.max(np.abs(z)), bound, z.size)


def mc_gain_phase_rmse(amp, phases, cov, trials, seed):
    """Monte-Carlo oracle: correlated complex Gaussian errors on two elements."""
    rng = np.random.default_rng(seed)
    root = np.linalg.cholesky(cov)
    w = amp * np.exp(1j * phases)
    z = (rng.standard_normal((trials, 2)) + 1j * rng.standard_normal((trials, 2))) / np.sqrt(2)
    noisy = w[None, :] + z @ root.T
    gain_err = 20 * np.log10(np.abs(noisy[:, 1]) / np.abs(noisy[:, 0])) \
        - 20 * np.log10(amp[1] / amp[0])
    phase_err = wrap_degrees(np.degrees(np.angle(noisy[:, 1]) - np.angle(noisy[:, 0])
                                        - (phases[1] - phases[0])))
    return np.sqrt(np.mean(gain_err**2)), np.sqrt(np.mean(phase_err**2))


class TestGainRmseTheory:
    def test_oma_30db_value(self):
        # frozen from a direct evaluation of the closed form
        val = gain_rmse_theory(1.0, 1.0, 1e-3, 1e-3, 0.0)
        assert val == pytest.approx(0.274637, abs=1e-5)

    def test_against_million_trial_monte_carlo(self):
        cov = 1e-3 * np.eye(2)
        mc_gain, _ = mc_gain_phase_rmse(np.ones(2), np.zeros(2), cov, 1_000_000, 5)
        theory = gain_rmse_theory(1.0, 1.0, 1e-3, 1e-3, 0.0)
        assert abs(mc_gain - theory) / theory < 0.05

    def test_correlated_case_against_monte_carlo(self):
        rho, var = 0.6, 1e-3
        phases = np.array([0.4, 2.1])
        cov = var * np.array([[1.0, rho], [rho, 1.0]])
        mc_gain, mc_phase = mc_gain_phase_rmse(np.ones(2), phases, cov, 1_000_000, 6)
        theory_gain = gain_rmse_theory(1.0, 1.0, var, var, rho, phases[1], phases[0])
        theory_phase = phase_rmse_theory(1.0, 1.0, phases[1], phases[0], var, var, rho)
        assert abs(mc_gain - theory_gain) / theory_gain < 0.05
        assert abs(mc_phase - theory_phase) / theory_phase < 0.05

    def test_zero_noise_limit(self):
        assert gain_rmse_theory(1.0, 1.0, 0.0, 0.0, 0.0) == 0.0

    def test_amplitude_scale_invariance(self):
        # depends only on variance-to-amplitude-squared ratios
        base = gain_rmse_theory(1.0, 1.0, 1e-3, 1e-3, 0.3, 0.5, 0.1)
        scaled = gain_rmse_theory(2.0, 2.0, 4e-3, 4e-3, 0.3, 0.5, 0.1)
        assert scaled == pytest.approx(base, rel=1e-12)


class TestPhaseRmseTheory:
    def test_oma_30db_value(self):
        val = phase_rmse_theory(1.0, 1.0, 0.0, 0.0, 1e-3, 1e-3, 0.0)
        assert val == pytest.approx(np.degrees(np.sqrt(1e-3)), abs=1e-9)

    def test_uncorrelated_is_phase_independent(self):
        a = phase_rmse_theory(1.0, 1.0, 0.1, 2.2, 1e-3, 1e-3, 0.0)
        b = phase_rmse_theory(1.0, 1.0, 1.9, 0.4, 1e-3, 1e-3, 0.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_noise_limit(self):
        assert phase_rmse_theory(1.0, 1.0, 0.3, 0.1, 0.0, 0.0, 0.0) == 0.0

    def test_negative_radicand_raises(self):
        # Wildly out-of-regime: huge anticorrelated noise flips the
        # covariance denominator's sign.
        with pytest.raises(NegativeRadicand):
            phase_rmse_theory(1.0, 1.0, 0.0, 0.0, 3.0, 3.0, -1.0)


def two_element_point(var, rho, phases):
    gains = ElementGains(amplitudes=np.ones(2), phases=np.array(phases))
    stats = NoiseStats(variances=np.full(2, var), correlations=np.array([rho]))
    return gains, stats


def csms_point(code_length, n_elements, ev_n0_db, seed):
    noise_var = 10.0 ** (-ev_n0_db / 10.0)
    gains = ElementGains.with_random_phases(n_elements, np.random.default_rng(seed))
    eq = ZfEqualizer.for_dimensions(code_length, n_elements)
    cov = csms_peak_noise_cov(msequence_code(code_length), n_elements, noise_var)
    return gains, csms_gain_noise_stats(eq, cov)


class TestTheoryPoint:
    def test_per_element_layout(self):
        gains = ElementGains(amplitudes=np.ones(4), phases=np.zeros(4))
        point = theory_point(gains, oma_noise_stats(1e-3, 4))
        assert point.gain_rmse_db.shape == (3,)
        assert point.phase_rmse_deg.shape == (3,)
        assert np.all(point.gain_rmse_db > 0)

    def test_element_count_checked(self):
        gains = ElementGains(amplitudes=np.ones(3), phases=np.zeros(3))
        with pytest.raises(DimensionError):
            theory_point(gains, oma_noise_stats(1e-3, 4))
        with pytest.raises(DimensionError):
            closed_form_point(gains, oma_noise_stats(1e-3, 4))

    @pytest.mark.parametrize("rho, phases, seed", [
        (0.0, (0.4, 2.1), 5),
        (0.6, (0.4, 0.45), 6),
        (0.99, (0.4, 0.45), 7),
    ])
    def test_against_million_trial_monte_carlo_at_low_snr(self, rho, phases, seed):
        # Variance 0.1 (10 dB) is where the closed form's expansion misses
        # by several percent; the exact model must not.
        var = 0.1
        gains, stats = two_element_point(var, rho, phases)
        cov = var * np.array([[1.0, rho], [rho, 1.0]])
        mc_gain, mc_phase = mc_gain_phase_rmse(np.ones(2), np.array(phases), cov,
                                               1_000_000, seed)
        point = theory_point(gains, stats)
        assert abs(mc_gain / point.gain_rmse_db[0] - 1) < 0.01
        assert abs(mc_phase / point.phase_rmse_deg[0] - 1) < 0.01

    def test_matches_closed_form_at_high_snr(self):
        rng = np.random.default_rng(41)
        gains = ElementGains(amplitudes=rng.uniform(0.5, 2.0, 6),
                             phases=rng.uniform(0, 2 * np.pi, 6))
        stats = NoiseStats(variances=np.full(6, 1e-4), correlations=rng.uniform(-0.5, 0.9, 5))
        exact, closed = theory_point(gains, stats), closed_form_point(gains, stats)
        np.testing.assert_allclose(exact.gain_rmse_db, closed.gain_rmse_db, rtol=1e-3)
        np.testing.assert_allclose(exact.phase_rmse_deg, closed.phase_rmse_deg, rtol=1e-3)

    def test_noise_free_is_exactly_zero(self):
        gains = ElementGains(amplitudes=np.ones(3), phases=np.array([0.0, 1.0, 2.0]))
        point = theory_point(gains, oma_noise_stats(0.0, 3))
        assert np.all(point.gain_rmse_db == 0.0)
        assert np.all(point.phase_rmse_deg == 0.0)

    def test_finite_where_the_closed_form_has_no_answer(self):
        # The inputs of test_negative_radicand_raises: fully anticorrelated
        # errors at three times the signal power, so z_v/z_1 = (1 - n)/(1 + n)
        # with n ~ CN(0, 3).  The phase error then crowds towards +-180 deg,
        # above the 180/sqrt(3) deg of a uniform one.
        gains, stats = two_element_point(3.0, -1.0, (0.0, 0.0))
        with pytest.raises(NegativeRadicand):
            closed_form_point(gains, stats)
        point = theory_point(gains, stats)
        assert np.isfinite(point.gain_rmse_db[0])
        assert 0.0 < point.phase_rmse_deg[0] <= 180.0
        rng = np.random.default_rng(8)
        n = np.sqrt(1.5) * (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000))
        ratio = (1.0 - n) / (1.0 + n)
        mc_gain = np.sqrt(np.mean((20.0 * np.log10(np.abs(ratio))) ** 2))
        mc_phase = np.sqrt(np.mean(np.degrees(np.angle(ratio)) ** 2))
        assert abs(mc_gain / point.gain_rmse_db[0] - 1) < 0.01
        assert abs(mc_phase / point.phase_rmse_deg[0] - 1) < 0.01

    def test_mean_log_ratio_against_lapidoth_moser(self, quadrature):
        # E[ln|z|^2] = ln|mu|^2 + E1(|mu|^2/sigma^2) for each estimate, so
        # E[u] = (E1(1/t_v) - E1(1/t_1)) / 2 whatever the correlation.  Down
        # to 3 dB (t = 0.5) the default rule is close; a refined rule
        # reproduces the identity to 1e-8, which checks the density.
        t1, tv = 0.05, np.array([0.2, 0.2, 0.5])
        rho, dphi = np.array([0.0, 0.6, -0.9]), np.array([0.3, 1.0, 2.5])
        expected = (exp1(1.0 / tv) - exp1(1.0 / t1)) / 2.0
        for rule, tol in (({}, 1e-3), ({"QUAD_NODES": 96, "QUAD_TAIL": 1e-12}, 1e-8)):
            quadrature(**rule)
            mean_u, mean_u2, _ = log_ratio_moments(t1, tv, rho, dphi)
            assert np.all(np.abs(mean_u - expected) < tol * np.sqrt(mean_u2))

    # Out of the Gauss-Hermite regime (10 dB; V = L) and inside it (V = 60 at 30 dB).
    @pytest.mark.parametrize("code_length, n_elements, ev_n0_db", [(63, 50, 10.0),
                                                                    (511, 511, 30.0),
                                                                    (127, 60, 30.0)])
    def test_against_refined_quadrature(self, monkeypatch, quadrature, code_length, n_elements,
                                        ev_n0_db):
        gains, stats = csms_point(code_length, n_elements, ev_n0_db, seed=42)
        point = theory_point(gains, stats)
        amp, phs, var = gains.amplitudes, gains.phases, stats.variances
        monkeypatch.setattr(theory, "GH_MAX_SNR_INV", -1.0)  # the reference is a sinh rule
        quadrature(QUAD_NODES=96, QUAD_TAIL=1e-12)
        refined = log_ratio_moments(var[0] / amp[0] ** 2, var[1:] / amp[1:] ** 2,
                                    stats.correlations, phs[1:] - phs[0])
        np.testing.assert_allclose(point.gain_rmse_db,
                                   20.0 / np.log(10.0) * np.sqrt(refined[1]), rtol=1e-3)
        np.testing.assert_allclose(point.phase_rmse_deg,
                                   np.degrees(np.sqrt(refined[2])), rtol=1e-3)


class TestPureNoiseLimit:
    """Far below 0 dB the log-ratio tends to pure noise: u has density
    1/(2 cosh^2 u), E[u^2] = pi^2/12, and theta is uniform, E[theta^2] = pi^2/3."""

    @pytest.mark.parametrize("t", [10.0, 100.0, 1e3, 1e4])
    def test_against_refined_rule(self, quadrature, t):
        moments = log_ratio_moments(t, t, 0.0, 0.0)
        quadrature(QUAD_NODES=400)
        np.testing.assert_allclose(moments, log_ratio_moments(t, t, 0.0, 0.0), rtol=0, atol=1e-6)

    def test_limits(self):
        _, mean_u2, mean_theta2 = log_ratio_moments(1e6, 1e6, 0.0, 0.0)[:, 0]
        assert mean_u2 == pytest.approx(np.pi ** 2 / 12.0, rel=1e-5)
        assert mean_theta2 == pytest.approx(np.pi ** 2 / 3.0, rel=1e-5)

    def test_minus_30_db_scenario_matches_simulation(self):
        # Warnings are errors in this suite, so an overflow in the theory fails here.
        cfg = ScenarioConfig(scheme="OMA", code_length=4, v_grid=(2,), ev_n0_db=-30.0)
        row = run_scenario(cfg).rows[0]
        assert abs(row.gain_rmse_theory_db - row.gain_rmse_sim_db) < 4 * row.gain_rmse_sim_stderr
        assert abs(row.phase_rmse_theory_deg - row.phase_rmse_sim_deg) \
            < 4 * row.phase_rmse_sim_stderr


class TestGaussHermite:
    @pytest.mark.parametrize("n", [1, 2, 5, 24, 32])
    def test_symmetric_and_exact_for_even_powers(self, n):
        y, w = theory._gauss_hermite(n)
        np.testing.assert_array_equal(y, -y[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        assert np.all(np.diff(y) > 0) and np.all(w > 0)
        for k in range(n):  # exact up to degree 2n - 1
            assert np.sum(w * y ** (2 * k)) == pytest.approx(math.gamma(k + 0.5), rel=1e-13)


def hermite_regime_inputs(count, seed):
    """Random (t1, tv, rho, dphi) inside the Gauss-Hermite regime, then its corner:
    both variances at the bound and |rho| at its bound, over the phase difference."""
    rng = np.random.default_rng(seed)
    t_max, rho_max = theory.GH_MAX_SNR_INV, theory.GH_MAX_RHO
    t1, tv = np.exp(rng.uniform(np.log(1e-4), np.log(t_max), (2, count)))
    rho, dphi = rng.uniform(-rho_max, rho_max, count), rng.uniform(-np.pi, np.pi, count)
    corner_dphi = np.linspace(-np.pi, np.pi, 13)
    corner_rho = np.repeat([rho_max, -rho_max], corner_dphi.size)
    return (np.concatenate((t1, np.full(corner_rho.size, t_max))),
            np.concatenate((tv, np.full(corner_rho.size, t_max))),
            np.concatenate((rho, corner_rho)), np.concatenate((dphi, np.tile(corner_dphi, 2))))


class TestHermiteRegime:
    """Elements with max(t1, tv) <= GH_MAX_SNR_INV and |rho| <= GH_MAX_RHO use the
    Gauss-Hermite rule; its accuracy is checked against a wide sinh window, which
    the patched ``QUAD_WIDTH`` and regime bound give."""

    def test_accuracy_against_wide_window_reference(self, monkeypatch, quadrature):
        args = hermite_regime_inputs(300, seed=16)
        hermite = log_ratio_moments(*args)
        monkeypatch.setattr(theory, "GH_MAX_SNR_INV", -1.0)  # every element on the sinh rule
        sinh = log_ratio_moments(*args)
        quadrature(QUAD_NODES=200, QUAD_TAIL=1e-14, QUAD_WIDTH=16.0)
        reference = log_ratio_moments(*args)
        hermite_error = np.max(np.abs(hermite[1:] / reference[1:] - 1.0))
        sinh_error = np.max(np.abs(sinh[1:] / reference[1:] - 1.0))
        assert hermite_error < 1e-9
        assert hermite_error <= sinh_error

    @staticmethod
    def node_table_inputs():
        """Per GH_NODES row: tv at the row's bound, t1 at it and a tenth of it, over
        |rho| and the phase difference.  Returns the four inputs and each one's row."""
        grid = np.meshgrid([1.0, 0.1], [0.0, 0.5, -0.5, 0.75, -0.75],
                           [0.0, np.pi / 2, -np.pi / 2, np.pi], indexing="ij")
        share, rho, dphi = (np.ravel(a) for a in grid)
        bounds = np.array([bound for bound, _ in theory.GH_NODES])
        row = np.repeat(np.arange(bounds.size), share.size)
        tv = bounds[row]
        return (tv * np.tile(share, bounds.size), tv, np.tile(rho, bounds.size),
                np.tile(dphi, bounds.size)), row

    def test_each_node_table_row_against_wide_window_reference(self, monkeypatch, quadrature):
        # The table's last bound is the regime's.  Each row's count keeps its elements
        # within 1e-9 of the reference, and two nodes fewer on any row would not.
        table = theory.GH_NODES
        assert table[-1][0] == theory.GH_MAX_SNR_INV
        assert [b for b, _ in table] == sorted({b for b, _ in table})
        args, row = self.node_table_inputs()
        moments = [log_ratio_moments(*args)]
        for k, (bound, nodes) in enumerate(table):
            monkeypatch.setattr(theory, "GH_NODES", (*table[:k], (bound, nodes - 2),
                                                     *table[k + 1:]))
            moments.append(log_ratio_moments(*args))
        monkeypatch.setattr(theory, "GH_MAX_SNR_INV", -1.0)  # every element on the sinh rule
        quadrature(QUAD_NODES=200, QUAD_TAIL=1e-14, QUAD_WIDTH=16.0)
        reference = log_ratio_moments(*args)
        errors = [np.max(np.abs(m[1:] / reference[1:] - 1.0), axis=0) for m in moments]
        assert np.max(errors[0]) < 1e-9
        for k in range(len(table)):
            assert np.max(errors[1 + k][row == k]) > 1e-9
            assert errors[1 + k][row != k].tobytes() == errors[0][row != k].tobytes()

    def test_mean_log_ratio_against_lapidoth_moser(self):
        # The identity of TestTheoryPoint: E[u] = (E1(1/tv) - E1(1/t1)) / 2.
        t1, tv, rho, dphi = hermite_regime_inputs(100, seed=17)
        mean_u, mean_u2, _ = log_ratio_moments(t1, tv, rho, dphi)
        expected = (exp1(1.0 / tv) - exp1(1.0 / t1)) / 2.0
        assert np.all(np.abs(mean_u - expected) < 1e-10 * np.sqrt(mean_u2))

    def test_inputs_just_outside_the_bounds_get_the_sinh_rule(self, monkeypatch):
        t_max, rho_max = theory.GH_MAX_SNR_INV, theory.GH_MAX_RHO
        t_over, rho_over = np.nextafter(t_max, 1.0), np.nextafter(rho_max, 1.0)
        # Columns: on the bounds (Gauss-Hermite), then just beyond one bound each (sinh).
        t1 = np.array([t_max, t_max, 1e-3, t_over, 1e-3, 5e-3, 5e-3])
        tv = np.array([t_max, 1e-3, t_max, 1e-3, t_over, 5e-3, 5e-3])
        rho = np.array([rho_max, -rho_max, 0.2, 0.2, 0.2, rho_over, -rho_over])
        dphi = np.array([0.3, 2.0, -1.0, 0.3, 0.3, 0.3, 2.5])
        default = log_ratio_moments(t1, tv, rho, dphi)
        monkeypatch.setattr(theory, "GH_MAX_SNR_INV", -1.0)
        sinh = log_ratio_moments(t1, tv, rho, dphi)
        assert default[:, 3:].tobytes() == sinh[:, 3:].tobytes()
        assert np.all(default[1:, :3] != sinh[1:, :3])


class TestClosedFormPointIsElementwise:
    """``closed_form_point`` on the element arrays gives the bytes of one scalar
    call per element."""

    @pytest.mark.parametrize("figure", ["fig5", "fig7"])
    def test_figure_grid_points(self, figure):
        for cfg in figure_configs(figure, master_seed=1729, trials=1):
            for point in scenario_points(cfg):
                model = PointModel.build(cfg, point)
                amp, phs = model.gains.amplitudes, model.gains.phases
                stats = model.noise_stats()
                var, rho = stats.variances, stats.correlations
                got = closed_form_point(model.gains, stats)
                gain = [gain_rmse_theory(amp[v], amp[0], var[v], var[0], rho[v - 1],
                                         phs[v], phs[0]) for v in range(1, len(amp))]
                phase = [phase_rmse_theory(amp[v], amp[0], phs[v], phs[0], var[v], var[0],
                                           rho[v - 1]) for v in range(1, len(amp))]
                assert got.gain_rmse_db.tobytes() == np.array(gain).tobytes()
                assert got.phase_rmse_deg.tobytes() == np.array(phase).tobytes()

    def test_one_element_outside_the_regime_raises(self):
        # Element 2 is in the regime; element 3 has test_negative_radicand_raises' inputs.
        gains = ElementGains(amplitudes=np.ones(3), phases=np.zeros(3))
        stats = NoiseStats(variances=np.array([3.0, 1e-3, 3.0]),
                           correlations=np.array([0.0, -1.0]))
        with pytest.raises(NegativeRadicand):
            closed_form_point(gains, stats)
        with pytest.raises(NegativeRadicand):
            phase_rmse_theory(np.ones(2), 1.0, np.zeros(2), 0.0, np.array([1e-3, 3.0]), 3.0,
                              np.array([0.0, -1.0]))


class TestLogRatioMomentsMatchesBlockOracle:
    """The quadrature with its per-element work hoisted out of the chunk loop
    gives the bytes of the loop that did all its work chunk by chunk."""

    @staticmethod
    def assert_same_bytes(*args):
        expected = log_ratio_moments_by_block(*args)
        assert log_ratio_moments(*args).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("figure", ["fig5", "fig7"])
    def test_figure_grid_points(self, figure):
        for cfg in figure_configs(figure, master_seed=1729, trials=1):
            for point in scenario_points(cfg):
                model = PointModel.build(cfg, point)
                amp, phs = model.gains.amplitudes, model.gains.phases
                stats = model.noise_stats()
                self.assert_same_bytes(stats.variances[0] / amp[0] ** 2,
                                       stats.variances[1:] / amp[1:] ** 2,
                                       stats.correlations, phs[1:] - phs[0])

    # Chunks cut to 3 elements: 1, step, step + 1 and 2 step + 1 elements.
    @pytest.mark.parametrize("count", [1, 3, 4, 7])
    def test_element_counts_around_chunk_edges(self, monkeypatch, count):
        monkeypatch.setattr(theory, "_CHUNK_BYTES", 3 * 8 * theory.QUAD_NODES ** 2)
        rng = np.random.default_rng(count)
        t1, tv = np.full(count, 0.02), rng.uniform(1e-3, 0.3, count)
        rho, dphi = rng.uniform(-1.0, 1.0, count), rng.uniform(-np.pi, np.pi, count)
        self.assert_same_bytes(t1, tv, rho, dphi)
        t1[1::2] = tv[1::2] = 0.0  # noise-free elements between noisy ones
        self.assert_same_bytes(t1, tv, rho, dphi)

    # Gauss-Hermite chunks of 5 elements, sinh chunks of 2; the two rules alternate.
    @pytest.mark.parametrize("count", [1, 5, 6, 11])
    def test_mixed_rules_around_chunk_edges(self, monkeypatch, count):
        monkeypatch.setattr(theory, "_CHUNK_BYTES", 2 * 8 * theory.QUAD_NODES ** 2)
        rng = np.random.default_rng(100 + count)
        t1, tv = np.full(2 * count, 5e-3), rng.uniform(1e-3, 0.01, 2 * count)
        rho, dphi = rng.uniform(-0.7, 0.7, 2 * count), rng.uniform(-np.pi, np.pi, 2 * count)
        tv[1::2] = rng.uniform(0.02, 0.3, count)  # out of the Gauss-Hermite regime
        self.assert_same_bytes(t1, tv, rho, dphi)
        tv[::3] = t1[::3] = 0.0  # noise-free elements among both rules
        self.assert_same_bytes(t1, tv, rho, dphi)

    # One call over every rule: each Gauss-Hermite node count's elements and sinh
    # elements, shuffled among noise-free ones, 2 step - 1, 2 step or 2 step + 1 of each.
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_every_rule_around_its_chunk_edges(self, monkeypatch, extra):
        monkeypatch.setattr(theory, "_CHUNK_BYTES", 3 * 8 * 24 ** 2)
        rng = np.random.default_rng(200 + extra)
        bounds = [0.0, *(bound for bound, _ in theory.GH_NODES)]
        counts = [nodes for _, nodes in theory.GH_NODES] + [theory.QUAD_NODES]
        snr_inv = [rng.uniform(lo, hi, 2 * (theory._CHUNK_BYTES // (8 * n * n)) + extra)
                   for lo, hi, n in zip(bounds[:-1], bounds[1:], counts)]
        snr_inv.append(rng.uniform(0.02, 0.3, 2 + extra))  # the sinh rule's step is 1
        tv = np.concatenate([*snr_inv, np.zeros(20)])
        t1 = tv * rng.uniform(0.1, 1.0, tv.size)
        rho, dphi = rng.uniform(-0.75, 0.75, tv.size), rng.uniform(-np.pi, np.pi, tv.size)
        order = rng.permutation(tv.size)
        self.assert_same_bytes(t1[order], tv[order], rho[order], dphi[order])

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_full_correlation_with_unequal_variances(self, rho):
        self.assert_same_bytes(0.1, np.array([0.2, 0.05, 0.1]), rho, np.array([0.0, 0.4, -2.0]))

    def test_zero_noise_nan_and_refined_rule(self, quadrature):
        self.assert_same_bytes(0.0, np.zeros(3), 0.0, np.array([0.0, 1.0, 2.0]))
        self.assert_same_bytes(0.01, np.array([np.nan, 0.02, 0.0]), np.array([0.0, np.nan, 0.3]),
                               np.array([0.5, 0.5, np.nan]))
        quadrature(QUAD_NODES=96, QUAD_TAIL=1e-12)
        self.assert_same_bytes(0.05, np.array([0.2, 0.2, 0.5]), np.array([0.0, 0.6, -0.9]),
                               np.array([0.3, 1.0, 2.5]))

    # Near the Gauss-Hermite regime's edge (where the 9-sd window matters) and at 13 dB
    # (where the tail reach does); the last element is in the regime.
    @pytest.mark.parametrize("constant, value", [("QUAD_NODES", 96), ("QUAD_TAIL", 1e-12),
                                                 ("QUAD_WIDTH", 16.0)])
    def test_each_sinh_constant_moves_library_and_oracle_together(self, quadrature, constant,
                                                                  value):
        args = (np.array([0.01, 0.01, 0.05, 0.05, 0.005]),
                np.array([0.01, 0.005, 0.2, 0.5, 0.005]),
                np.array([0.9, -0.95, 0.6, -0.9, 0.5]), np.array([-0.7, 0.3, 1.0, 2.5, 1.0]))
        default = log_ratio_moments(*args)
        quadrature(**{constant: value})
        patched = log_ratio_moments(*args)
        assert np.any(patched[:, :4] != default[:, :4])
        assert patched[:, 4].tobytes() == default[:, 4].tobytes()
        self.assert_same_bytes(*args)


class TestLogRatioMomentsDedup:
    """Repeated rows, and rows whose dphi is moot because rho = 0, are integrated
    once; the oracle integrates every row."""

    @pytest.mark.parametrize("dphi", [np.array([0.3, -2.0, 0.3, np.nan, np.inf, -0.0]),
                                      np.zeros(6)], ids=["mixed", "zero"])
    def test_repeated_and_uncorrelated_rows(self, dphi):
        tv = np.array([0.1, 0.1, 0.1, 0.1, 0.1, 0.05])
        rho = np.array([0.0, 0.0, 0.4, 0.0, 0.0, -0.0])
        with np.errstate(invalid="ignore"):  # sin and cos of the infinite dphi
            expected = log_ratio_moments_by_block(0.02, tv, rho, dphi)
            assert log_ratio_moments(0.02, tv, rho, dphi).tobytes() == expected.tobytes()

    def test_no_elements(self):
        assert log_ratio_moments(0.1, np.zeros(0), np.zeros(0), np.zeros(0)).shape == (3, 0)


class TestAverageRmse:
    def test_identical_values(self):
        assert average_rmse(np.array([0.4, 0.4, 0.4])) == pytest.approx(0.4)

    def test_two_values(self):
        assert average_rmse(np.array([1.0, 3.0])) == pytest.approx(2.0)

    def test_oma_equal_power_average_is_single_value(self):
        gains = ElementGains(amplitudes=np.ones(5),
                             phases=np.random.default_rng(1).uniform(0, 2 * np.pi, 5))
        point = theory_point(gains, oma_noise_stats(1e-3, 5))
        assert average_rmse(point.gain_rmse_db) == pytest.approx(point.gain_rmse_db[0], rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            average_rmse(np.array([]))


def averaged_theory(scheme, code_length, n_elements, ev_n0_db, phases, taps=None):
    noise_var = 10.0 ** (-ev_n0_db / 10.0)
    gains = ElementGains(amplitudes=np.ones(n_elements), phases=phases)
    if scheme == "OMA":
        stats = oma_noise_stats(noise_var, n_elements)
    else:
        code = msequence_code(code_length, taps)
        eq = ZfEqualizer.for_dimensions(code_length, n_elements)
        stats = csms_gain_noise_stats(eq, csms_peak_noise_cov(code, n_elements, noise_var))
    point = theory_point(gains, stats)
    return average_rmse(point.gain_rmse_db), average_rmse(point.phase_rmse_deg)


class TestTheoryInvariants:
    def test_monotone_in_snr(self):
        rng = np.random.default_rng(31)
        phases = rng.uniform(0, 2 * np.pi, 10)
        grid = np.arange(0.0, 41.0, 5.0)
        for scheme, length in (("OMA", 64), ("CSMS", 63)):
            gains = [averaged_theory(scheme, length, 10, s, phases)[0] for s in grid]
            phases_rmse = [averaged_theory(scheme, length, 10, s, phases)[1] for s in grid]
            assert np.all(np.diff(gains) < 0)
            assert np.all(np.diff(phases_rmse) < 0)

    def test_oma_independent_of_code_length(self):
        rng = np.random.default_rng(32)
        phases = rng.uniform(0, 2 * np.pi, 12)
        values = {length: averaged_theory("OMA", length, 12, 25.0, phases)
                  for length in (16, 64, 512)}
        first = values[16]
        for other in values.values():
            assert other[0] == pytest.approx(first[0], rel=1e-12)
            assert other[1] == pytest.approx(first[1], rel=1e-12)

    def test_csms_approaches_oma_for_long_codes(self):
        rng = np.random.default_rng(33)
        phases = rng.uniform(0, 2 * np.pi, 10)
        oma_g, oma_p = averaged_theory("OMA", 512, 10, 30.0, phases)
        csms_g, csms_p = averaged_theory("CSMS", 511, 10, 30.0, phases)
        assert abs(csms_g / oma_g - 1.0) < 0.01
        assert abs(csms_p / oma_p - 1.0) < 0.01

    def test_noise_enlargement_ordering_at_v50(self):
        # Shorter codes enlarge the noise more; the CSMS-vs-OMA leg carries a
        # 0.5% slack because the equalizer correlates the per-element errors
        # with the reference element's, and that common part cancels in the
        # relative mismatch (worth ~0.2% at V=50, any SNR, any phase draw).
        rng = np.random.default_rng(34)
        phases = rng.uniform(0, 2 * np.pi, 50)
        oma_g, oma_p = averaged_theory("OMA", 64, 50, 20.0, phases)
        by_length = {length: averaged_theory("CSMS", length, 50, 20.0, phases)
                     for length in (63, 127, 255)}
        assert by_length[63][0] > by_length[127][0] > by_length[255][0] >= 0.995 * oma_g
        assert by_length[63][1] > by_length[127][1] > by_length[255][1] >= 0.995 * oma_p


class TestNoiseStatsValidation:
    def test_correlation_magnitude_checked(self):
        with pytest.raises(DimensionError):
            NoiseStats(variances=np.ones(2), correlations=np.array([1.5]))

    def test_negative_variance_rejected(self):
        with pytest.raises(DimensionError):
            NoiseStats(variances=np.array([1.0, -0.1]), correlations=np.array([0.0]))

    def test_shape_consistency(self):
        with pytest.raises(DimensionError):
            NoiseStats(variances=np.ones(3), correlations=np.zeros(3))
