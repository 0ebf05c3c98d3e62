import ctypes.util
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import arraycal
from arraycal import harness
from arraycal.channel import LinkBudget
from arraycal.codes import msequence_code, walsh_matrix
from arraycal.errors import (ArrayCalError, ConfigError, DimensionError, NonMaximalPolynomial,
                            UnknownFigure)
from arraycal.harness import (CSV_COLUMNS, GridPoint, PointModel, RmseReport, ScenarioConfig,
                              figure_configs, reproduce_figure, rng_stream, run_scenario,
                              run_trial, scenario_points)
from arraycal.receiver import csms_peaks, new_array, oma_estimate
from oracles import build_correlation_matrix, two_angle_mismatch

try:
    import resource
except ImportError:  # not on Windows
    resource = None

SCENARIO_SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "scenario_schema.json"


def _wrap_deg(angle):
    wrapped = (np.asarray(angle) + 180.0) % 360.0 - 180.0
    return np.where(wrapped == -180.0, 180.0, wrapped)


def sfc64(entropy):
    return np.random.Generator(np.random.SFC64(entropy))


def small_csms_config(**overrides):
    base = dict(scheme="CSMS", code_length=63, n_elements=6, snr_grid_db=(25.0,),
                trials=64, master_seed=7)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_requires_exactly_one_grid(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scheme="OMA", code_length=64)
        with pytest.raises(ConfigError):
            ScenarioConfig(scheme="OMA", code_length=64, n_elements=4,
                           snr_grid_db=(10.0,), v_grid=(4,), ev_n0_db=10.0)

    def test_element_bounds(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scheme="OMA", code_length=64, n_elements=65,
                           snr_grid_db=(10.0,))
        with pytest.raises(ConfigError):
            ScenarioConfig(scheme="OMA", code_length=64, n_elements=1,
                           snr_grid_db=(10.0,))

    def test_oma_requires_power_of_two(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scheme="OMA", code_length=63, n_elements=4,
                           snr_grid_db=(10.0,))

    def test_csms_default_taps_filled(self):
        cfg = small_csms_config()
        assert cfg.taps == (6, 5, 3, 2)

    def test_csms_unsupported_length(self):
        for length in (60, 2047):
            with pytest.raises(ConfigError, match="code_length"):
                ScenarioConfig(scheme="CSMS", code_length=length, n_elements=4,
                               snr_grid_db=(10.0,))

    def test_v_grid_needs_snr(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scheme="OMA", code_length=64, v_grid=(4, 8))

    def test_trials_lower_bound(self):
        with pytest.raises(ConfigError):
            small_csms_config(trials=0)

    @pytest.mark.parametrize("overrides", [
        {"trials": 2.5}, {"trials": True}, {"n_elements": 6.0}, {"master_seed": "7"},
        {"scheme": "OMA", "code_length": 64.0},
    ], ids=["trials-float", "trials-bool", "n_elements-float", "seed-str", "oma-length-float"])
    def test_integer_fields_must_be_integers(self, overrides):
        with pytest.raises(ConfigError, match="must be an integer"):
            small_csms_config(**overrides)

    def test_numpy_integers_accepted(self):
        cfg = small_csms_config(trials=np.int64(64), n_elements=np.int32(6))
        assert cfg == small_csms_config()

    def test_non_primitive_taps_rejected_at_config_time(self):
        for taps, cause in (((6, 3), NonMaximalPolynomial), ((5, 2), DimensionError)):
            with pytest.raises(ConfigError, match="taps") as info:
                small_csms_config(taps=taps)
            assert type(info.value.__cause__) is cause

    @pytest.mark.parametrize("field, value", [
        ("trials", "x"),
        ("snr_grid_db", 10),
        ("snr_grid_db", "10"),
        ("v_grid", "abc"),
        ("ev_n0_db", "abc"),
        ("taps", [6, "5"]),
        ("link_budget", {"eirp_dbw": "x", "path_loss_db": 200.0,
                         "g_over_t_dbk": 30.0, "ts_seconds": 1e-3}),
        ("link_budget", "abc"),
        ("link_budget", {"eirp_dbw": "10", "path_loss_db": 200.0,
                         "g_over_t_dbk": 30.0, "ts_seconds": 1e-3}),
        ("link_budget", {"eirp_dbw": 10.0, "path_loss_db": 200.0,
                         "g_over_t_dbk": 30.0, "ts_seconds": True}),
        ("link_budget", {"eirp_dbw": 10.0, "path_loss_db": 200.0,
                         "g_over_t_dbk": 30.0, "ts_seconds": 1e-3, "kb_dbw_hz_k": "-228"}),
        ("link_budget", {"eirp_dbw": 10.0, "g_over_t_dbk": 30.0, "ts_seconds": 1e-3}),
    ], ids=["trials-str", "snr_grid-number", "snr_grid-str", "v_grid-str", "ev_n0-str",
            "taps-str-entry", "link_budget-str-field", "link_budget-str",
            "link_budget-numeric-str-field", "link_budget-bool-field",
            "link_budget-numeric-str-boltzmann", "link_budget-missing-field"])
    def test_from_dict_wrong_typed_field_is_config_error(self, field, value):
        if field in ("snr_grid_db", "trials", "taps"):
            raw = {"scheme": "CSMS", "code_length": 63, "n_elements": 6, "snr_grid_db": [25.0]}
        else:
            raw = {"scheme": "CSMS", "code_length": 63, "v_grid": [4]}
            if field != "link_budget":
                raw["ev_n0_db"] = 20.0
        raw[field] = value
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig.from_dict(raw)

    def test_from_dict_roundtrip(self):
        raw = {"scheme": "CSMS", "code_length": 63, "n_elements": 6,
               "snr_grid_db": [25.0], "trials": 64, "master_seed": 7}
        assert ScenarioConfig.from_dict(raw) == small_csms_config()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"scheme": "OMA", "code_length": 64,
                                      "n_elements": 4, "snr_grid_db": [10], "typo": 1})

    def test_from_dict_link_budget(self):
        raw = {"scheme": "OMA", "code_length": 64, "v_grid": [4],
               "link_budget": {"eirp_dbw": 10.0, "path_loss_db": 200.0,
                               "g_over_t_dbk": 30.0, "ts_seconds": 1e-3}}
        cfg = ScenarioConfig.from_dict(raw)
        assert cfg.ev_n0_db == pytest.approx(38.0)

    def test_from_dict_rejects_unknown_link_budget_fields(self):
        # A misspelt kb_dbw_hz_k would otherwise run at the default -228 dBW/Hz/K.
        raw = {"scheme": "OMA", "code_length": 64, "v_grid": [4],
               "link_budget": {"eirp_dbw": 10.0, "path_loss_db": 200.0,
                               "g_over_t_dbk": 30.0, "ts_seconds": 1e-3, "kb_dbw_hz": -200.0}}
        with pytest.raises(ConfigError, match=r"unknown link_budget fields: \['kb_dbw_hz'\]"):
            ScenarioConfig.from_dict(raw)

    def test_schema_matches_reader(self):
        schema = json.loads(SCENARIO_SCHEMA.read_text())
        config = fields(ScenarioConfig)
        assert set(schema["properties"]) == (
            {f.name for f in config} | {"link_budget", "amplitude_policy"})
        assert set(schema["required"]) == {f.name for f in config if f.default is MISSING}
        budget = schema["properties"]["link_budget"]
        assert budget["additionalProperties"] is False
        assert set(budget["properties"]) == {f.name for f in fields(LinkBudget)}
        assert set(budget["required"]) == {
            f.name for f in fields(LinkBudget) if f.default is MISSING}

    def test_from_dict_link_budget_conflicts_with_ev_n0(self):
        raw = {"scheme": "OMA", "code_length": 64, "v_grid": [4], "ev_n0_db": 20.0,
               "link_budget": {"eirp_dbw": 0, "path_loss_db": 0, "g_over_t_dbk": 0,
                               "ts_seconds": 1.0}}
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    def test_n_elements_rejected_with_v_grid(self):
        with pytest.raises(ConfigError, match="n_elements"):
            ScenarioConfig(scheme="OMA", code_length=64, n_elements=999, v_grid=(4,),
                           ev_n0_db=10.0)

    def test_ev_n0_rejected_with_snr_grid(self):
        with pytest.raises(ConfigError, match="ev_n0_db"):
            small_csms_config(ev_n0_db=10.0)

    @pytest.mark.parametrize("extra", [
        {"v_grid": [4], "ev_n0_db": 10.0, "n_elements": 4},
        {"snr_grid_db": [10.0], "n_elements": 4, "ev_n0_db": 10.0},
        {"snr_grid_db": [10.0], "n_elements": 4,
         "link_budget": {"eirp_dbw": 10.0, "path_loss_db": 200.0,
                         "g_over_t_dbk": 30.0, "ts_seconds": 1e-3}},
    ], ids=["n_elements+v_grid", "ev_n0_db+snr_grid_db", "link_budget+snr_grid_db"])
    def test_from_dict_rejects_field_of_other_grid(self, extra):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"scheme": "OMA", "code_length": 64, **extra})

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_non_finite_snr_grid_rejected(self, snr):
        with pytest.raises(ConfigError, match="snr_grid_db"):
            small_csms_config(snr_grid_db=(20.0, snr))

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_non_finite_ev_n0_rejected(self, snr):
        with pytest.raises(ConfigError, match="ev_n0_db"):
            ScenarioConfig(scheme="CSMS", code_length=63, v_grid=(4,), ev_n0_db=snr)

    @pytest.mark.parametrize("field, value", [
        ("path_loss_db", math.nan), ("path_loss_db", math.inf), ("path_loss_db", -math.inf),
        ("eirp_dbw", math.inf), ("g_over_t_dbk", math.nan), ("kb_dbw_hz_k", -math.inf),
        ("ts_seconds", math.inf), ("ts_seconds", 0.0), ("ts_seconds", -1e-3),
    ])
    def test_non_finite_link_budget_rejected(self, field, value):
        budget = {"eirp_dbw": 10.0, "path_loss_db": 200.0, "g_over_t_dbk": 30.0,
                  "ts_seconds": 1e-3}
        raw = {"scheme": "OMA", "code_length": 64, "v_grid": [4],
               "link_budget": dict(budget, **{field: value})}
        with pytest.raises(ConfigError, match="ev_n0_db"):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("snr", [-5000.0, -2000.0, 2000.0, 5000.0])
    def test_extreme_finite_snr_rejected(self, snr):
        # Past float64's range these fail mid-run (OverflowError, ZeroDivisionError
        # or overflow warnings) unless the config refuses them.
        with pytest.raises(ConfigError, match="snr_grid_db"):
            small_csms_config(snr_grid_db=(20.0, snr))
        with pytest.raises(ConfigError, match="ev_n0_db"):
            ScenarioConfig(scheme="OMA", code_length=4, v_grid=(2,), ev_n0_db=snr)
        # The budget below gives 38 dB at an EIRP of 10 dBW.
        budget = {"eirp_dbw": 10.0 + snr - 38.0, "path_loss_db": 200.0, "g_over_t_dbk": 30.0,
                  "ts_seconds": 1e-3}
        with pytest.raises(ConfigError, match="ev_n0_db"):
            ScenarioConfig.from_dict({"scheme": "OMA", "code_length": 64, "v_grid": [4],
                                      "link_budget": budget})

    def test_link_budget_sum_overflow_rejected(self):
        # Finite fields whose sum is +inf would otherwise run as noise-free.
        budget = {"eirp_dbw": 1e308, "path_loss_db": -1e308, "g_over_t_dbk": 30.0,
                  "ts_seconds": 1e-3}
        with pytest.raises(ConfigError, match="link_budget gives no finite ev_n0_db"):
            ScenarioConfig.from_dict({"scheme": "OMA", "code_length": 64, "v_grid": [4],
                                      "link_budget": budget})

    @pytest.mark.parametrize("scheme, length, elements",
                             [("OMA", 4, 2), ("CSMS", 7, 2), ("CSMS", 63, 63), ("CSMS", 511, 511)])
    def test_snr_range_edges_run_cleanly(self, scheme, length, elements):
        # Within the range a point runs without a float warning, and the theory
        # holds its pure-noise and its high-SNR value; just outside, the config fails.
        # At V = L the equalizer raises the element error variance up to 86x the
        # noise variance at the low edge.
        low, high = harness._SNR_RANGE_DB

        def theory(snr):
            cfg = ScenarioConfig(scheme=scheme, code_length=length, n_elements=elements,
                                 snr_grid_db=(snr,), trials=8)
            row = run_scenario(cfg).rows[0]
            return np.array([row.gain_rmse_theory_db, row.phase_rmse_theory_deg])

        np.testing.assert_allclose(theory(low), theory(-300.0), rtol=1e-12)
        np.testing.assert_allclose(theory(high), theory(300.0) * 10.0 ** ((300.0 - high) / 20.0),
                                   rtol=1e-9)
        for outside in (np.nextafter(low, -math.inf), np.nextafter(high, math.inf)):
            with pytest.raises(ConfigError, match="snr_grid_db"):
                small_csms_config(snr_grid_db=(float(outside),))

    def test_plus_inf_snr_means_noise_free(self):
        cfg = ScenarioConfig(scheme="CSMS", code_length=63, v_grid=(4,), ev_n0_db=math.inf)
        assert PointModel.build(cfg, scenario_points(cfg)[0]).noise_var == 0.0

    def test_amplitude_policy_is_not_a_field(self):
        with pytest.raises(TypeError):
            small_csms_config(amplitude_policy="all-ones")

    def test_from_dict_accepts_all_ones_amplitude_policy(self):
        raw = {"scheme": "CSMS", "code_length": 63, "n_elements": 6,
               "snr_grid_db": [25.0], "trials": 64, "master_seed": 7,
               "amplitude_policy": "all-ones"}
        assert ScenarioConfig.from_dict(raw) == small_csms_config()

    def test_from_dict_rejects_other_amplitude_policy(self):
        raw = {"scheme": "CSMS", "code_length": 63, "n_elements": 6,
               "snr_grid_db": [25.0], "amplitude_policy": "tapered"}
        with pytest.raises(ConfigError, match="amplitude"):
            ScenarioConfig.from_dict(raw)

    def test_scenario_points_snr_mode(self):
        cfg = small_csms_config(snr_grid_db=(10.0, 20.0))
        points = scenario_points(cfg)
        assert [p.index for p in points] == [0, 1]
        assert [p.ev_n0_db for p in points] == [10.0, 20.0]
        assert all(p.n_elements == 6 for p in points)

    def test_scenario_points_v_mode(self):
        cfg = ScenarioConfig(scheme="CSMS", code_length=63, v_grid=(4, 8, 16),
                             ev_n0_db=30.0, trials=8)
        points = scenario_points(cfg)
        assert [p.n_elements for p in points] == [4, 8, 16]
        assert all(p.ev_n0_db == 30.0 for p in points)


class TestRunTrial:
    def test_zero_noise_trial_has_zero_errors(self):
        cfg = small_csms_config(snr_grid_db=(float("inf"),))
        point = scenario_points(cfg)[0]
        gain_err, phase_err = run_trial(cfg, point, 0)
        np.testing.assert_allclose(gain_err, 0.0, atol=1e-12)
        np.testing.assert_allclose(phase_err, 0.0, atol=1e-12)

    def test_repeat_trial_bit_identical(self):
        cfg = small_csms_config()
        point = scenario_points(cfg)[0]
        g1, p1 = run_trial(cfg, point, 17)
        g2, p2 = run_trial(cfg, point, 17)
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(p1, p2)

    def test_distinct_trials_differ(self):
        cfg = small_csms_config()
        point = scenario_points(cfg)[0]
        g1, _ = run_trial(cfg, point, 0)
        g2, _ = run_trial(cfg, point, 1)
        assert not np.array_equal(g1, g2)

    def test_oma_trial_against_straight_line_script(self):
        # Independent oracle: re-derive one trial's errors from the raw
        # generator contract with explicit formulas, no library calls.
        # Trial 66 of 70 is row 2 of block 1, the 6-trial partial block,
        # drawn by an SFC64 generator keyed [seed, point, 1 + block]; its
        # real (6, n) normals come before its imaginary (6, n) normals.
        cfg = ScenarioConfig(scheme="OMA", code_length=2, n_elements=2,
                             snr_grid_db=(30.0,), trials=70, master_seed=99)
        point = scenario_points(cfg)[0]
        gain_err, phase_err = run_trial(cfg, point, 66)

        phases = sfc64([99, 0, 0]).uniform(0.0, 2.0 * np.pi, 2)
        rng = sfc64([99, 0, 2])
        c = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        w = np.exp(1j * phases)
        scale = np.sqrt(1e-3 / 2.0)
        real, imag = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        received = c @ w + scale * real[2] + 1j * scale * imag[2]
        estimate = c.T @ received
        exp_gain = 20.0 * np.log10(np.abs(estimate[1]) / np.abs(estimate[0]))
        exp_phase = _wrap_deg(np.degrees(np.angle(estimate[1]) - np.angle(estimate[0])
                                         - (phases[1] - phases[0])))

        assert gain_err[0] == pytest.approx(exp_gain, abs=1e-12)
        assert phase_err[0] == pytest.approx(exp_phase, abs=1e-12)

    def test_per_trial_csms_trial_against_straight_line_script(self):
        # Same oracle with per-trial phases: block 1's generator draws its
        # (6, V) phases first, then the noise; the clean stream is a sum of
        # rolled codes, the matched filter a dot product, the equalizer the
        # dense inverse of the peak correlation matrix.
        l, v = 7, 3
        cfg = ScenarioConfig(scheme="CSMS", code_length=l, n_elements=v,
                             snr_grid_db=(20.0,), trials=70, master_seed=99,
                             phase_policy="per-trial")
        point = scenario_points(cfg)[0]
        gain_err, phase_err = run_trial(cfg, point, 66)

        code = msequence_code(l)
        n = l + v - 1
        rng = sfc64([99, 0, 2])
        phases = rng.uniform(0.0, 2.0 * np.pi, (6, v))[2]
        scale = np.sqrt(1e-2 / 2.0)
        real, imag = rng.standard_normal((6, n)), rng.standard_normal((6, n))
        period = sum(np.exp(1j * phases[q]) * np.roll(code, q) for q in range(v))
        received = np.concatenate([period, period[:v - 1]]) + scale * real[2] + 1j * scale * imag[2]
        peaks = np.array([np.dot(code, received[q:q + l]) for q in range(v)])
        estimate = np.linalg.inv(build_correlation_matrix(code, range(v))) @ peaks
        exp_gain = 20.0 * np.log10(np.abs(estimate[1:]) / np.abs(estimate[0]))
        exp_phase = _wrap_deg(np.degrees(np.angle(estimate[1:]) - np.angle(estimate[0])
                                         - (phases[1:] - phases[0])))

        np.testing.assert_allclose(gain_err, exp_gain, rtol=0, atol=1e-9)
        np.testing.assert_allclose(phase_err, exp_phase, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("trial_index", [-1, 64])
    def test_trial_index_outside_scenario_rejected(self, trial_index):
        cfg = small_csms_config(trials=64)
        with pytest.raises(ArrayCalError, match="trial index"):
            run_trial(cfg, scenario_points(cfg)[0], trial_index)

    def test_per_trial_phase_policy_redraws(self):
        base = small_csms_config()
        redraw = small_csms_config(phase_policy="per-trial")
        point = scenario_points(base)[0]
        g_base, _ = run_trial(base, point, 3)
        g_redraw_a, _ = run_trial(redraw, point, 3)
        g_redraw_b, _ = run_trial(redraw, point, 3)
        assert not np.array_equal(g_base, g_redraw_a)
        np.testing.assert_array_equal(g_redraw_a, g_redraw_b)


class TestSingleChain:
    """The scenario runner and ``run_trial`` are one receive chain over one point model."""

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(scheme="OMA", code_length=64, n_elements=8, snr_grid_db=(15.0,),
                       trials=30, master_seed=21),
        small_csms_config(trials=30),
        small_csms_config(trials=30, phase_policy="per-trial"),
        small_csms_config(n_elements=20, trials=3 * harness.BLOCK_TRIALS - 5),
        small_csms_config(n_elements=20, trials=3 * harness.BLOCK_TRIALS - 5,
                          phase_policy="per-trial"),
        ScenarioConfig(scheme="OMA", code_length=8, n_elements=2, snr_grid_db=(10.0,),
                       trials=300, master_seed=5),
        ScenarioConfig(scheme="CSMS", code_length=31, n_elements=2, snr_grid_db=(20.0,),
                       trials=130, master_seed=21),
        small_csms_config(n_elements=50, trials=harness.BLOCK_TRIALS + 1),
        small_csms_config(trials=10),
        small_csms_config(trials=1),
        ScenarioConfig(scheme="OMA", code_length=16, n_elements=5, snr_grid_db=(math.inf,),
                       trials=70, master_seed=2),
        small_csms_config(snr_grid_db=(math.inf,), trials=70),
    ], ids=["OMA", "CSMS", "CSMS-per-trial", "CSMS-3-blocks", "CSMS-per-trial-3-blocks",
            "OMA-V2", "CSMS-V2", "CSMS-one-trial-last-block", "CSMS-10-trials",
            "CSMS-one-trial", "OMA-noise-free", "CSMS-noise-free"])
    def test_run_trial_reproduces_report_row(self, cfg):
        # Every column sums each element's squared errors trial by trial, in
        # trial order, also across blocks and with one non-reference element,
        # and in a one-trial last block, whose peaks are equalized as any
        # block's rows are, each as one contiguous row.  The
        # standard error is the linearized one: each trial's squared errors
        # weighted by 1 / (2 (V-1) RMSE_v), an element of RMSE 0 by 0.
        point = scenario_points(cfg)[0]
        errors = [run_trial(cfg, point, t) for t in range(cfg.trials)]
        gain_sq = np.array([g**2 for g, _ in errors])
        phase_sq = np.array([p**2 for _, p in errors])

        def element_rmse(sq):
            acc = np.zeros(sq.shape[1])
            for row in sq:
                acc += row
            return np.sqrt(acc / len(sq))

        def rmse(sq):
            return float(element_rmse(sq).mean())

        def stderr(sq):
            if len(sq) < 2:
                return 0.0
            per_element = element_rmse(sq)
            weights = np.zeros(sq.shape[1])
            for v, r in enumerate(per_element):
                if r > 0:
                    weights[v] = 0.5 / sq.shape[1] / r
            y = np.array([(row * weights).sum() for row in sq])
            return float(y.std(ddof=1) / np.sqrt(len(sq)))

        row = run_scenario(cfg).rows[0]
        assert row.gain_rmse_sim_db == rmse(gain_sq)
        assert row.phase_rmse_sim_deg == rmse(phase_sq)
        assert row.gain_rmse_sim_stderr == stderr(gain_sq)
        assert row.phase_rmse_sim_stderr == stderr(phase_sq)

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(scheme="OMA", code_length=16, n_elements=9, snr_grid_db=(10.0,),
                       trials=130, master_seed=3),
        ScenarioConfig(scheme="OMA", code_length=16, n_elements=9, snr_grid_db=(10.0,),
                       trials=130, master_seed=3, phase_policy="per-trial"),
        small_csms_config(n_elements=20, snr_grid_db=(10.0,), trials=130),
        small_csms_config(n_elements=20, snr_grid_db=(10.0,), trials=130,
                          phase_policy="per-trial"),
    ], ids=["OMA", "OMA-per-trial", "CSMS", "CSMS-per-trial"])
    def test_trial_chunk_matches_truth_subtracted_readout(self, cfg, monkeypatch):
        # The chain reads out estimates de-rotated by the truth; reading the raw
        # estimates out and then subtracting and wrapping the truth phase agrees.
        point = scenario_points(cfg)[0]
        model = PointModel.build(cfg, point)
        estimates = []
        for name in ("oma_estimate", "zf_equalize"):
            def recorded(*args, original=getattr(harness, name)):
                estimates.append(original(*args))
                return estimates[-1]

            monkeypatch.setattr(harness, name, recorded)
        for block in range(3):
            chunk = harness._trial_chunk(model, block)
            raw = estimates[-1]
            if cfg.phase_policy == "per-trial":
                rng = rng_stream(cfg.master_seed, point.index, 1 + block)
                phases = rng.uniform(0.0, 2.0 * np.pi, raw.shape)
            else:
                phases = model.gains.phases
            gain_db, phase_deg = two_angle_mismatch(raw)
            truth_deg = np.degrees(phases[..., 1:] - phases[..., :1])
            assert chunk.shape == (raw.shape[0], 2, raw.shape[1] - 1)
            np.testing.assert_allclose(chunk[:, 0], gain_db, rtol=0, atol=1e-12)
            np.testing.assert_allclose(chunk[:, 1], _wrap_deg(phase_deg - truth_deg),
                                       rtol=0, atol=1e-12)

    def test_point_memory_is_bounded_by_its_squared_error_buffer(self):
        # The point's (trials, 2, V-1) buffer is the only array of trials x V
        # size: blocks are squared into it, and it is weighted and reduced in place.
        cfg = ScenarioConfig(scheme="CSMS", code_length=255, v_grid=(255,), ev_n0_db=30.0,
                             trials=2000, master_seed=5)
        point = scenario_points(cfg)[0]
        tracemalloc.start()
        try:
            harness._point_row(cfg, point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * cfg.trials * (point.n_elements - 1) * 8

    def test_per_trial_span_ignores_earlier_trials(self):
        # A block depends on its model and index alone: running other blocks
        # on the same model first changes neither its output nor the model.
        cfg = small_csms_config(trials=3 * harness.BLOCK_TRIALS - 5, phase_policy="per-trial")
        point = scenario_points(cfg)[0]
        fresh = [harness._trial_chunk(PointModel.build(cfg, point), b) for b in (1, 2)]
        model = PointModel.build(cfg, point)
        phases = model.gains.phases.copy()
        harness._trial_chunk(model, 0)
        after = [harness._trial_chunk(model, b) for b in (2, 1)][::-1]
        for a, b in zip(fresh, after):
            np.testing.assert_array_equal(a[:, 0], b[:, 0])
            np.testing.assert_array_equal(a[:, 1], b[:, 1])
        assert fresh[1][:, 0].shape == (harness.BLOCK_TRIALS - 5, 5)
        assert model.signal is None
        np.testing.assert_array_equal(model.gains.phases, phases)

    def test_model_is_built_once_per_point(self, monkeypatch):
        built = []
        original = PointModel.build.__func__

        def counting(cls, cfg, point):
            built.append(point.index)
            return original(cls, cfg, point)

        monkeypatch.setattr(PointModel, "build", classmethod(counting))
        run_scenario(small_csms_config(snr_grid_db=(10.0, 20.0), trials=8))
        assert built == [0, 1]


ORDER_SCRIPT = """
import sys
from arraycal import ScenarioConfig, run_scenario
configs = {
    "large": ScenarioConfig(scheme="CSMS", code_length=511, v_grid=(408,), ev_n0_db=30.0,
                            trials=70, master_seed=5),
    "small": ScenarioConfig(scheme="CSMS", code_length=63, v_grid=(6, 20), ev_n0_db=20.0,
                            trials=70, master_seed=5, phase_policy="per-trial"),
}
for name in sys.argv[1:]:
    print(run_scenario(configs[name]).to_csv_text(), end="")
"""


class TestWorkspace:
    """Every block runs in one process-wide workspace, and gives what its model
    and index alone give."""

    def test_each_call_gets_the_dtype_it_asks_for(self):
        # The harness and the stages share one namespace of names: a name's
        # bytes are reused under whatever dtype and shape a call asks for.
        ws = harness._Workspace()
        first = ws.array("x", (4,), np.float64)
        again = ws.array("x", (2,), np.complex128)
        assert (again.dtype, again.shape) == (np.complex128, (2,))
        assert np.shares_memory(first, again)
        grown = ws.array("x", (3, 2), np.complex128)
        assert (grown.dtype, grown.shape) == (np.complex128, (3, 2)) and grown.flags.c_contiguous
        assert ws.array("x", (6,), np.float64).dtype == np.float64

    @pytest.mark.parametrize("width, correlate", [
        (64, lambda planes, scratch: oma_estimate(walsh_matrix(64, 50), planes, scratch)),
        (63 + 49, lambda planes, scratch: csms_peaks(msequence_code(63), 50, planes,
                                                     scratch=scratch)),
        (511 + 407, lambda planes, scratch: csms_peaks(msequence_code(511), 408, planes,
                                                       scratch=scratch)),
    ], ids=["OMA", "CSMS-dense", "CSMS-fft"])
    def test_correlators_return_the_workspace_peaks(self, width, correlate):
        # The receive chain takes its estimates, C-ordered, from the "peaks"
        # name that the correlator writes, and equalizes them there.
        ws = harness._Workspace()
        planes = np.random.default_rng(7).standard_normal((2, 3, width))
        got = correlate(planes, ws.array)
        assert got.shape[0] == 3 and got.flags.c_contiguous
        assert np.shares_memory(got, ws.array("peaks", got.shape, np.complex128))
        assert got.tobytes() == correlate(planes, new_array).tobytes()

    def test_report_does_not_depend_on_earlier_runs(self):
        # The workspace keeps a larger block's data past a smaller block's
        # arrays: either order reads as each scenario does in a fresh interpreter.
        fresh = {}
        for name in ("large", "small"):
            child = _run_child(ORDER_SCRIPT, name)
            assert child.returncode == 0, child.stderr
            fresh[name] = child.stdout
        for order in (("large", "small"), ("small", "large")):
            child = _run_child(ORDER_SCRIPT, *order)
            assert child.returncode == 0, child.stderr
            assert child.stdout == "".join(fresh[name] for name in order)

    def test_threads_match_serial_calls(self):
        # run_trial and run_scenario use the workspace under one lock, so
        # calls from several threads at once give what serial calls give.
        small = small_csms_config(trials=70, phase_policy="per-trial")
        large = ScenarioConfig(scheme="CSMS", code_length=255, v_grid=(200,), ev_n0_db=30.0,
                               trials=130, master_seed=5)
        point, trials = scenario_points(small)[0], (3, 66)
        expected_trials = [run_trial(small, point, t) for t in trials]
        expected_report = run_scenario(large).to_csv_text()
        got_trials, got_reports = [], []

        def trial_calls():
            for _ in range(20):
                got_trials.append([run_trial(small, point, t) for t in trials])

        def scenario_calls():
            got_reports.extend(run_scenario(large).to_csv_text() for _ in range(3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=target)
                       for target in (trial_calls, trial_calls, scenario_calls, scenario_calls)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(got_trials) == 40 and len(got_reports) == 6
        for got in got_trials:
            for (g, p), (eg, ep) in zip(got, expected_trials):
                np.testing.assert_array_equal(g, eg)
                np.testing.assert_array_equal(p, ep)
        assert set(got_reports) == {expected_report}

    @pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"),
                        reason="needs Linux's per-thread resource usage")
    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(scheme="CSMS", code_length=255, v_grid=(50,), ev_n0_db=30.0,
                       trials=640, master_seed=31337),
        ScenarioConfig(scheme="OMA", code_length=256, v_grid=(50,), ev_n0_db=30.0,
                       trials=640, master_seed=31337),
        ScenarioConfig(scheme="CSMS", code_length=127, v_grid=(120,), ev_n0_db=30.0,
                       trials=640, master_seed=31337, phase_policy="per-trial"),
        ScenarioConfig(scheme="OMA", code_length=128, v_grid=(120,), ev_n0_db=30.0,
                       trials=640, master_seed=31337, phase_policy="per-trial"),
        ScenarioConfig(scheme="OMA", code_length=512, v_grid=(50,), ev_n0_db=30.0,
                       trials=640, master_seed=31337),
        ScenarioConfig(scheme="CSMS", code_length=127, v_grid=(127,), ev_n0_db=30.0,
                       trials=640, master_seed=31337),
        ScenarioConfig(scheme="CSMS", code_length=511, v_grid=(408,), ev_n0_db=30.0,
                       trials=640, master_seed=31337),
    ], ids=["CSMS-255-50", "OMA-256-50", "CSMS-127-120-per-trial", "OMA-128-120-per-trial",
            "OMA-512-50", "CSMS-127-127-dense", "CSMS-511-408-fft"])
    def test_warm_blocks_take_no_page_faults(self, cfg):
        # A block's arrays above the allocator's mmap threshold live in the
        # workspace.  Fresh ones would be mapped and faulted in again on every
        # block: about 260 minor faults per block at CSMS 255/50, and about 60
        # at OMA 512/50 for a complex copy of the Walsh matrix.  The blocks
        # write their errors into one caller's buffer, as in _point_row; a new
        # (T, 2, V-1) result of 417 KB at V = 408 would be mapped itself.  CSMS
        # 127/127 has a dense matched filter and 511/408 an FFT one.
        model = PointModel.build(cfg, scenario_points(cfg)[0])
        point = model.point
        errors = np.empty((harness.BLOCK_TRIALS, 2, point.n_elements - 1))
        harness._trial_chunk(model, 0, errors)
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        for block in range(1, 10):
            harness._trial_chunk(model, block, errors)
        assert resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before <= 9


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, each map's
    function and arguments and each shutdown, maps in process."""

    created = []
    mapped = []
    shut_down = []

    def __init__(self, max_workers, initializer=None):
        self.max_workers = max_workers
        self.created.append(max_workers)

    def map(self, fn, *iterables):
        args = [list(it) for it in iterables]
        self.mapped.append((fn, args))
        return map(fn, *args)

    def shutdown(self, wait=True):
        self.shut_down.append(self.max_workers)


@pytest.fixture
def fresh_pool():
    """No cached pool before or after the test: a pool forked earlier keeps the
    module state it was forked with, and a fake pool must not outlive its patch."""
    harness._close_pool()
    yield
    harness._close_pool()


@pytest.fixture
def fake_pool(monkeypatch, fresh_pool):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "created", [])
    monkeypatch.setattr(_InProcessPool, "mapped", [])
    monkeypatch.setattr(_InProcessPool, "shut_down", [])
    return _InProcessPool.created


class TestWorkerCap:
    def test_workers_capped_at_cpu_count(self, monkeypatch, fake_pool):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        # 4 points: the CPU count, not the point count, caps the pool.
        cfg = small_csms_config(snr_grid_db=(10.0, 20.0, 30.0, 40.0), trials=8)
        report = run_scenario(cfg, workers=16)
        assert fake_pool == [3]
        assert report.to_csv_text() == run_scenario(cfg, workers=1).to_csv_text()

    @pytest.mark.parametrize("workers, expected", [(16, 8), (2, 2)])
    def test_one_pool_per_scenario_call(self, monkeypatch, fake_pool, workers, expected):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        # 6 points of 2 blocks each: the pool has min(workers, cpu_count) workers;
        # neither points nor blocks cap it, so later calls of any size can reuse it.
        cfg = small_csms_config(snr_grid_db=(10.0, 15.0, 20.0, 25.0, 30.0, 35.0),
                                trials=harness.BLOCK_TRIALS + 1)
        run_scenario(cfg, workers=workers)
        assert fake_pool == [expected]

    def test_pool_is_kept_until_another_size_is_needed(self, monkeypatch, fake_pool):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        cfg = small_csms_config(snr_grid_db=(10.0, 20.0), trials=8)
        for workers in (2, 2, 1, 3, 3, 16, 8):
            run_scenario(cfg, workers=workers)
        assert fake_pool == [2, 3, 8]
        assert _InProcessPool.shut_down == [2, 3]

    def test_one_point_of_many_blocks_runs_in_process(self, monkeypatch, fake_pool):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        cfg = small_csms_config(trials=3 * harness.BLOCK_TRIALS)
        report = run_scenario(cfg, workers=4)
        assert fake_pool == []
        assert report.to_csv_text() == run_scenario(cfg, workers=1).to_csv_text()

    @pytest.mark.parametrize("workers", [0, -1, 2.7, 1.0, True, False, "2", None])
    def test_workers_below_one_rejected(self, workers):
        # Neither below one nor anything but an integer: 2.7 is not 2 workers, True not 1.
        with pytest.raises(ConfigError, match="workers"):
            run_scenario(small_csms_config(trials=8), workers=workers)

    def test_numpy_integer_workers_accepted(self, monkeypatch, fake_pool):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        cfg = small_csms_config(snr_grid_db=(10.0, 20.0), trials=8)
        assert run_scenario(cfg, workers=np.int64(2)).to_csv_text() == \
            run_scenario(cfg, workers=1).to_csv_text()
        assert fake_pool == [2]

    def test_single_task_runs_in_process(self, monkeypatch, fake_pool):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        run_scenario(small_csms_config(trials=harness.BLOCK_TRIALS), workers=4)
        assert fake_pool == []

    def test_unknown_cpu_count_runs_in_process(self, monkeypatch, fake_pool):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        run_scenario(small_csms_config(trials=64), workers=4)
        assert fake_pool == []


class TestPoolDispatch:
    @staticmethod
    def _mapped_pairs():
        [(fn, (cfgs, points))] = _InProcessPool.mapped
        assert fn is harness._point_row
        assert not any(isinstance(a, PointModel) for a in (*cfgs, *points))
        return list(zip(cfgs, points))

    def test_points_are_the_only_tasks(self, monkeypatch, fake_pool):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        # 3 points x 2 blocks: the blocks stay inside their point's task, which
        # the pool gets dearest first; the rows come back in report order.
        cfg = ScenarioConfig(scheme="CSMS", code_length=63, v_grid=(4, 30, 10), ev_n0_db=25.0,
                             trials=harness.BLOCK_TRIALS + 1, master_seed=7)
        report = run_scenario(cfg, workers=2)
        assert _InProcessPool.created == [2]
        points = scenario_points(cfg)
        assert self._mapped_pairs() == [(cfg, points[i]) for i in (1, 2, 0)]
        assert [row.n_elements for row in report.rows] == [4, 30, 10]
        assert report.to_csv_text() == run_scenario(cfg, workers=1).to_csv_text()

        # A figure: one map over every (config, point) pair, longest first, on the same pool.
        monkeypatch.setattr(_InProcessPool, "mapped", [])
        report = reproduce_figure("fig7", trials=2, workers=2)
        assert _InProcessPool.created == [2]
        in_report_order = [(c, p) for c in figure_configs("fig7", trials=2)
                           for p in scenario_points(c)]
        mapped = self._mapped_pairs()
        assert mapped == sorted(in_report_order, key=lambda pair: -harness._cost(*pair))
        assert [(p.code_length, p.n_elements) for _, p in mapped[:5]] == [
            (511, 511), (511, 500), (511, 485), (511, 408), (511, 306)]
        assert [(row.code_length, row.n_elements) for row in report.rows] == [
            (p.code_length, p.n_elements) for _, p in in_report_order]
        assert report.to_csv_text() == reproduce_figure("fig7", trials=2).to_csv_text()

    def test_tied_points_keep_report_order(self, monkeypatch, fake_pool):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        # An SNR sweep: every point costs the same.
        cfg = small_csms_config(snr_grid_db=(30.0, 10.0, 20.0), trials=3)
        report = run_scenario(cfg, workers=2)
        assert self._mapped_pairs() == [(cfg, p) for p in scenario_points(cfg)]
        assert report.to_csv_text() == run_scenario(cfg, workers=1).to_csv_text()


def _worker_blas_threads():
    return harness._openblas().scipy_openblas_get_num_threads64_()


def _write_report(cfg, path):
    path.write_text(run_scenario(cfg, workers=2).to_csv_text())


# Prints the pids of the process's pool workers, which tasks report, after a
# pooled call through the library or the CLI; with "wait", then waits to be killed.
POOL_PIDS_SCRIPT = """
import os, sys, time
os.cpu_count = lambda: 2
from arraycal import ScenarioConfig, cli, harness, run_scenario
if sys.argv[1] == "cli":
    code = cli.main(["reproduce", "fig7", "--trials", "2", "--workers", "2", "--out", os.devnull])
else:
    code = 0
    run_scenario(ScenarioConfig(scheme="CSMS", code_length=63, n_elements=4,
                                snr_grid_db=(20.0, 30.0), trials=8), workers=2)
pool = harness._pool[1]
print(*({pool.submit(os.getpid).result() for _ in range(8)} | set(pool._processes)), flush=True)
if sys.argv[1] == "wait":
    time.sleep(600)
sys.exit(code)
"""


def _alive(pid):
    """Whether process ``pid`` runs; a zombie that nobody reaps does not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    if not os.path.isdir("/proc"):  # a zombie cannot be told apart
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestWorkerPool:
    """The real pool: forked once per process, reused, one BLAS thread per worker."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)

    def test_consecutive_calls_start_one_pool(self, monkeypatch):
        started = []
        real = harness.ProcessPoolExecutor

        def counted(*args, **kwargs):
            started.append(kwargs["max_workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", counted)
        cfg = small_csms_config(snr_grid_db=(10.0, 20.0, 30.0), trials=8)
        first = run_scenario(cfg, workers=2).to_csv_text()
        assert run_scenario(cfg, workers=2).to_csv_text() == first
        assert started == [2]

    @pytest.mark.parametrize("entry", ["library", "cli"])
    def test_workers_gone_after_interpreter_exit(self, entry):
        child = _run_child(POOL_PIDS_SCRIPT, entry)
        assert child.returncode == 0, child.stderr
        pids = [int(pid) for pid in child.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_workers_exit_when_the_caller_is_killed(self, tmp_path):
        # Files, not pipes: a worker that outlived the child would hold a pipe open.
        out, err = tmp_path / "out", tmp_path / "err"
        with open(out, "w") as stdout, open(err, "w") as stderr:
            child = subprocess.Popen([sys.executable, "-c", POOL_PIDS_SCRIPT, "wait"],
                                     env=_child_env(), stdout=stdout, stderr=stderr)
        pids = []
        try:
            deadline = time.monotonic() + 120
            while not out.read_text().endswith("\n") and child.poll() is None:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            pids = [int(pid) for pid in out.read_text().split()]
            assert len(pids) == 2, err.read_text()
            child.kill()
            child.wait()
            deadline = time.monotonic() + 10
            while any(map(_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if _alive(pid)] == []
        finally:
            child.kill()
            child.wait()
            for pid in filter(_alive, pids):
                os.kill(pid, signal.SIGKILL)

    def test_killed_worker_fails_one_call(self):
        cfg = small_csms_config(snr_grid_db=(10.0, 20.0, 30.0), trials=8)
        expected = run_scenario(cfg, workers=2).to_csv_text()
        broken = harness._pool[1]
        os.kill(broken.submit(os.getpid).result(), signal.SIGKILL)
        deadline = time.monotonic() + 60
        while not broken._broken:  # until the pool has seen its worker die
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(BrokenProcessPool):
            run_scenario(cfg, workers=2)
        assert harness._pool is None
        assert run_scenario(cfg, workers=2).to_csv_text() == expected
        assert harness._pool[1] is not broken

    def test_forked_child_starts_its_own_pool(self, tmp_path):
        cfg = small_csms_config(snr_grid_db=(10.0, 20.0, 30.0), trials=8)
        expected = run_scenario(cfg, workers=2).to_csv_text()
        child = multiprocessing.get_context("fork").Process(
            target=_write_report, args=(cfg, tmp_path / "child.csv"))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0
        assert (tmp_path / "child.csv").read_text() == expected

    @pytest.mark.skipif(harness._openblas() is None, reason="numpy has no bundled OpenBLAS")
    def test_workers_run_one_blas_thread(self):
        lib = harness._openblas()
        before = lib.scipy_openblas_get_num_threads64_()
        run_scenario(small_csms_config(snr_grid_db=(10.0, 20.0), trials=8), workers=2)
        pool = harness._pool[1]
        assert {pool.submit(_worker_blas_threads).result() for _ in range(8)} == {1}
        assert lib.scipy_openblas_get_num_threads64_() == before

    @pytest.mark.parametrize("found", [[], [ctypes.util.find_library("c") or "libc.so.6"]],
                             ids=["no-library", "no-symbol"])
    def test_missing_blas_library_is_not_an_error(self, monkeypatch, found):
        harness._openblas.cache_clear()  # the library found before is remembered
        try:
            with monkeypatch.context() as patch:
                patch.setattr(harness.Path, "glob", lambda self, pattern: iter(found))
                assert harness._openblas() is None
                assert harness._set_blas_threads(1) is None
                cfg = small_csms_config(snr_grid_db=(10.0, 20.0), trials=8)
                assert run_scenario(cfg, workers=2).to_csv_text() == \
                    run_scenario(cfg, workers=1).to_csv_text()
        finally:
            harness._openblas.cache_clear()


# An OMA and a dense-filter CSMS scenario through the in-process path, whose
# receivers are BLAS products; the caller's BLAS thread count must be the same
# after each call as before it.
OMA_CSV_SCRIPT = """
from arraycal import ScenarioConfig, harness, run_scenario
before = harness._openblas().scipy_openblas_get_num_threads64_()
for scheme, length in (("OMA", 256), ("CSMS", 255)):
    cfg = ScenarioConfig(scheme=scheme, code_length=length, n_elements=50,
                         snr_grid_db=(10.0, 30.0), trials=200)
    print(run_scenario(cfg, workers=1).to_csv_text(), end="")
    assert harness._openblas().scipy_openblas_get_num_threads64_() == before
"""


@pytest.mark.skipif(harness._openblas() is None, reason="numpy has no bundled OpenBLAS")
class TestCallerBlasThreads:
    """The calling process runs each call at one BLAS thread and gets its count back."""

    @pytest.fixture(autouse=True)
    def two_blas_threads(self):
        # A count other than 1, so that a count left at 1 shows.
        previous = harness._set_blas_threads(2)
        yield
        harness._set_blas_threads(previous)

    @pytest.fixture
    def seen(self, monkeypatch):
        """The BLAS thread counts that tasks see, one per task."""
        counts = []
        point_row = harness._point_row

        def recording(cfg, point):
            counts.append(_worker_blas_threads())
            return point_row(cfg, point)

        monkeypatch.setattr(harness, "_point_row", recording)
        return counts

    def test_in_process_tasks_see_one_thread(self, seen):
        run_scenario(small_csms_config(snr_grid_db=(10.0, 20.0), trials=8), workers=1)
        run_scenario(small_csms_config(trials=8), workers=4)  # one task: in process
        assert seen == [1, 1, 1]
        assert _worker_blas_threads() == 2

    def test_pooled_call_holds_the_caller(self, monkeypatch, fake_pool, seen):
        # The fake pool maps in the calling process, as the caller sees it on the pooled path.
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        run_scenario(small_csms_config(snr_grid_db=(10.0, 20.0), trials=8), workers=2)
        assert fake_pool == [2]
        assert seen == [1, 1]
        assert _worker_blas_threads() == 2

    def test_count_restored_when_a_task_raises(self, monkeypatch):
        def failing(cfg, point):
            raise RuntimeError(f"task saw {_worker_blas_threads()} BLAS threads")

        monkeypatch.setattr(harness, "_point_row", failing)
        with pytest.raises(RuntimeError, match="task saw 1 BLAS threads"):
            run_scenario(small_csms_config(trials=8))
        assert _worker_blas_threads() == 2

    def test_count_restored_after_concurrent_calls(self, monkeypatch):
        # Calls from two threads run one after the other: the second call,
        # made while the first one's task waits, enters no task until the
        # first call has left.
        first_inside, second_calling = threading.Event(), threading.Event()
        point_row, log, reports = harness._point_row, [], {}

        def recording(cfg, point):
            name = threading.current_thread().name
            log.append((name, "enter", _worker_blas_threads()))
            if name == "first" and point.index == 0:
                first_inside.set()
                assert second_calling.wait(60)
                time.sleep(0.1)  # time for the second call to reach a task
            row = point_row(cfg, point)
            log.append((name, "leave"))
            return row

        def call():
            name = threading.current_thread().name
            if name == "second":
                second_calling.set()
            reports[name] = run_scenario(cfg).to_csv_text()

        monkeypatch.setattr(harness, "_point_row", recording)
        cfg = small_csms_config(snr_grid_db=(10.0, 20.0), trials=8)
        first, second = (threading.Thread(target=call, name=name) for name in ("first", "second"))
        first.start()
        assert first_inside.wait(60)
        second.start()
        for thread in (first, second):
            thread.join(120)
            assert not thread.is_alive()
        assert [entry[0] for entry in log] == ["first"] * 4 + ["second"] * 4
        assert [entry[2] for entry in log if entry[1] == "enter"] == [1] * 4
        assert reports["first"] == reports["second"]
        assert _worker_blas_threads() == 2

    def test_count_restored_after_nested_call(self, monkeypatch):
        # A task that makes a call of its own re-enters the lock; the inner
        # call gives the outer one back its one thread.
        point_row, inner, seen = harness._point_row, small_csms_config(trials=8), []

        def nesting(cfg, point):
            if cfg is inner:
                seen.append(("inner", _worker_blas_threads()))
            else:
                assert len(run_scenario(inner).rows) == 1
                seen.append(("outer", _worker_blas_threads()))
            return point_row(cfg, point)

        monkeypatch.setattr(harness, "_point_row", nesting)
        report = run_scenario(small_csms_config(snr_grid_db=(10.0, 20.0), trials=8))
        assert len(report.rows) == 2
        assert seen == [("inner", 1), ("outer", 1)] * 2
        assert _worker_blas_threads() == 2

    def test_many_threads_many_calls(self, seen):
        # More threads than CPUs and frequent switches: a call that restored
        # the count under another running call, or not at all, would show.
        cfg, reports = small_csms_config(trials=8), []

        def calls():
            reports.extend(run_scenario(cfg).to_csv_text() for _ in range(5))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=calls) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(reports) == 40 and len(set(reports)) == 1
        assert seen == [1] * 40
        assert _worker_blas_threads() == 2

    def test_oma_bytes_independent_of_caller_blas_threads(self):
        # The thread count is set only in the environment of the children.
        outputs = []
        for threads in ("1", "2"):
            child = _run_child(OMA_CSV_SCRIPT, OPENBLAS_NUM_THREADS=threads)
            assert child.returncode == 0, child.stderr
            outputs.append(child.stdout)
        assert outputs[0].count("\n") == 6
        assert outputs[0] == outputs[1]


# Where perfbench/tracer.py wraps the program: names harness looks up in its own
# namespace, and the theory functions it calls as ``accuracy.<name>``.
TRACED_HARNESS_NAMES = ("rng_stream", "complex_awgn", "csms_clean_stream", "csms_peaks",
                        "zf_equalize", "extract_mismatch", "wrap_degrees", "msequence_code",
                        "walsh_matrix", "ProcessPoolExecutor")
TRACED_THEORY_NAMES = ("oma_noise_stats", "csms_peak_noise_cov", "csms_gain_noise_stats",
                       "theory_point", "average_rmse")
# Traced names the run no longer calls: the readout de-rotates by the truth
# instead of wrapping a difference of phases.
UNCALLED_TRACED_NAMES = ("wrap_degrees",)


def test_every_traced_name_is_in_its_namespace():
    # The tracer patches each name through the owner's __dict__; a missing one
    # stops every traced run.
    assert [n for n in TRACED_HARNESS_NAMES if n not in harness.__dict__] == []
    assert [n for n in TRACED_THEORY_NAMES if n not in harness.accuracy.__dict__] == []


def test_figure_run_calls_every_traced_name(monkeypatch, fake_pool):
    # A name the run stops calling would read 0 in its per-layer benchmark line.
    # The first run fills the code caches, so the counted one is a warm run that
    # starts its own pool.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    reproduce_figure("fig7", trials=2, workers=2)
    harness._close_pool()
    called = [n for n in TRACED_HARNESS_NAMES if n not in UNCALLED_TRACED_NAMES]
    calls = dict.fromkeys((*called, *TRACED_THEORY_NAMES), 0)

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in called:
        count(harness, name)
    for name in TRACED_THEORY_NAMES:
        count(harness.accuracy, name)
    reproduce_figure("fig7", trials=2, workers=2)
    assert [name for name, n in calls.items() if n == 0] == []


class TestRunScenario:
    def test_zero_noise_report(self):
        cfg = small_csms_config(snr_grid_db=(float("inf"),), trials=1)
        row = run_scenario(cfg).rows[0]
        assert row.gain_rmse_sim_db < 1e-12
        assert row.phase_rmse_sim_deg < 1e-12
        assert row.gain_rmse_theory_db == 0.0
        assert row.phase_rmse_theory_deg == 0.0
        assert row.gain_rmse_sim_stderr == 0.0

    def test_stderr_positive_for_noisy_runs(self):
        row = run_scenario(small_csms_config()).rows[0]
        assert row.gain_rmse_sim_stderr > 0
        assert row.phase_rmse_sim_stderr > 0

    def test_stderr_is_calibrated_and_has_a_small_spread(self):
        # OMA's rho is 0, so the true RMSE does not depend on each seed's
        # phases: the seeds' RMSEs scatter by the true standard error alone.
        # A standard deviation of K near-normal draws has relative spread
        # s = 1 / sqrt(2 (K - 1)), 0.071 here, so both bounds sit 4 s out.
        # y_t is to first order a positive quadratic form in the Gaussian
        # noise, whose kurtosis is at most a chi-square(1)'s 15, so the
        # linearized SE's own coefficient of variation is at most
        # sqrt((15 - 1) / (4 T)) = 0.059.  Batch means of B = 25 spread by
        # 1 / sqrt(2 (B - 1)) = 0.144, beyond the bound.
        seeds, trials = 100, 1000
        rows = [run_scenario(ScenarioConfig(scheme="OMA", code_length=16, n_elements=8,
                                            snr_grid_db=(20.0,), trials=trials,
                                            master_seed=seed)).rows[0]
                for seed in range(seeds)]
        s = 1.0 / math.sqrt(2 * (seeds - 1))
        for rmse, se in (("gain_rmse_sim_db", "gain_rmse_sim_stderr"),
                         ("phase_rmse_sim_deg", "phase_rmse_sim_stderr")):
            values = np.array([getattr(row, rmse) for row in rows])
            stderrs = np.array([getattr(row, se) for row in rows])
            assert abs(stderrs.mean() / values.std(ddof=1) - 1) < 4 * s
            spread = stderrs.std(ddof=1) / stderrs.mean()
            assert spread < math.sqrt(14 / (4 * trials)) * (1 + 4 * s)

    def test_report_row_fields(self):
        cfg = small_csms_config()
        row = run_scenario(cfg).rows[0]
        assert row.scheme == "CSMS"
        assert (row.n_elements, row.code_length) == (6, 63)
        assert row.trials == 64 and row.seed == 7

    def test_workers_do_not_change_report(self):
        cfg = small_csms_config(trials=64)
        serial = run_scenario(cfg, workers=1).to_csv_text()
        parallel = run_scenario(cfg, workers=2).to_csv_text()
        assert serial == parallel

    @pytest.mark.parametrize("phase_policy", harness.PHASE_POLICIES)
    def test_workers_do_not_change_report_across_blocks(self, phase_policy):
        cfg = small_csms_config(snr_grid_db=(10.0, 20.0, 30.0), phase_policy=phase_policy,
                                trials=2 * harness.BLOCK_TRIALS + 3)
        assert run_scenario(cfg, workers=1).to_csv_text() == \
            run_scenario(cfg, workers=2).to_csv_text()

    def test_rerun_is_byte_identical(self):
        cfg = small_csms_config()
        assert run_scenario(cfg).to_csv_text() == run_scenario(cfg).to_csv_text()

    def test_oma_rmse_monotone_in_snr(self):
        cfg = ScenarioConfig(scheme="OMA", code_length=64, n_elements=8,
                             snr_grid_db=(10.0, 20.0, 30.0), trials=2000,
                             master_seed=13)
        rows = run_scenario(cfg).rows
        for prev, cur in zip(rows, rows[1:]):
            # decrease by clearly more than two combined standard errors
            assert cur.gain_rmse_sim_db < prev.gain_rmse_sim_db \
                - 2 * (cur.gain_rmse_sim_stderr + prev.gain_rmse_sim_stderr)
            assert cur.phase_rmse_sim_deg < prev.phase_rmse_sim_deg \
                - 2 * (cur.phase_rmse_sim_stderr + prev.phase_rmse_sim_stderr)

    def test_results_do_not_depend_on_the_polynomial_choice(self):
        # Any maximal polynomial gives the same two-valued periodic
        # autocorrelation, so the equalizer and the noise-free behavior are
        # identical.  The residual polynomial dependence (through the noise
        # window overlaps) is negligible while V is well below L; the theory
        # column tracks whichever sequence is in use, so each run must also
        # match its own prediction.
        rows = {}
        for taps in ((7, 6, 3, 1), (7, 4)):
            cfg = ScenarioConfig(scheme="CSMS", code_length=127, n_elements=50,
                                 snr_grid_db=(20.0,), trials=4000, master_seed=5,
                                 taps=taps)
            rows[taps] = run_scenario(cfg).rows[0]
        for row in rows.values():
            assert abs(row.gain_rmse_sim_db / row.gain_rmse_theory_db - 1) < 0.05
            assert abs(row.phase_rmse_sim_deg / row.phase_rmse_theory_deg - 1) < 0.05
        a, b = rows.values()
        assert abs(a.gain_rmse_sim_db / b.gain_rmse_sim_db - 1) < 0.03
        assert abs(a.phase_rmse_sim_deg / b.phase_rmse_sim_deg - 1) < 0.03

    def test_oma_and_csms_agree_with_theory_loosely(self):
        # 3000 trials keeps this quick; the tight agreement bound is in the
        # acceptance suite.
        for cfg in (ScenarioConfig(scheme="OMA", code_length=64, n_elements=8,
                                   snr_grid_db=(25.0,), trials=3000, master_seed=3),
                    ScenarioConfig(scheme="CSMS", code_length=63, n_elements=8,
                                   snr_grid_db=(25.0,), trials=3000, master_seed=3)):
            row = run_scenario(cfg).rows[0]
            assert abs(row.gain_rmse_sim_db / row.gain_rmse_theory_db - 1) < 0.1
            assert abs(row.phase_rmse_sim_deg / row.phase_rmse_theory_deg - 1) < 0.1


class TestCsvFormat:
    def test_exact_column_order(self):
        assert CSV_COLUMNS == ["scheme", "V", "L", "ev_n0_db",
                               "gain_rmse_theory_db", "gain_rmse_sim_db",
                               "gain_rmse_sim_stderr",
                               "phase_rmse_theory_deg", "phase_rmse_sim_deg",
                               "phase_rmse_sim_stderr", "trials", "seed"]

    def test_header_line(self):
        text = run_scenario(small_csms_config()).to_csv_text()
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_write_csv_to_path(self, tmp_path):
        out = tmp_path / "report.csv"
        report = run_scenario(small_csms_config())
        report.write_csv(out)
        assert out.read_text() == report.to_csv_text()

    def test_values_round_trip(self):
        import csv as csv_mod
        import io
        report = run_scenario(small_csms_config())
        reader = csv_mod.DictReader(io.StringIO(report.to_csv_text()))
        row = next(reader)
        assert float(row["gain_rmse_sim_db"]) == report.rows[0].gain_rmse_sim_db
        assert int(row["trials"]) == 64


class TestFigures:
    def test_unknown_figure(self):
        with pytest.raises(UnknownFigure):
            reproduce_figure("fig9")

    def test_fig56_grid_layout(self):
        configs = figure_configs("fig5")
        assert len(configs) == 6
        assert all(cfg.n_elements == 50 for cfg in configs)
        assert [(c.scheme, c.code_length) for c in configs] == [
            ("OMA", 64), ("OMA", 128), ("OMA", 256),
            ("CSMS", 63), ("CSMS", 127), ("CSMS", 255)]
        assert all(cfg.snr_grid_db == tuple(range(10, 41, 5)) for cfg in configs)
        assert figure_configs("fig6") == configs

    def test_fig78_grid_layout(self):
        configs = figure_configs("fig7")
        assert configs[0].scheme == "OMA" and configs[0].code_length == 512
        swept = {}
        for cfg in configs[1:]:
            assert cfg.scheme == "CSMS" and cfg.ev_n0_db == 30.0
            swept.setdefault(cfg.code_length, []).extend(cfg.v_grid)
        assert sorted(swept) == [127, 255, 511]
        for length, vs in swept.items():
            assert max(vs) == length
            assert min(vs) == int(0.2 * length)
        assert 500 in swept[511]
        assert all(cfg.trials == harness.DEFAULT_TRIALS for cfg in configs)
        assert figure_configs("fig8") == configs

    @pytest.mark.parametrize("name", harness.FIGURE_NAMES)
    def test_zero_trials_rejected(self, name):
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            figure_configs(name, trials=0)

    def test_reproduce_smoke(self):
        report = reproduce_figure("fig5", trials=3, master_seed=11)
        assert len(report.rows) == 42
        text = report.to_csv_text()
        assert text.startswith("# fig5")
        assert text.splitlines()[1] == ",".join(CSV_COLUMNS)

    def test_reproduce_trials_override(self):
        report = reproduce_figure("fig7", trials=2, master_seed=11)
        assert all(row.trials == 2 for row in report.rows)


def test_rng_stream_is_deterministic():
    a = rng_stream(5, 1, 2).standard_normal(4)
    b = rng_stream(5, 1, 2).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = rng_stream(5, 1, 3).standard_normal(4)
    assert not np.array_equal(a, c)


def test_grid_point_is_plain_data():
    p = GridPoint(index=0, scheme="OMA", n_elements=4, code_length=64, ev_n0_db=10.0)
    assert p.index == 0


NO_SCIPY_SCRIPT = """
import sys
from arraycal import ScenarioConfig, run_scenario, theory_point
from arraycal.harness import PointModel, scenario_points
for scheme, length in (("OMA", 64), ("CSMS", 63)):
    run_scenario(ScenarioConfig(scheme=scheme, code_length=length, n_elements=4,
                                snr_grid_db=(20.0,), trials=8))
cfg = ScenarioConfig(scheme="CSMS", code_length=63, n_elements=4, snr_grid_db=(10.0, 20.0),
                     trials=8)
for workers in (1, 2):
    run_scenario(cfg, workers=workers)
model = PointModel.build(cfg, scenario_points(cfg)[0])
theory_point(model.gains, model.noise_stats())
assert "scipy" not in sys.modules
"""


def _child_env(**extra):
    """This environment plus ``extra``, with this checkout's arraycal on the path."""
    src = os.path.dirname(os.path.dirname(arraycal.__file__))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_child(script, *args, **env):
    """Run ``script`` in a child interpreter that imports this checkout's arraycal."""
    return subprocess.run([sys.executable, "-c", script, *args], env=_child_env(**env),
                          capture_output=True, text=True, timeout=120)


def test_scenarios_run_without_scipy():
    # A child interpreter, so that no module this test process loaded counts:
    # the library needs numpy alone, in process, on the pool and in the theory.
    child = _run_child(NO_SCIPY_SCRIPT)
    assert child.returncode == 0, child.stderr


def test_readme_quick_start_runs():
    # The README's first python block, run as a reader would paste it.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    child = _run_child(block)
    assert child.returncode == 0, child.stderr
    assert ",".join(CSV_COLUMNS) in child.stdout.splitlines()
