import ctypes.util
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

import numpy as np
import pytest

import arraycal
from arraycal import harness
from arraycal.codes import msequence_code
from arraycal.errors import ArrayCalError, ConfigError, NonMaximalPolynomial, UnknownFigure
from arraycal.harness import (CSV_COLUMNS, GridPoint, PointModel, RmseReport, ScenarioConfig,
                              figure_configs, reproduce_figure, rng_stream, run_scenario,
                              run_trial, scenario_points)
from oracles import build_correlation_matrix


def _wrap_deg(angle):
    wrapped = (np.asarray(angle) + 180.0) % 360.0 - 180.0
    return np.where(wrapped == -180.0, 180.0, wrapped)


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
        with pytest.raises(Exception):
            ScenarioConfig(scheme="CSMS", code_length=60, n_elements=4,
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
        with pytest.raises(NonMaximalPolynomial):
            small_csms_config(taps=(6, 3))

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
    ], ids=["trials-str", "snr_grid-number", "snr_grid-str", "v_grid-str", "ev_n0-str",
            "taps-str-entry", "link_budget-str-field", "link_budget-str",
            "link_budget-numeric-str-field", "link_budget-bool-field",
            "link_budget-numeric-str-boltzmann"])
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

    @pytest.mark.parametrize("path_loss_db", [math.nan, math.inf])
    def test_non_finite_link_budget_rejected(self, path_loss_db):
        raw = {"scheme": "OMA", "code_length": 64, "v_grid": [4],
               "link_budget": {"eirp_dbw": 10.0, "path_loss_db": path_loss_db,
                               "g_over_t_dbk": 30.0, "ts_seconds": 1e-3}}
        with pytest.raises(ConfigError, match="ev_n0_db"):
            ScenarioConfig.from_dict(raw)

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
        # keyed [seed, point, 1 + block]; its real (6, n) normals come
        # before its imaginary (6, n) normals.
        cfg = ScenarioConfig(scheme="OMA", code_length=2, n_elements=2,
                             snr_grid_db=(30.0,), trials=70, master_seed=99)
        point = scenario_points(cfg)[0]
        gain_err, phase_err = run_trial(cfg, point, 66)

        phases = np.random.default_rng([99, 0, 0]).uniform(0.0, 2.0 * np.pi, 2)
        rng = np.random.default_rng([99, 0, 2])
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
        rng = np.random.default_rng([99, 0, 2])
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
    ], ids=["OMA", "CSMS", "CSMS-per-trial", "CSMS-3-blocks", "CSMS-per-trial-3-blocks"])
    def test_run_trial_reproduces_report_row(self, cfg):
        # Every column sums each element's squared errors trial by trial, in
        # trial order, also across blocks.
        point = scenario_points(cfg)[0]
        errors = [run_trial(cfg, point, t) for t in range(cfg.trials)]
        gain_sq = np.array([g**2 for g, _ in errors])
        phase_sq = np.array([p**2 for _, p in errors])
        edges = np.linspace(0, cfg.trials, harness.STDERR_BATCHES + 1).astype(int)

        def rmse(sq):
            acc = np.zeros(sq.shape[1])
            for row in sq:
                acc += row
            return float(np.sqrt(acc / len(sq)).mean())

        def stderr(sq):
            batches = np.array([rmse(sq[a:b]) for a, b in zip(edges[:-1], edges[1:])])
            return float(batches.std(ddof=1) / np.sqrt(len(batches)))

        row = run_scenario(cfg).rows[0]
        assert row.gain_rmse_sim_db == rmse(gain_sq)
        assert row.phase_rmse_sim_deg == rmse(phase_sq)
        assert row.gain_rmse_sim_stderr == stderr(gain_sq)
        assert row.phase_rmse_sim_stderr == stderr(phase_sq)

    def test_point_memory_is_bounded_by_its_squared_error_buffer(self):
        # The point's (2, trials, V-1) buffer is the only array of trials x V
        # size: blocks are squared into it and reduced in place.
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
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])
        assert fresh[1][0].shape == (harness.BLOCK_TRIALS - 5, 5)
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
    def test_points_are_the_only_tasks(self, monkeypatch, fake_pool):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        # 3 points x 2 blocks: the blocks stay inside their point's task.
        cfg = small_csms_config(snr_grid_db=(10.0, 20.0, 30.0),
                                trials=harness.BLOCK_TRIALS + 1)
        report = run_scenario(cfg, workers=2)
        [(fn, (cfgs, points))] = _InProcessPool.mapped
        assert _InProcessPool.created == [2]
        assert fn is harness._point_row
        assert cfgs == [cfg] * 3
        assert points == scenario_points(cfg)
        assert not any(isinstance(a, PointModel) for a in (*cfgs, *points))
        assert report.to_csv_text() == run_scenario(cfg, workers=1).to_csv_text()

        # A figure: one map over every (config, point) pair in report order, on the same pool.
        monkeypatch.setattr(_InProcessPool, "mapped", [])
        report = reproduce_figure("fig7", trials=2, workers=2)
        [(fn, (cfgs, points))] = _InProcessPool.mapped
        assert _InProcessPool.created == [2]
        assert fn is harness._point_row
        assert list(zip(cfgs, points)) == [(c, p) for c in figure_configs("fig7", trials=2)
                                           for p in scenario_points(c)]
        assert report.to_csv_text() == reproduce_figure("fig7", trials=2).to_csv_text()


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


# An OMA scenario through the in-process path, whose receiver is a BLAS product;
# the caller's BLAS thread count must be the same after the call as before it.
OMA_CSV_SCRIPT = """
from arraycal import ScenarioConfig, harness, run_scenario
before = harness._openblas().scipy_openblas_get_num_threads64_()
cfg = ScenarioConfig(scheme="OMA", code_length=256, n_elements=50,
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
        assert outputs[0].count("\n") == 3
        assert outputs[0] == outputs[1]


# Where perfbench/tracer.py wraps the program: names harness looks up in its own
# namespace, and the theory functions it calls as ``accuracy.<name>``.
TRACED_HARNESS_NAMES = ("rng_stream", "complex_awgn", "csms_clean_stream", "csms_peaks",
                        "zf_equalize", "extract_mismatch", "wrap_degrees", "msequence_code",
                        "walsh_matrix", "ProcessPoolExecutor")
TRACED_THEORY_NAMES = ("oma_noise_stats", "csms_peak_noise_cov", "csms_gain_noise_stats",
                       "theory_point", "average_rmse")


def test_figure_run_calls_every_traced_name(monkeypatch, fake_pool):
    # A name the run stops calling would read 0 in its per-layer benchmark line.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    calls = dict.fromkeys((*TRACED_HARNESS_NAMES, *TRACED_THEORY_NAMES), 0)

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in TRACED_HARNESS_NAMES:
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
from arraycal import ScenarioConfig, run_scenario
for scheme, length in (("OMA", 64), ("CSMS", 63)):
    run_scenario(ScenarioConfig(scheme=scheme, code_length=length, n_elements=4,
                                snr_grid_db=(20.0,), trials=8))
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
    # A child interpreter, so that no module this test process loaded counts.
    child = _run_child(NO_SCIPY_SCRIPT)
    assert child.returncode == 0, child.stderr
