import json

import numpy as np
import pytest

from arraycal.cli import main
from arraycal.codes import msequence_code
from arraycal.harness import DEFAULT_SEED, ScenarioConfig, figure_configs, run_scenario
from arraycal.receiver import csms_matched_filter


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCodesCommands:
    def test_gen_msequence_bits(self, capsys):
        code, out, _ = run_cli(capsys, "codes", "gen", "--kind", "msequence",
                               "--degree", "3", "--taps", "3,1")
        assert code == 0
        bits = [int(line) for line in out.strip().splitlines()]
        assert len(bits) == 7 and sum(bits) == 4

    def test_gen_msequence_bipolar_chips(self, capsys):
        code, out, _ = run_cli(capsys, "codes", "gen", "--degree", "3",
                               "--taps", "3,1", "--bipolar")
        chips = np.array([float(line) for line in out.strip().splitlines()])
        assert chips.size == 7
        assert np.dot(chips, chips) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("fmt", ["chips", "csv"])
    def test_gen_msequence_bits_print_as_integers(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "codes", "gen", "--degree", "3", "--taps", "3,1",
                               "--format", fmt)
        assert code == 0
        values = out.split() if fmt == "chips" else out.strip().split(",")
        assert len(values) == 7 and set(values) == {"0", "1"}

    def test_gen_msequence_bipolar_csv_prints_floats(self, capsys):
        code, out, _ = run_cli(capsys, "codes", "gen", "--degree", "3", "--taps", "3,1",
                               "--bipolar", "--format", "csv")
        assert code == 0
        values = out.strip().split(",")
        assert len(values) == 7
        assert all(v == repr(float(v)) and abs(float(v)) < 1 for v in values)

    def test_gen_walsh_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "codes", "gen", "--kind", "walsh",
                               "--length", "4", "--count", "3", "--format", "csv")
        assert code == 0
        rows = [np.array([float(x) for x in line.split(",")])
                for line in out.strip().splitlines()]
        assert len(rows) == 3 and all(r.size == 4 for r in rows)
        matrix = np.stack(rows, axis=1)
        np.testing.assert_allclose(matrix.T @ matrix, np.eye(3), atol=1e-12)

    def test_gen_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "code.txt"
        code, out, _ = run_cli(capsys, "codes", "gen", "--degree", "4",
                               "--out", str(out_path))
        assert code == 0 and out == ""
        assert len(out_path.read_text().strip().splitlines()) == 15

    def test_check_good_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "codes", "check", "--degree", "6")
        assert code == 0
        assert "balance: ok" in out and "off-peak autocorrelation == -1/L: ok" in out

    def test_check_bad_polynomial_fails(self, capsys):
        code, _, err = run_cli(capsys, "codes", "check", "--degree", "3",
                               "--taps", "3")
        assert code == 2
        assert "error" in err


class TestTheoryEval:
    def test_oma_spot_value(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "eval", "--scheme", "OMA",
                               "--elements", "8", "--length", "64",
                               "--ev-n0-db", "30")
        assert code == 0
        phase_line = [l for l in out.splitlines() if l.startswith("phase RMSE")][0]
        assert float(phase_line.split(":")[1].split()[0]) == pytest.approx(1.81185, abs=1e-4)

    def test_csms_reports_larger_rmse_for_crowded_code(self, capsys):
        _, out_oma, _ = run_cli(capsys, "theory", "eval", "--scheme", "OMA",
                                "--elements", "50", "--length", "64",
                                "--ev-n0-db", "20")
        _, out_csms, _ = run_cli(capsys, "theory", "eval", "--scheme", "CSMS",
                                 "--elements", "50", "--length", "63",
                                 "--ev-n0-db", "20")
        take = lambda text: float([l for l in text.splitlines()
                                   if l.startswith("gain RMSE")][0].split(":")[1].split()[0])
        assert take(out_csms) > take(out_oma)

    def test_exact_lines_are_the_report_theory_columns(self, capsys):
        # Far outside its regime the closed form's phase RMSE would be 4389 deg,
        # so it prints as outside it; the exact model stays a possible angle,
        # the one a report prints.
        code, out, _ = run_cli(capsys, "theory", "eval", "--scheme", "CSMS",
                               "--elements", "63", "--length", "63", "--ev-n0-db", "-20")
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.splitlines()[1:])
        assert lines["phase RMSE (element-averaged)"] == "outside the high-SNR expansion's regime"
        gain = lines["exact gain RMSE (element-averaged)"].split()
        phase = lines["exact phase RMSE (element-averaged)"].split()
        assert gain[1] == "dB" and phase[1] == "deg"
        assert float(phase[0]) <= 180.0
        cfg = ScenarioConfig(scheme="CSMS", code_length=63, n_elements=63,
                             snr_grid_db=(-20.0,), master_seed=DEFAULT_SEED, trials=1)
        row = run_scenario(cfg).rows[0]
        assert gain[0] == repr(row.gain_rmse_theory_db)
        assert phase[0] == repr(row.phase_rmse_theory_deg)

    def test_point_outside_the_expansion_regime_prints_the_exact_model(self, capsys):
        # The closed form's phase radicand is -60 here; the exact model has the
        # report's theory columns, and the point is a valid one.
        code, out, err = run_cli(capsys, "theory", "eval", "--scheme", "CSMS",
                                 "--elements", "127", "--length", "127", "--ev-n0-db", "5")
        assert code == 0 and err == ""
        lines = dict(line.split(": ", 1) for line in out.splitlines()[1:])
        outside = "outside the high-SNR expansion's regime"
        assert lines["gain RMSE (element-averaged)"] == outside
        assert lines["phase RMSE (element-averaged)"] == outside
        cfg = ScenarioConfig(scheme="CSMS", code_length=127, n_elements=127,
                             snr_grid_db=(5.0,), master_seed=DEFAULT_SEED, trials=1)
        row = run_scenario(cfg).rows[0]
        assert lines["exact gain RMSE (element-averaged)"] == f"{row.gain_rmse_theory_db!r} dB"
        assert lines["exact phase RMSE (element-averaged)"] == f"{row.phase_rmse_theory_deg!r} deg"

    @pytest.mark.parametrize("ev_n0_db, gain", [("-20", "9.90377 dB"), ("-10", "9.49887 dB")])
    def test_closed_form_phase_above_180_deg_is_outside_its_regime(self, capsys, ev_n0_db, gain):
        # The closed form's phase RMSE reads 572.958 deg at -20 dB and 181.185 deg
        # at -10 dB, which no error in (-180, 180] deg has; its gain line stays.
        code, out, err = run_cli(capsys, "theory", "eval", "--scheme", "OMA",
                                 "--elements", "50", "--length", "64", "--ev-n0-db", ev_n0_db)
        assert code == 0 and err == ""
        lines = dict(line.split(": ", 1) for line in out.splitlines()[1:])
        assert lines["gain RMSE (element-averaged)"] == gain
        assert lines["phase RMSE (element-averaged)"] == "outside the high-SNR expansion's regime"
        assert float(lines["exact phase RMSE (element-averaged)"].split()[0]) <= 180.0

    def test_in_regime_output_is_unchanged(self, capsys):
        code, out, err = run_cli(capsys, "theory", "eval", "--scheme", "OMA",
                                 "--elements", "50", "--length", "64", "--ev-n0-db", "30")
        assert code == 0 and err == ""
        assert out == ("scheme=OMA V=50 L=64 EvN0=30.0 dB\n"
                       "gain RMSE (element-averaged): 0.274637 dB\n"
                       "phase RMSE (element-averaged): 1.81185 deg\n"
                       "exact gain RMSE (element-averaged): 0.274740698757994 dB\n"
                       "exact phase RMSE (element-averaged): 1.8123051472266887 deg\n")

    @pytest.mark.parametrize("argv", [
        ["--scheme", "OMA", "--elements", "8", "--length", "63"],
        ["--scheme", "OMA", "--elements", "100", "--length", "64"],
        ["--scheme", "OMA", "--elements", "8", "--length", "64", "--taps", "6,5"],
        ["--scheme", "CSMS", "--elements", "64", "--length", "63"],
    ], ids=["oma-odd-length", "oma-too-many-elements", "oma-taps", "csms-too-many-elements"])
    def test_rejects_what_simulate_rejects(self, capsys, argv):
        code, out, err = run_cli(capsys, "theory", "eval", *argv, "--ev-n0-db", "20")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_rejects_nan_snr(self, capsys):
        code, _, err = run_cli(capsys, "theory", "eval", "--scheme", "CSMS",
                               "--elements", "8", "--length", "63", "--ev-n0-db", "nan")
        assert code == 2 and err.startswith("error:")


class TestSimulate:
    def write_config(self, tmp_path, **overrides):
        raw = {"scheme": "CSMS", "code_length": 63, "n_elements": 5,
               "snr_grid_db": [25.0], "trials": 40, "master_seed": 3}
        raw.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        return path

    def test_simulate_stdout(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        code, out, _ = run_cli(capsys, "simulate", str(cfg))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("scheme,V,L,")
        assert len(lines) == 2

    def test_simulate_overrides(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out_path = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "simulate", str(cfg), "--trials", "10",
                             "--seed", "42", "--out", str(out_path))
        assert code == 0
        last = out_path.read_text().strip().splitlines()[-1]
        assert last.endswith(",10,42")

    def test_simulate_bad_config_reports_error(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, scheme="XMA")
        code, _, err = run_cli(capsys, "simulate", str(cfg))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("snr", [float("nan"), float("-inf")])
    def test_simulate_non_finite_snr_reports_error(self, capsys, tmp_path, snr):
        cfg = self.write_config(tmp_path, snr_grid_db=[25.0, snr])
        code, out, err = run_cli(capsys, "simulate", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("overrides", [
        {"snr_grid_db": None, "v_grid": [4, 8], "ev_n0_db": 25.0},
        {"ev_n0_db": 25.0},
    ], ids=["n_elements+v_grid", "ev_n0_db+snr_grid_db"])
    def test_simulate_field_of_other_grid_reports_error(self, capsys, tmp_path, overrides):
        cfg = self.write_config(tmp_path, **overrides)
        code, out, err = run_cli(capsys, "simulate", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("overrides", [
        {"trials": "x"},
        {"snr_grid_db": 10},
        {"n_elements": None, "snr_grid_db": None, "v_grid": "abc", "ev_n0_db": 25.0},
        {"n_elements": None, "snr_grid_db": None, "v_grid": [4],
         "link_budget": {"eirp_dbw": "x", "path_loss_db": 200.0, "g_over_t_dbk": 30.0,
                         "ts_seconds": 1e-3}},
        {"n_elements": None, "snr_grid_db": None, "v_grid": [4],
         "link_budget": {"eirp_dbw": "10", "path_loss_db": 200.0, "g_over_t_dbk": 30.0,
                         "ts_seconds": 1e-3}},
    ], ids=["trials-str", "snr_grid-number", "v_grid-str", "link_budget-str",
            "link_budget-numeric-str"])
    def test_simulate_wrong_typed_field_reports_error(self, capsys, tmp_path, overrides):
        cfg = self.write_config(tmp_path, **overrides)
        code, out, err = run_cli(capsys, "simulate", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                             ids=["missing", "malformed", "not-an-object"])
    def test_simulate_unreadable_file_reports_error(self, capsys, tmp_path, content):
        path = tmp_path / "scenario.json"
        if content is not None:
            path.write_text(content)
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "scenario.json" in err

    @pytest.mark.parametrize("command", ["simulate", "reproduce"])
    def test_workers_below_one_reports_error(self, capsys, tmp_path, command):
        target = str(self.write_config(tmp_path)) if command == "simulate" else "fig5"
        code, out, err = run_cli(capsys, command, target, "--trials", "2", "--workers", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "workers" in err

    def test_workers_byte_identical_small(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, trials=32)
        outputs = []
        for workers in ("1", "2"):
            out_path = tmp_path / f"report_{workers}.csv"
            code, _, _ = run_cli(capsys, "simulate", str(cfg), "--workers", workers,
                                 "--out", str(out_path))
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]


class TestReproduce:
    def test_reproduce_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "fig7.csv"
        code, _, _ = run_cli(capsys, "reproduce", "fig7", "--trials", "2",
                             "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# fig7")
        assert lines[1].startswith("scheme,V,L,")
        assert len(lines) > 10

    def test_fig7_is_byte_identical_at_one_and_two_workers(self, capsys, tmp_path):
        # The grid straddles the matched filter's switch: its CSMS points use
        # both the dense filter and the FFT one.
        forms = {csms_matched_filter(msequence_code(cfg.code_length), v).ndim
                 for cfg in figure_configs("fig7")[1:] for v in cfg.v_grid}
        assert forms == {1, 2}
        outputs = []
        for workers in ("1", "2"):
            out_path = tmp_path / f"fig7_{workers}.csv"
            code, _, _ = run_cli(capsys, "reproduce", "fig7", "--trials", "200",
                                 "--workers", workers, "--out", str(out_path))
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_reproduce_trials_below_one_reports_error(self, capsys, trials):
        code, out, err = run_cli(capsys, "reproduce", "fig5", "--trials", trials)
        assert code == 2 and out == ""
        assert err == "error: trials must be >= 1\n"

    def test_reproduce_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig12"])
