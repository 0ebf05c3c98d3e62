"""Acceptance suite: one test per criterion, each printing a pass/fail line, and a
simulation-against-theory check over both figure grids.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  The figure grids are simulated once per session at their full
trial counts on 2 workers, which give the bytes of 1 worker.
"""

import json
import time

import numpy as np
import pytest

from arraycal.channel import ElementGains, complex_awgn, csms_clean_stream
from arraycal.cli import main as cli_main
from arraycal.codes import (generate_msequence, msequence_code, periodic_autocorrelation,
                            to_bipolar, walsh_matrix)
from arraycal.harness import ScenarioConfig, reproduce_figure, run_scenario
from arraycal.receiver import (ZfEqualizer, csms_peaks, extract_mismatch, oma_estimate,
                               zf_equalize)
from arraycal.theory import oma_noise_stats, phase_rmse_theory, theory_point
from oracles import (OversampledWaveform, build_correlation_matrix,
                     chip_matched_filter_and_sample, synthesize_baseband, zf_inverse_matrix)

SEED = 1729


def finish(num, title, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {title}")
    for line in failures:
        print(f"    {line}")
    assert not failures, f"criterion {num} ({title}): {len(failures)} check(s) failed"


@pytest.fixture(scope="session")
def fig5_report():
    t0 = time.monotonic()
    report = reproduce_figure("fig5", master_seed=SEED, workers=2)
    elapsed = time.monotonic() - t0
    print(f"\n[fig5 grid simulated in {elapsed:.0f} s]")
    return report


@pytest.fixture(scope="session")
def fig7_report():
    t0 = time.monotonic()
    report = reproduce_figure("fig7", master_seed=SEED, workers=2)
    elapsed = time.monotonic() - t0
    print(f"\n[fig7 grid simulated in {elapsed:.0f} s]")
    return report


def test_criterion_1_code_properties():
    failures = []
    t0 = time.monotonic()
    for degree in (6, 7, 8, 9):
        length = 2**degree - 1
        seq = generate_msequence(degree)
        if seq.ones_count != 2 ** (degree - 1):
            failures.append(f"L={length}: {seq.ones_count} ones, expected {2**(degree-1)}")
        code = to_bipolar(seq)
        if abs(periodic_autocorrelation(code, 0) - 1.0) > 1e-12:
            failures.append(f"L={length}: peak autocorrelation != 1")
        off = np.array([periodic_autocorrelation(code, lag) for lag in range(1, length)])
        worst = np.max(np.abs(off + 1.0 / length))
        if worst > 1e-12:
            failures.append(f"L={length}: off-peak autocorrelation error {worst:.2e}")
    length = 2
    while length <= 512:
        c = walsh_matrix(length, length)
        err = np.max(np.abs(c.T @ c - np.eye(length)))
        if err > 1e-12:
            failures.append(f"Walsh L={length}: orthonormality error {err:.2e}")
        length *= 2
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s >= 10 s")
    finish(1, f"m-sequence and Walsh code properties ({elapsed:.1f} s)", failures)


def test_criterion_2_structured_inverse_oracle():
    failures = []
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    for length in (7, 63, 127):
        code = msequence_code(length)
        for count in range(2, min(length - 1, 60) + 1):
            m = build_correlation_matrix(code, list(range(count)))
            eq = ZfEqualizer.for_dimensions(length, count)
            closed_form = zf_inverse_matrix(eq)
            err = np.max(np.abs(closed_form - np.linalg.inv(m)))
            if err > 1e-9:
                failures.append(f"L={length} V={count}: inverse mismatch {err:.2e}")
            peaks = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            err2 = np.max(np.abs(zf_equalize(peaks, eq) - closed_form @ peaks))
            if err2 > 1e-10:
                failures.append(f"L={length} V={count}: O(V) application differs {err2:.2e}")
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s >= 30 s")
    finish(2, f"two-coefficient inverse matches numerical inverse ({elapsed:.1f} s)", failures)


def test_criterion_3_noise_free_exactness():
    failures = []
    rng = np.random.default_rng(SEED + 3)

    def random_gains(count):
        return ElementGains(amplitudes=rng.uniform(0.5, 2.0, count),
                            phases=rng.uniform(0, 2 * np.pi, count))

    cases = [("CSMS", 50, 63), ("OMA", 50, 64), ("CSMS", 100, 127)]
    for scheme, count, length in cases:
        gains = random_gains(count)
        truth = extract_mismatch(gains.w)
        if scheme == "OMA":
            c = walsh_matrix(length, count)
            # complex_awgn at zero variance still advances rng, which fixes the
            # next case's gains.
            window = c @ gains.w + complex_awgn(rng, length, 0.0)
            estimate = oma_estimate(c, window)
        else:
            code = msequence_code(length)
            stream = csms_clean_stream(code, gains.w)
            stream = stream + complex_awgn(rng, stream.size, 0.0)
            estimate = zf_equalize(csms_peaks(code, count, stream),
                                   ZfEqualizer.for_dimensions(length, count))
        report = extract_mismatch(estimate)
        gain_err = np.max(np.abs(report.gain_db - truth.gain_db))
        phase_err = np.max(np.abs(report.phase_deg - truth.phase_deg))
        if gain_err >= 1e-9:
            failures.append(f"{scheme} V={count} L={length}: gain error {gain_err:.2e} dB")
        if phase_err >= 1e-9:
            failures.append(f"{scheme} V={count} L={length}: phase error {phase_err:.2e} deg")
    finish(3, "noise-free recovery is exact for both schemes", failures)


def test_criterion_4_discrete_model_collapse():
    failures = []
    rng = np.random.default_rng(SEED + 4)
    code = msequence_code(63)
    offsets = [0, 1, 5, 20]
    gains = ElementGains(amplitudes=rng.uniform(0.5, 2.0, 4),
                         phases=rng.uniform(0, 2 * np.pi, 4))
    chip_rate_model = np.zeros(63, dtype=complex)
    for w, q in zip(gains.w, offsets):
        chip_rate_model += w * np.roll(code, q)
    for oversample in (2, 4, 8):
        composite = np.zeros(63 * oversample, dtype=complex)
        for w, q in zip(gains.w, offsets):
            composite += w * synthesize_baseband(np.roll(code, q), oversample).samples
        sampled = chip_matched_filter_and_sample(
            OversampledWaveform(samples=composite, oversample=oversample))
        err = np.max(np.abs(sampled - chip_rate_model))
        if err > 1e-10:
            failures.append(f"F={oversample}: collapse error {err:.2e}")
    finish(4, "oversampled chain equals the chip-rate model for F in {2,4,8}", failures)


def _agreement_failures(rows, label):
    failures = []
    for row in rows:
        for metric, sim, theory, se in (
                ("gain", row.gain_rmse_sim_db, row.gain_rmse_theory_db,
                 row.gain_rmse_sim_stderr),
                ("phase", row.phase_rmse_sim_deg, row.phase_rmse_theory_deg,
                 row.phase_rmse_sim_stderr)):
            tolerance = max(0.05 * theory, 3.0 * se)
            if abs(sim - theory) > tolerance:
                failures.append(
                    f"{label} {row.scheme} L={row.code_length} V={row.n_elements} "
                    f"@{row.ev_n0_db:g} dB {metric}: |{sim:.4f} - {theory:.4f}| "
                    f"= {abs(sim - theory):.4f} > {tolerance:.4f} "
                    f"({100 * abs(sim - theory) / theory:.1f}% vs 5%)")
    return failures


def test_criterion_5_fig5_reproduction(fig5_report):
    failures = _agreement_failures(fig5_report.rows, "fig5")
    oma = {(row.code_length, row.ev_n0_db): row
           for row in fig5_report.rows if row.scheme == "OMA"}
    for snr in sorted({k[1] for k in oma}):
        for la, lb in ((64, 128), (64, 256), (128, 256)):
            a, b = oma[(la, snr)], oma[(lb, snr)]
            for metric, va, vb, sa, sb in (
                    ("gain", a.gain_rmse_sim_db, b.gain_rmse_sim_db,
                     a.gain_rmse_sim_stderr, b.gain_rmse_sim_stderr),
                    ("phase", a.phase_rmse_sim_deg, b.phase_rmse_sim_deg,
                     a.phase_rmse_sim_stderr, b.phase_rmse_sim_stderr)):
                bound = 3.0 * np.hypot(sa, sb)
                if abs(va - vb) > bound:
                    failures.append(f"OMA L={la} vs L={lb} @{snr:g} dB {metric}: "
                                    f"|{va:.4f} - {vb:.4f}| > {bound:.4f}")
    finish(5, "fig5/6 grid: simulation matches theory; OMA curves coincide", failures)


def _oma_theory_curve(snr_grid, n_elements):
    gain = np.empty(snr_grid.size)
    phase = np.empty(snr_grid.size)
    gains = ElementGains(amplitudes=np.ones(n_elements), phases=np.zeros(n_elements))
    for i, snr in enumerate(snr_grid):
        stats = oma_noise_stats(10.0 ** (-snr / 10.0), n_elements)
        point = theory_point(gains, stats)
        gain[i] = point.gain_rmse_db.mean()
        phase[i] = point.phase_rmse_deg.mean()
    return gain, phase


def _horizontal_gap(snr, value, fine_snr, fine_values):
    # SNR the orthogonal baseline needs to reach `value`; curves decrease,
    # so interpolate on the negated log.
    matched = np.interp(-np.log(value), -np.log(fine_values), fine_snr)
    return snr - matched


def test_criterion_6_noise_enlargement_gap(fig5_report):
    failures = []
    fine_snr = np.arange(5.0, 45.0, 0.01)
    fine_gain, fine_phase = _oma_theory_curve(fine_snr, 50)
    csms63 = {row.ev_n0_db: row for row in fig5_report.rows
              if row.scheme == "CSMS" and row.code_length == 63}

    def gaps(snrs, use_sim):
        out = []
        for snr in snrs:
            row = csms63[snr]
            g = row.gain_rmse_sim_db if use_sim else row.gain_rmse_theory_db
            p = row.phase_rmse_sim_deg if use_sim else row.phase_rmse_theory_deg
            out.append(_horizontal_gap(snr, g, fine_snr, fine_gain))
            out.append(_horizontal_gap(snr, p, fine_snr, fine_phase))
        return np.array(out)

    for use_sim, label in ((False, "theory"), (True, "simulated")):
        low = gaps((10.0, 15.0), use_sim)
        bad = [g for g in low if not 1.0 <= g <= 2.0]
        if bad:
            failures.append(f"{label} low-SNR gap outside 1.5 +/- 0.5 dB: "
                            f"{[f'{g:.3f}' for g in low]}")
    low_theory = gaps((10.0, 15.0), False).mean()
    high_theory = gaps((30.0, 35.0, 40.0), False).mean()
    if not high_theory < low_theory:
        failures.append(f"gap does not shrink: {low_theory:.3f} -> {high_theory:.3f} dB")
    finish(6, "noise-enlargement SNR gap is 1.5 +/- 0.5 dB and shrinks with SNR", failures)


def test_criterion_7_fig7_trends(fig7_report):
    failures = []
    bench = [row for row in fig7_report.rows if row.scheme == "OMA"]
    assert len(bench) == 1
    bench_gain = bench[0].gain_rmse_sim_db
    bench_phase = bench[0].phase_rmse_sim_deg
    saw_extreme = set()
    for row in fig7_report.rows:
        if row.scheme != "CSMS":
            continue
        gain_ratio = row.gain_rmse_sim_db / bench_gain
        phase_ratio = row.phase_rmse_sim_deg / bench_phase
        if row.n_elements <= 0.8 * row.code_length:
            for metric, ratio in (("gain", gain_ratio), ("phase", phase_ratio)):
                if abs(ratio - 1.0) > 0.05:
                    failures.append(
                        f"L={row.code_length} V={row.n_elements} {metric}: "
                        f"ratio {ratio:.4f} deviates more than 5% from benchmark")
        for metric, ratio in (("gain", gain_ratio), ("phase", phase_ratio)):
            if ratio > 1.2 and row.n_elements <= 0.9 * row.code_length:
                failures.append(
                    f"L={row.code_length} V={row.n_elements} {metric}: degraded "
                    f"{ratio:.3f}x although V is not close to L")
        if row.n_elements == row.code_length:
            saw_extreme.add(row.code_length)
            if gain_ratio <= 1.2 or phase_ratio <= 1.2:
                failures.append(f"V=L={row.code_length}: expected clear degradation, "
                                f"got {gain_ratio:.3f}x / {phase_ratio:.3f}x")
    if saw_extreme != {127, 255, 511}:
        failures.append(f"missing V=L rows for {sorted({127, 255, 511} - saw_extreme)}")
    finish(7, "element sweep at 30 dB: no loss below 0.8L, degradation only near V=L",
           failures)


def test_simulation_matches_theory_within_its_standard_errors(fig5_report, fig7_report):
    # The receiver is linear and the noise Gaussian, so the exact theory
    # should meet the simulation to Monte-Carlo error on every row, and with
    # the linearized standard error z = (sim - theory) / stderr is close to
    # normal.  Over the 124 values: max |z| <= 3.94, the two-sided normal
    # tail of 1% / 124 (Bonferroni, which holds under any dependence); and at
    # most 12 beyond 2.  Independent values would exceed 12 with probability
    # 0.44% (Binomial(124, 0.0455)), but a config's points share each block's
    # noise, so its rows' errors move together and the count has a wider
    # tail: at seed 1729 five of OMA 64's seven gain z lie between -3.1 and
    # -3.7, and ten values lie beyond 2.
    z = []
    for row in (*fig5_report.rows, *fig7_report.rows):
        z.append((row.gain_rmse_sim_db - row.gain_rmse_theory_db) / row.gain_rmse_sim_stderr)
        z.append((row.phase_rmse_sim_deg - row.phase_rmse_theory_deg)
                 / row.phase_rmse_sim_stderr)
    z = np.abs(z)
    assert z.size == 124
    print(f"[sim-theory] max |z| {z.max():.2f}, {np.sum(z > 2)} of {z.size} beyond 2")
    assert z.max() <= 3.94
    assert np.sum(z > 2) <= 12


def test_criterion_8_spot_phase_value():
    failures = []
    expected = np.degrees(np.sqrt(1e-3))
    closed_form = phase_rmse_theory(1.0, 1.0, 0.0, 0.0, 1e-3, 1e-3, 0.0)
    if abs(closed_form - expected) > 1e-9 or abs(closed_form - 1.8119) > 5e-4:
        failures.append(f"closed form gives {closed_form:.6f}, expected {expected:.6f}")
    cfg = ScenarioConfig(scheme="OMA", code_length=64, n_elements=2,
                         snr_grid_db=(30.0,), trials=10_000, master_seed=SEED)
    row = run_scenario(cfg).rows[0]
    bound = 3.0 * row.phase_rmse_sim_stderr
    if abs(row.phase_rmse_sim_deg - closed_form) > bound:
        failures.append(f"simulation {row.phase_rmse_sim_deg:.5f} deviates from "
                        f"{closed_form:.5f} by more than {bound:.5f}")
    finish(8, "30 dB orthogonal phase RMSE equals (180/pi)*sqrt(1e-3) ~ 1.8119 deg",
           failures)


def test_criterion_9_worker_determinism(tmp_path):
    failures = []
    scenario = {"scheme": "CSMS", "code_length": 63, "n_elements": 8,
                "snr_grid_db": [20.0, 30.0], "trials": 800, "master_seed": SEED}
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(scenario))
    outputs = {}
    for workers in (1, 4, 8):
        out_path = tmp_path / f"report_w{workers}.csv"
        code = cli_main(["simulate", str(cfg_path), "--workers", str(workers),
                         "--out", str(out_path)])
        if code != 0:
            failures.append(f"simulate exited {code} with {workers} workers")
            continue
        outputs[workers] = out_path.read_bytes()
    if len(outputs) == 3 and len(set(outputs.values())) != 1:
        failures.append("CSV bytes differ across 1/4/8 workers")
    finish(9, "simulate CSV is byte-identical across 1, 4, and 8 workers", failures)
