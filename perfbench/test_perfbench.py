"""Fast checks of the benchmark itself: every workload at a tiny trial count.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, check  # noqa: E402
from perfbench.workloads import (END_TO_END, PER_LAYER, REFERENCE_SEED,  # noqa: E402
                                 WORKLOADS, benchmark_json)

# Below 4 trials per worker the harness runs in-process, so no pool is started here.
# At 4 trials the batch standard errors are too rough for the seed-to-seed
# comparison, so the tiny runs use the reference seed.
TINY_TRIALS = 4


def _tiny_run(workload, seed):
    tiny = workload.with_trials(TINY_TRIALS)
    reference = check.reference_rows(bench.reference_csv(tiny, REFERENCE_SEED))
    return bench.WorkloadRun(tiny, seed, reference=reference)


def test_benchmark_json_matches_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_json()


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_every_metric_present_with_unit(workload):
    run = _tiny_run(workload, seed=REFERENCE_SEED)
    e2e = bench.measure_end_to_end(run, seconds=0, setup_repeats=1, log=lambda _: None)
    layers = bench.measure_layers(run, seconds=0, log=lambda _: None)
    for result, table in ((e2e, END_TO_END), (layers, PER_LAYER)):
        assert result["metrics"] == {
            name: {"value": result["metrics"][name]["value"], "unit": unit}
            for name, unit, *_ in table}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == run.points
    assert e2e["metrics"]["wall_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_committed_reference_theory_matches_recomputation(workload):
    configs = bench.build_configs(workload, REFERENCE_SEED)
    rows = check.reference_rows((bench.REFERENCE_DIR / f"{workload.name}.csv").read_text())
    flat = [e for per_call in check.expected_points(configs) for e in per_call]
    assert len(rows) == len(flat)
    for row, exp in zip(rows, flat):
        assert row["gain_rmse_theory_db"] == pytest.approx(exp.gain_theory, rel=1e-12)
        assert row["phase_rmse_theory_deg"] == pytest.approx(exp.phase_theory, rel=1e-12)


def test_one_corrupted_value_fails_exactly_one_point():
    run = _tiny_run(WORKLOADS[0], seed=REFERENCE_SEED)
    texts = run.run_pass(workers=1).texts
    assert not run.failed
    lines = texts[2].splitlines()
    fields = lines[3].split(",")
    col = check.CSV_COLUMNS.index("gain_rmse_sim_db")
    fields[col] = repr(10.0 * float(fields[col]))
    lines[3] = ",".join(fields)
    texts[2] = "\n".join(lines) + "\n"
    assert check.failed_points(texts, run.expected, run.reference, REFERENCE_SEED) == {
        len(run.expected[0]) + len(run.expected[1]) + 2}


def test_raised_call_and_bad_header_fail_their_points():
    run = _tiny_run(WORKLOADS[0], seed=REFERENCE_SEED)
    texts = run.run_pass(workers=1).texts
    texts[0] = None
    texts[1] = texts[1].replace("gain_rmse_sim_db", "gain_sim", 1)
    assert check.failed_points(texts, run.expected, run.reference, REFERENCE_SEED) == set(
        range(len(run.expected[0]) + len(run.expected[1])))
