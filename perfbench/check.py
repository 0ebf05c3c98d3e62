"""Output check: every report row against the committed reference rows.

A point fails when its scenario call raised, its CSV header is not
``harness.CSV_COLUMNS``, its row is missing or malformed, any field is
non-finite, its theory columns differ from the expected values by more
than ``THEORY_RTOL``, or a simulated RMSE is further than
``SIM_TOLERANCE_SE`` combined standard errors from the reference.

Simulation is never compared with theory: the known high-SNR gap of the
closed form (criterion 5) stays visible in the report and is not a
benchmark failure.
"""

import csv
import io
import math
from dataclasses import dataclass

from arraycal import theory
from arraycal.channel import ElementGains, noise_var_from_snr
from arraycal.codes import msequence_code
from arraycal.harness import CSV_COLUMNS, rng_stream, scenario_points
from arraycal.receiver import ZfEqualizer

# The theory columns are deterministic given the seed; only float rounding may differ.
THEORY_RTOL = 1e-9
# Wide enough for another --seed or a deliberate change of the RNG contract:
# over 12 seeds and 166 comparisons each, the largest |z| seen was 3.5.
SIM_TOLERANCE_SE = 6.0

_THEORY = (("gain_rmse_theory_db", "gain"), ("phase_rmse_theory_deg", "phase"))
_SIM = (("gain_rmse_sim_db", "gain_rmse_sim_stderr"),
        ("phase_rmse_sim_deg", "phase_rmse_sim_stderr"))
_INT_COLUMNS = ("V", "L", "trials", "seed")


@dataclass(frozen=True)
class ExpectedPoint:
    """What a correct row at one grid point must say, apart from simulated values."""

    scheme: str
    n_elements: int
    code_length: int
    ev_n0_db: float
    trials: int
    seed: int
    gain_theory: float
    phase_theory: float


def expected_points(configs):
    """Expected rows per scenario call, with theory recomputed through the public API.

    The prediction depends on the per-point phases, which come from the
    seed (1-9% across seeds), so it is recomputed for the run's seed the
    way ``arraycal theory eval`` computes it rather than read from the
    reference rows.
    """
    out = []
    for cfg in configs:
        rows = []
        for p in scenario_points(cfg):
            gains = ElementGains.with_random_phases(
                p.n_elements, rng_stream(cfg.master_seed, p.index, 0))
            noise_var = noise_var_from_snr(p.ev_n0_db, 1.0)
            if p.scheme == "OMA":
                stats = theory.oma_noise_stats(noise_var, p.n_elements)
            else:
                cov = theory.csms_peak_noise_cov(msequence_code(p.code_length, cfg.taps),
                                                 p.n_elements, noise_var)
                stats = theory.csms_gain_noise_stats(
                    ZfEqualizer.for_dimensions(p.code_length, p.n_elements), cov)
            predicted = theory.theory_point(gains, stats)
            rows.append(ExpectedPoint(
                p.scheme, p.n_elements, p.code_length, p.ev_n0_db, cfg.trials,
                cfg.master_seed, theory.average_rmse(predicted.gain_rmse_db),
                theory.average_rmse(predicted.phase_rmse_deg)))
        out.append(rows)
    return out


def parse_csv(text):
    """(header, rows) of one CSV report; rows are dicts of column -> text."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    records = list(csv.reader(lines))
    if not records:
        return [], []
    header = records[0]
    return header, [dict(zip(header, r)) for r in records[1:] if len(r) == len(header)]


def _parse_row(raw):
    row = {}
    for col in CSV_COLUMNS:
        if col == "scheme":
            row[col] = raw[col]
        elif col in _INT_COLUMNS:
            row[col] = int(raw[col])
        else:
            row[col] = float(raw[col])
    return row


def reference_rows(text):
    """Parsed rows of a reference CSV document, in report order."""
    return [_parse_row(r) for r in parse_csv(text)[1]]


def _row_ok(row, exp, ref, reference_seed):
    if (row["scheme"], row["V"], row["L"], row["ev_n0_db"], row["trials"], row["seed"]) != (
            exp.scheme, exp.n_elements, exp.code_length, exp.ev_n0_db, exp.trials, exp.seed):
        return False
    if not all(math.isfinite(row[c]) for c in CSV_COLUMNS if isinstance(row[c], float)):
        return False
    for col, kind in _THEORY:
        expected = getattr(exp, f"{kind}_theory")
        if abs(row[col] - expected) > THEORY_RTOL * abs(expected):
            return False
        if exp.seed == reference_seed and abs(row[col] - ref[col]) > THEORY_RTOL * abs(ref[col]):
            return False
    if ref["trials"] != row["trials"]:
        return False
    for col, se_col in _SIM:
        if abs(row[col] - ref[col]) > SIM_TOLERANCE_SE * math.hypot(row[se_col], ref[se_col]):
            return False
    return True


def failed_points(texts, expected, reference, reference_seed):
    """Flat indices of the points that fail the check.

    ``texts`` holds one CSV text per scenario call (None where the call
    raised), ``expected`` the matching lists of ``ExpectedPoint`` and
    ``reference`` the flat reference rows.
    """
    failed = set()
    start = 0
    for text, exp_rows in zip(texts, expected):
        idx = range(start, start + len(exp_rows))
        start += len(exp_rows)
        if text is None:
            failed.update(idx)
            continue
        header, raw_rows = parse_csv(text)
        if header != list(CSV_COLUMNS) or len(raw_rows) != len(exp_rows):
            failed.update(idx)
            continue
        for i, raw, exp in zip(idx, raw_rows, exp_rows):
            try:
                row = _parse_row(raw)
            except ValueError:
                failed.add(i)
                continue
            if not _row_ok(row, exp, reference[i], reference_seed):
                failed.add(i)
    return failed


def csv_text(texts):
    """One CSV document (a single header) from per-call report texts."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for text in texts:
        for raw in parse_csv(text)[1]:
            writer.writerow([raw[c] for c in CSV_COLUMNS])
    return buf.getvalue()
