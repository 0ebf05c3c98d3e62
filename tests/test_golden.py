"""Golden reports: the determinism contract, pinned to committed CSV files.

``tests/data/<figure>_seed1729_130trials.csv`` is ``reproduce_figure(figure,
1729, trials=130)``: 130 trials make two full blocks and a partial one.  A
report must match it at one worker and at two, strings and integers exactly
and floats to a relative 1e-12, so rounding-level moves pass and a change to
the RNG contract fails until the files are written again and the change is
recorded.  To write them again:

    PYTHONPATH=src python -c "from arraycal.harness import reproduce_figure
    for f in ('fig5', 'fig7'):
        reproduce_figure(f, 1729, trials=130).write_csv(f'tests/data/{f}_seed1729_130trials.csv')"
"""

import csv
import io
import math
from pathlib import Path

import pytest

from arraycal.harness import CSV_COLUMNS, reproduce_figure

DATA = Path(__file__).resolve().parent / "data"
EXACT_COLUMNS = ("scheme", "V", "L", "trials", "seed")


def _lines(text):
    comment, body = text.split("\n", 1)
    return comment, list(csv.reader(io.StringIO(body)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("figure", ["fig5", "fig7"])
def test_report_matches_golden_file(figure, workers):
    golden_comment, golden = _lines((DATA / f"{figure}_seed1729_130trials.csv").read_text())
    comment, got = _lines(reproduce_figure(figure, 1729, trials=130, workers=workers).to_csv_text())
    assert comment == golden_comment
    assert got[0] == golden[0] == CSV_COLUMNS
    assert len(got) == len(golden)
    for line, (row, expected) in enumerate(zip(got[1:], golden[1:]), start=1):
        for column, value, want in zip(CSV_COLUMNS, row, expected, strict=True):
            if column in EXACT_COLUMNS:
                assert value == want, (line, column)
            else:
                assert math.isclose(float(value), float(want), rel_tol=1e-12, abs_tol=0.0), \
                    (line, column, value, want)
