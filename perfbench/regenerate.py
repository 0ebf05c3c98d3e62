"""Rewrite BENCHMARK.json from perfbench/workloads.py, and optionally the reference rows.

    python3 perfbench/regenerate.py               # BENCHMARK.json only
    python3 perfbench/regenerate.py --references  # also perfbench/reference/*.csv

The reference rows are the workloads' reports at the reference seed,
made by the arraycal sources in this checkout.  Regenerate them only on
purpose, for a deliberate change of the program's output.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import REFERENCE_SEED, WORKLOADS, benchmark_json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--references", action="store_true",
                        help="also rerun every workload at the reference seed")
    args = parser.parse_args(argv)
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    if args.references:
        from perfbench import bench

        bench.REFERENCE_DIR.mkdir(exist_ok=True)
        for w in WORKLOADS:
            (bench.REFERENCE_DIR / f"{w.name}.csv").write_text(
                bench.reference_csv(w, REFERENCE_SEED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
