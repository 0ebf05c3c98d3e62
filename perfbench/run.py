"""arraycal benchmark entry point.

    python3 perfbench/run.py --workload fig5-1w --seed 1729 --seconds 30 --trace 0

Runs from the root of a source checkout and imports arraycal from its
``src/`` directory.  Prints a few ``#`` lines and, as the last line of
standard output, one JSON object: ``correct``, ``attempted`` and
``failed`` count grid points; ``metrics`` holds every end-to-end metric
(``--trace 0``) or every per-layer metric (``--trace 1``) with its unit.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    # Imported lazily so that --help works without the program's sources.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import REFERENCE_SEED, RUN_SECONDS, WORKLOADS_BY_NAME

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED,
                        help="master_seed of every scenario")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measure for this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "arraycal" / "__init__.py").is_file():
        print(f"error: no arraycal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import arraycal
    if Path(arraycal.__file__).resolve().parent != ROOT / "src" / "arraycal":
        print(f"error: arraycal imported from {arraycal.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from perfbench import bench

    run = bench.WorkloadRun(WORKLOADS_BY_NAME[args.workload], args.seed)
    if args.trace:
        result = bench.measure_layers(run, args.seconds)
    else:
        result = bench.measure_end_to_end(run, args.seconds)
    for key, value in bench.environment().items():
        print(f"# env {key}: {value}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
