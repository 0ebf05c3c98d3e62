"""Run one workload, check its reports and compute the benchmark's metrics.

Each workload runs as a single closed-loop caller: one process, one
scenario call at a time, the next call only after the previous report
is in memory.  The program is timed only from outside, around calls
into ``harness.run_scenario`` and ``cli.main``.
"""

import contextlib
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from arraycal import cli, harness
from perfbench import check
from perfbench.tracer import Tracer, counting_pools, traced_program
from perfbench.workloads import END_TO_END, PER_LAYER, REFERENCE_SEED, build_configs

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SETUP_REPEATS = 5

# Runs in a fresh interpreter: argv = src dir, checkout root, workload, seed.
_SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import arraycal
from perfbench.workloads import WORKLOADS_BY_NAME, build_configs
build_configs(WORKLOADS_BY_NAME[sys.argv[3]], int(sys.argv[4]))
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Pass:
    """One run of every scenario call of a workload."""

    texts: list  # CSV text per scenario call, None where the call raised
    wall_s: float
    cpu_self_s: float
    cpu_children_s: float
    pools_started: int

    @property
    def csv(self):
        return "".join(t if t is not None else "<raised>\n" for t in self.texts)


def _cpu_s(who):
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


class WorkloadRun:
    """A workload bound to a seed, with its configs, expected rows and reference."""

    def __init__(self, workload, seed, reference=None):
        self.workload = workload
        self.seed = seed
        self.configs = build_configs(workload, seed)
        self.expected = check.expected_points(self.configs)
        self.points = sum(len(e) for e in self.expected)
        if reference is None:
            reference = check.reference_rows(
                (REFERENCE_DIR / f"{workload.name}.csv").read_text())
        if len(reference) != self.points:
            raise ValueError(f"{workload.name}: {len(reference)} reference rows "
                             f"for {self.points} points")
        self.reference = reference
        self.failed = set()
        self.scenario_file = None
        if workload.via_cli:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            self.scenario_file = OUT_DIR / f"{workload.name}.json"
            self.scenario_file.write_text(json.dumps(workload.scenarios[0], indent=1))

    @property
    def trials(self):
        return sum(c.trials * len(e) for c, e in zip(self.configs, self.expected))

    def run_pass(self, workers):
        """Run the workload once, time it from outside and check its reports."""
        texts = []
        with counting_pools() as pools:
            cpu0 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
            t0 = perf_counter()
            if self.workload.via_cli:
                texts.append(self._cli_call(workers))
            else:
                for cfg in self.configs:
                    texts.append(self._guarded(
                        lambda: harness.run_scenario(cfg, workers=workers).to_csv_text()))
            wall = perf_counter() - t0
            cpu1 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
        result = Pass(texts, wall, cpu1[0] - cpu0[0], cpu1[1] - cpu0[1], pools[0])
        self.failed |= check.failed_points(texts, self.expected, self.reference, REFERENCE_SEED)
        return result

    def _cli_call(self, workers):
        argv = ["simulate", str(self.scenario_file), "--workers", str(workers),
                "--seed", str(self.seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self._guarded(lambda: cli.main(argv))
        return out.getvalue() if code == 0 else None

    @staticmethod
    def _guarded(call):
        # A scenario call that raises fails its points; the benchmark keeps going.
        try:
            return call()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None

    def fail_all(self):
        self.failed |= set(range(self.points))

    def result(self, metrics):
        units = dict((n, u) for n, u, *_ in END_TO_END + PER_LAYER)
        return {"correct": not self.failed, "attempted": self.points,
                "failed": len(self.failed),
                "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()}}


def reference_csv(workload, seed):
    """The workload's report at ``seed`` as one CSV document, run in-process."""
    return check.csv_text([harness.run_scenario(cfg).to_csv_text()
                           for cfg in build_configs(workload, seed)])


def _loop(seconds, body):
    """Call ``body`` until ``seconds`` have passed (at least once)."""
    t0 = perf_counter()
    while True:
        body()
        if perf_counter() - t0 >= seconds:
            return


def setup_times(workload, seed, repeats=SETUP_REPEATS):
    """Seconds a fresh interpreter takes to import arraycal and build the configs."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET, str(ROOT / "src"), str(ROOT),
             workload.name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for, in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure_end_to_end(run, seconds, setup_repeats=SETUP_REPEATS, log=print):
    """Untraced passes at the workload's own worker count for ``seconds``."""
    setups = setup_times(run.workload, run.seed, setup_repeats)
    passes = []
    _loop(seconds, lambda: passes.append(run.run_pass(run.workload.workers)))
    if len({p.csv for p in passes}) > 1:
        run.fail_all()
    walls = [p.wall_s for p in passes]
    wall = statistics.median(walls)
    log(f"# {len(passes)} passes: wall_s min {min(walls):.4f} max {max(walls):.4f}; "
        f"setup_s over {len(setups)} interpreters: {', '.join(f'{t:.4f}' for t in setups)}")
    return run.result({
        "wall_s": wall,
        "trials_per_s": run.trials / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    })


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(run, totals, traced, solo, own):
    """Per-layer metrics of one cycle: a traced 1-worker pass, an untraced 1-worker
    pass and an untraced pass at the workload's worker count."""
    points = [(cfg, e) for cfg, rows in zip(run.configs, run.expected) for e in rows]
    trials = run.trials
    csms_trials = sum(cfg.trials for cfg, e in points if e.scheme == "CSMS")
    csms_points = sum(1 for _, e in points if e.scheme == "CSMS")
    # The V x L complex window matrix csms_peaks copies per trial (computed, not measured).
    window_elems = sum(cfg.trials * e.n_elements * e.code_length
                       for cfg, e in points if e.scheme == "CSMS")

    def busy(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def own_time(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    own_cpu = own.cpu_self_s + own.cpu_children_s
    return {
        "harness.rng_stream.us_per_trial": 1e6 * busy("harness.rng_stream") / trials,
        "channel.complex_awgn.us_per_trial": 1e6 * busy("channel.complex_awgn") / trials,
        "receiver.csms_peaks.us_per_trial": 1e6 * _div(busy("receiver.csms_peaks"), csms_trials),
        "receiver.csms_peaks.bytes_per_trial": 16.0 * _div(window_elems, csms_trials),
        "receiver.csms_peaks.macs_per_trial": _div(window_elems, csms_trials),
        "receiver.zf_equalize.us_per_trial": 1e6 * _div(busy("receiver.zf_equalize"), csms_trials),
        "receiver.extract_mismatch.us_per_trial":
            1e6 * busy("receiver.extract_mismatch") / trials,
        "receiver.wrap_degrees.us_per_trial": 1e6 * busy("receiver.wrap_degrees") / trials,
        "channel.csms_clean_stream.calls": calls("channel.csms_clean_stream"),
        "channel.csms_clean_stream.us_per_call":
            1e6 * _div(busy("channel.csms_clean_stream"), calls("channel.csms_clean_stream")),
        "channel.with_random_phases.us_per_call":
            1e6 * _div(busy("channel.with_random_phases"), calls("channel.with_random_phases")),
        "theory.csms_peak_noise_cov.ms_per_point":
            1e3 * _div(busy("theory.csms_peak_noise_cov"), csms_points),
        "theory.csms_gain_noise_stats.ms_per_point":
            1e3 * _div(busy("theory.csms_gain_noise_stats"), csms_points),
        "theory.theory_point.ms_per_point": 1e3 * busy("theory.theory_point") / len(points),
        "codes.msequence_code.ms_per_call":
            1e3 * _div(busy("codes.msequence_code"), calls("codes.msequence_code")),
        "codes.walsh_matrix.ms_per_call":
            1e3 * _div(busy("codes.walsh_matrix"), calls("codes.walsh_matrix")),
        "harness.self.us_per_trial": 1e6 * own_time("harness.run_scenario") / trials,
        "cli.self_ms": 1e3 * _div(own_time("cli.main"), calls("cli.main")),
        "harness.pools_started": own.pools_started,
        "harness.pool.child_cpu_us_per_trial": 1e6 * own.cpu_children_s / trials,
        "harness.cpu_per_wall": own_cpu / own.wall_s,
        # In-process trial time (untraced, 1 worker) per CPU second the pass burns.
        "harness.pool.cpu_efficiency": _div(solo.wall_s, own_cpu),
        "trace.overhead": traced.wall_s / solo.wall_s,
    }


def measure_layers(run, seconds, log=print):
    """Traced cycles for ``seconds``; per-layer metrics are medians over cycles."""
    cycles = []
    tracers = []

    def cycle():
        tracer = Tracer()
        with traced_program(tracer), tracer.span(f"workload {run.workload.name}"):
            traced = run.run_pass(workers=1)
        solo = run.run_pass(workers=1)
        own = run.run_pass(run.workload.workers) if run.workload.workers != 1 else solo
        # Byte-identical CSV across worker counts and with tracing on.
        if not traced.csv == solo.csv == own.csv:
            run.fail_all()
        tracers.append(tracer)
        cycles.append(layer_metrics(run, tracer.totals(), traced, solo, own))

    _loop(seconds, cycle)
    metrics = {name: statistics.median(c[name] for c in cycles) for name, *_ in PER_LAYER}
    log(f"# {len(cycles)} traced cycles")
    write_trace(run, tracers[-1], metrics)
    return run.result(metrics)


def environment():
    """What the run depended on, recorded as found (nothing here is set by the benchmark)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or f"unset (platform default {multiprocessing.get_all_start_methods()[0]})",
        **{k: os.environ.get(k) for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_trace(run, tracer, metrics):
    """Spans, per-scenario aggregates and the environment of the last traced cycle."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": run.workload.name,
        "seed": run.seed,
        "environment": environment(),
        "metrics": metrics,
        "spans": tracer.spans,
        "aggregates": {label: {name: {"count": n, "busy_s": b, "self_s": s}
                               for name, (n, b, s) in stats.items()}
                       for label, stats in tracer.buckets.items()},
    }
    path = OUT_DIR / f"trace-{run.workload.name}.json"
    path.write_text(json.dumps(doc, indent=1))
