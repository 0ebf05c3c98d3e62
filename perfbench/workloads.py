"""Pinned workloads and the metric table of the arraycal benchmark.

The scenario grids below are copies of the seed's fig5 and fig7 grids
(and of one element-count sweep), written out here on purpose instead of
calling ``harness.figure_configs``: a later change to the figure grids,
such as removing the three-way L=511 split, must leave the benchmark's
inputs unchanged.  Trial counts are fixed fractions of the seed counts
so that one pass takes a few seconds on a 2-vCPU machine.
"""

from dataclasses import dataclass

REFERENCE_SEED = 1729

_SNR_SWEEP = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]


@dataclass(frozen=True)
class Workload:
    """One pinned benchmark input: scenario dicts, a worker count and an entry point.

    ``scenarios`` use the scenario-file field names (docs/scenario_schema.json)
    without ``master_seed``, which comes from the benchmark's ``--seed``.
    With ``via_cli`` the single scenario is written to a file and run through
    ``cli.main(["simulate", ...])``; otherwise each scenario becomes a
    ``ScenarioConfig`` passed to ``harness.run_scenario``.
    """

    name: str
    why: str
    workers: int
    scenarios: tuple
    via_cli: bool = False

    def with_trials(self, trials):
        """The same grid with every scenario at ``trials`` trials per point."""
        return Workload(self.name, self.why, self.workers,
                        tuple(dict(s, trials=trials) for s in self.scenarios), self.via_cli)


def _fig5_scenarios(trials):
    layout = [("OMA", 64), ("OMA", 128), ("OMA", 256),
              ("CSMS", 63), ("CSMS", 127), ("CSMS", 255)]
    return tuple({"scheme": s, "code_length": l, "n_elements": 50,
                  "snr_grid_db": list(_SNR_SWEEP), "trials": trials}
                 for s, l in layout)


def _fig7_scenarios(scale):
    # The seed runs 10k trials per point, except 3k for L=511 with 204 < V <= 408
    # and 1k for V > 408; the ratios are kept.
    def sweep(l, v_grid, trials):
        return {"scheme": "CSMS", "code_length": l, "v_grid": v_grid,
                "ev_n0_db": 30.0, "trials": trials}

    return (
        {"scheme": "OMA", "code_length": 512, "v_grid": [50], "ev_n0_db": 30.0,
         "trials": 10_000 // scale},
        sweep(127, [25, 50, 76, 101, 120, 127], 10_000 // scale),
        sweep(255, [51, 102, 153, 204, 242, 255], 10_000 // scale),
        sweep(511, [102, 204], 10_000 // scale),
        sweep(511, [306, 408], 3_000 // scale),
        sweep(511, [485, 500, 511], 1_000 // scale),
    )


WORKLOADS = (
    Workload(
        name="fig5-1w",
        why="fig5 grid in one process: fixed per-trial overhead (RNG, AWGN, mismatch "
            "extraction, harness loop) dominates; the no-pool baseline",
        workers=1,
        scenarios=_fig5_scenarios(trials=500),
    ),
    Workload(
        name="fig7-2w",
        why="fig7 grid on a 2-worker pool: csms_peaks' V x L window copy dominates "
            "trials, and per-point pools show BLAS-thread oversubscription",
        workers=2,
        scenarios=_fig7_scenarios(scale=100),
    ),
    Workload(
        name="vsweep-pertrial-2w",
        why="CSMS V sweep with per-trial phases through the CLI: clean-stream "
            "synthesis every trial, 21 short-lived pools, theory per point",
        workers=2,
        scenarios=({"scheme": "CSMS", "code_length": 127, "v_grid": list(range(4, 125, 6)),
                    "ev_n0_db": 25.0, "trials": 60, "phase_policy": "per-trial"},),
        via_cli=True,
    ),
)

WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}

# (name, unit, better, bound): what a user of the simulator sees, from untraced runs.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("trials_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better): single layers, from the traced run and the rusage deltas.
PER_LAYER = (
    ("harness.rng_stream.us_per_trial", "us", "lower"),
    ("channel.complex_awgn.us_per_trial", "us", "lower"),
    ("receiver.csms_peaks.us_per_trial", "us", "lower"),
    ("receiver.csms_peaks.bytes_per_trial", "B", "lower"),
    ("receiver.csms_peaks.macs_per_trial", "count", "lower"),
    ("receiver.zf_equalize.us_per_trial", "us", "lower"),
    ("receiver.extract_mismatch.us_per_trial", "us", "lower"),
    ("receiver.wrap_degrees.us_per_trial", "us", "lower"),
    ("channel.csms_clean_stream.calls", "count", "lower"),
    ("channel.csms_clean_stream.us_per_call", "us", "lower"),
    ("channel.with_random_phases.us_per_call", "us", "lower"),
    ("theory.csms_peak_noise_cov.ms_per_point", "ms", "lower"),
    ("theory.csms_gain_noise_stats.ms_per_point", "ms", "lower"),
    ("theory.theory_point.ms_per_point", "ms", "lower"),
    ("codes.msequence_code.ms_per_call", "ms", "lower"),
    ("codes.walsh_matrix.ms_per_call", "ms", "lower"),
    ("harness.self.us_per_trial", "us", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("harness.pools_started", "count", "lower"),
    ("harness.pool.child_cpu_us_per_trial", "us", "lower"),
    ("harness.cpu_per_wall", "ratio", "lower"),
    ("harness.pool.cpu_efficiency", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

RUN_SECONDS = 30


def build_configs(workload, seed):
    """Validated ``ScenarioConfig`` objects of a workload; the set-up that ``setup_s`` times."""
    from arraycal import harness

    if workload.via_cli:
        return [harness.ScenarioConfig.from_dict(dict(s, master_seed=seed))
                for s in workload.scenarios]
    return [harness.ScenarioConfig(**s, master_seed=seed) for s in workload.scenarios]


def benchmark_json():
    """The contents of BENCHMARK.json, derived from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
