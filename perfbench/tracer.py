"""Tracing from outside the program: wrap public names where the harness looks them up.

Calls are aggregated (count, busy time, self time) per function and per
``run_scenario`` call instead of being kept one span each: a full fig5
grid would make millions of spans.  Spans are kept only for each traced
workload pass, each ``cli.main`` call and each ``run_scenario`` call.
"""

from contextlib import contextmanager
from time import perf_counter

from arraycal import cli, harness, theory
from arraycal.channel import ElementGains
from arraycal.receiver import ZfEqualizer

# (attribute, traced name): functions harness looks up in its own namespace.
_HARNESS_NAMES = (
    ("rng_stream", "harness.rng_stream"),
    ("complex_awgn", "channel.complex_awgn"),
    ("csms_clean_stream", "channel.csms_clean_stream"),
    ("csms_peaks", "receiver.csms_peaks"),
    ("zf_equalize", "receiver.zf_equalize"),
    ("extract_mismatch", "receiver.extract_mismatch"),
    ("wrap_degrees", "receiver.wrap_degrees"),
    ("msequence_code", "codes.msequence_code"),
    ("walsh_matrix", "codes.walsh_matrix"),
)
# harness calls the theory module as ``accuracy.<name>``.
_THEORY_NAMES = ("oma_noise_stats", "csms_peak_noise_cov", "csms_gain_noise_stats",
                 "theory_point", "average_rmse")
# Class methods, wrapped on the class itself.
_CLASS_METHODS = (
    (ElementGains, "with_random_phases", "channel.with_random_phases"),
    (ZfEqualizer, "for_dimensions", "receiver.ZfEqualizer.for_dimensions"),
    (harness.ScenarioConfig, "from_dict", "harness.ScenarioConfig.from_dict"),
)


class Tracer:
    """Per-scenario call aggregates plus a short list of spans."""

    def __init__(self):
        self.buckets = {}  # bucket label -> {traced name: [count, busy_s, self_s]}
        self.spans = []    # dicts: id, name, parent, start_s, end_s
        self._bucket = self._new_bucket("outside run_scenario")
        self._child_time = []  # one accumulator per open traced call
        self._span_stack = []
        self._t0 = perf_counter()

    def _new_bucket(self, label):
        self.buckets[label] = {}
        return self.buckets[label]

    def totals(self):
        """Aggregates summed over buckets: name -> (count, busy_s, self_s)."""
        out = {}
        for stats in self.buckets.values():
            for name, (n, busy, own) in stats.items():
                c = out.setdefault(name, [0, 0.0, 0.0])
                c[0] += n
                c[1] += busy
                c[2] += own
        return {k: tuple(v) for k, v in out.items()}

    @contextmanager
    def span(self, name):
        span = {"id": len(self.spans), "name": name,
                "parent": self._span_stack[-1]["id"] if self._span_stack else None,
                "start_s": perf_counter() - self._t0, "end_s": None}
        self.spans.append(span)
        self._span_stack.append(span)
        try:
            yield
        finally:
            span["end_s"] = perf_counter() - self._t0
            self._span_stack.pop()

    def wrap(self, name, fn, span=False, scenario=False):
        """``fn`` with its calls counted and timed under ``name``."""
        def traced(*args, **kwargs):
            outer = self._bucket
            bucket = self._new_bucket(f"run_scenario #{len(self.buckets)}") if scenario else outer
            self._bucket = bucket
            self._child_time.append(0.0)
            t0 = perf_counter()
            try:
                if span:
                    with self.span(name):
                        return fn(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - t0
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += busy
                self._bucket = outer
                stats = bucket.setdefault(name, [0, 0.0, 0.0])
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - children

        return traced


@contextmanager
def traced_program(tracer):
    """Install the tracer's wrappers for the duration of the block, then restore."""
    restore = []

    def patch(owner, attr, value):
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for attr, name in _HARNESS_NAMES:
            patch(harness, attr, tracer.wrap(name, getattr(harness, attr)))
        for attr in _THEORY_NAMES:
            patch(theory, attr, tracer.wrap(f"theory.{attr}", getattr(theory, attr)))
        for cls, attr, name in _CLASS_METHODS:
            patch(cls, attr, staticmethod(tracer.wrap(name, getattr(cls, attr))))
        patch(harness, "run_scenario",
              tracer.wrap("harness.run_scenario", harness.run_scenario, span=True, scenario=True))
        patch(cli, "main", tracer.wrap("cli.main", cli.main, span=True))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


@contextmanager
def counting_pools():
    """Count the process pools harness starts; yields a one-element list."""
    started = [0]
    original = harness.ProcessPoolExecutor

    def counted(*args, **kwargs):
        started[0] += 1
        return original(*args, **kwargs)

    harness.ProcessPoolExecutor = counted
    try:
        yield started
    finally:
        harness.ProcessPoolExecutor = original
