"""Monte-Carlo scenario runner, figure-reproduction grids, CSV reports.

Each grid point is built once into an immutable ``PointModel``; it feeds
the theory and one receive chain.  A point's trials are cut into fixed
blocks of ``BLOCK_TRIALS`` by trial index alone, and each block is one
batched pass through that chain.  A grid point is the only task of a
scenario call: the task that owns it builds its model, predicts, runs its
blocks and reduces them to its report row.  One runner serves both
``run_scenario`` and ``reproduce_figure``: it maps the point task over every
(config, point) pair of the call in report order, in process when the call
has one task or one worker, otherwise on the process's worker pool.  That
pool is forked once per process, by the first pooled call, with
``min(workers, CPU count)`` workers of one BLAS thread each; later calls
of the same size reuse it, and its workers are joined at interpreter exit
or exit by themselves when the calling process dies.  A process runs one
call at a time, under one re-entrant lock that a nested call re-enters;
the call holds the calling process at one BLAS thread, on either path, and
gives its previous count back afterwards.

Determinism contract: a report is a pure function of the scenario
configuration.  The per-point channel phases come from a generator seeded
by the entropy triple ``[master_seed, point_index, 0]``.  Block b (trials
``b * BLOCK_TRIALS`` up to the next block or the last trial, T of them)
draws from one generator seeded by ``[master_seed, point_index, 1 + b]``:
in per-trial phase mode first the block's (T, V) phases, uniform on
[0, 2 pi), row t for trial ``b * BLOCK_TRIALS + t``; then its (T, n)
noise, all T x n real parts before all T x n imaginary parts.  Block size
is therefore part of the contract: changing ``BLOCK_TRIALS`` changes the
bytes, and so does the trial count whenever it changes the size of the
last, partial block.  Neither trials nor blocks depend on the worker
count.  A point's squared errors, and each standard-error batch's, are
summed trial by trial in trial order, for both schemes and phase policies.
"""

import csv
import ctypes
import functools
import io
import math
import numbers
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from multiprocessing.util import Finalize
from pathlib import Path

import numpy as np

from . import theory as accuracy
from .channel import (ElementGains, LinkBudget, complex_awgn, csms_clean_stream,
                      ev_n0_from_link_budget, noise_var_from_snr)
from .codes import default_taps_for_length, msequence_code, walsh_matrix
from .errors import ArrayCalError, ConfigError, UnknownFigure
from .receiver import (ZfEqualizer, csms_peaks, extract_mismatch, oma_estimate,
                       wrap_degrees, zf_equalize)

SCHEMES = ("OMA", "CSMS")
PHASE_POLICIES = ("per-point", "per-trial")
DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 1729
STDERR_BATCHES = 25
BLOCK_TRIALS = 64  # the unit of randomness, synthesis and reception

CSV_COLUMNS = [
    "scheme", "V", "L", "ev_n0_db",
    "gain_rmse_theory_db", "gain_rmse_sim_db", "gain_rmse_sim_stderr",
    "phase_rmse_theory_deg", "phase_rmse_sim_deg", "phase_rmse_sim_stderr",
    "trials", "seed",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: a scheme, a code, and a grid of operating points.

    Exactly one of ``snr_grid_db`` (with ``n_elements``: fixed element
    count, swept SNR) and ``v_grid`` (with ``ev_n0_db``: fixed SNR, swept
    element count) must be given; the other grid's field must be absent.
    """

    scheme: str
    code_length: int
    n_elements: int | None = None
    snr_grid_db: tuple = None
    v_grid: tuple = None
    ev_n0_db: float | None = None
    trials: int = DEFAULT_TRIALS
    master_seed: int = DEFAULT_SEED
    taps: tuple = None
    phase_policy: str = "per-point"

    def __post_init__(self):
        for name in ("code_length", "trials", "master_seed"):
            self._coerce(name, numbers.Integral)
        for name, kind in (("n_elements", numbers.Integral), ("ev_n0_db", numbers.Real),
                           ("snr_grid_db", numbers.Real), ("v_grid", numbers.Integral),
                           ("taps", numbers.Integral)):
            if getattr(self, name) is not None:
                self._coerce(name, kind)
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if (self.snr_grid_db is None) == (self.v_grid is None):
            raise ConfigError("exactly one of snr_grid_db / v_grid must be set")
        if (self.n_elements is None) != (self.snr_grid_db is None):
            raise ConfigError("n_elements is required with snr_grid_db and rejected with v_grid")
        if (self.ev_n0_db is None) != (self.v_grid is None):
            raise ConfigError("ev_n0_db (or a link budget) is required with v_grid "
                              "and rejected with snr_grid_db")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.phase_policy not in PHASE_POLICIES:
            raise ConfigError(f"phase_policy must be one of {PHASE_POLICIES}")
        if not (self.snr_grid_db or self.v_grid):
            raise ConfigError("the grid (snr_grid_db or v_grid) is empty")
        for v in self.v_grid or (self.n_elements,):
            if not 2 <= v <= self.code_length:
                raise ConfigError(
                    f"element count {v} must satisfy 2 <= V <= code length {self.code_length}")
        # +inf is valid and means noise-free.
        for snr in (*(self.snr_grid_db or ()), self.ev_n0_db):
            if snr is not None and (math.isnan(snr) or snr == -math.inf):
                raise ConfigError(f"snr_grid_db and ev_n0_db must be numbers or +inf, got {snr}")
        # Fails here, not mid-run, on an unsupported length or non-primitive explicit taps.
        if self.taps is not None:
            if self.scheme != "CSMS":
                raise ConfigError("taps only apply to the CSMS scheme")
            msequence_code(self.code_length, self.taps)
        elif self.scheme == "CSMS":
            object.__setattr__(self, "taps", default_taps_for_length(self.code_length))
        if self.scheme == "OMA" and self.code_length & (self.code_length - 1) != 0:
            raise ConfigError(f"OMA requires a power-of-two code length, got {self.code_length}")

    def _coerce(self, name, kind):
        """Store field ``name`` as an int (``numbers.Integral``) or a float (``numbers.Real``);
        list fields entry by entry.  Bools are refused."""
        value, many = getattr(self, name), name in ("snr_grid_db", "v_grid", "taps")
        if many and (isinstance(value, str) or not hasattr(value, "__iter__")):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        cast, what = (int, "an integer") if kind is numbers.Integral else (float, "a number")
        label = f"each {name} entry" if many else name
        for v in value if many else (value,):
            if isinstance(v, bool) or not isinstance(v, kind):
                raise ConfigError(f"{label} must be {what}, got {v!r}")
        object.__setattr__(self, name, tuple(map(cast, value)) if many else cast(value))

    @classmethod
    def from_dict(cls, d):
        """Build from the scenario-file layout (see docs/scenario_schema.json)."""
        d = dict(d)
        unknown = set(d) - {f.name for f in fields(cls)} - {"link_budget", "amplitude_policy"}
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        missing = {"scheme", "code_length"} - set(d)
        if missing:
            raise ConfigError(f"scenario file is missing fields {sorted(missing)}")
        if d.pop("amplitude_policy", "all-ones") != "all-ones":
            raise ConfigError("only the all-ones amplitude policy is supported")
        if "link_budget" in d:
            if d.get("ev_n0_db") is not None:
                raise ConfigError("give either ev_n0_db or link_budget, not both")
            try:
                d["ev_n0_db"] = ev_n0_from_link_budget(LinkBudget.from_dict(d.pop("link_budget")))
            except KeyError as e:
                raise ConfigError(f"link_budget is missing field {e}") from None
            except TypeError as e:
                raise ConfigError(f"link_budget fields must be numbers: {e}") from None
        return cls(**dict(d, scheme=str(d["scheme"]).upper()))


@dataclass(frozen=True)
class GridPoint:
    """One operating point of a scenario grid."""

    index: int
    scheme: str
    n_elements: int
    code_length: int
    ev_n0_db: float


def scenario_points(cfg):
    """Enumerate the grid points of a scenario in report order."""
    if cfg.snr_grid_db is not None:
        return [GridPoint(i, cfg.scheme, cfg.n_elements, cfg.code_length, snr)
                for i, snr in enumerate(cfg.snr_grid_db)]
    return [GridPoint(i, cfg.scheme, v, cfg.code_length, cfg.ev_n0_db)
            for i, v in enumerate(cfg.v_grid)]


def rng_stream(master_seed, *key):
    """Deterministic per-purpose generator: entropy is the seed plus the key path."""
    return np.random.default_rng([int(master_seed) & 0xFFFFFFFFFFFFFFFF,
                                  *(int(k) for k in key)])


@dataclass(frozen=True)
class PointModel:
    """Everything the trials of one grid point share; built once, never mutated.

    ``code`` is the m-sequence (CSMS) or the Walsh matrix (OMA).  ``signal``
    is ``_realize`` of the gains' phases, the truth phases and clean signal,
    or None with per-trial phases: each trial block then draws its own.
    """

    point: GridPoint
    master_seed: int
    trials: int
    noise_var: float
    gains: ElementGains
    code: np.ndarray
    eq: ZfEqualizer | None
    signal: tuple | None

    @classmethod
    def build(cls, cfg, point):
        v, l = point.n_elements, point.code_length
        gains = ElementGains.with_random_phases(v, rng_stream(cfg.master_seed, point.index, 0))
        if point.scheme == "OMA":
            code, eq = walsh_matrix(l, v), None
        else:
            code, eq = msequence_code(l, cfg.taps), ZfEqualizer.for_dimensions(l, v)
        signal = None if cfg.phase_policy == "per-trial" else _realize(point, code, gains.phases)
        return cls(point, cfg.master_seed, cfg.trials, noise_var_from_snr(point.ev_n0_db, 1.0),
                   gains, code, eq, signal)

    def noise_stats(self):
        """Error statistics of the receiver's gain estimates at this point."""
        if self.point.scheme == "OMA":
            return accuracy.oma_noise_stats(self.noise_var, self.point.n_elements)
        cov = accuracy.csms_peak_noise_cov(self.code, self.point.n_elements, self.noise_var)
        return accuracy.csms_gain_noise_stats(self.eq, cov)


def _realize(point, code, phases):
    """Truth phase (deg) and noise-free receive signal of unit-amplitude gains,
    whose truth gain is 0 dB.  ``phases`` is (V,) or a block of (T, V); the
    outputs carry the same leading axes."""
    w = np.exp(1j * phases)
    truth_phase_deg = np.degrees(phases[..., 1:] - phases[..., :1])
    if point.scheme == "OMA":
        clean = w @ code.T
    else:
        clean = csms_clean_stream(code, range(point.n_elements), w)
    return truth_phase_deg, clean


def _trial_chunk(model, block):
    """(2, T, V-1) stacked gain and phase errors of one trial block, received in one pass.

    One generator, ``[master_seed, point_index, 1 + block]``, draws the
    block's (T, V) phases (per-trial mode), then its (T, n) noise in one
    ``complex_awgn`` call.
    """
    point = model.point
    size = min(BLOCK_TRIALS, model.trials - block * BLOCK_TRIALS)
    rng = rng_stream(model.master_seed, point.index, 1 + block)
    truth_phase_deg, clean = model.signal or _realize(
        point, model.code, rng.uniform(0.0, 2.0 * np.pi, (size, point.n_elements)))
    windows = clean + complex_awgn(rng, (size, clean.shape[-1]), model.noise_var)
    if point.scheme == "OMA":
        estimates = oma_estimate(model.code, windows)
    else:
        peaks = csms_peaks(model.code, range(point.n_elements), windows)
        estimates = zf_equalize(peaks, model.eq)
    report = extract_mismatch(estimates)
    return np.stack((report.gain_db, wrap_degrees(report.phase_deg - truth_phase_deg)))


def run_trial(cfg, point, trial_index):
    """(gain, phase) errors of one trial, taken from its block as the report takes them."""
    if not 0 <= trial_index < cfg.trials:
        raise ArrayCalError(f"trial index {trial_index} outside [0, {cfg.trials})")
    block, row = divmod(trial_index, BLOCK_TRIALS)
    return tuple(_trial_chunk(PointModel.build(cfg, point), block)[:, row])


def _rmse(sq_errors):
    """Element-averaged (gain, phase) RMSEs of stacked (2, trials, V-1) squared errors.

    Summed trial by trial in trial order, because the buffer is C-ordered."""
    return np.sqrt(sq_errors.mean(axis=1)).mean(axis=1)


def _batch_stderr(sq_errors):
    """Batch-means standard errors of both ``_rmse`` values of stacked squared errors."""
    n_batches = min(STDERR_BATCHES, sq_errors.shape[1])
    if n_batches < 2:
        return np.zeros(2)
    edges = np.linspace(0, sq_errors.shape[1], n_batches + 1).astype(int)
    vals = np.stack([_rmse(sq_errors[:, a:b]) for a, b in zip(edges[:-1], edges[1:])], axis=1)
    return vals.std(axis=1, ddof=1) / np.sqrt(n_batches)


@dataclass(frozen=True)
class RmseRow:
    """One report row: theory and simulation RMSEs at a single grid point."""

    scheme: str
    n_elements: int
    code_length: int
    ev_n0_db: float
    gain_rmse_theory_db: float
    gain_rmse_sim_db: float
    gain_rmse_sim_stderr: float
    phase_rmse_theory_deg: float
    phase_rmse_sim_deg: float
    phase_rmse_sim_stderr: float
    trials: int
    seed: int

    def as_csv_record(self):
        return [self.scheme, self.n_elements, self.code_length,
                _fmt(self.ev_n0_db),
                _fmt(self.gain_rmse_theory_db), _fmt(self.gain_rmse_sim_db),
                _fmt(self.gain_rmse_sim_stderr),
                _fmt(self.phase_rmse_theory_deg), _fmt(self.phase_rmse_sim_deg),
                _fmt(self.phase_rmse_sim_stderr),
                self.trials, self.seed]


def _fmt(x):
    return repr(float(x))


@dataclass(frozen=True)
class RmseReport:
    """Ordered collection of report rows, writable as CSV."""

    rows: tuple
    comment: str = ""

    def write_csv(self, destination):
        if hasattr(destination, "write"):
            self._write(destination)
        else:
            with open(destination, "w", newline="") as fh:
                self._write(fh)

    def _write(self, fh):
        if self.comment:
            fh.write(f"# {self.comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow(row.as_csv_record())

    def to_csv_text(self):
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue()


def _point_row(cfg, point):
    """Report row of one grid point: its model, prediction and trial blocks in trial order."""
    model = PointModel.build(cfg, point)
    theory = accuracy.theory_point(model.gains, model.noise_stats())
    sq_errors = np.empty((2, cfg.trials, point.n_elements - 1))
    for b, start in enumerate(range(0, cfg.trials, BLOCK_TRIALS)):
        np.square(_trial_chunk(model, b), out=sq_errors[:, start:start + BLOCK_TRIALS])
    (gain, phase), (gain_se, phase_se) = _rmse(sq_errors), _batch_stderr(sq_errors)
    return RmseRow(
        scheme=point.scheme,
        n_elements=point.n_elements,
        code_length=point.code_length,
        ev_n0_db=point.ev_n0_db,
        gain_rmse_theory_db=accuracy.average_rmse(theory.gain_rmse_db),
        gain_rmse_sim_db=float(gain),
        gain_rmse_sim_stderr=float(gain_se),
        phase_rmse_theory_deg=accuracy.average_rmse(theory.phase_rmse_deg),
        phase_rmse_sim_deg=float(phase),
        phase_rmse_sim_stderr=float(phase_se),
        trials=cfg.trials,
        seed=cfg.master_seed,
    )


def _run(configs, workers):
    """Report rows of every grid point of ``configs``, in report order.

    Each (config, point) pair is one task (``_point_row``).  A call of one
    task, or of ``min(workers, os.cpu_count())`` = 1 worker, runs in process;
    any other call maps its tasks on this process's pool of that size.  The
    call holds ``_lock`` throughout, so calls from several threads run one
    after another, and runs at one BLAS thread in the calling process; the
    previous count comes back when it leaves, also when a task raises."""
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral):
        raise ConfigError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    tasks = [(cfg, point) for cfg in configs for point in scenario_points(cfg)]
    workers = min(int(workers), os.cpu_count() or 1)
    with _lock:
        blas = _set_blas_threads(1)
        try:
            if workers == 1 or len(tasks) == 1:
                return tuple(map(_point_row, *zip(*tasks)))
            try:
                return tuple(_worker_pool(workers).map(_point_row, *zip(*tasks)))
            except BrokenProcessPool:
                _close_pool()
                raise
        finally:
            if blas is not None:
                _set_blas_threads(blas)


_pool = None  # (workers, ProcessPoolExecutor, its shutdown finalizer); see _worker_pool
_lock = threading.RLock()  # one call at a time per process; a nested call re-enters


def _worker_pool(workers):
    """This process's pool of ``workers`` workers, forked on first use and kept.

    A call that needs another size shuts the old pool down.  At a normal
    interpreter exit ``concurrent.futures`` joins the workers.  A
    ``multiprocessing`` child joins its own children before that handler
    runs, so the pool is also shut down by a finalizer that runs first (and
    before the finalizers, at priority 10, that close the pool's queues)."""
    global _pool
    with _lock:
        if _pool is None or _pool[0] != workers:
            _close_pool()
            pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker)
            _pool = workers, pool, Finalize(pool, pool.shutdown, exitpriority=100)
        return _pool[1]


def _close_pool():
    """Shut this process's pool down and forget it; the next pooled call starts a new one."""
    global _pool
    with _lock:
        pool, _pool = _pool, None
        if pool is not None:
            pool[2]()  # shutdown, once


def _forget_pool():
    # A forked child holds a copy of the parent's pool whose manager thread
    # and workers are not its own, and possibly a lock held at the fork.
    global _pool, _lock
    _pool, _lock = None, threading.RLock()


if hasattr(os, "register_at_fork"):  # not on Windows, which cannot fork
    os.register_at_fork(after_in_child=_forget_pool)


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS library, or None where numpy has none."""
    found = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"))
    if not found:
        return None
    lib = ctypes.CDLL(str(found[0]))
    if not all(hasattr(lib, f"scipy_openblas_{op}_num_threads64_") for op in ("get", "set")):
        return None
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    return lib


def _set_blas_threads(n):
    """Set this process's OpenBLAS thread count to ``n`` and return the count it
    had, or do nothing and return None where numpy has no bundled OpenBLAS.

    After a threaded product OpenBLAS leaves its threads spinning, so a
    process that keeps several would take CPUs from the pool's workers."""
    lib = _openblas()
    if lib is None:
        return None
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(n)
    return previous


def _init_worker():
    """Pool initializer: one BLAS thread, and exit when the calling process dies.

    A worker whose caller was killed would otherwise wait on its call queue
    forever.  The parent is polled rather than watched with
    ``PR_SET_PDEATHSIG``, which fires when the thread that forked the worker
    exits, and that can be any thread that made a pooled call."""
    _set_blas_threads(1)
    parent = os.getppid()

    def exit_with_parent():
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(0)

    threading.Thread(target=exit_with_parent, name="exit-with-parent", daemon=True).start()


def run_scenario(cfg, workers=1):
    """Run every grid point of a scenario and report theory next to simulation."""
    return RmseReport(rows=_run([cfg], workers))


FIGURE_NAMES = ("fig5", "fig6", "fig7", "fig8")
_SNR_SWEEP = tuple(float(s) for s in range(10, 41, 5))
_SWEEP_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 0.95)


def _fig56_configs(master_seed, trials):
    layout = [("OMA", 64), ("OMA", 128), ("OMA", 256),
              ("CSMS", 63), ("CSMS", 127), ("CSMS", 255)]
    return [ScenarioConfig(scheme=s, code_length=l, n_elements=50,
                           snr_grid_db=_SNR_SWEEP, trials=trials, master_seed=master_seed)
            for s, l in layout]


def _v_sweep(code_length):
    vs = [int(f * code_length) for f in _SWEEP_FRACTIONS] + [code_length]
    if code_length == 511:
        vs.insert(-1, 500)
    return vs


def _fig78_configs(master_seed, trials):
    layout = [("OMA", 512, (50,))] + [("CSMS", l, _v_sweep(l)) for l in (127, 255, 511)]
    return [ScenarioConfig(scheme=s, code_length=l, v_grid=vs, ev_n0_db=30.0,
                           trials=trials, master_seed=master_seed)
            for s, l, vs in layout]


def figure_configs(name, master_seed=DEFAULT_SEED, trials=None):
    """Scenario list behind a figure grid; fig5/fig6 and fig7/fig8 share grids."""
    trials = DEFAULT_TRIALS if trials is None else trials
    if name in ("fig5", "fig6"):
        return _fig56_configs(master_seed, trials)
    if name in ("fig7", "fig8"):
        return _fig78_configs(master_seed, trials)
    raise UnknownFigure(f"unknown figure {name!r}; expected one of {FIGURE_NAMES}")


def reproduce_figure(name, master_seed=DEFAULT_SEED, trials=None, workers=1):
    """Run the full grid behind one of the accuracy figures and return the report.

    fig5/fig6: 50 elements, code lengths 64/128/256 (orthogonal) and
    63/127/255 (cyclic-shift), SNR swept 10..40 dB in 5 dB steps.
    fig7/fig8: SNR fixed at 30 dB, element count swept up to the code
    length for lengths 127/255/511, with a 512-chip orthogonal benchmark.
    Gain and phase columns are both always present; the two names in
    each pair map to the same grid.  All the grid's points are one call on
    the process's pool, as in ``run_scenario``.
    """
    rows = _run(figure_configs(name, master_seed, trials), workers)
    grid_desc = ("V=50, OMA L in {64,128,256}, CSMS L in {63,127,255}, EvN0 10..40 dB step 5"
                 if name in ("fig5", "fig6") else
                 "EvN0=30 dB, OMA benchmark L=512, CSMS L in {127,255,511} with V swept to L")
    return RmseReport(rows=rows, comment=f"{name}: {grid_desc}; seed={master_seed}")
