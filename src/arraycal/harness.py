"""Monte-Carlo scenario runner, figure-reproduction grids, CSV reports.

Each grid point is built once into an immutable ``PointModel``; it feeds
one receive chain, in process or pickled to pool workers, and the theory.

Determinism contract: a report is a pure function of the scenario
configuration.  Every trial draws its noise (and, in per-trial phase
mode, its phases) from a generator seeded by the entropy triple
``[master_seed, point_index, 1 + trial_index]``; the per-point channel
phases come from ``[master_seed, point_index, 0]``.  Trials are
therefore independent of execution order and worker count, and error
sums are reduced in fixed trial order.
"""

import csv
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import theory as accuracy
from .channel import (ElementGains, LinkBudget, complex_awgn, csms_clean_stream,
                      ev_n0_from_link_budget, noise_var_from_snr)
from .codes import default_taps_for_length, msequence_code, walsh_matrix
from .errors import ConfigError, UnknownFigure
from .receiver import (ZfEqualizer, csms_peaks, extract_mismatch, oma_estimate,
                       wrap_degrees, zf_equalize)

SCHEMES = ("OMA", "CSMS")
PHASE_POLICIES = ("per-point", "per-trial")
DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 1729
STDERR_BATCHES = 25

CSV_COLUMNS = [
    "scheme", "V", "L", "ev_n0_db",
    "gain_rmse_theory_db", "gain_rmse_sim_db", "gain_rmse_sim_stderr",
    "phase_rmse_theory_deg", "phase_rmse_sim_deg", "phase_rmse_sim_stderr",
    "trials", "seed",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: a scheme, a code, and a grid of operating points.

    Exactly one of ``snr_grid_db`` (fixed element count, swept SNR) and
    ``v_grid`` (fixed SNR, swept element count) must be given.
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
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if (self.snr_grid_db is None) == (self.v_grid is None):
            raise ConfigError("exactly one of snr_grid_db / v_grid must be set")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.phase_policy not in PHASE_POLICIES:
            raise ConfigError(f"phase_policy must be one of {PHASE_POLICIES}")
        if self.snr_grid_db is not None:
            object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
            if not self.snr_grid_db:
                raise ConfigError("snr_grid_db is empty")
            if self.n_elements is None:
                raise ConfigError("n_elements is required with snr_grid_db")
            self._check_elements(self.n_elements)
        else:
            object.__setattr__(self, "v_grid", tuple(int(v) for v in self.v_grid))
            if not self.v_grid:
                raise ConfigError("v_grid is empty")
            if self.ev_n0_db is None:
                raise ConfigError("ev_n0_db (or a link budget) is required with v_grid")
            for v in self.v_grid:
                self._check_elements(v)
        # +inf is valid and means noise-free.
        for snr in (*(self.snr_grid_db or ()), self.ev_n0_db):
            if snr is not None and (math.isnan(snr) or snr == -math.inf):
                raise ConfigError(f"snr_grid_db and ev_n0_db must be numbers or +inf, got {snr}")
        if self.taps is not None:
            object.__setattr__(self, "taps", tuple(int(t) for t in self.taps))
            if self.scheme != "CSMS":
                raise ConfigError("taps only apply to the CSMS scheme")
        # Fails here (not mid-run) if the code length is unsupported.
        if self.scheme == "CSMS" and self.taps is None:
            object.__setattr__(self, "taps", default_taps_for_length(self.code_length))
        if self.scheme == "OMA" and self.code_length & (self.code_length - 1) != 0:
            raise ConfigError(f"OMA requires a power-of-two code length, got {self.code_length}")

    def _check_elements(self, v):
        if not 2 <= v <= self.code_length:
            raise ConfigError(
                f"element count {v} must satisfy 2 <= V <= code length {self.code_length}")

    @classmethod
    def from_dict(cls, d):
        """Build from the scenario-file layout (see docs/scenario_schema.json)."""
        d = dict(d)
        known = {"scheme", "code_length", "n_elements", "snr_grid_db", "v_grid", "ev_n0_db",
                 "link_budget", "trials", "master_seed", "taps", "phase_policy",
                 "amplitude_policy"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        if d.get("amplitude_policy", "all-ones") != "all-ones":
            raise ConfigError("only the all-ones amplitude policy is supported")
        ev_n0_db = d.get("ev_n0_db")
        if "link_budget" in d:
            if ev_n0_db is not None:
                raise ConfigError("give either ev_n0_db or link_budget, not both")
            try:
                lb = LinkBudget.from_dict(d["link_budget"])
            except KeyError as e:
                raise ConfigError(f"link_budget is missing field {e}") from None
            ev_n0_db = ev_n0_from_link_budget(lb)
        try:
            return cls(
                scheme=str(d["scheme"]).upper(),
                code_length=int(d["code_length"]),
                n_elements=None if d.get("n_elements") is None else int(d["n_elements"]),
                snr_grid_db=d.get("snr_grid_db"),
                v_grid=d.get("v_grid"),
                ev_n0_db=None if ev_n0_db is None else float(ev_n0_db),
                trials=int(d.get("trials", DEFAULT_TRIALS)),
                master_seed=int(d.get("master_seed", DEFAULT_SEED)),
                taps=d.get("taps"),
                phase_policy=d.get("phase_policy", "per-point"),
            )
        except KeyError as e:
            raise ConfigError(f"scenario file is missing field {e}") from None


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

    ``code`` is the m-sequence (CSMS) or the Walsh matrix (OMA, Fortran
    order so that ``code.T`` is contiguous).  ``signal`` is ``_realize`` of
    ``gains``, or None with per-trial phases: each trial then draws its own.
    """

    point: GridPoint
    master_seed: int
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
            code, eq = np.asfortranarray(walsh_matrix(l, v)), None
        else:
            code, eq = msequence_code(l, cfg.taps), ZfEqualizer.for_dimensions(l, v)
        signal = None if cfg.phase_policy == "per-trial" else _realize(point, code, gains)
        return cls(point, cfg.master_seed, noise_var_from_snr(point.ev_n0_db, 1.0),
                   gains, code, eq, signal)

    def noise_stats(self):
        """Error statistics of the receiver's gain estimates at this point."""
        if self.point.scheme == "OMA":
            return accuracy.oma_noise_stats(self.noise_var, self.point.n_elements)
        cov = accuracy.csms_peak_noise_cov(self.code, self.point.n_elements, self.noise_var)
        return accuracy.csms_gain_noise_stats(self.eq, cov)


def _realize(point, code, gains):
    """Truth (gain dB, phase deg) and noise-free receive signal for one set of gains."""
    truth_gain_db = 20.0 * np.log10(gains.amplitudes[1:] / gains.amplitudes[0])
    truth_phase_deg = np.degrees(gains.phases[1:] - gains.phases[0])
    if point.scheme == "OMA":
        clean = code @ gains.w
    else:
        clean = csms_clean_stream(code, range(point.n_elements), gains)
    return truth_gain_db, truth_phase_deg, clean


def _trial_errors(model, trial_index):
    """One synthesize -> receive -> extract pass; returns (gain, phase) error arrays.

    Pure in the model and the trial's generator: phases (per-trial mode), then noise.
    """
    point = model.point
    rng = rng_stream(model.master_seed, point.index, 1 + trial_index)
    if model.signal is None:
        gains = ElementGains.with_random_phases(point.n_elements, rng)
        truth_gain_db, truth_phase_deg, clean = _realize(point, model.code, gains)
    else:
        truth_gain_db, truth_phase_deg, clean = model.signal
    window = clean + complex_awgn(rng, clean.size, model.noise_var)
    if point.scheme == "OMA":
        estimates = oma_estimate(model.code, window)
    else:
        peaks = csms_peaks(model.code, range(point.n_elements), window)
        estimates = zf_equalize(peaks, model.eq)
    report = extract_mismatch(estimates)
    gain_err = report.gain_db - truth_gain_db
    phase_err = wrap_degrees(report.phase_deg - truth_phase_deg)
    return gain_err, phase_err


def run_trial(cfg, point, trial_index):
    """Public single-trial entry point; the same chain the scenario runner uses."""
    return _trial_errors(PointModel.build(cfg, point), trial_index)


def _trial_chunk(model, start, stop):
    errors = [_trial_errors(model, t) for t in range(start, stop)]
    return np.array([g for g, _ in errors])**2, np.array([p for _, p in errors])**2


def _batch_stderr(sq_errors):
    """Batch-means standard error of the element-averaged RMSE."""
    trials = sq_errors.shape[0]
    n_batches = min(STDERR_BATCHES, trials)
    if n_batches < 2:
        return 0.0
    edges = np.linspace(0, trials, n_batches + 1).astype(int)
    vals = np.array([np.sqrt(sq_errors[a:b].mean(axis=0)).mean()
                     for a, b in zip(edges[:-1], edges[1:])])
    return float(vals.std(ddof=1) / np.sqrt(n_batches))


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


def _run_point(cfg, point, workers):
    model = PointModel.build(cfg, point)
    trials = cfg.trials
    if workers > 1 and trials >= 4 * workers:
        edges = np.linspace(0, trials, workers * 4 + 1).astype(int)
        spans = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_trial_chunk, [model] * len(spans),
                                  [a for a, _ in spans], [b for _, b in spans]))
        gain_sq = np.concatenate([p[0] for p in parts], axis=0)
        phase_sq = np.concatenate([p[1] for p in parts], axis=0)
    else:
        gain_sq, phase_sq = _trial_chunk(model, 0, trials)

    predicted = accuracy.theory_point(model.gains, model.noise_stats())
    return RmseRow(
        scheme=point.scheme,
        n_elements=point.n_elements,
        code_length=point.code_length,
        ev_n0_db=point.ev_n0_db,
        gain_rmse_theory_db=accuracy.average_rmse(predicted.gain_rmse_db),
        gain_rmse_sim_db=float(np.sqrt(gain_sq.mean(axis=0)).mean()),
        gain_rmse_sim_stderr=_batch_stderr(gain_sq),
        phase_rmse_theory_deg=accuracy.average_rmse(predicted.phase_rmse_deg),
        phase_rmse_sim_deg=float(np.sqrt(phase_sq.mean(axis=0)).mean()),
        phase_rmse_sim_stderr=_batch_stderr(phase_sq),
        trials=cfg.trials,
        seed=cfg.master_seed,
    )


def run_scenario(cfg, workers=1):
    """Run every grid point of a scenario and report theory next to simulation.

    ``workers`` is capped at ``os.cpu_count()``."""
    workers = max(1, min(int(workers), os.cpu_count() or 1))
    rows = [_run_point(cfg, point, workers) for point in scenario_points(cfg)]
    return RmseReport(rows=tuple(rows))


FIGURE_NAMES = ("fig5", "fig6", "fig7", "fig8")
_SNR_SWEEP = tuple(float(s) for s in range(10, 41, 5))
_SWEEP_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 0.95)


def _fig56_configs(master_seed, trials):
    t = trials or DEFAULT_TRIALS
    layout = [("OMA", 64), ("OMA", 128), ("OMA", 256),
              ("CSMS", 63), ("CSMS", 127), ("CSMS", 255)]
    return [ScenarioConfig(scheme=s, code_length=l, n_elements=50,
                           snr_grid_db=_SNR_SWEEP, trials=t, master_seed=master_seed)
            for s, l in layout]


def _v_sweep(code_length):
    vs = [int(f * code_length) for f in _SWEEP_FRACTIONS] + [code_length]
    if code_length == 511:
        vs.insert(-1, 500)
    return vs


def _fig78_configs(master_seed, trials):
    def sweep(scheme, code_length, v_grid, default_trials):
        return ScenarioConfig(scheme=scheme, code_length=code_length, v_grid=v_grid,
                              ev_n0_db=30.0, trials=trials or default_trials,
                              master_seed=master_seed)

    vs511 = _v_sweep(511)
    return [sweep("OMA", 512, (50,), DEFAULT_TRIALS),
            sweep("CSMS", 127, _v_sweep(127), DEFAULT_TRIALS),
            sweep("CSMS", 255, _v_sweep(255), DEFAULT_TRIALS),
            sweep("CSMS", 511, [v for v in vs511 if v <= 204], DEFAULT_TRIALS),
            sweep("CSMS", 511, [v for v in vs511 if 204 < v <= 408], 3_000),
            sweep("CSMS", 511, [v for v in vs511 if v > 408], 1_000)]


def figure_configs(name, master_seed=DEFAULT_SEED, trials=None):
    """Scenario list behind a figure grid; fig5/fig6 and fig7/fig8 share grids."""
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
    each pair map to the same grid.
    """
    configs = figure_configs(name, master_seed, trials)
    rows = []
    for cfg in configs:
        rows.extend(run_scenario(cfg, workers=workers).rows)
    grid_desc = ("V=50, OMA L in {64,128,256}, CSMS L in {63,127,255}, EvN0 10..40 dB step 5"
                 if name in ("fig5", "fig6") else
                 "EvN0=30 dB, OMA benchmark L=512, CSMS L in {127,255,511} with V swept to L")
    return RmseReport(rows=tuple(rows),
                      comment=f"{name}: {grid_desc}; seed={master_seed}")
