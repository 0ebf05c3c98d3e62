"""Ground-truth element gains, receiver noise, and link-budget bookkeeping."""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DimensionError
from .receiver import new_array

# dB form of the Boltzmann constant used by the link budget (configurable
# per LinkBudget instance).
BOLTZMANN_DBW_HZ_K = -228.0


@dataclass(frozen=True)
class ElementGains:
    """Per-element complex channel gains: amplitude (linear) and phase (radians)."""

    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=np.float64)
        p = np.asarray(self.phases, dtype=np.float64)
        if a.shape != p.shape or a.ndim != 1:
            raise DimensionError("amplitudes and phases must be 1-D arrays of equal length")
        if np.any(a <= 0):
            raise DimensionError("amplitudes must be strictly positive")
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "phases", p)

    def __len__(self):
        return self.amplitudes.size

    @property
    def w(self):
        """Complex gain vector a_v * exp(j * phase_v)."""
        return self.amplitudes * np.exp(1j * self.phases)

    @classmethod
    def with_random_phases(cls, n_elements, rng):
        """Unit-amplitude gains with phases drawn uniformly from [0, 2*pi)."""
        return cls(
            amplitudes=np.ones(n_elements),
            phases=rng.uniform(0.0, 2.0 * np.pi, n_elements),
        )


@dataclass(frozen=True)
class LinkBudget:
    """dB-domain link parameters determining the per-element energy-to-noise ratio."""

    eirp_dbw: float
    path_loss_db: float
    g_over_t_dbk: float
    ts_seconds: float
    kb_dbw_hz_k: float = BOLTZMANN_DBW_HZ_K

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(value := getattr(self, f.name)):
                raise DimensionError(f"{f.name} must be finite, got {value}")
        if self.ts_seconds <= 0:
            raise DimensionError(f"ts_seconds must be positive, got {self.ts_seconds}")

    @classmethod
    def from_dict(cls, d):
        """Build from a scenario file's ``link_budget`` object; unknown or missing fields,
        bools and strings are refused with ``ConfigError``."""
        if not isinstance(d, dict):
            raise ConfigError(f"link_budget must be an object, got {d!r}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown link_budget fields: {sorted(unknown)}")
        missing = {"eirp_dbw", "path_loss_db", "g_over_t_dbk", "ts_seconds"} - set(d)
        if missing:
            raise ConfigError(f"link_budget is missing fields {sorted(missing)}")
        values = dict(d, kb_dbw_hz_k=d.get("kb_dbw_hz_k", BOLTZMANN_DBW_HZ_K))
        for name, v in values.items():
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ConfigError(f"link_budget field {name} must be a number, got {v!r}")
        return cls(**{name: float(v) for name, v in values.items()})


def ev_n0_from_link_budget(lb):
    """Per-element waveform energy over noise density, in dB."""
    return (lb.eirp_dbw - lb.path_loss_db + lb.g_over_t_dbk
            - lb.kb_dbw_hz_k + 10.0 * np.log10(lb.ts_seconds))


def noise_var_from_snr(ev_n0_db, amplitude):
    """Total complex noise variance realizing amplitude^2 / sigma^2 = Ev/N0."""
    if amplitude <= 0:
        raise DimensionError("amplitude must be positive")
    return amplitude**2 / 10.0 ** (ev_n0_db / 10.0)


def complex_awgn(rng, shape, noise_var, out=None):
    """Circularly-symmetric complex Gaussian noise of ``shape``, E|x|^2 = noise_var.

    ``shape`` is an int n or a tuple such as (T, n).  Draw order is part of
    the reproducibility contract: one block of standard normals of
    ``shape`` (C order) for the real parts, then one for the imaginary
    parts, each scaled by sqrt(noise_var / 2); one call draws both.  The
    noise goes to ``out``: a complex array of ``shape``, or a C-contiguous
    float64 (2, *shape) array of its real and imaginary planes, the form the
    receive chain adds its clean signal to and correlates, which the normals
    are drawn into and scaled in place.  ``out`` is a new complex array when
    not given.
    """
    if noise_var < 0:
        raise DimensionError("noise variance must be nonnegative")
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    scale = np.sqrt(noise_var / 2.0)
    if out is not None and not np.iscomplexobj(out):
        if out.shape != (2, *shape):
            raise DimensionError(f"planes of shape {out.shape} do not hold noise of shape {shape}")
        return np.multiply(rng.standard_normal(out=out), scale, out=out)
    normals = rng.standard_normal((2, *shape))
    noise = np.empty(shape, dtype=np.complex128) if out is None else out
    np.multiply(normals[0], scale, out=noise.real)
    np.multiply(normals[1], scale, out=noise.imag)
    return noise


def csms_clean_stream(code, weights, out=None, scratch=new_array):
    """Noise-free composite streams: periodic extension of the shifted-code sum.

    Element v is the code shifted by v chips.  ``weights`` are the complex
    element gains w_v on the last axis, 1 <= V <= L of them, with any
    leading batch axes; each row gives one stream of length L + V - 1, so
    that every element's correlation window fits.  Sample k equals
    sum_v w_v * code[(k - v) mod L]: the circular convolution of the code
    with the gains zero-padded to L.  ``out`` receives the streams, complex
    (..., n) or their real and imaginary planes as one float (2, ..., n)
    array, and is a new complex array when not given.  ``scratch`` gives the
    complex (..., L) spectrum as "spectrum".
    """
    code = np.asarray(code)
    weights = np.asarray(weights)
    length, n_elements = code.size, weights.shape[-1] if weights.ndim else 0
    if not 1 <= n_elements <= length:
        raise DimensionError(f"need 1 to {length} elements, got weights of shape {weights.shape}")
    lead = weights.shape[:-1]
    # Padded by hand: fft(weights, L) gives the same bytes, 1.5-2x slower on a block.
    placed = scratch("spectrum", lead + (length,), np.complex128)
    placed[..., :n_elements] = weights
    placed[..., n_elements:] = 0.0
    stream = np.fft.fft(placed, out=placed)
    # fft(code) first: the complex product's bytes depend on its operand order.
    np.multiply(np.fft.fft(code), stream, out=stream)
    np.fft.ifft(stream, out=stream)
    if out is None:
        out = np.empty(lead + (length + n_elements - 1,), dtype=np.complex128)
    pairs = [(out, stream)] if np.iscomplexobj(out) else zip(out, (stream.real, stream.imag))
    for part, values in pairs:
        part[..., :length] = values
        part[..., length:] = values[..., :n_elements - 1]
    return out
