"""Reference implementations the tests compare the library against.

The library never forms the dense V x V zero-forcing inverse: the
equalizer and the error theory use its two coefficients directly.  The
dense correlation matrix, the dense inverse and the dense covariance
product here are the plain-definition oracles for those shortcuts.

``log_ratio_moments_by_block`` computes every factor of
``theory.log_ratio_moments``' density, and its Gauss-Hermite or sinh
rule, inside the loop over element chunks.  The library computes the
per-element and per-node factors once for all elements of a rule and
must give the same bytes.  Both take the rule choice, chunk step and
nodes from ``theory._product_rules``, which reads the quadrature
constants at each call.

``cyclic_shift`` and ``aperiodic_autocorrelation`` are the plain code
operations the library's FFT stream synthesis and lag sums replace.
``two_angle_mismatch`` is the readout as a difference of two angles,
wrapped, which the library's one-pass readout replaces.

The oversampled chip-level waveform model (rectangular chip pulse, chip
matched filter, chip-rate sampling) shows that the oversampled picture
collapses to the discrete model, so the library can stay at one sample
per chip without loss.
"""

from dataclasses import dataclass

import numpy as np

from arraycal.codes import periodic_autocorrelation
from arraycal.errors import DimensionError
from arraycal.theory import _area_terms, _bend, _product_rules


def cyclic_shift(code, shift):
    """Cyclically delay a code by ``shift`` chips: out[k] = code[(k - shift) mod L]."""
    code = np.asarray(code)
    return np.roll(code, int(shift) % code.size)


def aperiodic_autocorrelation(code, lag):
    """Linear (non-wrapping) autocorrelation sum_{k>=lag} code[k] * code[k - lag]; 0 once lag >= L."""
    code = np.asarray(code)
    if lag < 0:
        raise DimensionError(f"lag must be nonnegative, got {lag}")
    if lag >= code.size:
        return 0.0
    lag = int(lag)
    return float(np.dot(code[lag:], code[: code.size - lag]))


def two_angle_mismatch(estimates):
    """Gain (dB) and phase (deg, in (-180, 180]) of elements 2..V against element 1,
    from two magnitudes and two angles per element."""
    estimates = np.asarray(estimates)
    gain_db = 20.0 * np.log10(np.abs(estimates[..., 1:]) / np.abs(estimates[..., :1]))
    phase = np.degrees(np.angle(estimates[..., 1:]) - np.angle(estimates[..., :1]))
    phase = np.mod(phase + 180.0, 360.0) - 180.0
    return gain_db, np.where(phase == -180.0, 180.0, phase)


def build_correlation_matrix(code, offsets):
    """Cross-correlation matrix of the shifted codes at the peak epochs.

    Entry (y, z) is the periodic autocorrelation of the code at lag
    offsets[z] - offsets[y].  For an m-sequence this is 1 on the diagonal
    and -1/L everywhere else, independent of the distinct shifts chosen.
    """
    code = np.asarray(code)
    offsets = np.asarray(offsets)
    if (offsets.ndim != 1 or np.unique(offsets).size != offsets.size
            or np.any((offsets < 0) | (offsets >= code.size))):
        raise DimensionError(f"offsets {offsets} are not distinct shifts in [0, {code.size})")
    lags = np.array([periodic_autocorrelation(code, lag) for lag in range(code.size)])
    diffs = np.subtract.outer(offsets, offsets) % code.size
    # autocorrelation is symmetric in the lag, so (z - y) and (y - z) agree
    return lags[diffs]


def zf_inverse_matrix(eq):
    """Dense V x V form of a ``ZfEqualizer``: ``diag_coeff`` on the diagonal, ``cross_coeff`` off it."""
    v = eq.n_elements
    return (eq.diag_coeff - eq.cross_coeff) * np.eye(v) + eq.cross_coeff * np.ones((v, v))


def dense_gain_noise_cov(eq, peak_cov):
    """Covariance of the equalized gain estimates, inv @ P @ inv, by dense products."""
    inv = zf_inverse_matrix(eq)
    return inv @ np.asarray(peak_cov) @ inv


def log_ratio_moments_by_block(snr_inv_1, snr_inv_v, rho, dphi):
    """``theory.log_ratio_moments`` with all its work done chunk by chunk.

    Each rule's elements are chunked among themselves, by that rule's
    step, and each chunk's nodes and weights are built for it alone.
    """
    t1, tv, rho, dphi = (np.ravel(a).astype(np.float64)
                         for a in np.broadcast_arrays(snr_inv_1, snr_inv_v, rho, dphi))
    out = np.zeros((3, t1.size))
    for rows, step, rule in _product_rules(t1, tv, rho, _area_terms(t1, tv, rho, dphi)[3]):
        for lo in range(0, rows.size, step):
            i = rows[lo:lo + step]
            out[:, i] = _block_moments(t1[i], tv[i], rho[i], dphi[i], *rule(i))
    return out


def _block_moments(t1, tv, rho, dphi, u, wu, theta, wt):
    root_1, q, floor, m = _area_terms(t1, tv, rho, dphi)
    det = t1 * floor
    exp_u = np.exp(u)
    p = root_1[:, None] * exp_u
    bend = _bend(theta + dphi[:, None], rho[:, None])
    area = (4.0 * p * q[:, None])[:, :, None] * bend[:, None, :]
    area += ((p - q[:, None]) ** 2 + floor[:, None])[:, :, None]
    e = (4.0 * exp_u)[:, :, None] * (np.sin(theta / 2.0) ** 2)[:, None, :]
    e += (np.expm1(u) ** 2)[:, :, None]
    e /= area
    dens = np.negative(e)
    np.exp(dens, out=dens)
    e *= -det[:, None, None]
    e += (det + m)[:, None, None]
    dens *= e
    dens /= area
    dens /= area
    wu *= exp_u * exp_u / np.pi
    pu = np.matmul(dens, wt[:, :, None])[:, :, 0] * wu
    pt = np.matmul(wu[:, None, :], dens)[:, 0, :] * wt
    return (pu * u).sum(axis=1), (pu * u * u).sum(axis=1), (pt * theta * theta).sum(axis=1)


@dataclass(frozen=True)
class OversampledWaveform:
    """Baseband waveform sampled ``oversample`` times per chip."""

    samples: np.ndarray
    oversample: int
    chip_duration: float = 1.0

    def __post_init__(self):
        if self.oversample < 2:
            raise DimensionError(f"oversample factor must be >= 2, got {self.oversample}")
        if self.samples.size % self.oversample != 0:
            raise DimensionError("sample count is not a multiple of the oversample factor")

    @property
    def n_chips(self):
        return self.samples.size // self.oversample


def synthesize_baseband(code, oversample, chip_duration=1.0):
    """Hold each chip value for ``oversample`` samples (unit-amplitude rectangular pulse).

    The pulse amplitude convention is 1 (not 1/chip_duration); the
    matched filter below normalizes its peak instead, which makes the
    chip-epoch samples equal the chip values exactly.
    """
    code = np.asarray(code)
    if code.size < 1:
        raise DimensionError("empty code")
    return OversampledWaveform(
        samples=np.repeat(code, oversample),
        oversample=int(oversample),
        chip_duration=float(chip_duration),
    )


def chip_matched_filter_and_sample(waveform):
    """Rectangular chip matched filter followed by one sample per chip epoch.

    Convolves with a length-``oversample`` rectangular pulse, scales so a
    chip-epoch sample of an aligned chip reproduces the chip value, and
    samples at the end of each chip interval.  Output length equals the
    chip count of the input.
    """
    f = waveform.oversample
    filtered = np.convolve(waveform.samples, np.ones(f)) / f
    return filtered[f - 1 :: f][: waveform.n_chips]
