"""Reference implementations the tests compare the library against.

The library never forms the dense V x V zero-forcing inverse: the
equalizer and the error theory use its two coefficients directly.  The
dense correlation matrix, the dense inverse and the dense covariance
product here are the plain-definition oracles for those shortcuts.

The oversampled chip-level waveform model (rectangular chip pulse, chip
matched filter, chip-rate sampling) shows that the oversampled picture
collapses to the discrete model, so the library can stay at one sample
per chip without loss.
"""

from dataclasses import dataclass

import numpy as np

from arraycal.channel import validate_offsets
from arraycal.codes import periodic_autocorrelation
from arraycal.errors import DimensionError


def build_correlation_matrix(code, offsets):
    """Cross-correlation matrix of the shifted codes at the peak epochs.

    Entry (y, z) is the periodic autocorrelation of the code at lag
    offsets[z] - offsets[y].  For an m-sequence this is 1 on the diagonal
    and -1/L everywhere else, independent of the offsets chosen.
    """
    code = np.asarray(code)
    offsets = validate_offsets(offsets, code.size)
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
