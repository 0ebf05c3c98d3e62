"""Correlation-peak extraction, zero-forcing equalization, mismatch readout."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ReferenceZero, SingularError


def oma_estimate(code_matrix, window, out=None):
    """Per-element gain estimates from one (L,) window or a (..., L) batch.

    With orthonormal columns the correlation peaks C.T @ window are
    already unbiased gain estimates; no equalizer is needed.  ``out``, if
    given, receives them.
    """
    code_matrix = np.asarray(code_matrix)
    window = np.asarray(window)
    if window.shape[-1:] != code_matrix.shape[:1]:
        raise DimensionError(f"window shape {window.shape} != (..., {code_matrix.shape[0]})")
    return np.matmul(window, code_matrix, out=out)


def csms_peaks(code, n_elements, stream, out=None, *, filter_fft=None, spectrum=None):
    """Single-filter correlation peaks recorded at the per-element epochs.

    peak[v] = sum_k code[k] * stream[k + v] for v < V = ``n_elements``, 1 <= V
    <= L: one matched filter output, read v samples after the first
    element's peak, as an FFT cross-correlation over the last axis of a
    (..., n) stream batch.  Its length n_fft, the smallest >= n >= L + V - 1
    with no prime factor above 5, keeps lags unwrapped; a stream already
    zero-padded to it gives the same bytes.  Optional buffers, each a new
    array when not given: ``out`` for the (..., V) peaks, whose layout is
    kept, ``spectrum`` a complex (..., n_fft) scratch array, which may be
    the stream itself, and ``filter_fft`` the filter's spectrum
    conj(fft(code, n_fft)).
    """
    code = np.asarray(code)
    stream = np.asarray(stream)
    length = code.size
    if not 1 <= n_elements <= length:
        raise DimensionError(f"need 1 to {length} elements, got {n_elements}")
    if stream.ndim == 0 or stream.shape[-1] < length + n_elements - 1:
        raise DimensionError(
            f"stream of shape {stream.shape} too short for code length {length} "
            f"with {n_elements} elements")
    n_fft = _smooth_length(stream.shape[-1])
    if filter_fft is None:
        filter_fft = np.conj(np.fft.fft(code, n_fft))
    spectrum = np.fft.fft(stream, n_fft, out=spectrum)
    np.multiply(spectrum, filter_fft, out=spectrum)
    np.fft.ifft(spectrum, out=spectrum)
    if out is not None:
        out[...] = spectrum[..., :n_elements]
        return out
    # A gather, not a slice: its F-ordered (T, V) result fixes the order in
    # which zf_equalize sums the peaks, and so the report bytes.  A (1, V)
    # block (trials = 1 mod 64) is also C-ordered, so numpy sums it pairwise.
    return spectrum[..., np.arange(n_elements)]


def _smooth_length(n):
    """Smallest integer >= n >= 1 with no prime factor above 5: mixed-radix
    FFT cost follows the length's factors, so it beats the next power of two."""
    best = 1 << (n - 1).bit_length()
    odd = 1  # each 3^i 5^j below best, times the least power of two reaching n
    while odd < best:
        factor = odd
        while factor < best:
            best = min(best, factor << (-(-n // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


@dataclass(frozen=True)
class ZfEqualizer:
    """Two-coefficient inverse of the m-sequence peak correlation matrix.

    The inverse has constant diagonal ``diag_coeff`` and constant
    off-diagonal ``cross_coeff``, so applying it costs O(V): one shared
    peak sum plus one scaled term per element.
    """

    code_length: int
    n_elements: int
    cross_coeff: float
    diag_coeff: float

    @classmethod
    def for_dimensions(cls, code_length, n_elements):
        l, v = int(code_length), int(n_elements)
        if v < 1:
            raise DimensionError("need at least one element")
        if l - v + 1 <= 0:
            raise SingularError(
                f"correlation matrix is singular for {v} elements on a length-{l} code")
        denom = (l + 1) * (l - v + 1)
        return cls(
            code_length=l,
            n_elements=v,
            cross_coeff=l / denom,
            diag_coeff=l * (l - v + 2) / denom,
        )


def zf_equalize(peaks, eq, out=None):
    """Cancel inter-element interference: equivalent to inverse-matrix times peaks.

    Uses the two-coefficient structure directly: out_v = cross * sum(peaks)
    + (diag - cross) * peak_v, over the last axis of a (..., V) batch.
    ``out``, if given, receives the estimates.
    """
    peaks = np.asarray(peaks)
    if peaks.shape[-1:] != (eq.n_elements,):
        raise DimensionError(f"expected {eq.n_elements} peaks, got shape {peaks.shape}")
    total = peaks.sum(axis=-1, keepdims=True)
    scaled = np.multiply(eq.diag_coeff - eq.cross_coeff, peaks, out=out)
    return np.add(eq.cross_coeff * total, scaled, out=scaled)


def wrap_degrees(angle_deg):
    """Wrap angles to (-180, 180] degrees."""
    wrapped = np.mod(np.asarray(angle_deg, dtype=np.float64) + 180.0, 360.0) - 180.0
    return np.where(wrapped == -180.0, 180.0, wrapped)


@dataclass(frozen=True)
class MismatchReport:
    """Relative gain (dB) and phase (degrees) of elements 2..V versus element 1."""

    gain_db: np.ndarray
    phase_deg: np.ndarray

    def __len__(self):
        return self.gain_db.shape[-1]


def extract_mismatch(estimates, out=None, work=None):
    """Relative mismatch of every element against the first (reference) element.

    Invariant under any global complex scaling of the estimate vector.
    Element 0 of the last axis of a (V,) or (..., V) input is the reference.
    One pass: the gain divides the magnitudes by the first one, and the
    phase is the angle of e_v * conj(e_1), in (-180, 180] degrees with -180
    mapped to +180.  The report's gains and phases are the views
    ``out[..., 0, :]`` and ``out[..., 1, :]`` of one float (..., 2, V-1)
    array; ``work`` is a complex (..., V-1) scratch array.  Each is a new
    array when not given.
    """
    estimates = np.asarray(estimates)
    if estimates.ndim == 0 or estimates.shape[-1] < 2:
        raise DimensionError("need at least two elements to form a mismatch")
    ref = estimates[..., :1]
    if np.any(ref == 0):
        raise ReferenceZero("reference element estimate is zero")
    if out is None:
        out = np.empty(estimates.shape[:-1] + (2, estimates.shape[-1] - 1))
    gain_db, phase_deg = out[..., 0, :], out[..., 1, :]
    np.divide(np.abs(estimates[..., 1:], out=gain_db), np.abs(ref), out=gain_db)
    np.multiply(20.0, np.log10(gain_db, out=gain_db), out=gain_db)
    product = np.multiply(estimates[..., 1:], ref.conj(), out=work)
    # np.angle(product, deg=True), written into phase_deg.
    np.multiply(np.arctan2(product.imag, product.real, out=phase_deg), 180 / np.pi, out=phase_deg)
    phase_deg[phase_deg == -180.0] = 180.0
    return MismatchReport(gain_db=gain_db, phase_deg=phase_deg)
