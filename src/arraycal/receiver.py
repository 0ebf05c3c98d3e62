"""Correlation-peak extraction, zero-forcing equalization, mismatch readout."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ReferenceZero, SingularError


def new_array(name, shape, dtype):
    """Each receive stage's default ``scratch``, which it asks for its temporaries by name."""
    return np.empty(shape, dtype)


def oma_estimate(code_matrix, window, scratch=new_array):
    """Per-element gain estimates from one (L,) window or a (..., L) batch.

    With orthonormal columns the correlation peaks C.T @ window are
    already unbiased gain estimates; no equalizer is needed.  ``window`` is
    complex or its float (2, ..., L) real and imaginary planes, which
    ``_correlate`` takes through one real product with the (L, V) matrix C
    into the complex (..., V) estimates, C-ordered in ``scratch("peaks")``.
    """
    code_matrix = np.asarray(code_matrix)
    planes = _planes(window)
    if code_matrix.ndim != 2 or planes.shape[-1:] != code_matrix.shape[:1]:
        raise DimensionError(f"need an (L, V) code matrix and an (..., L) window, got shapes "
                             f"{code_matrix.shape} and {np.shape(window)}")
    return _correlate(planes, *code_matrix.shape, code_matrix, scratch)


# The most entries, (L + V - 1) * V, of a dense matched filter.  Per 64-trial block
# (20 dB, one BLAS thread, 2-vCPU VM) the dense product took 23-27% less time than
# the FFT correlation at CSMS 63-255/50, 5-16% less at 255/204, 511/102 and 511/153
# (62 000-101 000 entries), 2% less at 511/204 (146 000), and 3-4% more at 255/242 and
# 255/255 (120 000-130 000), 12% more at 511/306 and 20-35% more at 511/408 and 511/511.
_DENSE_FILTER_ENTRIES = 100_000


def csms_matched_filter(code, n_elements):
    """The matched filter that ``csms_peaks`` applies to streams of L + V - 1 samples.

    Chosen by (L, V) alone: the dense (L + V - 1, V) matrix whose column v is
    the code from row v, zero elsewhere, when it has at most
    ``_DENSE_FILTER_ENTRIES`` entries; otherwise the spectrum
    conj(rfft(code, n_fft)) of the FFT correlation, n_fft the least length >= L + V - 1
    with no prime factor above 5.
    """
    code = np.asarray(code, dtype=np.float64)
    rows = code.size + n_elements - 1
    if rows * n_elements <= _DENSE_FILTER_ENTRIES:
        return _dense_filter(code, n_elements)
    return np.conj(np.fft.rfft(code, _smooth_length(rows)))


def _dense_filter(code, n_elements):
    """(L + V - 1, V) matrix F[k, v] = code[k - v] for 0 <= k - v < L, else 0."""
    padded = np.zeros(code.size + 2 * (n_elements - 1))
    padded[n_elements - 1:n_elements - 1 + code.size] = code
    windows = np.lib.stride_tricks.sliding_window_view(padded, code.size + n_elements - 1)
    return np.ascontiguousarray(windows[::-1].T)


def csms_peaks(code, n_elements, stream, *, matched_filter=None, scratch=new_array):
    """Single-filter correlation peaks recorded at the per-element epochs.

    peak[v] = sum_k code[k] * stream[k + v] for v < V = ``n_elements``, 1 <= V
    <= L: one matched filter output, read v samples after the first
    element's peak.  ``stream`` is a complex (..., n) batch, n >= L + V - 1,
    or its float (2, ..., n) real and imaginary planes, whose first L + V - 1
    samples ``_correlate`` takes through ``matched_filter``, by default
    ``csms_matched_filter(code, V)``, into the complex (..., V) peaks,
    C-ordered in ``scratch("peaks")``.
    """
    code = np.asarray(code)
    length = code.size
    if not 1 <= n_elements <= length:
        raise DimensionError(f"need 1 to {length} elements, got {n_elements}")
    width = length + n_elements - 1
    if np.ndim(stream) == 0 or np.shape(stream)[-1] < width:
        raise DimensionError(
            f"stream of shape {np.shape(stream)} too short for code length {length} "
            f"with {n_elements} elements")
    if matched_filter is None:
        matched_filter = csms_matched_filter(code, n_elements)
    return _correlate(_planes(stream), width, n_elements, matched_filter, scratch)


def _planes(stream):
    """A stream's real and imaginary planes as one float (2, ..., n) array: a complex
    stream split into a new one, or float planes as given."""
    stream = np.asarray(stream)
    if np.iscomplexobj(stream):
        return np.stack((stream.real, stream.imag))
    if stream.ndim < 2 or stream.shape[0] != 2:
        raise DimensionError(f"float input must be (2, ..., n) planes, got shape {stream.shape}")
    return stream


def _correlate(planes, width, n_peaks, matched_filter, scratch):
    """The complex (..., V) correlation, V = ``n_peaks``, of the first ``width`` samples of
    float (2, ..., n) ``planes``, whose rows are correlated as one real matrix: one product
    with a dense (width, V) ``matched_filter``, or a spectrum multiplied into their ``rfft``,
    zero-padded to ``_smooth_length(width)`` to keep lags unwrapped.  ``scratch`` gives the
    float "correlation" and complex "spectrum"; the correlation's two halves are the real
    and imaginary parts of the C-ordered result, ``scratch("peaks")``.
    """
    rows = planes.reshape(-1, planes.shape[-1])[:, :width]
    if matched_filter.ndim == 2:
        product = np.matmul(rows, matched_filter,
                            out=scratch("correlation", (len(rows), n_peaks), np.float64))
    else:
        n_fft = _smooth_length(width)
        spectrum = np.fft.rfft(rows, n_fft, out=scratch("spectrum", (len(rows), n_fft // 2 + 1),
                                                        np.complex128))
        np.multiply(spectrum, matched_filter, out=spectrum)
        product = np.fft.irfft(spectrum, n_fft, out=scratch("correlation", (len(rows), n_fft),
                                                            np.float64))[:, :n_peaks]
    halves = product.reshape(2, *planes.shape[1:-1], n_peaks)
    peaks = scratch("peaks", halves.shape[1:], np.complex128)
    peaks.real, peaks.imag = halves
    return peaks


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
    ``out``, if given, receives the estimates; it may be ``peaks`` itself.
    numpy sums each contiguous row of a C-ordered batch as it sums that row
    alone, so such a batch equalizes byte for byte as its rows do one by one.
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


def extract_mismatch(estimates, out=None, scratch=new_array):
    """Relative mismatch of every element against the first (reference) element.

    Invariant under any global complex scaling of the estimate vector.
    Element 0 of the last axis of a (V,) or (..., V) input is the reference.
    One pass: the gain divides the magnitudes by the first one, and the
    phase is the angle of e_v * conj(e_1), in (-180, 180] degrees with -180
    mapped to +180.  The report's gains and phases are the views
    ``out[..., 0, :]`` and ``out[..., 1, :]`` of one float (..., 2, V-1)
    array, a new one when not given; ``scratch`` gives the complex (..., V-1)
    products as "product".
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
    others = estimates[..., 1:]
    product = np.multiply(others, ref.conj(), out=scratch("product", others.shape, np.complex128))
    # np.angle(product, deg=True), written into phase_deg.
    np.multiply(np.arctan2(product.imag, product.real, out=phase_deg), 180 / np.pi, out=phase_deg)
    phase_deg[phase_deg == -180.0] = 180.0
    return MismatchReport(gain_db=gain_db, phase_deg=phase_deg)
