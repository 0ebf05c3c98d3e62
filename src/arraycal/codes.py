"""Signature-code generation and correlation properties.

Two code families are supported: maximal-length LFSR sequences
(m-sequences, odd length 2^r - 1) for the cyclic-shift scheme, and
Walsh columns of a Sylvester-Hadamard matrix (power-of-two length) for
the orthogonal scheme.  Bipolar codes are normalized so that a code's
inner product with itself is exactly 1.  ``msequence_code`` and
``walsh_matrix`` build each distinct code once per process and hand out
a fresh, writable copy on every call.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonMaximalPolynomial

# Known-primitive feedback polynomials, one per degree.  Exponents of the
# nonzero terms besides x^0; the maximality check below re-verifies every
# generation, so a bad entry fails loudly instead of silently degrading
# correlation properties.
DEFAULT_TAPS = {
    3: (3, 1),
    4: (4, 1),
    5: (5, 2),
    6: (6, 5, 3, 2),
    7: (7, 6, 3, 1),
    8: (8, 5, 3, 2),
    9: (9, 5),
    10: (10, 7),
}

MIN_DEGREE = min(DEFAULT_TAPS)
MAX_DEGREE = max(DEFAULT_TAPS)


@dataclass(frozen=True)
class BinarySequence:
    """One period of a {0,1} shift-register sequence of degree ``degree``."""

    bits: np.ndarray
    degree: int

    def __len__(self):
        return len(self.bits)

    @property
    def ones_count(self):
        return int(np.sum(self.bits))


def default_taps_for_length(length):
    """Default primitive polynomial taps for an m-sequence of ``length`` chips."""
    degree = int(length + 1).bit_length() - 1
    if 2**degree - 1 != length or degree not in DEFAULT_TAPS:
        raise DimensionError(f"no m-sequence of length {length}; need 2^r - 1 with "
                             f"{MIN_DEGREE} <= r <= {MAX_DEGREE}")
    return DEFAULT_TAPS[degree]


def generate_msequence(degree, taps=None):
    """Run a Fibonacci LFSR from the all-ones state for one full period.

    ``taps`` lists the exponents of the feedback polynomial's nonzero
    terms (the degree itself must be included); defaults come from
    ``DEFAULT_TAPS``.  Raises ``NonMaximalPolynomial`` when the register
    state cycles back to the seed in fewer than 2^degree - 1 steps,
    i.e. the polynomial is not primitive.
    """
    if not MIN_DEGREE <= degree <= MAX_DEGREE:
        raise DimensionError(f"degree must be in [{MIN_DEGREE}, {MAX_DEGREE}], got {degree}")
    if taps is None:
        taps = DEFAULT_TAPS[degree]
    taps = tuple(sorted(set(int(t) for t in taps), reverse=True))
    if not taps or taps[0] != degree or taps[-1] < 1:
        raise DimensionError(f"taps {taps} do not describe a degree-{degree} polynomial")

    period = 2**degree - 1
    seed = (1,) * degree
    state = seed
    bits = np.empty(period, dtype=np.int8)
    for k in range(period):
        bits[k] = state[-1]
        feedback = 0
        for t in taps:
            feedback ^= state[t - 1]
        state = (feedback,) + state[:-1]
        if state == seed and k + 1 < period:
            raise NonMaximalPolynomial(
                f"taps {taps}: register cycled after {k + 1} steps, need {period}")
    if state != seed:
        raise NonMaximalPolynomial(f"taps {taps}: register did not close a period-{period} cycle")
    return BinarySequence(bits=bits, degree=degree)


def to_bipolar(seq):
    """Map a {0,1} sequence to a normalized bipolar code: 0 -> +1/sqrt(L), 1 -> -1/sqrt(L)."""
    bits = seq.bits if isinstance(seq, BinarySequence) else np.asarray(seq)
    if bits.size < 1:
        raise DimensionError("empty sequence")
    length = bits.size
    return (1.0 - 2.0 * bits.astype(np.float64)) / np.sqrt(length)


def walsh_matrix(length, count):
    """First ``count`` columns of the order-``length`` Sylvester-Hadamard matrix, scaled 1/sqrt(L).

    Columns are mutually orthonormal, so the code matrix C satisfies
    C.T @ C = I exactly up to rounding.  Only the kept columns are built:
    column 2^b + j (j < 2^b) is column j times (-1)^(bit b of the row index).
    """
    if length < 1 or length & (length - 1) != 0:
        raise DimensionError(f"Walsh code length must be a power of two, got {length}")
    if not 1 <= count <= length:
        raise DimensionError(f"cannot draw {count} codes of length {length}")
    return _walsh_columns(length, int(count - 1).bit_length())[:, :count].copy()


@functools.lru_cache(maxsize=None)
def _walsh_columns(length, bits):
    # Keyed by the 2^bits columns built, not by count, so that each length holds at
    # most log2(length) + 1 matrices, of 2 L^2 floats in all, whatever counts are asked.
    h = np.ones((length, 1))
    for bit in range(bits):
        h = np.hstack((h, h * (1.0 - 2.0 * (np.arange(length)[:, None] >> bit & 1))))
    return h / np.sqrt(length)


def periodic_autocorrelation(code, lag):
    """Circular autocorrelation sum_k code[k] * code[(k + lag) mod L]."""
    code = np.asarray(code)
    if not 0 <= lag < code.size:
        raise DimensionError(f"lag {lag} outside [0, {code.size})")
    return float(np.dot(code, np.roll(code, -int(lag))))


def msequence_code(length, taps=None):
    """Convenience: normalized bipolar m-sequence of ``length`` = 2^r - 1 chips."""
    return _msequence_code(length, None if taps is None else tuple(taps)).copy()


@functools.lru_cache(maxsize=None)
def _msequence_code(length, taps):
    # A raised error is not cached: bad taps fail on every call.
    degree = int(length + 1).bit_length() - 1
    if 2**degree - 1 != length:
        raise DimensionError(f"{length} is not of the form 2^r - 1")
    return to_bipolar(generate_msequence(degree, taps))
