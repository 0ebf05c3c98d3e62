"""Exception types shared across the package."""


class ArrayCalError(Exception):
    """Base class for all arraycal errors."""


class NonMaximalPolynomial(ArrayCalError):
    """The LFSR tap set does not produce a maximal-length sequence."""


class DimensionError(ArrayCalError):
    """Array shapes are inconsistent with the requested operation."""


class SingularError(ArrayCalError):
    """The equalizer matrix is singular for the given sizes."""


class ReferenceZero(ArrayCalError):
    """The reference element's estimated gain is zero; mismatch undefined."""


class NegativeRadicand(ArrayCalError):
    """Closed-form variance went negative: inputs are outside the model's regime."""


class ConfigError(ArrayCalError):
    """Scenario configuration violates an invariant."""


class UnknownFigure(ArrayCalError):
    """Requested figure name is not one of the known reproduction grids."""
