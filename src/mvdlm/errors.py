"""Exception hierarchy for model validation, filtering and data handling."""


class MvdlmError(Exception):
    """Base class for all library errors."""


class NonPositiveDefinite(MvdlmError):
    """A matrix required to be symmetric positive definite is not."""


class DiscountOutOfRange(MvdlmError):
    """A discount factor lies outside (0, 1]."""


class DegenerateDegrees(MvdlmError):
    """The working degrees of freedom are undefined (mean discount equals 1)."""


class DofTooSmall(MvdlmError):
    """Degrees of freedom too small for a density, moment or standardization."""


class StateOverflow(MvdlmError):
    """The state covariance overflowed to a non-finite value."""


class DimensionMismatch(MvdlmError):
    """An array does not have the shape the model requires."""


class FeatureUnavailable(MvdlmError):
    """A moment or statistic is undefined under the current discounts."""


class RankDeficient(MvdlmError):
    """A transformation matrix does not have full row rank."""


class EmptyData(MvdlmError):
    """An operation received no observations."""


class EmptyGrid(MvdlmError):
    """A grid search received no candidates."""


class LengthMismatch(MvdlmError):
    """Two paired sequences have different lengths."""


class InvalidWeights(MvdlmError):
    """Portfolio weights are not a valid simplex vector."""


class NoPositiveEigenvalues(MvdlmError):
    """The volatility-transition factor has no positive eigenvalues."""


class DataError(MvdlmError):
    """Base class for ingestion problems; carries the offending location."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class ParseError(DataError):
    """A cell could not be parsed."""


class NonPositivePrice(DataError):
    """A price cell is zero or negative."""


class NonMonotoneDates(DataError):
    """Dates are not strictly increasing."""


class TooFewRows(DataError):
    """Not enough rows to compute returns."""


class ConfigError(MvdlmError):
    """A configuration file is missing keys or holds invalid values."""
