"""Exception types shared across the toolkit."""


class R2RError(Exception):
    """Base class for toolkit errors."""


class DimensionError(R2RError):
    """Vector or matrix sizes do not agree with the process/controller."""


class NonFiniteActionError(R2RError):
    """An action entry is NaN or infinite."""


class HorizonError(R2RError):
    """Period index outside the configured horizon."""


class DegenerateDesignError(R2RError):
    """Ratio moments with a non-positive sigma or |sigma12| > sigma1*sigma2."""


class DegenerateDistributionError(R2RError):
    """|rho| = 1: the ratio distribution collapses to a degenerate law."""


class ConfigError(R2RError):
    """Invalid experiment or controller configuration."""


class UnidentifiableError(R2RError):
    """Model parameter cannot be identified from the given data."""


class PeriodAbortError(R2RError):
    """Inner iteration diverged even after repeated step-size halving."""


class UndefinedRatioError(R2RError):
    """Error ratio requested against a zero target coordinate."""
