"""Exception types shared across the toolkit, and the value checks that raise :class:`ConfigError`."""

import math
import numbers

import numpy as np


class R2RError(Exception):
    """Base class for toolkit errors.

    One raised by a stack of rows names no row: ``harness.run_replication`` names its replication.
    """


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


# ---------------------------------------------------------------------------
# Value checks shared by every config level
# ---------------------------------------------------------------------------


def number(name: str, value) -> float:
    """``value`` as a finite float; a bool, a string or a non-finite value is a :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def positive(name: str, value) -> float:
    value = number(name, value)
    if not value > 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return value


def integer(name: str, value, low: int = 1) -> int:
    """``value`` as an int of at least ``low``; a bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def finite_array(name: str, value, ndmin: int = 1) -> np.ndarray:
    """``value`` as a float array of at least ``ndmin`` dimensions with finite entries."""
    try:
        arr = np.array(value, dtype=float, ndmin=ndmin)
    except (TypeError, ValueError):
        arr = None
    if arr is None or not np.isfinite(arr).all():  # a JSON null becomes nan
        raise ConfigError(f"{name} must be finite numbers, got {value!r}")
    return arr
