"""Exception taxonomy for the rebal package.

Every error raised by the library derives from RebalError so callers can
catch one type at the pipeline boundary.
"""

import numbers
import sys


class RebalError(Exception):
    """Base class for all rebal errors."""


class ParseError(RebalError):
    """A file could not be parsed (malformed row, bad header, bad number)."""

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = ("" if path is None else f"{path}") + ("" if line is None else f":{line}")
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class ValidationError(RebalError):
    """Parsed data violates an invariant (duplicate date, bad price, ...)."""


class AlignmentError(RebalError):
    """Series cannot be aligned onto a common calendar."""


class WindowError(RebalError):
    """A date window is empty, degenerate, or outside the data range."""


class AllocationError(RebalError):
    """Portfolio construction is impossible (non-positive price, ...)."""


class InsolvencyError(RebalError):
    """Portfolio value is non-positive at a rebalance."""


class DomainError(RebalError):
    """Numeric input outside the mathematical domain of an operation."""


class UndefinedMetricError(RebalError):
    """A metric is mathematically undefined on this input (zero variance,
    zero drawdown, empty tail).  Reported as not-computable, never as
    infinity."""


class ConfigError(RebalError):
    """Run configuration is invalid or inconsistent."""


def describe(value) -> str:
    """``repr(value)``, or a short note for an int past Python's int-to-str limit."""
    try:
        return repr(value)
    except ValueError:  # such an int, or a container holding one
        return f"<{type(value).__name__} too long to print>"


def require_number(name: str, value) -> float:
    """``value`` as a float if it is a real number other than a bool within
    the float range, so neither nan nor infinite; else raise DomainError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise DomainError(f"{name} must be a finite number, got {describe(value)}")
    return float(value)
