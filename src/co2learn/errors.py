"""Exception types shared across the package.

The CLI reports an error as one stderr line and an exit code; its table
``cli.EXIT_CODES`` maps each of these types (and OSError and MemoryError)
to its code and line prefix."""

import math
import sys
from numbers import Real


class ConfigError(ValueError):
    """Invalid experiment configuration (bad flag, missing field, bad JSON)."""


class DataError(ValueError):
    """Input data cannot be used (e.g. too few samples for the requested stream)."""


class StreamFormatError(DataError):
    """Malformed LIBSVM text. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConvergenceError(RuntimeError):
    """A solver hit its iteration cap before reaching its certificate."""


class BoundViolation(RuntimeError):
    """A measured quantity exceeded a bound that must hold on every run."""


def check_int(name: str, value, minimum: int | None = None,
              maximum: int | None = None) -> None:
    """Raise ConfigError unless ``value`` is an int (not a bool) within
    ``[minimum, maximum]``, either end open when not given."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)):
        bound = "" if minimum is None else f" >= {minimum}"
        bound += "" if maximum is None else f" and <= {maximum}"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")


def check_real(name: str, value, positive: bool = False, below: float = math.inf) -> None:
    """Raise ConfigError unless ``value`` is a real number (not a bool) that is
    > 0 (``positive``) or >= 0, < ``below``, and in the float range (not NaN)."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not (value > 0 if positive else value >= 0) or not value < below
            or value > sys.float_info.max):
        bound = ("> 0" if positive else ">= 0") + ("" if below == math.inf else f" and < {below}")
        raise ConfigError(f"{name} must be a finite number {bound}, got {value!r}")
