"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, data errors
(StreamFormatError, DataError) -> 2, BoundViolation and ConvergenceError
(the ERM oracle hit its iteration cap) -> 3.
"""


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
