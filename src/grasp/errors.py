"""Exception types shared across the package.

CLI exit-code mapping: usage errors -> 2, ``DataError`` (and subclasses)
and ``OSError`` -> 3, ``NumericError`` -> 4.
"""


class GraspError(Exception):
    """Base class for all package-specific errors."""


class DataError(GraspError):
    """Malformed, empty, or inconsistent input data, or a split the protocol cannot use."""


class ParseError(DataError):
    """A text input failed to parse; names the file and carries the offending line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.line = line


class FormatError(DataError):
    """A binary file failed structural validation."""


class NumericError(GraspError):
    """Non-finite values encountered during optimization."""
