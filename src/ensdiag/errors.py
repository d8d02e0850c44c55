"""Exception types shared across the package, and the quoting of a bad cell in their messages."""

from __future__ import annotations

__all__ = [
    "EnsdiagError",
    "ValidationError",
    "AlignmentError",
    "PerfectModelError",
    "ZeroNormError",
    "CsvFormatError",
    "CsvParseError",
]


class EnsdiagError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(EnsdiagError, ValueError):
    """Input data or parameters violate a documented precondition."""


class AlignmentError(ValidationError):
    """Model series and observations do not cover the same time points."""


class PerfectModelError(EnsdiagError):
    """A zero-residual member makes angle-based quantities undefined.

    Callers should short-circuit instead: a member that matches the
    observations exactly is already optimal on its own.
    """

    def __init__(self, indices) -> None:
        self.indices = tuple(int(i) for i in indices)
        listed = ", ".join(str(i) for i in self.indices)
        noun = "model" if len(self.indices) == 1 else "models"
        super().__init__(
            f"{noun} {listed} reproduce the observations exactly; "
            "residual angles are undefined for zero-residual members"
        )


class ZeroNormError(EnsdiagError):
    """All observations are zero, so observation-relative ratios are undefined."""


class CsvFormatError(EnsdiagError):
    """The CSV input does not have the expected overall structure."""


class CsvParseError(CsvFormatError):
    """A specific CSV cell could not be parsed; carries row and column."""

    def __init__(self, row: int, column: int, message: str) -> None:
        self.row = int(row)
        self.column = int(column)
        super().__init__(f"row {row}, column {column}: {message}")


#: Error messages quote at most this many characters of an offending cell.
_QUOTE_CHARS = 40


def _quote(cell: str) -> str:
    """``repr`` of a cell, cut after ``_QUOTE_CHARS`` characters and then
    followed by its length, so that one bad cell gives one short line."""
    if len(cell) <= _QUOTE_CHARS:
        return repr(cell)
    return f"{cell[:_QUOTE_CHARS] + '…'!r} ({len(cell)} characters)"
