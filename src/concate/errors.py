"""Exception hierarchy shared across the package.

The CLI exits with the raised class's ``exit_code``: 2 for validation
problems, 3 for data problems, 4 for degenerate statistics.
"""

from __future__ import annotations


class ConcateError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class ValidationError(ConcateError):
    """A parameter or configuration value is outside its admissible range."""


class ConfigurationError(ValidationError):
    """A configuration is internally inconsistent or numerically unusable."""


class DataError(ConcateError):
    """Input data violate a contract (bad cell, inconsistent bound, duplicate key)."""

    exit_code = 3


class SchemaError(DataError):
    """A required column is missing from an input file."""


class RowError(DataError):
    """A single row could not be parsed.  Carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class DegenerateArmError(ConcateError):
    """One treatment arm is empty (or too small for a variance), so the
    identification region is degenerate at this threshold."""

    exit_code = 4


class EmptyScanError(ConcateError):
    """Every threshold on the grid was skipped, leaving nothing to report."""

    exit_code = 4
