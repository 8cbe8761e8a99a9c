"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SeasonalCusumError(Exception):
    """Base class for all package errors."""


class ParseError(SeasonalCusumError):
    """Malformed input row; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DuplicateKeyError(SeasonalCusumError):
    """Two rows share a key that must be unique."""


class ValidationError(SeasonalCusumError):
    """Input violates a domain invariant."""


class CoverageError(SeasonalCusumError):
    """A requested date or instant is outside the model calendar."""


class SingularDesignError(SeasonalCusumError):
    """Design matrix is rank deficient; names the dependent columns."""

    def __init__(self, columns: list[str]):
        self.columns = list(columns)
        super().__init__(f"design matrix is rank deficient in columns: {', '.join(self.columns)}")


class ConvergenceError(SeasonalCusumError):
    """Iterative fit failed to converge; carries the last deviance."""

    def __init__(self, message: str, deviance: float):
        self.deviance = deviance
        super().__init__(f"{message} (last deviance {deviance:.6g})")


class HorizonTooShortError(SeasonalCusumError):
    """Too many Monte Carlo paths were censored at the simulation horizon."""


class BracketingError(SeasonalCusumError):
    """Threshold search could not straddle the calibration target."""
