"""Exception hierarchy shared across the package."""

from __future__ import annotations

from pathlib import Path


class SeasonalCusumError(Exception):
    """Base class for all package errors."""


class ParseError(SeasonalCusumError):
    """Malformed input row; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file, less a leading byte-order mark (as Excel's "CSV UTF-8" writes).

    A byte that does not decode is a ParseError on its line.
    """
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is what was decoded: the file's bytes after any byte-order mark.
        data = exc.object
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not valid UTF-8", line=line) from None


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
