"""Exception types shared across the package.

The CLI maps these onto exit codes: parse problems exit 2, violated
preconditions exit 3, and must-never-happen internal checks exit 4.
"""


class SketchError(Exception):
    """Base class for all library errors."""


class ParseError(SketchError, ValueError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PreconditionError(SketchError, ValueError):
    """An operation was called outside its stated preconditions."""


class DimensionMismatch(PreconditionError):
    """Operands live in different ambient dimensions."""


class NonNegativeRequired(PreconditionError):
    """Negative entries fed to an operation whose guarantees need them absent."""


class PreconditionShape(PreconditionError):
    """Matrix shape outside the range the witness construction supports."""


class PreconditionColumns(PreconditionError):
    """Some matrix column has no entry of absolute value >= 1/2."""


class PatternBudgetError(PreconditionError):
    """Requested sign-pattern enumeration exceeds the 2**24 budget."""


class EmbeddingMismatch(PreconditionError):
    """Embedded vectors come from incompatible maps (different params/seed)."""


class InternalCheckError(SketchError, RuntimeError):
    """A self-check that must never fail did; indicates a bug, not bad input."""
