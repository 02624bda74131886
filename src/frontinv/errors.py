"""Error types shared across the package.

Every error carries a stable ``code`` string so the CLI can surface
diagnostics verbatim.
"""

from __future__ import annotations


class FrontError(Exception):
    """Base class; ``code`` is a stable machine-readable identifier."""

    code = "FRONT_ERROR"

    def __init__(self, message: str, *, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class ParseError(FrontError):
    """Raised for UNKNOWN_TOKEN / INDEX_OUT_OF_RANGE / NOT_CLOSED."""

    def __init__(self, code: str, message: str, *, line: int | None = None, col: int | None = None):
        self.code = code
        super().__init__(message, line=line, col=col)


class MoveNotApplicable(FrontError):
    code = "MOVE_NOT_APPLICABLE"


class FuelExhausted(FrontError):
    code = "FUEL_EXHAUSTED"


class InternalInconsistency(FrontError):
    code = "INTERNAL_INCONSISTENCY"


class BadArgument(FrontError):
    code = "BAD_ARGUMENT"


class LimitExceeded(FrontError):
    code = "LIMIT_EXCEEDED"
