"""Exception types shared across the package."""

from __future__ import annotations


class HopfrealError(Exception):
    """Base class for all package-specific errors."""


class InvalidAlgebraError(HopfrealError):
    """An algebra presentation violates associativity or the unit laws."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("invalid algebra presentation: " + "; ".join(self.failures))


class PreconditionError(HopfrealError):
    """A stated precondition of an operation does not hold."""


class UnsupportedStructureError(HopfrealError):
    """The input is outside the structural class an operation supports."""


class InternalInconsistencyError(HopfrealError):
    """A verification that must hold by construction failed; indicates a bug."""


class ResourceLimitError(HopfrealError):
    """A requested window exceeds a fixed size limit; refused before any of
    it is built."""


class InputError(HopfrealError):
    """Base class for errors raised while reading an input document."""


class ParseError(InputError):
    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class ResolutionError(InputError):
    def __init__(self, name, message):
        self.name = name
        super().__init__(message)


class ValidationError(InputError):
    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("validation failed: " + "; ".join(self.failures))
