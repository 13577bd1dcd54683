"""Exception hierarchy shared by every subsystem.

All errors derive from RjsError so front ends (CLI, REPL) can catch one
base class and render a message without killing the process.
"""

from __future__ import annotations


class RjsError(Exception):
    """Base class for every error raised by this package."""


def render_fault(exc: Exception) -> str:
    """The one line a front end prints for a fault: `Name: message`."""
    return f"{type(exc).__name__}: {exc}"


# --- manifest / registry ---------------------------------------------------

class ParseError(RjsError):
    """Malformed source text (manifest JSON or script); carries a position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line:
            return f"{self.line}:{self.col}: {self.args[0]}"
        return str(self.args[0])


class ValidationError(RjsError):
    """Structurally well-formed input that violates a manifest rule."""


class ConflictError(RjsError):
    """Redeclaration of a type, enum or global, or an indistinguishable overload."""


class NotQuiescent(RjsError):
    """Metadata mutation attempted while asynchronous calls are in flight."""


class NotFound(RjsError):
    """Qualified-name lookup failed; carries the longest resolvable prefix."""

    def __init__(self, path: str, prefix: str):
        super().__init__(f"{path!r} not found (longest resolvable prefix: {prefix!r})")
        self.path = path
        self.prefix = prefix


class NotANamespace(RjsError):
    """Enumeration target exists but is not a namespace."""


# --- heap ------------------------------------------------------------------

class UnknownType(RjsError):
    pass


class DanglingHandle(RjsError):
    """Handle does not normalize to a live object (includes the null handle 0)."""


class UnknownField(RjsError):
    pass


class UnknownGlobal(RjsError):
    pass


class KindMismatch(RjsError):
    """Write of a value whose kind differs from the declared storage kind."""


class HostExecError(RjsError):
    """Fault while evaluating a host body: divide by zero, builtin domain error,
    dangling reference, missing return."""


class LoadError(RjsError):
    """Plugin file could not be read."""


# --- bridge ----------------------------------------------------------------

class ConversionError(RjsError):
    """Script value has no defined conversion to the requested host kind."""


class PrecisionError(RjsError):
    """Host integer does not fit a binary64 mantissa (|v| > 2**53)."""


class NoMatch(RjsError):
    """No overload accepts the supplied arguments."""


class Ambiguous(RjsError):
    """Two or more overloads tie at minimum conversion cost."""


# --- dispatcher ------------------------------------------------------------

class EngineStopped(RjsError):
    """Submit after shutdown."""


class DomainError(RjsError):
    """Interpreter-domain-only operation invoked from a worker context."""


# --- script ----------------------------------------------------------------

class LexError(RjsError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.args[0]}"


class ScriptNameError(RjsError):
    pass


class ScriptTypeError(RjsError):
    pass


class ScriptRecursionError(RjsError):
    """A script nested or calling deeper than the Python stack allows."""

    def __init__(self, message: str = "script calls nested too deep"):
        super().__init__(message)
