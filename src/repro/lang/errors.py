"""Error and diagnostic types shared by every compiler stage."""

from __future__ import annotations

from .source import Span


class TangramError(Exception):
    """Base class for all errors raised by the DSL toolchain.

    Carries an optional :class:`~repro.lang.source.Span` so callers can
    render the offending source location.
    """

    stage = "compile"

    def __init__(self, message: str, span: Span = None):
        self.message = message
        self.span = span
        super().__init__(self._format())

    def _format(self) -> str:
        if self.span is None or self.span.source is None:
            return f"{self.stage} error: {self.message}"
        location = self.span.describe()
        snippet = self.span.caret_snippet()
        return f"{self.stage} error: {location}: {self.message}\n{snippet}"


class LexError(TangramError):
    stage = "lex"


class ParseError(TangramError):
    stage = "parse"


class SemanticError(TangramError):
    stage = "semantic"


class TypeMismatchError(SemanticError):
    """A value was used where an incompatible type was expected."""


class UnknownSymbolError(SemanticError):
    """An identifier was referenced without a visible declaration."""


class TransformError(TangramError):
    """An AST transformation pass could not apply or verify a rewrite."""

    stage = "transform"


class LoweringError(TangramError):
    """Lowering of a synthesized codelet composition to VIR failed."""

    stage = "lower"


class SynthesisError(TangramError):
    """Variant enumeration / composition produced an invalid plan.

    ``cause`` is an optional short label (e.g. ``"stride-grid"``) that
    callers which degrade on this error count their fallbacks by.
    """

    stage = "synthesis"

    def __init__(self, message: str, span: Span = None, cause: str = None):
        self.cause = cause
        super().__init__(message, span)
