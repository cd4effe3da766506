"""Exception types shared across the package.

The CLI maps these onto exit codes, so new error conditions should reuse
one of the classes below rather than raising bare ValueErrors.
"""


class PartseqError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PartseqError):
    """Rejected input text. Always carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class SemanticError(PartseqError):
    """Well-formed input used wrongly: unknown constant, mismatched
    vocabularies, queries against the wrong kind of sequence."""


class ResourceLimitError(PartseqError):
    """A size cap was exceeded. The message names the cap."""


class UndefinedConditionalError(PartseqError):
    """Conditional probability requested on a zero-mass condition."""


class BelowThresholdError(PartseqError):
    """A formula in a threshold chain fell below the acceptance bar.

    ``step`` is the 1-based position of the offending formula, ``formula``
    its text, ``ratio`` the rejected-mass proportion that had to stay below
    epsilon (None when the comparison itself was undefined).
    """

    def __init__(self, message: str, step: int, formula: str, ratio=None):
        super().__init__(message)
        self.step = step
        self.formula = formula
        self.ratio = ratio
