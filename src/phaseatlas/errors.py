"""Exception taxonomy shared by all phaseatlas modules.

The CLI maps these onto exit codes: parse-type errors exit 2, domain and
precondition violations exit 3, internal-inconsistency exits 4.
"""


class PhaseAtlasError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PhaseAtlasError, ValueError):
    """An argument is outside the mathematically admissible domain."""


class PreconditionError(PhaseAtlasError, ValueError):
    """An operation's stated precondition does not hold for its inputs."""


class ParseError(PhaseAtlasError, ValueError):
    """Syntax error in a textual system specification."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnsupportedConstructError(ParseError):
    """Input uses a construct outside the rational-polynomial grammar."""


class UnknownSymbolError(ParseError):
    """Input references an identifier that was never declared."""


class ZeroDenominatorError(DomainError):
    """A right-hand side normalizes to a fraction over the zero polynomial."""


class UndefinedPointError(DomainError):
    """A field was evaluated at a point where it is not defined."""


class SingularEvaluationError(DomainError):
    """A formula was evaluated at a singularity of its expression."""


class AmbiguityError(PhaseAtlasError):
    """Numeric search exhausted its resolution before separating candidates."""

    def __init__(self, message, clusters=()):
        super().__init__(message)
        self.clusters = tuple(clusters)


class UnresolvedError(PhaseAtlasError):
    """Sector assembly met a non-elementary divisor point, a continuum on the
    divisor or a zero radial eigenvalue."""


class InconclusiveError(PhaseAtlasError):
    """A series-based classification stayed degenerate through its truncation order."""

    def __init__(self, message, order=None):
        super().__init__(message)
        self.order = order


class InternalInconsistencyError(PhaseAtlasError):
    """Cross-validation between independently computed results failed.

    This signals a bug in the package (or an input outside its verified
    envelope), never a user error.
    """
