"""Exception types shared across the package."""


class DistanceGameError(Exception):
    """Base class for every error raised by this package."""


class DuplicateVertexError(DistanceGameError):
    """A vertex name was added twice to the same graph."""


class UnknownVertexError(DistanceGameError):
    """A vertex name or index does not exist in the graph."""


class SelfLoopError(DistanceGameError):
    """An edge from a vertex to itself was requested."""


class FrozenGraphError(DistanceGameError):
    """A mutation was attempted on a frozen graph."""


class CorpusTooLargeError(DistanceGameError):
    """An exhaustive enumeration bound was exceeded."""


class InvalidParameterError(DistanceGameError):
    """A constructor or generator argument is out of range."""


class IllegalMoveError(DistanceGameError):
    """A move was applied that the ruleset forbids."""


class HypothesisViolatedError(DistanceGameError):
    """A gadget check was asked to vouch for sets outside its hypothesis."""


class NotBipartiteError(DistanceGameError):
    """A supplied partition does not split the graph into two sides."""


class ParameterViolationError(DistanceGameError):
    """Reduction parameters fall outside the range the construction supports."""


class BallBudgetError(DistanceGameError):
    """A ball would take a graph's ball memo past its memory budget."""


class SearchTooDeepError(DistanceGameError):
    """A game tree is too deep for the recursive search or verifier walk."""


class FormatError(DistanceGameError):
    """A text graph file failed to parse.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
