"""Exception types shared across the package, one per kind of refusal;
the message tells apart the faults of one kind."""


class DistanceGameError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(DistanceGameError):
    """An argument refused before any work: out of range or malformed, naming
    a vertex twice or not at all, or past a size bound."""


class ParameterViolationError(DistanceGameError):
    """Parameters outside what a construction or lemma of the paper covers."""


class FrozenGraphError(DistanceGameError):
    """A mutation was attempted on a frozen graph."""


class IllegalMoveError(DistanceGameError):
    """A move was applied that the ruleset forbids."""


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
