"""Exception types shared across the package, and the check that raises one."""


class SzlabError(Exception):
    """Base class for all szlab errors."""


class GraphConstructionError(SzlabError, ValueError):
    """Raised for out-of-range vertex indices or loop edges."""


class Graph6Error(SzlabError, ValueError):
    """Raised for malformed graph6 records."""


class EdgeListFormatError(SzlabError, ValueError):
    """Raised for malformed edge-list text input."""


class DisconnectedGraphError(SzlabError, ValueError):
    """Raised when an operation requires a connected graph."""


class HypothesisError(SzlabError, ValueError):
    """An operation's structural hypothesis (bipartite, 2-connected, m >= n, ...) fails.

    The message names the violated hypothesis so callers can report it.
    """


class SizeLimitError(SzlabError, ValueError):
    """Input exceeds a documented size limit (canonical labeling, built-in enumeration, distances)."""


class EnumerationLimitError(SizeLimitError):
    """An enumeration spec asks for more vertices than built-in generation supports."""


class InvariantViolation(SzlabError):
    """A mathematical check inside a computation failed; its result is not to be trusted."""


def ensure(condition: bool, message: str) -> None:
    """Raise InvariantViolation unless `condition` holds; unlike `assert`, kept under `python -O`."""
    if not condition:
        raise InvariantViolation(message)
