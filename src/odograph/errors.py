"""Exception types shared across the library."""


class OdographError(Exception):
    """Base class for every error raised by this package."""


class GraphFormatError(OdographError):
    """Malformed graph file. Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class WalkError(OdographError):
    """Base class for walk construction and validation failures."""


class InvalidWalkError(WalkError):
    """A vertex sequence is not a valid non-backtracking walk in the graph."""


class EndpointMismatchError(WalkError):
    """Concatenation where the first walk does not end where the second starts."""


class JunctionBacktrackError(WalkError):
    """Concatenation whose junction would immediately re-traverse the same edge."""


class DisconnectedGraphError(OdographError):
    """An operation that requires a connected graph received a disconnected one."""


class PreconditionError(OdographError):
    """A documented operation precondition was violated by the caller."""


class NotOdometricError(OdographError):
    """The graph admits no full recovery; names a low-degree vertex if one exists."""

    def __init__(self, message: str, vertex: int | None = None):
        self.vertex = vertex
        super().__init__(message)


class CyclicDependencyError(OdographError):
    """Certificate edge references form a cycle, so substitution cannot finish."""


class MissingCertificateError(OdographError):
    """A certificate references an edge with no certificate in the store."""


class RankDeficientError(OdographError):
    """The available walks span fewer than |E| independent directions."""


class InconsistentMeasurementsError(OdographError):
    """Measurements admit no exact rational solution."""


class RejectedWalkError(OdographError):
    """The odometer refused a query that is not a closed walk from its home."""
