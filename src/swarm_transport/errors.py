"""Exception types shared across the package."""


class SwarmTransportError(Exception):
    """Base class for every error raised by this package."""


class DegenerateInput(SwarmTransportError):
    """Point set is affinely dependent (no hull of full dimension exists)."""


class DegenerateSimplex(SwarmTransportError):
    """Simplex vertices are numerically affinely dependent."""


class DegenerateMentorSimplex(DegenerateSimplex):
    """A mentee's mentors collapsed onto an affinely dependent configuration."""


class BadConfig(SwarmTransportError):
    """Inconsistent or incomplete scenario/plan configuration."""


class BuildFailure(SwarmTransportError):
    """Base class for mentor-graph synthesis failures."""


class NoCandidate(BuildFailure):
    """No interior agent is eligible for the core role."""


class CoreOnBoundary(BuildFailure):
    """The core agent does not lie strictly inside the hull."""


class UnassignedAgents(BuildFailure):
    """The builder ran out of open simplices with agents still unassigned."""


class CycleDetected(SwarmTransportError):
    """Mentor precedence violated; signals a builder bug, not a user error."""


class BadInterval(SwarmTransportError):
    """Time interval with non-positive length."""


class Diverged(SwarmTransportError):
    """An agent state exceeded the divergence threshold during integration."""


class ParseError(SwarmTransportError):
    """Scenario file is malformed.

    Carries optional ``field`` and ``line`` attributes naming the offender.
    """

    def __init__(self, message, *, field=None, line=None):
        super().__init__(message)
        self.field = field
        self.line = line


class InfeasibleParams(SwarmTransportError):
    """Scenario generation parameters cannot produce a valid formation."""


class OutputError(SwarmTransportError):
    """An output file or its directory cannot be written."""
