"""Exception types shared across the package."""


class PwlError(Exception):
    """Base class for all library-specific failures."""


class NotFocusType(PwlError):
    """A zone lacks the required real-eigenvalue-plus-complex-pair spectrum."""


class NotObservable(PwlError):
    """The observability matrix built from the minus-zone matrix is singular."""


class NotContinuous(PwlError):
    """Raw zone matrices do not share their second and third columns."""


class DomainError(PwlError):
    """A phase angle lies outside its admissible open interval."""


class WrongHalfPlane(PwlError):
    """Entry point violates the half-map sign convention on y."""


class NoReturnFound(PwlError):
    """No passage phase matches the requested entry slope.

    For zones with nonnegative shape ratio this signals an internal
    inconsistency; for negative shape ratios it is a real phenomenon
    (rays below the reachable slope range never come back to the plane).
    """


class NotApplicable(PwlError):
    """The operation's structural preconditions do not hold for this system."""


class AngleRegionViolation(DomainError):
    """Synthesis angles violate the admissible-region constraints."""


class NonPositiveBeta(PwlError):
    """Synthesis formulas produced a non-positive rotation rate."""


class MalformedInput(PwlError):
    """A system-spec document does not match the JSON schema, an option
    value (a grid size, a time or sample budget) is out of its range, or a
    command line does not parse."""


class TraceAborted(PwlError):
    """Base class for trajectory tracing aborts; carries the partial trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class OriginReached(TraceAborted):
    """Trajectory norm collapsed below the representable floor."""


class Diverged(TraceAborted):
    """Trajectory norm exceeded the overflow guard."""
