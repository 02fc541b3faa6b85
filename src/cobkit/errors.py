"""Exception hierarchy shared across the package."""


class CobkitError(Exception):
    """Base class for all cobkit errors."""


class MalformedDiagramError(CobkitError):
    """A diagram violates a structural invariant badly enough that an
    operation cannot even interpret it (dangling slot, missing id, ...)."""


class PreconditionError(CobkitError):
    """An operation was called on a diagram that fails its precondition."""


class NotWedgeCircleError(PreconditionError):
    """A membrane query was made against a circle that is not a wedge circle."""


class NotStandardPositionError(PreconditionError):
    """The diagram is not in (or near enough to) standard position for the
    requested operation; carries a human-readable reason."""


class GenusMismatchError(PreconditionError):
    """Two wedges that must have equal genus do not."""


class MoveError(PreconditionError):
    """A calculus move cannot be applied at the requested site."""

    def __init__(self, message, site=None):
        super().__init__(message)
        self.site = site


class CompositionError(PreconditionError):
    """sew / mend / compose called with incompatible or unclean wedges."""


class ParseError(CobkitError):
    """Diagram document or move script text could not be parsed.

    ``location`` is a dotted JSON-ish path to the offending node when known.
    ``violations`` holds every :class:`cobkit.planarity.Violation` of a
    document that parsed but fails validation; the message names the first.
    """

    def __init__(self, message, location=None, violations=()):
        super().__init__(message)
        self.location = location
        self.violations = violations
