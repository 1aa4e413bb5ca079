"""Exception types shared across the package."""


class QmomentsError(Exception):
    """Base class for package-specific errors."""


class UsageError(QmomentsError, ValueError):
    """Bad input from the caller, not a defect (CLI exit 2)."""


class ParseError(UsageError):
    """Malformed partition or flag text."""


class ParamMismatch(QmomentsError, ValueError):
    """Two values carrying different formal parameters were combined."""


class ModeError(UsageError):
    """Exact mode was asked for something only the float mode supports."""


class InvariantError(QmomentsError):
    """A computed value broke an invariant it must satisfy (a defect, not
    an input error); raised under `python -O` too."""


class ResourceBoundError(QmomentsError, RuntimeError):
    """A brute-force operation exceeded its configured resource bound."""

    def __init__(self, bound, limit, requested):
        self.bound = bound
        self.limit = limit
        self.requested = requested
        # str() refuses an int of more than 4300 digits (u = 10^5000 in `moments`)
        if isinstance(requested, int) and requested.bit_length() > 10_000:
            requested = "an int of %d bits" % requested.bit_length()
        super().__init__(
            "%s exceeded: requested %s, limit %s" % (bound, requested, limit)
        )
