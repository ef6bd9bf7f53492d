"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside its mathematically valid range."""


class NoRealRoot(DomainError):
    """A valid epsilon admits no calibrated (omega0, s1, s2) triple inside
    the open box at the requested order; the command line exits 2 on it."""


class StateError(RuntimeError):
    """An operation was invoked on an object whose state does not allow it."""


class UnsupportedBoundary(ValueError):
    """The requested boundary treatment is not implemented for this operation."""


class LengthMismatch(ValueError):
    """Arrays that must share a length do not."""
