"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside its mathematically valid range."""


class NoRealRoot(DomainError):
    """A valid epsilon admits no calibrated (omega0, s1, s2) triple inside
    the open box at the requested order; the command line exits 2 on it."""
