"""Exception types shared across the package."""


class RankspecError(Exception):
    """Base class for errors raised by this package."""


class InputError(RankspecError, ValueError):
    """Malformed external input: bad shapes, ranges, or unparsable files."""


class TieError(RankspecError, ValueError):
    """Tied observations in columns that must be totally ordered; .columns
    holds every tied column index and .column the first."""

    def __init__(self, columns, message=None):
        self.columns = tuple(int(j) for j in columns)
        self.column = self.columns[0]
        plural = "s" if len(self.columns) > 1 else ""
        names = ", ".join(map(str, self.columns))
        super().__init__(message or "tied values in column%s %s" % (plural, names))


class GuardExceededError(RankspecError):
    """A resource guard tripped before starting an expensive computation."""


class ConvergenceError(RankspecError):
    """A numerical routine failed to reach its tolerance."""
