"""Exception types shared across the package."""


class LowRankRecError(Exception):
    """Base class for all package errors."""


class NonConvergence(LowRankRecError):
    """An iterative solver failed to reach its tolerance within max_iter."""


class NumericFailure(LowRankRecError):
    """A dense kernel produced non-finite output (overflow, invalid input)."""


class RankDeficient(LowRankRecError):
    """A least-squares system does not have full column rank."""


class InvalidDimension(LowRankRecError, ValueError):
    """A dimension precondition was violated (e.g. non power-of-two size).

    Also a ValueError: a bad size is a configuration error, exit code 2.
    """


class MissingGroundTruth(LowRankRecError):
    """An operation requiring a ground-truth signal got an instance without one."""


class FDInconsistent(LowRankRecError):
    """Two finite-difference step sizes disagree beyond the allowed tolerance."""
