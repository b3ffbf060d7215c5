"""Exception types shared across the package."""


class NotMarkovError(ValueError):
    """Input triple does not solve x^2 + y^2 + z^2 = 3xyz in positive integers."""


class OutOfRangeError(ValueError):
    """Argument lies outside the domain of the requested operation."""


class InternalInconsistencyError(RuntimeError):
    """A structural identity the implementation relies on failed to hold."""


class PreconditionViolatedError(ValueError):
    """Arguments fail the stated admissibility conditions."""


class AccuracyLimitError(RuntimeError):
    """Requested tolerance was not reached within the iteration cap.

    The best certified enclosure computed so far is attached as ``interval``.
    """

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval
