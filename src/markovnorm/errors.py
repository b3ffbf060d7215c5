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
    """A certified value could not be delivered as asked.

    Raised when an enclosure misses the requested tolerance at a named exit
    (``norm_real``'s trace bound, exact hit or tolerance check, or an exact
    direction), when a value leaves the float range, and when ``stable_norm``
    or ``stable_norm_interval`` refuses a reduced denominator above 2**18.  The
    best certified enclosure computed so far, if any, is attached as
    ``interval``.
    """

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval
