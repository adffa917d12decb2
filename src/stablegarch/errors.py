"""Exception types shared across the package."""


class StableGarchError(Exception):
    """Base class for package errors."""


class AccuracyNotReached(StableGarchError):
    """No evaluation strategy could certify the requested absolute tolerance.

    Raised by the stable-density machinery when the accuracy settings are
    pathological (e.g. a tolerance below what the configured FFT grid and
    series budgets can deliver).
    """

    def __init__(self, message, worst_error=None):
        super().__init__(message)
        self.worst_error = worst_error


class ExplosionError(StableGarchError):
    """The simulated variance overflowed to a non-finite value.

    Carries the step ``t`` and the value ``sigma2`` it reached.
    """

    def __init__(self, message, t=None, sigma2=None):
        super().__init__(message)
        self.t = t
        self.sigma2 = sigma2


class NonFiniteLikelihood(StableGarchError):
    """The likelihood was NaN or infinite at every optimizer start."""


class NotConverged(StableGarchError):
    """Optimization stopped without meeting the convergence criterion.

    Carries the best fit found so far in ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class CalibrationError(StableGarchError):
    """Too many replication failures inside a Monte-Carlo calibration."""
