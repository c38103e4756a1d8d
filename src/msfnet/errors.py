"""Exception types shared across the package."""


class MsfnetError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(MsfnetError):
    """Two matrices have incompatible shapes; the message names the pair."""


class BadParameter(MsfnetError):
    """A constructor or parser argument is out of its valid domain."""


class NumericalFailure(MsfnetError):
    """A dense eigenvalue/Schur computation did not converge or validate."""


class NoStableInterval(MsfnetError):
    """The stability function is nonnegative on the whole real mu axis."""


class Infeasible(MsfnetError):
    """A design problem admits no feasible feedback network.

    ``failed_modes`` lists ``(index, eigenvalue)`` pairs for per-mode
    failures, when applicable.
    """

    def __init__(self, message, failed_modes=None):
        super().__init__(message)
        self.failed_modes = list(failed_modes) if failed_modes else []


class TimedOut(MsfnetError):
    """A search hit its time limit before finding any feasible point."""
