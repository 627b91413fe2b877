"""Exception types raised across the package.

Every error condition named in an operation contract maps to one class here
so callers can catch them selectively.
"""


class SwitchSimError(Exception):
    """Base class for all package errors."""


class NonHermitianError(SwitchSimError):
    """Matrix handed to a Hermitian-only routine fails the symmetry check."""


class StepTooLargeError(SwitchSimError):
    """Time step too large for the first-order switching probabilities."""


class WrongRegimeError(SwitchSimError):
    """Closed form evaluated outside its validity regime."""


class DegenerateRatesError(SwitchSimError):
    """Operation undefined when the two switching rates coincide."""


class ZeroRateError(SwitchSimError):
    """Operation undefined when a switching rate is exactly zero."""


class FlatObjectiveError(SwitchSimError):
    """Fidelity-vs-duration curve is identically zero; no maximum exists."""


class ZeroOutcomeProbabilityError(SwitchSimError):
    """Both outcome probabilities vanish; fidelity undefined."""


class QuadratureFailureError(SwitchSimError):
    """Adaptive quadrature could not reach the requested accuracy."""


class BisectionFailureError(SwitchSimError):
    """Survival-function inversion left a residual |S(t) - u| above
    INVERSION_RESIDUAL_TOL; indicates a numerical bug."""


class InsufficientCountsError(SwitchSimError):
    """Histogram does not carry enough counts for the requested statistic."""


class InsufficientDataError(SwitchSimError):
    """Histogram total below the statistical floor for fitting."""


class NotIdentifiableError(SwitchSimError):
    """Requested free parameters are degenerate for this configuration."""


class NoConvergenceError(SwitchSimError):
    """All fit starts failed to converge; `starts` holds each start's record
    and `scan_points` the size of the scan they were taken from."""

    def __init__(self, message: str, starts=(), scan_points: int = 0):
        super().__init__(message)
        self.starts = tuple(starts)
        self.scan_points = scan_points


class UnphysicalBlochError(SwitchSimError):
    """Bloch vector lies outside the unit ball."""


class ConfigError(SwitchSimError):
    """Invalid or unknown configuration entry."""
