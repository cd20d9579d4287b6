"""Exception types shared across the package."""


class BoutrouxError(Exception):
    """Base class for all package errors."""


class StokesDirectionError(BoutrouxError):
    """A Laplace ray was requested exactly along a singular direction."""


class RadiusExceededError(BoutrouxError):
    """Analytic continuation of a germ degraded below tolerance."""

    def __init__(self, message, err_est=None):
        super().__init__(message)
        self.err_est = err_est


class NoConvergenceError(BoutrouxError):
    """An accelerated limit, a fit or a Newton iteration did not settle."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class NonConvergentSumError(BoutrouxError):
    """Transseries terms failed to decay."""


class FitDegenerateError(BoutrouxError):
    """A least-squares fit was attempted on an uninformative grid."""


class QuadratureError(BoutrouxError):
    """A contour/ray quadrature failed to meet its error target."""

    def __init__(self, message, err_est=None):
        super().__init__(message)
        self.err_est = err_est


class StepFailureError(BoutrouxError):
    """The Taylor stepper could not advance: a non-finite state or
    coefficients, a step that underflows, a segment through a singular
    point, or a pole whose Laurent series does not fit or reach the edge of
    its disc."""


class ChartDeadlockError(BoutrouxError):
    """``locate_pole`` found no pole near its prediction: the path to it
    never entered a pole chart."""


class OutsideRegionError(BoutrouxError):
    """A point lies outside the region where a method is checked."""


class ObstructionError(BoutrouxError):
    """A log(xi - 12) term survived in a two-scale coefficient."""

    def __init__(self, message, coefficient=None):
        super().__init__(message)
        self.coefficient = coefficient


class DegenerateCycleError(BoutrouxError):
    """The cubic has (nearly) repeated roots; the cycle is invalid."""


class MatchFailureError(BoutrouxError):
    """A period continuation failed."""


class ConfigError(BoutrouxError):
    """Invalid run configuration."""
