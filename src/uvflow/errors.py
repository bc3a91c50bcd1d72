"""Exception hierarchy for uvflow.

Everything raised on purpose by this package derives from UVFlowError, so
callers can catch one type at the boundary (the CLI maps it to exit code 1,
except ConfigError which maps to 2).
"""


class UVFlowError(Exception):
    """Base class for all uvflow errors."""


class DomainError(UVFlowError):
    """An input lies outside the mathematical domain of an operation."""


class SingularPointError(DomainError):
    """The potential (or a derivative) was requested at a singular point."""


class DegenerateExpansionError(UVFlowError):
    """The local quadratic expansion has vanishing curvature (V'' = 0)."""


class NoBoundStateError(UVFlowError):
    """The requested bound-state object does not exist (e.g. inverted well)."""


class FlowUndefinedError(UVFlowError):
    """The running-coupling equation is undefined at the requested point."""


class NoFixedPointError(UVFlowError):
    """No coupling of the allowed form matches the requested reduced form."""


class IntegrationAbortError(UVFlowError):
    """Flow integration aborted; carries what was sampled before the abort.

    ``partial`` holds the (lams, couplings) arrays sampled before the
    abort, when any were reached, so callers can still write a report.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NoUVLimitError(UVFlowError):
    """The large-cutoff energy samples did not settle; carries the trend."""

    def __init__(self, message, trend=None):
        super().__init__(message)
        self.trend = trend


class DomainTooSmallError(UVFlowError):
    """Eigenfunction amplitude at the box wall is too large to trust."""


class IterationLimitError(UVFlowError):
    """An iterative eigenvalue or root search hit its iteration cap."""


class FitDegenerateError(UVFlowError):
    """A least-squares fit had no usable spread in the sample points."""


class QuadratureError(UVFlowError):
    """Order doubling of the dressed-potential quadrature did not converge."""


class ConfigError(UVFlowError):
    """Bad run configuration (CLI exit code 2)."""
