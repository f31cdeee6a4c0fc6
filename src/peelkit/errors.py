"""Exception types shared across the package."""


class PeelkitError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedOrderError(PeelkitError):
    """Requested h-function order outside the supported range."""


class DivergentSeriesError(PeelkitError):
    """An infinite-support family does not sum at the requested point."""


class SolverFailureError(PeelkitError):
    """Root finding failed to converge; distinct from a not-admissible verdict.

    Raised when the series cannot be evaluated on any range of c, when
    the tuner's bordered polish leaves its bracket, and when no Newton
    start finds an admissible root although the fold point shows
    admissible slack (R2 < 0 there).
    """


class BoundaryNotFoundError(PeelkitError):
    """No critical scale exists inside the search bracket."""


class InconsistentCriticalityError(PeelkitError):
    """Kernel completion contradicts the claimed criticality of the input law."""


class RangeError(PeelkitError):
    """Requested index lies outside the materialized range."""
