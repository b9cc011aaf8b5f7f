"""Exception types shared across the package."""


class CymlabError(Exception):
    """Base class for all package errors."""


class LatticeMismatch(CymlabError):
    """Two objects built over different lattices were combined."""


class GridMismatch(CymlabError):
    """Two fields living on different grids were combined."""


class NonZeroMean(CymlabError):
    """A Poisson right-hand side carries mass above the mean tolerance."""


class InfeasibleDegree(CymlabError):
    """Degree/coupling data violates 0 < 4 pi d < tau * vol, or the section vanishes."""


class NoConvergence(CymlabError):
    """An iterative solve exhausted its budget or its line search."""


class NotElliptic(CymlabError):
    """An ellipticity or satisfaction gate failed; Newton refuses to run."""


class PositivityLost(CymlabError):
    """A quantity that must stay positive (w_sigma, Kahler form) failed pointwise."""


class NotConverged(CymlabError):
    """A certificate was requested on a state whose residual is too large."""


class RhsNotPositive(CymlabError):
    """The assembled Monge-Ampere right-hand side is not pointwise positive."""


class MassMismatch(CymlabError):
    """Total-mass compatibility between data densities failed."""


class ValidationError(CymlabError):
    """Bad configuration or malformed input file."""
