"""Exception types shared across the library."""


class GeometryError(Exception):
    """Base class for all library-specific errors."""


class DomainError(GeometryError, ValueError):
    """An argument is outside the valid range of the target space or function."""


class RadiusRangeError(DomainError):
    """A perturbation would take the radial function out of its open range."""


class ApplicabilityError(GeometryError, ValueError):
    """A theorem, bound or operation does not apply to the given inputs."""


class UnsupportedDimensionError(ApplicabilityError):
    """The requested dimension is outside the supported range."""


class ConvergenceError(GeometryError, RuntimeError):
    """An adaptive quadrature error estimate stalled above the requested tolerance."""


class SolverError(GeometryError, RuntimeError):
    """A root solve or inversion failed to converge or had no bracket."""


class InversionRangeError(SolverError):
    """The value to invert lies outside the range of the monotone function."""


class ResourceLimitError(GeometryError, RuntimeError):
    """A construction would exceed a configured resource cap (nodes, radius, ...)."""


class PitchSelectionError(GeometryError, RuntimeError):
    """No strip pitch small enough to meet the requested section tolerance."""

