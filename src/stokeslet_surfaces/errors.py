"""Exception types shared across the package."""


class StokesletSurfacesError(Exception):
    """Base class for all package-specific errors."""


class FloatingFloorError(StokesletSurfacesError):
    """Regularization length is too small for the triangle side lengths.

    The closed-form segment integrals involve logarithms whose arguments
    degenerate once eps**2 drops below the floating-point spacing at the
    largest triangle side length.
    """


class DegenerateTriangleError(StokesletSurfacesError):
    """Triangle with (near-)collinear vertices; recursion denominators vanish."""


class SingularSystemError(StokesletSurfacesError):
    """Dense solve failed or produced an unusable residual."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class MeshFormatError(StokesletSurfacesError):
    """Malformed mesh file, or a mesh the requested problem is undefined on."""
