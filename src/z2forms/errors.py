"""Exception types raised by the public API."""


class Z2FormsError(Exception):
    """Base class for all library errors."""


class PathHitsBranchLocus(Z2FormsError):
    """A continuation path, or an evaluation, comes too close to the zero
    set of h."""


class RefinementLimit(Z2FormsError):
    """Adaptive path refinement exceeded its subdivision budget."""


class EmptyIntersection(Z2FormsError):
    """No points of the zero locus found inside the requested window."""


class SamplerExhausted(Z2FormsError):
    """A rejection sampler used up its draw budget before finding enough points."""


class NotOnSphere(Z2FormsError):
    """Input point does not lie on the unit sphere to tolerance."""


class ImageAtInfinity(Z2FormsError):
    """The image of a point falls on the deleted set of a chart."""


class SingularFiber(Z2FormsError):
    """Requested fiber meets one of the singular fibers."""


class CurvesTooClose(Z2FormsError):
    """Linking-number integrand is singular: curves nearly touch."""


class NotInTube(Z2FormsError):
    """Curve is not contained in the tubular neighborhood of the core."""


class ChartBoundary(Z2FormsError):
    """Finite-difference stencil leaves the chart domain."""


class DegreeTooLarge(Z2FormsError):
    """Zonal harmonic degree exceeds the recursion stability budget."""


class SolverDiverged(Z2FormsError):
    """Sparse solve failed to reach the required residual."""


class GridTooCoarse(Z2FormsError):
    """Grid step too coarse to resolve the ring window near the circle."""


class FitIllConditioned(Z2FormsError):
    """Least-squares fit residual too large to trust the coefficients."""


class NoNullDirection(Z2FormsError):
    """Too few columns to search for a null combination."""


class NonFiniteResult(Z2FormsError):
    """A check measured a value that is NaN or infinite."""


class SchemaError(Z2FormsError):
    """Construction descriptor does not match the expected schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
