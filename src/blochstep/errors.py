"""Exception hierarchy shared by all solver modules."""


class BlochStepError(Exception):
    """Base class for all errors raised by this package."""


class NonIntegerCellCount(BlochStepError):
    """1/epsilon is not an integer, so the domain cannot tile exactly."""


class ResolutionTooSmall(BlochStepError):
    """Per-cell resolution R below the supported minimum."""


class ShapeMismatch(BlochStepError):
    """Fields live on incompatible grids or have inconsistent shapes."""


class InsufficientSamples(BlochStepError):
    """Too few samples to resolve the requested Fourier truncation."""


class TruncationTooSmall(BlochStepError):
    """Stored Fourier coefficient range cannot supply a matrix assembly."""


class EigensolverFailure(BlochStepError):
    """Dense Hermitian eigensolver did not converge."""


class BandCountExceedsTruncation(BlochStepError):
    """Requested more bands than the truncated eigenproblem provides."""


class BandIndexOutOfRange(BlochStepError):
    """Band index not covered by the band table."""


class BandGapTooSmall(BlochStepError):
    """Band is nearly degenerate; the requested quantity is ill-defined."""


class TruncationMismatch(BlochStepError):
    """Band table truncation incompatible with the per-cell resolution."""


class NonFinite(BlochStepError):
    """A field, a potential or an argument holds non-finite entries."""


class CFLViolation(BlochStepError):
    """Time step violates the CFL restriction of the hyperbolic scheme."""


class CausticReached(BlochStepError):
    """Integration was asked to continue past the detected caustic."""

    def __init__(self, report):
        super().__init__(f"caustic detected at t ~= {report.t_c}")
        self.report = report


class NonSmoothForce(BlochStepError):
    """External potential lacks the smoothness required along a path."""


class IoFailure(BlochStepError):
    """A file could not be read or written, or its contents are malformed."""
