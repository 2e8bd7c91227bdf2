"""Exception types raised across the package."""


class LatticeDiracError(Exception):
    """Base class for all errors raised by this package."""


class MeshMismatch(LatticeDiracError):
    """Operands live on incompatible meshes or have different channel counts."""


class QuadratureFailure(LatticeDiracError):
    """A quadrature self-estimate (per cell, or of the transform tail) exceeded its accuracy budget."""


class OutOfDomain(LatticeDiracError):
    """Point evaluation requested outside the periodic box."""


class AxisOutOfRange(LatticeDiracError):
    """Difference operator requested along a nonexistent axis."""


class UnknownClosedForm(LatticeDiracError):
    """A closed-form Fourier transform was required but not declared."""


class SupportViolation(LatticeDiracError):
    """Declared frequency support exceeds the frequency box."""


class RealShift(LatticeDiracError):
    """Resolvent requested at a shift with Im z = 0."""


class DegenerateInput(LatticeDiracError):
    """Closed-form diagonalization undefined (m = 0 and zeta = 0)."""


class NotInResolventRegion(LatticeDiracError):
    """Shift violates |Im z| > sup-norm of the skew-Hermitian potential part."""


class NoConvergence(LatticeDiracError):
    """Iterative solve stalled; carries iteration count and last residual."""

    def __init__(self, iterations, residual, message=None):
        self.iterations = iterations
        self.residual = residual
        msg = message or f"no convergence after {iterations} iterations (residual {residual:.3e})"
        super().__init__(msg)


class TooLarge(LatticeDiracError):
    """Dense-matrix oracle requested beyond its size cap."""


class DegenerateFit(LatticeDiracError):
    """Log-log rate fit requested on too few or degenerate data points."""


class ConfigError(LatticeDiracError):
    """Malformed CLI or config-file input."""
