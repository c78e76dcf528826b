"""Exception hierarchy shared across the package."""


class TorusEulerError(Exception):
    """Base class for all errors raised by this package."""


class ManifestError(ValueError):
    """Malformed or inconsistent manifest content, or a command line that
    breaks the same rules."""


class DegenerateBasis(TorusEulerError):
    """Lattice generators are (numerically) linearly dependent."""


class ShapeMismatch(TorusEulerError):
    """Field data does not match the grid it claims to live on."""


class NonZeroMean(TorusEulerError):
    """Operation requires a mean-zero field but the zero mode is not zero."""


class BadExponent(TorusEulerError):
    """Norm or moment exponent outside the supported range."""


class GridTooCoarse(TorusEulerError):
    """A mode lies outside the grid's two-thirds band, which the solver drops."""


class MixedEigenspace(TorusEulerError):
    """Coefficient tuples, or a state and a grid, belong to different tori:
    their generators are not equal floats."""


class UnsupportedMoment(TorusEulerError):
    """Moment order without a closed-form bracket for this eigenspace."""


class DegenerateLeadingCoefficient(TorusEulerError):
    """Cubic solver called with a vanishing leading coefficient."""


class InconsistentMoments(TorusEulerError):
    """The census reference is missing from its own census."""


class NumericalBlowup(TorusEulerError):
    """Vorticity magnitude exploded; carries partial diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class InternalInvariant(TorusEulerError):
    """An invariant the implementation relies on was violated."""
