"""Exception types shared across the package."""


class SpiralLimitsError(Exception):
    """Base class for all package errors."""


class InvalidSpec(SpiralLimitsError):
    """An angle specification violates its invariants."""


class PrecisionExhausted(SpiralLimitsError):
    """A certified computation could not be completed at the available precision.

    Raised instead of guessing whenever an interval floor straddles an
    integer or a requested error bound cannot be met.
    """


class WindowTooLarge(SpiralLimitsError):
    """A window enumeration would exceed the fixed output budget."""


class WindowTooSmall(SpiralLimitsError):
    """A Chabauty distance cannot be certified at the given window radii."""


class DegenerateBasis(SpiralLimitsError):
    """A pair of planar vectors does not span the plane."""


class NotALattice(SpiralLimitsError):
    """A patch failed the two-sided lattice fit check."""

    def __init__(self, message, residual=None, missing=None):
        super().__init__(message)
        self.residual = residual
        self.missing = missing


class TooManyPoints(SpiralLimitsError):
    """A plot was requested for more points than the SVG budget allows."""
