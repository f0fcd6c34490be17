"""Exception types shared across the package, and the positive-scalar rule their raisers share."""

import math
import numbers


def positive_finite(value):
    """True for a real number, not a bool, that is positive and finite as a float."""
    try:
        return (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and 0.0 < float(value) < math.inf)
    except OverflowError:  # an int beyond the float range
        return False


class SchemaError(ValueError):
    """Input file violates the molecule or trajectory schema."""


class OutputError(OSError):
    """The report file named by --output cannot be opened or written."""


class CollinearGeometryError(ValueError):
    """Equilibrium geometry is collinear (or has coincident nuclei)."""


class EckartViolationError(ValueError):
    """A mode basis fails the frame-defining sum rules.

    Carries the measured residual in ``residual``.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class EckartSolveError(RuntimeError):
    """The orientation solve did not reach the required residual."""


class SingularInertiaError(ValueError):
    """Instantaneous inertia tensor is singular or not positive-definite."""


class BoundaryMassError(ValueError):
    """Wavefunction carries too much probability near the chart boundary."""


class GridError(ValueError):
    """Grid construction or grid/state mismatch problems."""
