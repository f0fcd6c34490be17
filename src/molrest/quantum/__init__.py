"""Grid wavefunctions, operators, and uncertainty checks."""

from .grids import GridWavefunction, LineGrid, So3Grid, wrap_to_ball
from .heisenberg import dispersion, heisenberg_suite
from .operators import (
    BOUNDARY_MASS_TOL,
    angmom_op,
    angvel_commutator_check,
    body_commutator_residuals,
    chart_commutator_residuals,
    commutator_residuals,
    line_commutator_residual,
    momentum_op,
    position_op,
)
from .states import (
    gaussian_line_state,
    oscillator_state,
    random_line_state,
    random_so3_state,
    so3_gaussian_state,
)

__all__ = [
    "BOUNDARY_MASS_TOL",
    "GridWavefunction",
    "LineGrid",
    "So3Grid",
    "angmom_op",
    "angvel_commutator_check",
    "body_commutator_residuals",
    "chart_commutator_residuals",
    "commutator_residuals",
    "dispersion",
    "gaussian_line_state",
    "heisenberg_suite",
    "line_commutator_residual",
    "momentum_op",
    "oscillator_state",
    "position_op",
    "random_line_state",
    "random_so3_state",
    "so3_gaussian_state",
    "wrap_to_ball",
]
