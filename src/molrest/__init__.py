"""Rest-frame and internal observables of a molecular system.

The package splits off the center of mass, orients the body frame by the
Eckart conditions, extracts vibrational / electronic / rotational
observables, and provides grid-based checks of the canonical commutators
and Heisenberg products for the curved rotational chart.
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryMassError,
    CollinearGeometryError,
    EckartSolveError,
    EckartViolationError,
    GridError,
    SchemaError,
    SingularInertiaError,
)
from .lie_so3 import KillingFrame, exp_map, killing_frame, log_map
from .molecule import Molecule, load_molecule, prepare_equilibrium
from .modes import EckartResiduals, ModeBasis, build_modes, external_subspace, verify_eckart
from .frames import (
    AMatrix,
    Configuration,
    EckartFrame,
    InternalState,
    a_matrix,
    analyze,
    com_split,
    extract_internal,
    load_trajectory,
    reconstruct,
    solve_eckart,
    to_rest,
)
from .angmom import (
    InertiaModel,
    build_inertia,
    decompose_angmom,
    inertia_at,
    relative_angmom,
)

__all__ = [
    "__version__",
    "BoundaryMassError",
    "CollinearGeometryError",
    "EckartSolveError",
    "EckartViolationError",
    "GridError",
    "SchemaError",
    "SingularInertiaError",
    "KillingFrame",
    "exp_map",
    "killing_frame",
    "log_map",
    "Molecule",
    "load_molecule",
    "prepare_equilibrium",
    "EckartResiduals",
    "ModeBasis",
    "build_modes",
    "external_subspace",
    "verify_eckart",
    "AMatrix",
    "Configuration",
    "EckartFrame",
    "InternalState",
    "a_matrix",
    "analyze",
    "com_split",
    "extract_internal",
    "load_trajectory",
    "reconstruct",
    "solve_eckart",
    "to_rest",
    "InertiaModel",
    "build_inertia",
    "decompose_angmom",
    "inertia_at",
    "relative_angmom",
]
