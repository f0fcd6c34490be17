"""Every threshold that turns a number into a verdict or a check error, stated once.

Each entry is a float that its sites read by name (``from .gates import
NAME``), with one comment line: the quantity it bounds, what it raises or
decides, and why that value.  Formula constants (0, 1, the 1/2 of a half
angle) and step sizes are not gates and stay where they are used;
``tests/test_gates.py`` fails on a float literal in a comparison or an
``atol``/``rtol`` keyword anywhere else in the package.
``tools/mutants.py`` multiplies and divides each entry by 1e3 and runs
the tests on every mutant.
"""

# --- classical pipeline --------------------------------------------------------

# solve_eckart: top quaternion eigen-gap / |top| below it sets `degenerate` (orientation ~eps/gap)
ECKART_GAP = 1e-9

# solve_eckart: relative Eckart residual above it raises EckartSolveError (a solve reads ~1e-16)
ECKART_RESIDUAL = 1e-8

# extract_internal: cond I(Q) above it raises SingularInertiaError (omega keeps ~4 digits there)
MAX_INERTIA_COND = 1e12

# build_inertia's default: rotation sum-rule residual above it is EckartViolationError (water 2e-16)
INERTIA_SYMMETRY = 1e-10

# prepare_equilibrium, external_subspace: moment ratio at or below it is collinear (no 3N - 6 modes)
COLLINEAR_RTOL = 1e-10

# prepare_equilibrium: nuclei at or within this fraction of the extent are coincident, any units
COINCIDENT_NUCLEI = 1e-9

# build_modes: |H - H^T| above it times max(1, |H|max) is "hessian must be symmetric" (~5e7 ulp)
HESSIAN_SYMMETRY = 1e-8

# build_modes: min/max |diag R| of the candidates at or below it is "rank-deficient" (noise axis)
RANK_RATIO = 1e-10

# default --tol-eckart: ceiling on every relative Eckart residual of a report (water: ~1e-16)
TOL_ECKART = 1e-10

# frame and decompose: absolute round-trip and split error above it fails a frame (water: 2e-16)
TOL_ROUNDTRIP = 1e-9

# --- rotation chart ------------------------------------------------------------

# _check_omega: |omega| above pi plus this is outside the ball; the slack is round-off of |omega|
BALL_EDGE = 1e-10

# killing_frame: |omega| at or above pi minus this raises GridError (m grows as 1/(pi - |omega|))
EPS_BOUNDARY = 1e-6

# _check_rotation: an entry of R^T R off the identity by more than it is "not orthogonal" (~5e7 ulp)
ORTHOGONALITY = 1e-8

# _quaternion_parts: below this angle sin(theta/2)/theta is its limit 1/2, exact to the bit there
THETA_FLOOR = 1e-12

# relative: floor of every residual's scale, so a zero scale gives a finite ratio, not nan
RELATIVE_FLOOR = 1e-300

# --- quantum checks ------------------------------------------------------------

# check_decay: line-end |psi|^2 above it times the peak raises BoundaryMassError (zero padding)
EDGE_DECAY = 1e-16

# commutator_residuals: |I0 - I0^T| above it times |I0|max raises SingularInertiaError (~5e3 ulp)
I0_SYMMETRY = 1e-12

# seam-shell probability at or above it: BoundaryMassError in the commutator checks, no verdict
BOUNDARY_MASS_TOL = 1e-8

# dispersion, heisenberg_suite: |norm - 1| above it raises GridError (the factories give 2.2e-16)
NORMALIZATION = 1e-8

# _settle: a variance below minus this is a quadrature failure; one in [-this, 0) is rounding
QUADRATURE_CLAMP = 1e-12

# default --tol-quad and heisenberg_suite tolerance, times hbar (water's worst row: 9.8e-8 short)
TOL_QUAD = 1e-6

# commutators: line check ceiling, order-2 stencil so its convergence order shows (water: 5.6e-7)
LINE_CANONICAL_TOL = 1e-6

# commutators: chart residual ceiling, order-4 sweep at min(shell spacing, 0.02) (water: 1.1e-6)
CHART_TOL = 1e-5

# commutators: body residual ceiling, the chart field read through m (water: 1.1e-6)
BODY_TOL = 1e-5

# commutators: angular-velocity ceiling, I0^-1 times the body field, so it scales as 1/I0 (1.2e-6)
ANGVEL_TOL = 1e-4
