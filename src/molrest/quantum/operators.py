"""Grid realizations of position, momentum, and angular-momentum operators.

Line momentum is -i hbar times a central finite difference on the node
amplitudes (states must decay at the grid ends): 4th order for the
dispersions, 2nd for ``line_commutator_residual``.  Orientation-space
operators differentiate the state's generating profile along chart
directions, wrapping stencil points that poke outside the axis-angle
ball through the antipode.  The chart derivative D_j = -i hbar d/dw^j
realizes n_(j)(w) . L; body components follow from the dual frame
(``lie_so3.frame_fields``), L_k = sum_j m[j, k] D_j.

Every orientation derivative comes from one 4th-order stencil sweep,
``_chart_sweep``, at the step its caller passes.  It evaluates the
profile once per stencil offset along each w^j (4 calls per direction,
12 per state) and forms D_j psi and, for the commutator checks,
D_j(w^k psi) (w^k psi at a stencil point is the wrapped coordinate
times the profile there).  Each job has one fixed policy:

- ``angmom_op`` (the rotational dispersions of
  ``heisenberg.heisenberg_suite``, once per state) returns the three
  Haar-symmetrized chart components at step ORIENTATION_STEP, with no
  seam gate: the suite marks a state with seam mass indeterminate.
- ``commutator_residuals`` raises BoundaryMassError on seam mass, then
  sweeps at step min(shell spacing, 0.02) and forms the chart residual
  field [D_j, w^k] psi + i hbar delta_jk psi.  It reads the body and
  angular-velocity residuals off it through m and I0^-1 m, which commute
  with w^k.  Each check reports the worst node off the grid's two seam
  shells (``So3Grid.seam_mask``, where the finite-difference wrap stops
  being exact for the coordinate functions themselves) relative to
  hbar * max|psi|.  The chart, body and angular-velocity entry points
  read its three tables.

Every operator and check raises GridError for an hbar that is not
positive and finite (``grids.check_hbar``) before it differentiates.
"""

import numpy as np

from ..errors import BoundaryMassError, GridError, SingularInertiaError
from ..lie_so3 import frame_fields, log_density_gradient
from .grids import GridWavefunction, LineGrid, So3Grid, check_hbar, wrap_to_ball

__all__ = [
    "BOUNDARY_MASS_TOL",
    "position_op",
    "momentum_op",
    "angmom_op",
    "line_commutator_residual",
    "commutator_residuals",
    "chart_commutator_residuals",
    "body_commutator_residuals",
    "angvel_commutator_check",
]

BOUNDARY_MASS_TOL = 1e-8

# nodes left out at each end of a line grid by line_commutator_residual
LINE_BOUNDARY_NODES = 8

# chart step of angmom_op, the operator of the rotational dispersions
ORIENTATION_STEP = 5e-3

# central first-derivative stencils: offsets, integer numerators, denominator
_STENCILS = {
    2: ((-1, 1), (-1, 1), 2),
    4: ((-2, -1, 1, 2), (1, -8, 8, -1), 12),
}


def _coordinate(grid, component):
    whole = isinstance(component, (int, np.integer)) and not isinstance(component, bool)
    if isinstance(grid, LineGrid):
        if not (whole and component == 0):
            raise GridError("line grids have a single coordinate (component 0)")
        return grid.points
    if not (whole and 0 <= component <= 2):
        raise GridError("orientation coordinate component must be 0, 1, or 2")
    return grid.nodes[:, component]


def position_op(psi, component=0):
    """Multiply by the coordinate sample (Q, q, x, or omega^k) at the nodes."""
    coord = _coordinate(psi.grid, component)
    return GridWavefunction(grid=psi.grid, amplitudes=coord * psi.amplitudes, profile=None)


def _line_derivative(amplitudes, step, order):
    if order not in _STENCILS:
        raise GridError(f"unsupported stencil order {order}")
    offsets, nums, den = _STENCILS[order]
    pad = np.pad(amplitudes, (2, 2))
    total = None
    for off, num in zip(offsets, nums):
        term = pad[2 + off:pad.size - 2 + off]
        term = term if abs(num) == 1 else abs(num) * term
        if total is None:  # the sum starts from its first term, as a fresh array
            total = term.copy() if num > 0 else -term
        else:
            (np.add if num > 0 else np.subtract)(total, term, out=total)
    total /= den * step
    return total


def momentum_op(psi, hbar=1.0, order=4):
    """-i hbar d/dx by central differences on a LineGrid.

    Each order serves one job: 4, the default, the line dispersions of
    ``heisenberg.heisenberg_suite``; 2 ``line_commutator_residual``,
    whose convergence order is measured.  The stencil assumes the state
    vanishes beyond the grid; amplitudes at the two outermost nodes on
    each end must be below 1e-8 of the peak or the zero padding would
    corrupt the derivative.
    """
    check_hbar(hbar)
    if not isinstance(psi.grid, LineGrid):
        raise GridError("momentum_op needs a LineGrid state")
    amp = psi.amplitudes
    peak = float(np.abs(amp).max())
    edge = float(max(np.abs(amp[:2]).max(), np.abs(amp[-2:]).max()))
    if peak == 0.0 or edge > 1e-8 * peak:
        raise BoundaryMassError(
            f"insufficient decay at grid ends: edge/peak = {edge / peak if peak else np.inf:.3e}"
        )
    deriv = _line_derivative(amp, psi.grid.step, order)
    return GridWavefunction(grid=psi.grid, amplitudes=-1j * hbar * deriv, profile=None)


def _check_chart_state(psi):
    """Raise GridError unless psi is an So3Grid state with a generating profile."""
    if not isinstance(psi.grid, So3Grid):
        raise GridError("chart derivatives need an So3Grid state")
    if psi.profile is None:
        raise GridError("state lacks a generating profile for off-node evaluation")


def _chart_sweep(psi, step, coordinates):
    """One 4th-order stencil sweep: d(psi)/dw^j (3, K) and d(w^k psi)/dw^j (3, 3, K), index [j, k].

    psi has passed ``_check_chart_state``; step is the chart step, chosen
    by the caller.  coordinates=False gives None for d(w^k psi): only the
    commutator checks need it, and it is most of the sweep's memory.
    """
    offsets, nums, den = _STENCILS[4]
    nodes = psi.grid.nodes
    d_psi = np.zeros((3, psi.grid.size), dtype=complex)
    d_xpsi = np.zeros((3, 3, psi.grid.size), dtype=complex) if coordinates else None
    for j, unit in enumerate(np.eye(3)):
        for off, num in zip(offsets, nums):
            pts = wrap_to_ball(nodes + (off * step) * unit)
            vals = np.asarray(psi.profile(pts), dtype=complex)
            d_psi[j] += num / den * vals
            if coordinates:
                d_xpsi[j] += num / den * (pts.T * vals)
    d_psi /= step
    if coordinates:
        d_xpsi /= step
    return d_psi, d_xpsi


def angmom_op(psi, hbar=1.0):
    """The Haar-symmetrized chart components of L on an So3Grid, j = 0, 1, 2.

    (n_(j)(w) . L) psi = -i hbar (d/dw^j + (1/2) d_j ln rho) psi, from one
    sweep at ORIENTATION_STEP.  The Haar drift (1/2) d_j ln rho makes each
    component hermitian under the weighted quadrature and cancels in
    commutators with coordinate functions.  No seam gate: the dispersion
    suite marks a state with seam mass indeterminate instead.
    """
    check_hbar(hbar)
    _check_chart_state(psi)
    d_psi, _ = _chart_sweep(psi, ORIENTATION_STEP, False)
    d_psi += 0.5 * log_density_gradient(psi.grid.nodes).T * psi.amplitudes
    return tuple(GridWavefunction(grid=psi.grid, amplitudes=a, profile=None)
                 for a in -1j * hbar * d_psi)


def _relative(residual, psi, mask, hbar):
    """Worst interior-node |residual| over the last axis, relative to hbar * max|psi|."""
    if not mask.any():
        raise GridError("the boundary exclusion leaves no node to check")
    scale = hbar * float(np.abs(psi.amplitudes).max())
    return np.abs(residual).max(axis=-1, where=mask, initial=0.0) / scale


def line_commutator_residual(psi, hbar=1.0, order=2):
    """Worst relative residual of [P, Q] psi + i hbar psi on a LineGrid.

    P(Q psi) needs two derivative passes, so LINE_BOUNDARY_NODES nodes at
    each end are excluded where the zero padding truncates the stencil.
    """
    check_hbar(hbar)
    q_psi = position_op(psi, component=0)
    pq = momentum_op(q_psi, hbar=hbar, order=order).amplitudes
    qp = position_op(momentum_op(psi, hbar=hbar, order=order), component=0).amplitudes
    residual = pq - qp + 1j * hbar * psi.amplitudes
    mask = np.zeros(psi.grid.size, dtype=bool)
    mask[LINE_BOUNDARY_NODES:-LINE_BOUNDARY_NODES] = True
    return float(_relative(residual, psi, mask, hbar))


def commutator_residuals(psi, i0, hbar=1.0):
    """Chart, body and angular-velocity commutator residuals, three (3, 3) matrices.

    chart[j, k]:  [n_(j).L, w^k] psi + i hbar delta_jk psi;
    body[k, j]:   [L_k, w^j] psi + i hbar m[j, k] psi, the chart field read through m;
    angvel[k, j]: [Omega^j, w^k] psi + i hbar (I0^-1 m^(k))^j psi, I0^-1 times
                  the body field (rigid-rotor angular velocity Omega = I0^-1 L).
    Entries are worst residuals off the grid's seam shells relative to
    hbar * max|psi|: on the seam the wrapped coordinate jumps by 2 pi even
    when the state is smooth.  A state whose seam mass reaches
    BOUNDARY_MASS_TOL raises BoundaryMassError.
    """
    check_hbar(hbar)
    i0 = np.asarray(i0, dtype=float)
    if i0.shape != (3, 3):
        raise SingularInertiaError("equilibrium inertia must be a 3x3 matrix")
    if np.abs(i0 - i0.T).max() > 1e-12 * np.abs(i0).max():
        raise SingularInertiaError(f"equilibrium inertia not symmetric: {i0.tolist()}")
    eigs = np.linalg.eigvalsh(i0)
    if eigs.min() <= 0.0 or not np.all(np.isfinite(eigs)):
        raise SingularInertiaError(f"equilibrium inertia not positive definite: spectrum {eigs}")
    mass = psi.boundary_mass()
    if mass >= BOUNDARY_MASS_TOL:
        raise BoundaryMassError(
            f"orientation state carries boundary mass {mass:.3e} >= {BOUNDARY_MASS_TOL:g}; "
            "chart derivatives are unreliable near the seam"
        )

    _check_chart_state(psi)
    # stay below the shell spacing but cap so 4th-order truncation of
    # sigma >= 0.1 states lands under the commutator tolerances
    d_psi, d_xpsi = _chart_sweep(psi, min(psi.grid.radial_step, 0.02), True)
    chart = -1j * hbar * d_xpsi - psi.grid.nodes.T * (-1j * hbar * d_psi)[:, None, :]
    chart += 1j * hbar * np.eye(3)[:, :, None] * psi.amplitudes
    _, m = frame_fields(psi.grid.nodes)
    m_t = np.moveaxis(m, 0, -1)[:, :, None, :]  # m_t[i, k, 0] = m[:, i, k]
    body = 0.0  # index [k, j]: sum_i m[:, i, k] chart[i, j], summed i = 0, 1, 2
    for i in range(3):
        body = body + m_t[i] * chart[i, None]
    angvel = np.einsum("jl,lkn->kjn", np.linalg.inv(i0), body)  # index [k, j]
    mask = ~psi.grid.seam_mask
    return tuple(_relative(r, psi, mask, hbar) for r in (chart, body, angvel))


def chart_commutator_residuals(psi, hbar=1.0):
    """The chart matrix of ``commutator_residuals``, entry (j, k)."""
    return commutator_residuals(psi, np.eye(3), hbar)[0]


def body_commutator_residuals(psi, hbar=1.0):
    """The body matrix of ``commutator_residuals``, entry (k, j)."""
    return commutator_residuals(psi, np.eye(3), hbar)[1]


def angvel_commutator_check(i0, psi, hbar=1.0):
    """Max of ``commutator_residuals``' angular-velocity matrix; i0 = 1 gives the body check."""
    return float(commutator_residuals(psi, i0, hbar)[2].max())
