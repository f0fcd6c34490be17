"""Grid realizations of position, momentum, and angular-momentum operators.

Line momentum is -i hbar times a central finite difference on the node
amplitudes (states must decay at the grid ends).  Orientation-space
operators differentiate the state's generating profile along chart
directions, wrapping stencil points that poke outside the axis-angle
ball through the antipode.  The chart derivative D_j = -i hbar d/dw^j
realizes n_(j)(w) . L; body components follow from the dual frame
(``lie_so3.frame_fields``), L_k = sum_j m[j, k] D_j.

Every orientation derivative comes from one stencil sweep,
``_chart_sweep``: it gates the state's seam mass, then evaluates the
profile once per stencil offset along each w^j (4 calls per direction
at order 4, 12 per state).  From those values it forms D_j psi and, for
the commutator checks, D_j(w^k psi) (w^k psi at a stencil point is the
wrapped coordinate times the profile there).

- ``angmom_op`` returns the three chart components D_j psi and
  ``body_angmom_op`` their contraction with m, both from one sweep; the
  rotational dispersions (``heisenberg.heisenberg_suite``) call one of
  them once per state.
- ``commutator_residuals`` forms the chart residual field
  [D_j, w^k] psi + i hbar delta_jk psi from one sweep and reads the body
  and angular-velocity residuals off it through m and I0^-1 m, which
  commute with w^k.  Each check reports the worst interior node relative
  to hbar * max|psi| and excludes a configurable number of boundary
  shells (the chart seam is where the finite-difference wrap stops being
  exact for the coordinate functions themselves).
"""

import numpy as np

from ..errors import BoundaryMassError, GridError, SingularInertiaError
from ..lie_so3 import frame_fields, log_density_gradient
from .grids import GridWavefunction, LineGrid, So3Grid, wrap_to_ball

__all__ = [
    "BOUNDARY_MASS_TOL",
    "position_op",
    "momentum_op",
    "angmom_op",
    "body_angmom_op",
    "frame_fields",
    "line_commutator_residual",
    "commutator_residuals",
    "chart_commutator_residuals",
    "body_commutator_residuals",
    "angvel_commutator_check",
]

BOUNDARY_MASS_TOL = 1e-8

# nodes left out at each end of a line grid by line_commutator_residual
LINE_BOUNDARY_NODES = 8

# central first-derivative stencils: offsets, integer numerators, denominator
_STENCILS = {
    2: ((-1, 1), (-1, 1), 2),
    4: ((-2, -1, 1, 2), (1, -8, 8, -1), 12),
}


def _coordinate(grid, component):
    if isinstance(grid, LineGrid):
        if component not in (0, None):
            raise GridError("line grids have a single coordinate (component 0)")
        return grid.points
    if component is None or not 0 <= int(component) <= 2:
        raise GridError("orientation coordinate component must be 0, 1, or 2")
    return grid.nodes[:, int(component)]


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

    The stencil assumes the state vanishes beyond the grid; amplitudes
    at the two outermost nodes on each end must be below 1e-8 of the
    peak or the zero padding would corrupt the derivative.
    """
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


def _orientation_setup(psi, step, order, enforce_boundary):
    """Check an So3Grid state for chart derivatives and return the stencil step."""
    mass = psi.boundary_mass()
    if enforce_boundary and mass >= BOUNDARY_MASS_TOL:
        raise BoundaryMassError(
            f"orientation state carries boundary mass {mass:.3e} >= {BOUNDARY_MASS_TOL:g}; "
            "chart derivatives are unreliable near the seam"
        )
    if not isinstance(psi.grid, So3Grid):
        raise GridError("chart derivatives need an So3Grid state")
    if psi.profile is None:
        raise GridError("state lacks a generating profile for off-node evaluation")
    if order not in _STENCILS:
        raise GridError(f"unsupported stencil order {order}")
    if step is None:
        # stay below the shell spacing but cap so 4th-order truncation of
        # sigma >= 0.1 states lands under the commutator tolerances
        step = min(psi.grid.radial_step, 0.02)
    return step


def _stencil(psi, direction, step, order):
    """Yield (weight, wrapped points, profile there) per stencil offset along w^j."""
    offsets, nums, den = _STENCILS[order]
    unit = np.zeros(3)
    unit[int(direction)] = 1.0
    nodes = psi.grid.nodes
    for off, num in zip(offsets, nums):
        pts = wrap_to_ball(nodes + (off * step) * unit)
        yield num / den, pts, np.asarray(psi.profile(pts), dtype=complex)


def _chart_sweep(psi, step, order, enforce_boundary, coordinates=True):
    """One stencil sweep: d(psi)/dw^j (3, K) and d(w^k psi)/dw^j (3, 3, K), index [j, k].

    The operators pass coordinates=False and get None for d(w^k psi):
    only the commutator checks need it, and it is most of the sweep's
    memory.
    """
    step = _orientation_setup(psi, step, order, enforce_boundary)
    d_psi = np.zeros((3, psi.grid.size), dtype=complex)
    d_xpsi = np.zeros((3, 3, psi.grid.size), dtype=complex) if coordinates else None
    for j in range(3):
        for cf, pts, vals in _stencil(psi, j, step, order):
            d_psi[j] += cf * vals
            if coordinates:
                d_xpsi[j] += cf * (pts.T * vals)
    d_psi /= step
    if coordinates:
        d_xpsi /= step
    return d_psi, d_xpsi


def _angmom_derivatives(psi, step, order, symmetric, enforce_boundary):
    """d(psi)/dw^j (3, K) from one sweep, plus the Haar drift when symmetric."""
    d_psi, _ = _chart_sweep(psi, step, order, enforce_boundary, coordinates=False)
    if symmetric:
        d_psi += 0.5 * log_density_gradient(psi.grid.nodes).T * psi.amplitudes
    return d_psi


def _components(psi, amplitudes):
    """One profile-free state per row of amplitudes (3, K)."""
    return tuple(GridWavefunction(grid=psi.grid, amplitudes=a, profile=None) for a in amplitudes)


def angmom_op(psi, hbar=1.0, step=None, order=4, symmetric=False, enforce_boundary=True):
    """The chart components (n_(j)(w) . L) psi = -i hbar d(psi)/dw^j on an So3Grid.

    Returns three states, j = 0, 1, 2, from one stencil sweep.
    symmetric=True adds the Haar drift -i hbar/2 (d_j ln rho) psi, which
    makes each component hermitian under the weighted quadrature; the
    drift cancels in commutators with coordinate functions.
    """
    deriv = _angmom_derivatives(psi, step, order, symmetric, enforce_boundary)
    return _components(psi, -1j * hbar * deriv)


def body_angmom_op(psi, hbar=1.0, step=None, order=4, symmetric=False, enforce_boundary=True):
    """Body components L_k psi = sum_j m[j, k] D_j psi, k = 0, 1, 2, from one sweep."""
    deriv = _angmom_derivatives(psi, step, order, symmetric, enforce_boundary)
    _, m = frame_fields(psi.grid.nodes)
    total = _body_components(np.moveaxis(m, 0, -1), deriv)  # m_t[j, k] = m[:, j, k]
    return _components(psi, -1j * hbar * total)


def _body_components(m_t, derivs):
    """sum_j m_t[j] * derivs[j], summed in the order j = 0, 1, 2.

    m_t[j] holds m[:, j, ...] node-last and broadcasts against derivs[j].
    """
    total = 0.0
    for j in range(3):
        total = total + m_t[j] * derivs[j]
    return total


def _relative(residual, psi, mask, hbar):
    """Worst interior-node |residual| over the last axis, relative to hbar * max|psi|."""
    scale = hbar * float(np.abs(psi.amplitudes).max())
    return np.abs(residual[..., mask]).max(axis=-1) / scale


def _chart_residual(psi, hbar, step, order, enforce_boundary):
    """[n_(j).L, w^k] psi + i hbar delta_jk psi, index [j, k] (3, 3, K), from one sweep."""
    d_psi, d_xpsi = _chart_sweep(psi, step, order, enforce_boundary)
    comm = -1j * hbar * d_xpsi - psi.grid.nodes.T * (-1j * hbar * d_psi)[:, None, :]
    return comm + 1j * hbar * np.eye(3)[:, :, None] * psi.amplitudes


def line_commutator_residual(psi, hbar=1.0, order=2):
    """Worst relative residual of [P, Q] psi + i hbar psi on a LineGrid.

    P(Q psi) needs two derivative passes, so LINE_BOUNDARY_NODES nodes at
    each end are excluded where the zero padding truncates the stencil.
    """
    q_psi = position_op(psi, component=0)
    pq = momentum_op(q_psi, hbar=hbar, order=order).amplitudes
    qp = position_op(momentum_op(psi, hbar=hbar, order=order), component=0).amplitudes
    residual = pq - qp + 1j * hbar * psi.amplitudes
    mask = np.zeros(psi.grid.size, dtype=bool)
    mask[LINE_BOUNDARY_NODES:-LINE_BOUNDARY_NODES] = True
    return float(_relative(residual, psi, mask, hbar))


def commutator_residuals(psi, i0, hbar=1.0, step=None, order=4, boundary_layers=2,
                         enforce_boundary=True):
    """Chart, body and angular-velocity commutator residuals, three (3, 3) matrices.

    chart[j, k]:  [n_(j).L, w^k] psi + i hbar delta_jk psi;
    body[k, j]:   [L_k, w^j] psi + i hbar m[j, k] psi, the chart field read through m;
    angvel[k, j]: [Omega^j, w^k] psi + i hbar (I0^-1 m^(k))^j psi, I0^-1 times
                  the body field (rigid-rotor angular velocity Omega = I0^-1 L).
    Entries are worst interior-node residuals relative to hbar * max|psi|,
    excluding boundary_layers outer shells; 0 exposes the seam error of the
    coordinate function (the wrapped coordinate jumps by 2 pi even when the
    state is smooth).
    """
    i0 = np.asarray(i0, dtype=float)
    if i0.shape != (3, 3):
        raise SingularInertiaError("equilibrium inertia must be a 3x3 matrix")
    if np.abs(i0 - i0.T).max() > 1e-12 * np.abs(i0).max():
        raise SingularInertiaError(f"equilibrium inertia not symmetric: {i0.tolist()}")
    eigs = np.linalg.eigvalsh(i0)
    if eigs.min() <= 0.0 or not np.all(np.isfinite(eigs)):
        raise SingularInertiaError(f"equilibrium inertia not positive definite: spectrum {eigs}")

    chart = _chart_residual(psi, hbar, step, order, enforce_boundary)
    _, m = frame_fields(psi.grid.nodes)
    m_t = np.moveaxis(m, 0, -1)  # m_t[j, k] = m[:, j, k]
    body = _body_components(m_t[:, :, None, :], chart[:, None])  # index [k, j]
    angvel = np.einsum("jl,lkn->kjn", np.linalg.inv(i0), body)  # index [k, j]
    mask = psi.grid.interior(boundary_layers)
    return tuple(_relative(r, psi, mask, hbar) for r in (chart, body, angvel))


def chart_commutator_residuals(psi, hbar=1.0, step=None, order=4, boundary_layers=2,
                               enforce_boundary=True):
    """The chart matrix of ``commutator_residuals``, entry (j, k)."""
    residual = _chart_residual(psi, hbar, step, order, enforce_boundary)
    return _relative(residual, psi, psi.grid.interior(boundary_layers), hbar)


def body_commutator_residuals(psi, hbar=1.0, step=None, order=4, boundary_layers=2,
                              enforce_boundary=True):
    """The body matrix of ``commutator_residuals``, entry (k, j)."""
    return commutator_residuals(psi, np.eye(3), hbar, step, order, boundary_layers,
                                enforce_boundary)[1]


def angvel_commutator_check(i0, psi, hbar=1.0, step=None, order=4, boundary_layers=2,
                            enforce_boundary=True):
    """Max of ``commutator_residuals``' angular-velocity matrix; i0 = 1 gives the body check."""
    return float(commutator_residuals(psi, i0, hbar, step, order, boundary_layers,
                                      enforce_boundary)[2].max())
