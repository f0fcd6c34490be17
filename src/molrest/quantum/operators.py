"""Grid realizations of position, momentum, and angular-momentum operators.

Line momentum is -i hbar times a central difference at step h on node
amplitudes that decay at the grid ends: (psi[i+1] - psi[i-1]) / 2h for
``line_commutator_residual``, (psi[i-2] - 8 psi[i-1] + 8 psi[i+1] -
psi[i+2]) / 12h for the dispersions.  ``central_difference`` is the one
copy of both numerators, with zeros beyond the grid ends, and
``check_decay`` the one edge-decay gate; ``momentum_op`` and the
Heisenberg suite's line kernel share them.  Orientation-space operators
differentiate the state's generating profile along chart directions.  A
stencil point lies within 2h of its node, so only the points of nodes
with angle above pi - 3h can leave the axis-angle ball; those are passed
through ``wrap_to_ball``, which maps a point outside back in with the
same rotation.  D_j = -i hbar d/dw^j realizes n_(j)(w) . L; body components
follow from the dual frame (``lie_so3.frame_fields``), L_k = sum_j m[j, k] D_j.

Every orientation derivative comes from one sweep, ``_chart_sweep``, at
the step h its caller passes: d f/dw^j = (f(w - 2h e_j) - 8 f(w - h e_j)
+ 8 f(w + h e_j) - f(w + 2h e_j)) / 12h, 12 profile calls per state.  It
forms D_j psi and, for the commutator checks, D_j(w^k psi) (at a stencil
point, the wrapped coordinate times the profile).  Each stencil term goes
through one (3, K) buffer, and the sums are scaled by 1 / h on their
float view, the product numpy's complex-by-real division forms.  Each job
has one policy:

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
  hbar * max|psi|.  The three residual fields are formed BLOCK_NODES
  nodes at a time in three (3, 3, BLOCK_NODES) buffers, and only their
  running maxima outlive a block; every step is per node, so the tables
  do not depend on the block size.  The chart, body and angular-velocity
  entry points read its three tables.

Every operator and check raises GridError for an hbar that is not
positive and finite (``grids.check_hbar``) before it differentiates.
"""

import math

import numpy as np

from ..errors import BoundaryMassError, GridError, SingularInertiaError
from ..gates import BOUNDARY_MASS_TOL, EDGE_DECAY, I0_SYMMETRY
from ..lie_so3 import frame_fields
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

# chart step of angmom_op, the operator of the rotational dispersions
ORIENTATION_STEP = 5e-3

# nodes whose chart, body and angular-velocity residuals commutator_residuals forms at a time
BLOCK_NODES = 1024

# the 4th-order central first-derivative stencil: (offset, weight) pairs
_CHART_STENCIL = ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12))


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


def check_decay(rho, amp):
    """Raise BoundaryMassError unless rho = |psi|^2 at the two outermost nodes
    on each end of a line is at most ``gates.EDGE_DECAY`` of its peak, where
    the stencils' zero padding would corrupt a derivative.

    GridError first if the peak is not finite, naming the cause: a NaN or
    inf among the amplitudes ``amp``, or finite ones whose |psi|^2 is past
    the float range (callers form rho with overflow ignored).
    """
    peak = float(rho.max())
    if not math.isfinite(peak):
        if np.isfinite(amp).all():
            raise GridError(f"|psi|^2 past the float range: max |psi| = {np.abs(amp).max():.3e}")
        raise GridError(f"non-finite amplitudes: peak |psi|^2 = {peak!r}")
    edge = float(max(rho[:2].max(), rho[-2:].max()))
    if peak == 0.0 or not edge <= EDGE_DECAY * peak:
        raise BoundaryMassError(
            f"insufficient decay at grid ends: edge/peak = "
            f"{math.sqrt(edge / peak) if peak else math.inf:.3e}"
        )


def central_difference(amp, order, out, work):
    """h times the order-2, 12h times the order-4 central first derivative of amp, into out.

    Order 2 is amp[i+1] - amp[i-1]; order 4 is amp[i-2] - 8 amp[i-1] +
    8 amp[i+1] - amp[i+2], summed left to right.  Nodes beyond the ends
    count as zero: the two nodes on each end take their sums from a short
    zero-padded copy, so every node sees the same arithmetic.  out and work
    are complex arrays of amp's size; amp has at least 5 nodes.
    """

    def stencil(p, o):  # o[i] from p[i], ..., p[i + 4]
        if order == 2:
            np.subtract(p[3:-1], p[1:-3], out=o)
            return
        eight = np.multiply(p, 8, out=work[:p.size])
        np.subtract(p[:-4], eight[1:-3], out=o)
        o += eight[3:-1]
        o -= p[4:]

    stencil(amp, out[2:-2])
    ends = np.zeros(12, dtype=complex)
    ends[2:6], ends[6:10] = amp[:4], amp[-4:]
    sums = np.empty(8, dtype=complex)
    stencil(ends, sums)
    out[:2], out[-2:] = sums[:2], sums[6:]
    return out


def momentum_op(psi, hbar=1.0, order=4):
    """-i hbar d/dx by central differences on a LineGrid.

    Each order serves one job: 4, the default, is the stencil of the line
    dispersions (``heisenberg.heisenberg_suite`` takes it through
    ``central_difference`` without forming P psi); 2
    ``line_commutator_residual``, whose convergence order is measured.
    The stencil assumes the state vanishes beyond the grid; |psi|^2 at
    the two outermost nodes on each end must be at most
    ``gates.EDGE_DECAY`` of its peak (``check_decay``) or the zero padding
    would corrupt the derivative.
    """
    check_hbar(hbar)
    if not isinstance(psi.grid, LineGrid):
        raise GridError("momentum_op needs a LineGrid state")
    if order not in (2, 4):
        raise GridError(f"unsupported stencil order {order}")
    amp = psi.amplitudes
    with np.errstate(over="ignore"):  # |psi|^2 past the float range fails check_decay
        rho = amp.real * amp.real + amp.imag * amp.imag
    check_decay(rho, amp)
    deriv = central_difference(amp, order, np.empty_like(amp), np.empty_like(amp))
    deriv /= (2 if order == 2 else 12) * psi.grid.step
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

    A stencil point lies within 2 step of its node, so only the points of
    nodes with angle above pi - 3 step can leave the ball: those alone go
    through ``wrap_to_ball``, once per stencil point, and every other point
    is the unwrapped node + off step e_j it would have returned.

    Each stencil term, weight times the profile (or times the wrapped
    coordinate and the profile), is written into one (3, K) buffer and
    added in stencil order.  The sums are then scaled by 1 / step on their
    float view, which is what numpy's complex-by-real division computes
    (``grids._scaled``).
    """
    nodes = psi.grid.nodes
    near = np.flatnonzero(psi.grid.node_angles > np.pi - 3 * step)
    d_psi = np.zeros((3, psi.grid.size), dtype=complex)
    d_xpsi = np.zeros((3, 3, psi.grid.size), dtype=complex) if coordinates else None
    term = np.empty((3, psi.grid.size), dtype=complex)
    for j, unit in enumerate(np.eye(3)):
        for off, weight in _CHART_STENCIL:
            pts = nodes + (off * step) * unit
            pts[near] = wrap_to_ball(pts[near])
            vals = np.asarray(psi.profile(pts), dtype=complex)
            d_psi[j] += np.multiply(weight, vals, out=term[0])
            if coordinates:
                np.multiply(pts.T, vals, out=term)
                d_xpsi[j] += np.multiply(weight, term, out=term)
            del pts, vals  # freed before the next profile call: a lower peak
    for field in (d_psi, d_xpsi) if coordinates else (d_psi,):
        floats = field.view(float)
        floats *= 1 / step
    return d_psi, d_xpsi


def angmom_op(psi, hbar=1.0):
    """The Haar-symmetrized chart components of L on an So3Grid, j = 0, 1, 2.

    (n_(j)(w) . L) psi = -i hbar (d/dw^j + (1/2) d_j ln rho) psi, from one
    sweep at ORIENTATION_STEP.  The Haar drift (1/2) d_j ln rho makes each
    component hermitian under the weighted quadrature and cancels in
    commutators with coordinate functions; d_j ln rho is the grid's
    ``So3Grid.log_density_gradient``, formed once per grid.  No seam gate:
    the dispersion suite marks a state with seam mass indeterminate instead.
    """
    check_hbar(hbar)
    _check_chart_state(psi)
    d_psi, _ = _chart_sweep(psi, ORIENTATION_STEP, False)
    d_psi += 0.5 * psi.grid.log_density_gradient.T * psi.amplitudes
    return tuple(GridWavefunction(grid=psi.grid, amplitudes=a, profile=None)
                 for a in -1j * hbar * d_psi)


def _check_interior(mask):
    """Raise GridError unless the boundary exclusion ``mask`` keeps a node."""
    if not mask.any():
        raise GridError("the boundary exclusion leaves no node to check")


def _relative(residual, scale, mask):
    """Worst interior-node |residual| over the last axis, relative to scale = hbar * max|psi|."""
    _check_interior(mask)
    return np.abs(residual).max(axis=-1, where=mask, initial=0.0) / scale


def line_commutator_residual(psi, hbar=1.0, order=2):
    """Worst relative residual of [P, Q] psi + i hbar psi on a LineGrid.

    P(Q psi) needs two derivative passes of the order-``order`` stencil,
    which reach ``order`` nodes: those at each end are excluded, where the
    zero padding truncates the stencil.
    """
    check_hbar(hbar)
    p_psi = momentum_op(psi, hbar=hbar, order=order)  # gates psi before any product with it
    pq = momentum_op(position_op(psi, component=0), hbar=hbar, order=order).amplitudes
    qp = position_op(p_psi, component=0).amplitudes
    residual = pq - qp + 1j * hbar * psi.amplitudes
    mask = np.zeros(psi.grid.size, dtype=bool)
    mask[order:-order] = True
    return float(_relative(residual, hbar * float(np.abs(psi.amplitudes).max()), mask))


def _fold_worst(worst, field, magnitude, keep):
    """worst = max(worst, max over the last axis of |field| where keep); |field| goes into magnitude."""
    np.abs(field, out=magnitude)
    np.maximum(worst, magnitude.max(axis=-1, where=keep, initial=0.0), out=worst)


def commutator_residuals(psi, i0, hbar=1.0):
    """Chart, body and angular-velocity commutator residuals, three (3, 3) matrices.

    chart[j, k]:  [n_(j).L, w^k] psi + i hbar delta_jk psi;
    body[k, j]:   [L_k, w^j] psi + i hbar m[j, k] psi, the chart field read through m;
    angvel[k, j]: [Omega^j, w^k] psi + i hbar (I0^-1 m^(k))^j psi, I0^-1 times
                  the body field (rigid-rotor angular velocity Omega = I0^-1 L).
    Entries are worst residuals off the grid's seam shells relative to
    hbar * max|psi|: on the seam the wrapped coordinate jumps by 2 pi even
    when the state is smooth.  An i0 that is not a finite, symmetric (to
    ``gates.I0_SYMMETRY``), positive-definite 3x3 matrix raises
    SingularInertiaError; a state with a NaN or inf amplitude raises
    GridError; one whose seam mass reaches ``gates.BOUNDARY_MASS_TOL``
    raises BoundaryMassError.

    After the sweep, -i hbar scales its two fields in place.  The residual
    fields are then formed BLOCK_NODES nodes at a time, with the frame
    fields of that block's nodes: chart, then body and angular velocity as
    real-factor times complex products summed over i = 0, 1, 2 and
    l = 0, 1, 2, each block's masked maximum of |r| folded into a running
    one.  Only the three (3, 3, BLOCK_NODES) blocks are held, never a whole
    field.  Every product has one real factor (or a zero real part), so it
    is one rounded multiplication per float, whatever the operand order;
    with the fixed summation order and an exact maximum the tables are
    bit for bit those of whole-grid fields, at any block size.
    """
    check_hbar(hbar)
    i0 = np.asarray(i0, dtype=float)
    if i0.shape != (3, 3):
        raise SingularInertiaError("equilibrium inertia must be a 3x3 matrix")
    if not np.isfinite(i0).all():
        raise SingularInertiaError(f"equilibrium inertia not finite: {i0.tolist()}")
    if np.abs(i0 - i0.T).max() > I0_SYMMETRY * np.abs(i0).max():
        raise SingularInertiaError(f"equilibrium inertia not symmetric: {i0.tolist()}")
    eigs = np.linalg.eigvalsh(i0)
    if eigs.min() <= 0.0 or not np.all(np.isfinite(eigs)):
        raise SingularInertiaError(f"equilibrium inertia not positive definite: spectrum {eigs}")
    peak = float(np.abs(psi.amplitudes).max())
    if not math.isfinite(peak):
        raise GridError(f"non-finite amplitudes: max |psi| = {peak!r}")
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
    keep = ~psi.grid.seam_mask
    _check_interior(keep)
    d_psi *= -1j * hbar  # -i hbar D_j psi
    d_xpsi *= -1j * hbar  # -i hbar D_j (w^k psi)
    i0_inv = np.linalg.inv(i0)
    nodes, amp = psi.grid.nodes, psi.amplitudes
    width = min(BLOCK_NODES, psi.grid.size)
    chart, body, angvel = (np.empty((3, 3, width), dtype=complex) for _ in range(3))
    i_hbar_psi = np.empty(width, dtype=complex)
    magnitude = np.empty((3, 3, width))
    worst = np.zeros((3, 3, 3))  # running maxima of |chart|, |body|, |angvel|

    for start in range(0, psi.grid.size, width):
        block = slice(start, start + width)
        n = min(width, psi.grid.size - start)
        c, b, a, mag = chart[..., :n], body[..., :n], angvel[..., :n], magnitude[..., :n]
        # chart[j, k] = -i hbar D_j (w^k psi) - w^k (-i hbar D_j psi) + i hbar delta_jk psi
        np.multiply(nodes[block].T, d_psi[:, None, block], out=c)
        np.subtract(d_xpsi[..., block], c, out=c)
        np.multiply(1j * hbar, amp[block], out=i_hbar_psi[:n])
        for j in range(3):
            c[j, j] += i_hbar_psi[:n]
        _fold_worst(worst[0], c, mag, keep[block])
        # body[k, j] = sum_i m[:, i, k] chart[i, j], summed i = 0, 1, 2; angvel holds each term
        _, m = frame_fields(nodes[block])
        m_t = np.moveaxis(m, 0, -1)[:, :, None, :]  # m_t[i, k, 0] = m[:, i, k]
        np.multiply(m_t[0], c[0, None], out=b)
        for i in (1, 2):
            b += np.multiply(m_t[i], c[i, None], out=a)
        _fold_worst(worst[1], b, mag, keep[block])
        # angvel[k, j] = sum_l I0^-1[j, l] body[l, k], summed l = 0, 1, 2; chart holds each term
        np.multiply(i0_inv[:, 0, None], b[0, :, None, :], out=a)
        for l in (1, 2):
            a += np.multiply(i0_inv[:, l, None], b[l, :, None, :], out=c)
        _fold_worst(worst[2], a, mag, keep[block])
    return tuple(worst / (hbar * peak))


def chart_commutator_residuals(psi, hbar=1.0):
    """The chart matrix of ``commutator_residuals``, entry (j, k)."""
    return commutator_residuals(psi, np.eye(3), hbar)[0]


def body_commutator_residuals(psi, hbar=1.0):
    """The body matrix of ``commutator_residuals``, entry (k, j)."""
    return commutator_residuals(psi, np.eye(3), hbar)[1]


def angvel_commutator_check(i0, psi, hbar=1.0):
    """Max of ``commutator_residuals``' angular-velocity matrix; i0 = 1 gives the body check."""
    return float(commutator_residuals(psi, i0, hbar)[2].max())
