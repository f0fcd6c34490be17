"""Dispersions and uncertainty-product reports.

A dispersion is sqrt(<A^2> - <A>^2) under the grid quadrature, computed
as ||A psi||^2 - |<psi, A psi>|^2 so the variance is nonnegative by
Cauchy-Schwarz up to rounding.  The suite builder pairs conjugate
observables per kind:

  vibrational: mode momentum vs mode amplitude, bound hbar/2 per mode
               (cross-mode bound 0);
  electronic:  per-electron Cartesian momentum vs coordinate, bound
               hbar/2 only for the same electron and same component;
  rotational:  chart angular momentum n_(j).L vs orientation
               coordinate omega^k, bound hbar/2 only for j = k.

``dispersion`` takes the state and the already-applied A psi, so each
operator runs once per state: the line branch applies momentum_op and
position_op per state, and the rotational branch makes one call of
``angmom_op`` (or ``body_angmom_op`` with fixed_frame), whose single
stencil sweep yields all three components (12 profile evaluations per
state at order 4).

Rotational dispersions are only meaningful for states concentrated away
from the chart seam: when the boundary mass of a state reaches 1e-8 the
report's satisfied field is None (indeterminate) rather than a verdict.
Angular-momentum dispersions use the Haar-symmetrized derivative so the
operator is hermitian under the weighted quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import GridError
from .grids import GridWavefunction, LineGrid, So3Grid
from .operators import (
    BOUNDARY_MASS_TOL,
    angmom_op,
    body_angmom_op,
    momentum_op,
    position_op,
)

__all__ = ["DispersionReport", "dispersion", "heisenberg_suite"]

# every dispersion differentiates with the 4th-order stencil, and the
# orientation derivatives step 5e-3 along each chart direction
STENCIL_ORDER = 4
ORIENTATION_STEP = 5e-3


@dataclass(frozen=True)
class DispersionReport:
    """One uncertainty-product row: Delta_a * Delta_b vs its lower bound.

    satisfied is True/False against bound - product <= tolerance, or
    None when the state's boundary mass makes the orientation
    dispersion indeterminate.
    """

    observable_a: str
    observable_b: str
    delta_a: float
    delta_b: float
    product: float
    bound: float
    satisfied: object
    boundary_mass: float = 0.0


def dispersion(psi, a_psi):
    """sqrt(<A^2> - <A>^2) for a normalized state psi, given a_psi = A psi.

    a_psi is a GridWavefunction on psi's grid.  Variances inside
    [-1e-12, 0) are clamped to zero (quadrature rounding); anything more
    negative signals a broken quadrature and raises, as does a variance
    beyond the float range or an <A^2> that underflows it while A psi is
    nonzero.
    """
    norm = psi.norm()
    if abs(norm - 1.0) > 1e-8:
        raise GridError(f"dispersion needs a normalized state, got norm {norm!r}")
    weights = psi.weights
    amps = a_psi.amplitudes
    mean = complex(np.sum(weights * np.conj(psi.amplitudes) * amps))
    with np.errstate(over="ignore"):  # an overflow raises GridError below
        second = float(np.sum(weights * np.abs(amps) ** 2))
    try:  # float ** raises where float * would give inf
        variance = second - (mean.real**2 + mean.imag**2)
    except OverflowError:
        variance = math.inf
    if not math.isfinite(variance) or (second < np.finfo(float).tiny and np.any(amps)):
        raise GridError(f"dispersion out of float range: <A^2> = {second:.3e}")
    if variance < 0.0:
        if variance < -1e-12:
            raise GridError(f"quadrature failure: variance {variance:.3e}")
        variance = 0.0
    return math.sqrt(variance)


def _pair_rows(labels_a, deltas_a, labels_b, deltas_b, half, tolerance, boundary_mass=0.0):
    """One row per (a, b) pair; the bound is ``half`` on the diagonal and 0 off it.

    A state whose boundary mass reaches BOUNDARY_MASS_TOL gets no verdict.
    """
    gated = boundary_mass >= BOUNDARY_MASS_TOL
    rows = []
    for ia, (la, da) in enumerate(zip(labels_a, deltas_a)):
        for ib, (lb, db) in enumerate(zip(labels_b, deltas_b)):
            bound = half if ia == ib else 0.0
            product = da * db
            rows.append(
                DispersionReport(
                    observable_a=la,
                    observable_b=lb,
                    delta_a=float(da),
                    delta_b=float(db),
                    product=float(product),
                    bound=float(bound),
                    satisfied=None if gated else bool(bound - product <= tolerance),
                    boundary_mass=float(boundary_mass),
                )
            )
    return rows


def _line_states(psi_set, kind):
    """Flattened LineGrid states of a vibrational or electronic set, with their labels."""
    if kind == "vibrational":
        states = list(psi_set)
        labels = [(f"P_{i}", f"Q^{i}") for i in range(1, len(states) + 1)]
    else:
        groups = [list(g) for g in psi_set]
        if any(len(g) != 3 for g in groups):
            raise GridError("electronic states come as one triple per electron")
        states = [s for g in groups for s in g]
        labels = [(f"p_({nu})_{j}", f"q_({nu})^{j}")
                  for nu in range(1, len(groups) + 1) for j in (1, 2, 3)]
    if not states:
        raise GridError("empty state set")
    for s in states:
        if not isinstance(s, GridWavefunction) or not isinstance(s.grid, LineGrid):
            raise GridError(f"{kind} checks need LineGrid states")
    return states, [a for a, _ in labels], [b for _, b in labels]


def heisenberg_suite(psi_set, kind, hbar=1.0, tolerance=None, fixed_frame=False):
    """Uncertainty reports for every conjugate pair of a state family.

    psi_set layout per kind:
      vibrational: one LineGrid state per mode;
      electronic:  one sequence of three LineGrid states per electron
                   (Cartesian components of a product state);
      rotational:  So3Grid states.
    tolerance defaults to the quadrature allowance 1e-6 * hbar.
    fixed_frame swaps the chart operator n_(j)(omega).L for the body
    component L_j referenced at the identity orientation.
    """
    if tolerance is None:
        tolerance = 1e-6 * hbar
    if tolerance <= 0.0:
        raise GridError("tolerance must be positive")
    half = 0.5 * hbar

    if kind in ("vibrational", "electronic"):
        states, la, lb = _line_states(psi_set, kind)
        d_p = [dispersion(s, momentum_op(s, hbar=hbar, order=STENCIL_ORDER)) for s in states]
        d_q = [dispersion(s, position_op(s)) for s in states]
        return _pair_rows(la, d_p, lb, d_q, half, tolerance)

    if kind == "rotational":
        states = list(psi_set)
        if not states:
            raise GridError("empty state set")
        for s in states:
            if not isinstance(s, GridWavefunction) or not isinstance(s.grid, So3Grid):
                raise GridError("rotational checks need So3Grid states")
        l_op = body_angmom_op if fixed_frame else angmom_op
        rows = []
        for idx, s in enumerate(states):
            tag = f"[{idx + 1}]" if len(states) > 1 else ""
            l_psi = l_op(s, hbar=hbar, step=ORIENTATION_STEP, order=STENCIL_ORDER,
                         symmetric=True, enforce_boundary=False)
            d_l = [dispersion(s, a) for a in l_psi]
            d_w = [dispersion(s, position_op(s, component=k)) for k in range(3)]
            la = [(f"L_{j + 1}" if fixed_frame else f"n_({j + 1}).L") + tag for j in range(3)]
            lb = [f"omega^{k + 1}" + tag for k in range(3)]
            rows.extend(_pair_rows(la, d_l, lb, d_w, half, tolerance, s.boundary_mass()))
        return rows

    raise GridError(f"unknown suite kind {kind!r}")
