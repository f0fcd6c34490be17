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
               The chart pair is canonical, [n_(j).L, omega^k] =
               -i hbar delta_jk, so Robertson's inequality gives the
               bound hbar/2 at every orientation.

``dispersion`` takes the state and the already-applied A psi, so each
operator runs once per state: the line branch applies momentum_op (at
its default 4th order) and position_op per state, and the rotational
branch makes one call of ``angmom_op``, whose single stencil sweep
yields all three chart components (12 profile evaluations per state).  The suite checks each
state's normalization once, not once per dispersion as a direct
``dispersion`` call does.

``heisenberg_suite`` returns one numpy record array with a record per
pair, built column by column.  Rotational dispersions are only
meaningful for states concentrated away from the chart seam: when the
boundary mass of a state reaches 1e-8 its records' satisfied field is
None (indeterminate) rather than a verdict; ``angmom_op`` itself has no
seam gate.  Its chart components are Haar-symmetrized, so the operator
is hermitian under the weighted quadrature.
"""

import math

import numpy as np

from ..errors import GridError, positive_finite
from .grids import GridWavefunction, LineGrid, So3Grid, check_hbar
from .operators import BOUNDARY_MASS_TOL, angmom_op, momentum_op, position_op

__all__ = ["dispersion", "heisenberg_suite"]


def dispersion(psi, a_psi):
    """sqrt(<A^2> - <A>^2) for a normalized state psi, given a_psi = A psi.

    a_psi is a GridWavefunction on psi's grid.  Variances inside
    [-1e-12, 0) are clamped to zero (quadrature rounding); anything more
    negative signals a broken quadrature and raises, as does a variance
    beyond the float range or an <A^2> that underflows it while A psi is
    nonzero.
    """
    _check_normalized(psi)
    return _spread(psi, a_psi)


def _check_normalized(psi):
    """Raise GridError unless psi's norm is 1 within 1e-8."""
    norm = psi.norm()
    if abs(norm - 1.0) > 1e-8:
        raise GridError(f"dispersion needs a normalized state, got norm {norm!r}")


def _spread(psi, a_psi):
    """``dispersion`` of a state already checked to be normalized."""
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
    """One record per (a, b) pair, a-major; the bound is ``half`` on the diagonal and 0 off it.

    A state whose boundary mass reaches BOUNDARY_MASS_TOL gets no verdict.
    """
    n = len(deltas_a)
    delta_a, delta_b = np.repeat(deltas_a, n), np.tile(deltas_b, n)
    product = delta_a * delta_b
    bound = np.where(np.eye(n, dtype=bool).ravel(), half, 0.0)
    satisfied = (bound - product <= tolerance).astype(object)  # Python bools
    if boundary_mass >= BOUNDARY_MASS_TOL:
        satisfied[:] = None
    return np.rec.fromarrays(
        [np.repeat(labels_a, n), np.tile(labels_b, n), delta_a, delta_b, product, bound,
         satisfied, np.full(n * n, float(boundary_mass))],
        names="observable_a,observable_b,delta_a,delta_b,product,bound,satisfied,boundary_mass")


def _line_dispersions(psi_set, kind, hbar):
    """Labels and (momentum, position) dispersions of a vibrational or electronic set.

    States are taken one at a time and only their two dispersions are
    kept, so a state is released before the next one is asked for.  They
    go through ``map``, which drops each one when its call returns; a
    for loop's variable would hold it while the next is drawn.
    """

    def pair(s):
        if not isinstance(s, GridWavefunction) or not isinstance(s.grid, LineGrid):
            raise GridError(f"{kind} checks need LineGrid states")
        p_psi = momentum_op(s, hbar=hbar)
        _check_normalized(s)
        return _spread(s, p_psi), _spread(s, position_op(s))

    def electron(group):
        triple = list(map(pair, group))
        if len(triple) != 3:
            raise GridError("electronic states come as one triple per electron")
        return triple

    if kind == "vibrational":
        pairs = list(map(pair, psi_set))
        labels = [(f"P_{i}", f"Q^{i}") for i in range(1, len(pairs) + 1)]
    else:
        pairs = [p for triple in map(electron, psi_set) for p in triple]
        labels = [(f"p_({nu})_{j}", f"q_({nu})^{j}")
                  for nu in range(1, len(pairs) // 3 + 1) for j in (1, 2, 3)]
    if not pairs:
        raise GridError("empty state set")
    la, lb = zip(*labels)
    d_p, d_q = zip(*pairs)
    return la, d_p, lb, d_q


def heisenberg_suite(psi_set, kind, hbar=1.0, tolerance=None):
    """Uncertainty-product records for every conjugate pair of a state family.

    Returns an ``np.recarray`` with one record per (a, b) pair, a-major,
    and the fields observable_a, observable_b (str), delta_a, delta_b,
    product = delta_a * delta_b, bound (hbar/2 for a conjugate pair, 0
    otherwise), satisfied and boundary_mass (float; 0 for line states).
    satisfied is a Python bool, ``bound - product <= tolerance``, or None
    when the state's boundary mass reaches BOUNDARY_MASS_TOL and makes
    the orientation dispersion indeterminate.

    psi_set layout per kind:
      vibrational: one LineGrid state per mode;
      electronic:  one iterable of three LineGrid states per electron
                   (Cartesian components of a product state);
      rotational:  So3Grid states.
    psi_set (and each electron's triple) may be any iterable, a
    generator included.  Line states are used one at a time: each one's
    dispersions are taken as it arrives and it is released before the
    next is drawn, so a generator keeps one line state alive at once.
    hbar and tolerance must be positive and finite; tolerance defaults
    to the quadrature allowance 1e-6 * hbar.
    """
    check_hbar(hbar)
    if tolerance is None:
        tolerance = 1e-6 * hbar
    if not positive_finite(tolerance):
        raise GridError(f"tolerance must be positive and finite, got {tolerance!r}")
    half = 0.5 * hbar

    if kind in ("vibrational", "electronic"):
        return _pair_rows(*_line_dispersions(psi_set, kind, hbar), half, tolerance)

    if kind == "rotational":
        states = list(psi_set)
        if not states:
            raise GridError("empty state set")
        for s in states:
            if not isinstance(s, GridWavefunction) or not isinstance(s.grid, So3Grid):
                raise GridError("rotational checks need So3Grid states")
        per_state = []
        for idx, s in enumerate(states):
            tag = f"[{idx + 1}]" if len(states) > 1 else ""
            l_psi = angmom_op(s, hbar=hbar)
            _check_normalized(s)
            d_l = [_spread(s, a) for a in l_psi]
            d_w = [_spread(s, position_op(s, component=k)) for k in range(3)]
            la = [f"n_({j + 1}).L" + tag for j in range(3)]
            lb = [f"omega^{k + 1}" + tag for k in range(3)]
            per_state.append(_pair_rows(la, d_l, lb, d_w, half, tolerance, s.boundary_mass()))
        return np.concatenate(per_state).view(np.recarray)

    raise GridError(f"unknown suite kind {kind!r}")
