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

``dispersion`` takes the state and the already-applied A psi and checks
the state's normalization; the suite checks each state's normalization
once.  Its line branch forms neither P psi nor Q psi: one kernel per
family (``_line_kernel``) measures each state from rho = |psi|^2 and
D psi, the order-4 central-difference numerator that ``momentum_op``
divides by 12h (``operators.central_difference``), in buffers it
allocates once.  The rotational branch makes one call of ``angmom_op``
per state, whose single stencil sweep yields all three chart components
(12 profile evaluations per state).  Every variance, ``dispersion``'s
included, goes through one gate, ``_settle``: a negative <A^2> or a
variance below -1e-12 is a quadrature failure, then a variance outside
the float range a range failure.

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
from .operators import (BOUNDARY_MASS_TOL, angmom_op, central_difference, check_decay,
                        position_op)

__all__ = ["dispersion", "heisenberg_suite"]


def dispersion(psi, a_psi):
    """sqrt(<A^2> - <A>^2) for a normalized state psi, given a_psi = A psi.

    a_psi is a GridWavefunction on psi's grid.  Variances inside
    [-1e-12, 0) are clamped to zero (quadrature rounding); a negative
    <A^2> or a more negative variance signals a broken quadrature and
    raises, as does a variance beyond the float range or an <A^2> that
    underflows it while A psi is nonzero.
    """
    _check_normalized(psi)
    return _spread(psi, a_psi)


def _check_normalized(psi):
    """Raise GridError unless psi's norm is 1 within 1e-8."""
    with np.errstate(over="ignore"):  # a norm past the float range fails below
        norm = psi.norm()
    if not abs(norm - 1.0) <= 1e-8:  # a NaN norm fails too
        raise GridError(f"dispersion needs a normalized state, got norm {norm!r}")


def _spread(psi, a_psi):
    """``dispersion`` of a state already checked to be normalized."""
    weights = psi.weights
    amps = a_psi.amplitudes
    mean = complex(np.sum(weights * np.conj(psi.amplitudes) * amps))
    with np.errstate(over="ignore"):  # an overflow raises GridError in _settle
        second = float(np.sum(weights * np.abs(amps) ** 2))
    return _settle(second, mean, lambda: np.any(amps))


def _settle(second, mean, nonzero, scale=1.0):
    """The dispersion sqrt(<A^2> - |<A>|^2), or GridError: the one gate of every variance.

    <A^2> = scale * second and |<A>|^2 = scale * |mean|^2; the variance is
    scale * (second - |mean|^2), so a common factor of A costs one
    rounding, not one per term.  A negative <A^2> or a variance below
    -1e-12 is a quadrature failure; then a variance beyond the float
    range, or an <A^2> below it while A psi is nonzero, is a range
    failure.  ``nonzero()`` says whether A psi has a nonzero amplitude;
    it runs only when <A^2> is below the range.
    """
    try:  # float ** raises where float * would give inf
        variance = scale * (second - (mean.real**2 + mean.imag**2))
    except OverflowError:
        variance = math.inf
    second *= scale
    if second < 0.0 or variance < -1e-12:
        raise GridError(f"quadrature failure: variance {variance:.3e}")
    if not math.isfinite(variance) or (second < np.finfo(float).tiny and nonzero()):
        raise GridError(f"dispersion out of float range: <A^2> = {second:.3e}")
    return math.sqrt(max(variance, 0.0))


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


def _line_kernel(grid, hbar):
    """The (momentum, position) dispersions of states on one LineGrid, as a function of the state.

    Each state is measured from two arrays, each computed once: rho =
    |psi|^2 and D psi, 12h times the order-4 central derivative that
    ``momentum_op`` takes (``central_difference``).  <Q> and <Q^2> are
    sums of rho against w x and w x^2; with c = hbar / 12h, <P^2> =
    c^2 sum w |D psi|^2 and <P> = -i c M, M = sum w conj(psi) D psi.  The
    gates run in ``momentum_op`` and ``dispersion``'s order: edge decay,
    normalization, then the momentum and the position variance through
    ``_settle``.  rho, D psi and one work array are allocated here and
    reused for every state.
    """
    n = grid.size
    w, x = grid.weights, grid.points
    wx = w * x
    wx2 = wx * x
    w_pairs = np.repeat(w, 2)  # w per float of a complex array
    c = float(hbar) / (12 * float(grid.step))
    rho = np.empty(n)
    d = np.empty(n, dtype=complex)
    work = np.empty(n, dtype=complex)
    d_floats, work_floats = d.view(float), work.view(float)

    def total(weights, values, out):
        """sum of weights * values, the products written to out and summed pairwise."""
        return float(np.multiply(weights, values, out=out).sum())

    def measure(psi):
        amp = psi.amplitudes
        with np.errstate(over="ignore"):  # |psi|^2 past the float range fails check_decay
            np.square(amp.view(float), out=work_floats)
            np.add(work_floats[0::2], work_floats[1::2], out=rho)
        check_decay(rho, amp)
        _check_normalized(psi)
        central_difference(amp, 4, d, work)
        d_sq = total(w_pairs, np.square(d_floats, out=work_floats), work_floats)
        cross = np.multiply(np.conjugate(amp, out=work), d, out=work).view(float)
        cross *= w_pairs
        m_re, m_im = float(cross[0::2].sum()), float(cross[1::2].sum())
        d_p = _settle(d_sq, complex(m_im, -m_re), lambda: np.any(d), c * c)  # -i M, then c
        q = total(wx, rho, work_floats[:n])
        d_q = _settle(total(wx2, rho, work_floats[:n]), q, lambda: np.any(x * amp))
        return d_p, d_q

    return measure


def _line_dispersions(psi_set, kind, hbar):
    """Labels and (momentum, position) dispersions of a vibrational or electronic set.

    States are taken one at a time and only their two dispersions are
    kept, so a state is released before the next one is asked for.  They
    go through ``map``, which drops each one when its call returns; a
    for loop's variable would hold it while the next is drawn.  One
    ``_line_kernel`` measures them all while they share a grid, as a
    family's states do.
    """
    cached = [None, None]  # the last state's grid and its kernel

    def pair(s):
        if not isinstance(s, GridWavefunction) or not isinstance(s.grid, LineGrid):
            raise GridError(f"{kind} checks need LineGrid states")
        if s.grid is not cached[0]:
            cached[:] = s.grid, _line_kernel(s.grid, hbar)
        return cached[1](s)

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
            _check_normalized(s)  # before angmom_op multiplies by a NaN or inf amplitude
            l_psi = angmom_op(s, hbar=hbar)
            d_l = [_spread(s, a) for a in l_psi]
            d_w = [_spread(s, position_op(s, component=k)) for k in range(3)]
            la = [f"n_({j + 1}).L" + tag for j in range(3)]
            lb = [f"omega^{k + 1}" + tag for k in range(3)]
            per_state.append(_pair_rows(la, d_l, lb, d_w, half, tolerance, s.boundary_mass()))
        return np.concatenate(per_state).view(np.recarray)

    raise GridError(f"unknown suite kind {kind!r}")
