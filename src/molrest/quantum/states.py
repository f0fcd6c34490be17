"""Wavefunction factories for line and orientation grids.

Line states are gaussians (optionally with a momentum phase) and
harmonic-oscillator eigenstates.  Orientation states are wrapped
gaussians in the group geodesic distance d(omega, center), which makes
them smooth across the antipodal seam of the axis-angle chart, times an
optional plane-wave phase exp(i a . omega).  Each gaussian is written
once per grid kind, as a mixture (``_line_mixture``, ``_so3_mixture``):
the single-gaussian factories are its one-term case and the random
factories pass their draws.  All factories normalize on the given grid.
Line states are sampled at their grid's nodes, the gaussians' plane
wave taken from a coarse and a fine table, and carry no profile: every
line operator reads node amplitudes only.  Orientation states keep the
generating profile, so the chart sweep can evaluate them off the nodes.
"""

import math
import numbers

import numpy as np
from numpy.polynomial.hermite import hermval

from ..errors import GridError, positive_finite
from ..lie_so3 import geodesic_distance_to
from .grids import GridWavefunction, LineGrid, check_hbar

__all__ = [
    "gaussian_line_state",
    "oscillator_state",
    "so3_gaussian_state",
    "random_line_state",
    "random_so3_state",
]

# widest gaussian of random_so3_state
SO3_MAX_SIGMA = 0.35


def _leading(values, ndim):
    """Per-term values (T,) shaped (T, 1, ..., 1) to broadcast over ndim point axes."""
    return values.reshape(values.shape + (1,) * ndim)


def _check_gaussian(sigma, **finite):
    """Raise ValueError naming the first bad parameter of a gaussian state:
    sigma positive and finite, every entry of the others finite."""
    if not positive_finite(sigma):
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    for name, value in finite.items():
        try:
            ok = bool(np.all(np.isfinite(np.asarray(value, dtype=float))))
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_width(sigma, reach):
    """Raise ValueError unless 4 sigma^2 > 0 and d^2 / 4 sigma^2 is finite up to
    d = ``reach``: else a wide state comes out flat, a narrow one overflows."""
    scale = 4.0 * float(sigma) * float(sigma)
    if not (0.0 < scale < math.inf and reach * reach / scale < math.inf):
        raise ValueError(f"sigma takes d^2 / 4 sigma^2 out of the float range on the grid, "
                         f"got {sigma!r}")


def _line_mixture(grid, centers, sigmas, wavenumbers, amps):
    """Normalized sum of a_i exp(-(x - c_i)^2/4 s_i^2) e^{i k_i x} over the terms,
    at the nodes of the uniform grid.

    With b = ceil(sqrt(n)), node I b + J sits at x_{Ib} + (x_J - x_0), to
    within about 2 ulp of the grid's extent, so its plane wave is
    a_i e^{i k_i x_{Ib}} from a coarse table times e^{i k_i (x_J - x_0)}
    from a fine one: about 2 sqrt(n) complex exponentials per term
    instead of n.  Each term's wave is formed in one buffer, scaled by its
    envelope in place and added to the sum; the first is formed in the sum
    itself.
    """
    x = grid.points
    n = x.size
    b = math.isqrt(n - 1) + 1
    c, s, k, a = (_leading(v, 1) for v in (centers, sigmas, wavenumbers, amps))
    envelope = x - c
    envelope *= envelope
    envelope /= -4.0 * s * s
    np.exp(envelope, out=envelope)
    coarse = a * np.exp(1j * k * x[::b])
    fine = np.exp(1j * k * (x[:b] - x[0]))
    # the sum and one term's wave in one allocation: glibc's malloc sizes its heap trim
    # threshold by the largest block it has unmapped, and a block this size keeps it from
    # trimming and regrowing the heap for every state (minor faults of one seed-1 cluster
    # heisenberg run: 24.5k with two allocations, 7.7k with one)
    total, wave = np.empty((2, coarse.shape[1], b), dtype=complex)
    for i, (coarse_i, fine_i, envelope_i) in enumerate(zip(coarse, fine, envelope)):
        term = wave if i else total  # the first term is the sum so far
        np.multiply(coarse_i[:, None], fine_i, out=term)
        # the envelope is real: scale both parts rather than form a complex product
        part = term.reshape(-1)[:n]
        part.real *= envelope_i
        part.imag *= envelope_i
        if i:
            total += wave
    return GridWavefunction.normalized(grid, total.reshape(-1)[:n])


def _phase_checked(build, message):
    """``build()``, a line mixture; ValueError(message) where numpy would warn that
    its phase k x left the float range."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return build()
    except FloatingPointError:
        raise ValueError(message) from None


def _so3_mixture(grid, centers, sigmas, waves, amps):
    """Normalized sum of a_i exp(-d(omega, c_i)^2/4 s_i^2 + i w_i . omega) over the terms.

    The centers' quaternions and -4 s_i^2 are formed once per state, not
    per profile call; -(d^2) / 4 s^2 and d^2 / -4 s^2 are the same float.
    """
    distance = geodesic_distance_to(centers)
    scale = -4.0 * sigmas * sigmas

    def profile(pts):
        pts = np.asarray(pts, dtype=float)
        d = distance(pts)
        s, a = (_leading(v, d.ndim - 1) for v in (scale, amps))
        z = np.empty(d.shape, dtype=complex)  # the exponent, then its exp
        d *= d
        np.divide(d, s, out=z.real)
        for z_term, w_term in zip(z, waves):
            z_term.imag = pts @ w_term
        np.exp(z, out=z)
        # the amplitude first: a * z and z * a round differently on this numpy
        np.multiply(a, z, out=z)
        return z.sum(axis=0)

    return GridWavefunction.from_profile(grid, profile)


def gaussian_line_state(grid, center=0.0, sigma=1.0, momentum=0.0, hbar=1.0):
    """Normalized gaussian exp(-(x-c)^2/4 sigma^2 + i k x / hbar).

    sigma is the position dispersion; momentum is the mean momentum.
    """
    _check_gaussian(sigma, center=center, momentum=momentum)
    check_hbar(hbar)
    reach = max(abs(end - float(center)) for end in grid.points[[0, -1]].tolist())
    if not reach * reach < math.inf:
        raise ValueError(f"center takes (x - center)^2 out of the float range on the grid, "
                         f"got {center!r}")
    _check_width(sigma, reach)
    k = float(momentum) / float(hbar)
    # with center and sigma checked, only the phase k x can leave the float range
    return _phase_checked(
        lambda: _line_mixture(grid, np.array([float(center)]), np.array([float(sigma)]),
                              np.array([k]), np.ones(1)),
        f"momentum / hbar takes the phase out of the float range on the grid, "
        f"got {momentum!r} / {hbar!r}")


def oscillator_state(grid, n, hbar=1.0):
    """n-th eigenstate of the unit-mass, unit-frequency oscillator, normalized on
    the grid: H_n(xi) exp(-xi^2/2) with xi = x / sqrt(hbar)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"quantum number must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"quantum number must be nonnegative, got {n}")
    check_hbar(hbar)
    coeff = np.zeros(n + 1)
    coeff[n] = 1.0
    try:  # H_n overflows where its gaussian underflows, and so can the norm
        with np.errstate(over="raise", invalid="raise"):
            xi = math.sqrt(1.0 / hbar) * grid.points
            return GridWavefunction.normalized(
                grid, hermval(xi, coeff) * np.exp(-0.5 * xi * xi) + 0.0j)
    except (FloatingPointError, GridError):  # GridError: the norm is 0 or inf
        raise ValueError(f"hbar and quantum number take H_n(x / sqrt(hbar)) out of the float "
                         f"range on the grid, got hbar={hbar!r}, n={n}") from None


def so3_gaussian_state(grid, center=(0.0, 0.0, 0.0), sigma=0.3, wave=(0.0, 0.0, 0.0)):
    """Wrapped gaussian exp(-d^2/4 sigma^2 + i wave . omega) on orientations.

    d is the group geodesic distance to the center rotation, so the
    envelope is continuous across the antipodal seam; the phase factor
    is smooth only inside the ball and should stay small when boundary
    mass matters.
    """
    _check_gaussian(sigma, center=center, wave=wave)
    c, w = (np.asarray(v, dtype=float) for v in (center, wave))
    if not sum(v * v for v in c.tolist()) < math.inf:
        raise ValueError(f"center takes its rotation angle out of the float range, "
                         f"got {center!r}")
    _check_width(sigma, math.pi)  # no rotation is farther than pi from another
    # |omega| <= pi on the ball (to within rounding), which bounds wave . omega
    if not math.pi * sum(abs(v) for v in w.tolist()) < math.inf:
        raise ValueError(f"wave takes wave . omega out of the float range on the ball, "
                         f"got {wave!r}")
    return _so3_mixture(grid, c[None], np.array([float(sigma)]), w[None], np.ones(1))


def random_line_state(grid, rng, hbar=1.0):
    """Seeded two-gaussian mixture with random centers, widths, phases.

    Centers and widths scale with the grid span and stay narrow enough
    that the tails clear the momentum operator's edge-decay gate.  The
    phases are k x / hbar with |k| <= 2 / max(sigma); an hbar that takes
    them out of the float range raises ValueError.
    """
    check_hbar(hbar)
    span = float(grid.points[-1] - grid.points[0])
    centers = rng.uniform(-0.08, 0.08, size=2) * span
    sigmas = rng.uniform(0.02, 0.045, size=2) * span
    ks = rng.uniform(-2.0, 2.0, size=2) / sigmas.max()
    amps = rng.uniform(0.5, 1.0, size=2) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    return _phase_checked(
        lambda: _line_mixture(grid, centers, sigmas, float(1.0 / hbar) * ks, amps),
        f"hbar takes the phase k x / hbar out of the float range on the grid, got {hbar!r}")


def random_so3_state(grid, rng):
    """Seeded mixture of two wrapped gaussians, interior by construction.

    Widths land in [0.2, SO3_MAX_SIGMA] and centers stay within
    min(0.7, pi - 6.8 sigma) of the identity so the boundary shells see
    only exponentially small mass.
    """
    sigmas = rng.uniform(0.2, SO3_MAX_SIGMA, size=2)
    amps = rng.uniform(0.5, 1.0, size=2) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    centers = []
    for s in sigmas:
        reach = min(0.7, np.pi - 6.8 * s)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        centers.append(u * rng.uniform(0.0, reach))
    waves = rng.uniform(-1.0, 1.0, size=(2, 3))
    return _so3_mixture(grid, centers, sigmas, waves, amps)
