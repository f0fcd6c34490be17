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

from ..errors import positive_finite
from ..lie_so3 import geodesic_distance
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


def _line_mixture(grid, centers, sigmas, wavenumbers, amps):
    """Normalized sum of a_i exp(-(x - c_i)^2/4 s_i^2) e^{i k_i x} over the terms,
    at the nodes of the uniform grid.

    With b = ceil(sqrt(n)), node I b + J sits at x_{Ib} + (x_J - x_0), to
    within about 2 ulp of the grid's extent, so its plane wave is
    a_i e^{i k_i x_{Ib}} from a coarse table times e^{i k_i (x_J - x_0)}
    from a fine one: about 2 sqrt(n) complex exponentials per term
    instead of n.
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
    wave = (coarse[:, :, None] * fine[:, None, :]).reshape(k.size, -1)[:, :n]
    # the envelope is real: scale both parts rather than form a complex product
    wave.real *= envelope
    wave.imag *= envelope
    return GridWavefunction.normalized(grid, wave.sum(axis=0))


def _so3_mixture(grid, centers, sigmas, waves, amps):
    """Normalized sum of a_i exp(-d(omega, c_i)^2/4 s_i^2 + i w_i . omega) over the terms."""

    def profile(pts, c=centers, s=sigmas, w=waves, a=amps):
        pts = np.asarray(pts, dtype=float)
        d = geodesic_distance(pts, c)
        s, a = (_leading(v, d.ndim - 1) for v in (s, a))
        z = np.empty(d.shape, dtype=complex)  # the exponent, then its exp
        np.divide(-(d * d), 4.0 * s * s, out=z.real)
        for z_term, w_term in zip(z, w):
            z_term.imag = pts @ w_term
        return (a * np.exp(z, out=z)).sum(axis=0)

    return GridWavefunction.from_profile(grid, profile)


def gaussian_line_state(grid, center=0.0, sigma=1.0, momentum=0.0, hbar=1.0):
    """Normalized gaussian exp(-(x-c)^2/4 sigma^2 + i k x / hbar).

    sigma is the position dispersion; momentum is the mean momentum.
    """
    _check_gaussian(sigma, center=center, momentum=momentum)
    check_hbar(hbar)
    return _line_mixture(grid, np.array([float(center)]), np.array([float(sigma)]),
                         np.array([float(momentum / hbar)]), np.ones(1))


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
    xi = math.sqrt(1.0 / hbar) * grid.points
    return GridWavefunction.normalized(grid, hermval(xi, coeff) * np.exp(-0.5 * xi * xi) + 0.0j)


def so3_gaussian_state(grid, center=(0.0, 0.0, 0.0), sigma=0.3, wave=(0.0, 0.0, 0.0)):
    """Wrapped gaussian exp(-d^2/4 sigma^2 + i wave . omega) on orientations.

    d is the group geodesic distance to the center rotation, so the
    envelope is continuous across the antipodal seam; the phase factor
    is smooth only inside the ball and should stay small when boundary
    mass matters.
    """
    _check_gaussian(sigma, center=center, wave=wave)
    return _so3_mixture(grid, np.asarray(center, dtype=float)[None], np.array([float(sigma)]),
                        np.asarray(wave, dtype=float)[None], np.ones(1))


def random_line_state(grid, rng, hbar=1.0):
    """Seeded two-gaussian mixture with random centers, widths, phases.

    Centers and widths scale with the grid span and stay narrow enough
    that the tails clear the momentum operator's edge-decay gate.
    """
    check_hbar(hbar)
    span = float(grid.points[-1] - grid.points[0])
    centers = rng.uniform(-0.08, 0.08, size=2) * span
    sigmas = rng.uniform(0.02, 0.045, size=2) * span
    ks = rng.uniform(-2.0, 2.0, size=2) / sigmas.max()
    amps = rng.uniform(0.5, 1.0, size=2) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    return _line_mixture(grid, centers, sigmas, float(1.0 / hbar) * ks, amps)


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
