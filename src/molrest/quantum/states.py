"""Wavefunction factories for line and orientation grids.

Line states are gaussians (optionally with a momentum phase) and
harmonic-oscillator eigenstates.  Orientation states are wrapped
gaussians in the group geodesic distance d(omega, center), which makes
them smooth across the antipodal seam of the axis-angle chart, times an
optional plane-wave phase exp(i a . omega).  Each gaussian is written
once per grid kind, as a mixture (``_line_mixture``, ``_so3_mixture``):
the single-gaussian factories are its one-term case and the random
factories pass their draws.  All factories normalize on the given grid
and keep the generating profile so finite-difference operators can
evaluate the state off the nodes.
"""

import numpy as np
from numpy.polynomial.hermite import hermval

from ..lie_so3 import geodesic_distance
from .grids import GridWavefunction, LineGrid

__all__ = [
    "gaussian_line_state",
    "oscillator_state",
    "so3_gaussian_state",
    "random_line_state",
    "random_so3_state",
    "geodesic_distance",
]

# widest gaussian of random_so3_state
SO3_MAX_SIGMA = 0.35


def _line_mixture(grid, centers, sigmas, wavenumbers, amps):
    """Normalized sum of a_i exp(-(x - c_i)^2/4 s_i^2 + i k_i x) over the terms."""

    def profile(x, c=centers, s=sigmas, k=wavenumbers, a=amps):
        x = np.asarray(x, dtype=float)[..., None]
        parts = a * np.exp(-((x - c) ** 2) / (4.0 * s * s) + 1j * k * x)
        return parts.sum(axis=-1)

    return GridWavefunction.from_profile(grid, profile)


def _so3_mixture(grid, centers, sigmas, waves, amps):
    """Normalized sum of a_i exp(-d(omega, c_i)^2/4 s_i^2 + i w_i . omega) over the terms."""

    def profile(pts, c=centers, s=sigmas, w=waves, a=amps):
        pts = np.asarray(pts, dtype=float)
        total = np.zeros(pts.shape[:-1], dtype=complex)
        for ci, si, wi, ai in zip(c, s, w, a):
            d = geodesic_distance(pts, ci)
            total = total + ai * np.exp(-(d * d) / (4.0 * si * si) + 1j * (pts @ wi))
        return total

    return GridWavefunction.from_profile(grid, profile)


def gaussian_line_state(grid, center=0.0, sigma=1.0, momentum=0.0, hbar=1.0):
    """Normalized gaussian exp(-(x-c)^2/4 sigma^2 + i k x / hbar).

    sigma is the position dispersion; momentum is the mean momentum.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return _line_mixture(grid, np.array([float(center)]), np.array([float(sigma)]),
                         np.array([float(momentum / hbar)]), np.ones(1))


def oscillator_state(grid, n=0, mass=1.0, omega=1.0, hbar=1.0):
    """n-th harmonic oscillator eigenstate at the grid's resolution."""
    if n < 0:
        raise ValueError("quantum number must be nonnegative")
    alpha = np.sqrt(mass * omega / hbar)
    coeff = np.zeros(n + 1)
    coeff[n] = 1.0

    def profile(x, a=float(alpha), c=coeff):
        xi = a * np.asarray(x, dtype=float)
        return hermval(xi, c) * np.exp(-0.5 * xi * xi) + 0.0j

    return GridWavefunction.from_profile(grid, profile)


def so3_gaussian_state(grid, center=(0.0, 0.0, 0.0), sigma=0.3, wave=(0.0, 0.0, 0.0)):
    """Wrapped gaussian exp(-d^2/4 sigma^2 + i wave . omega) on orientations.

    d is the group geodesic distance to the center rotation, so the
    envelope is continuous across the antipodal seam; the phase factor
    is smooth only inside the ball and should stay small when boundary
    mass matters.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return _so3_mixture(grid, [np.asarray(center, dtype=float)], [float(sigma)],
                        [np.asarray(wave, dtype=float)], [1.0])


def random_line_state(grid, rng, hbar=1.0):
    """Seeded two-gaussian mixture with random centers, widths, phases.

    Centers and widths scale with the grid span and stay narrow enough
    that the tails clear the momentum operator's edge-decay gate.
    """
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
