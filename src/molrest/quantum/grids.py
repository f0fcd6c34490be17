"""Sample grids and grid wavefunctions.

Internal line coordinates live on uniform grids with trapezoid weights.
Orientation wavefunctions live on the axis-angle ball ||omega|| < pi
sampled by a product grid: midpoint shells in the rotation angle times a
Gauss-Legendre x uniform-azimuth direction set, weighted by the
normalized Haar density (1 - cos theta)/(4 pi^2 theta^2).  The midpoint
shells make the total Haar weight exactly 1 in floating point, and the
direction set is closed under u -> -u so parity integrals cancel
exactly.  Rotation-angle nodes never reach the chart boundary at pi;
states are expected to decay there (cyclic-boundary caveat), which is
monitored through ``boundary_mass``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import GridError, positive_finite
from ..lie_so3 import component_length, log_density_gradient

__all__ = ["MIN_LINE_POINTS", "MIN_SHELLS", "MIN_DIRS", "MAX_LINE_POINTS", "MAX_SHELLS",
           "MAX_DIRS", "LineGrid", "So3Grid", "GridWavefunction", "wrap_to_ball", "check_hbar"]

# smallest and largest grids ``make`` builds: line points, angle shells,
# directions per shell.  The largest are 4x the reference grids (a
# 262144-point line, a 128 x 2048 ball); a commutators or heisenberg run
# at all three ceilings peaks near 1 GB.
MIN_LINE_POINTS = 64
MIN_SHELLS = 16
MIN_DIRS = 32
MAX_LINE_POINTS = 1 << 20
MAX_SHELLS = 256
MAX_DIRS = 4096


@dataclass(frozen=True)
class LineGrid:
    """Uniform 1-d grid with trapezoid quadrature weights."""

    points: np.ndarray
    step: float
    weights: np.ndarray

    @classmethod
    def make(cls, x_min, x_max, n):
        if n < MIN_LINE_POINTS:
            raise GridError(f"line grid needs at least {MIN_LINE_POINTS} points, got {n}")
        if n > MAX_LINE_POINTS:
            raise GridError(f"line grid takes at most {MAX_LINE_POINTS} points, got {n}")
        if not (math.isfinite(x_min) and math.isfinite(x_max)
                and math.isfinite(float(x_max) - float(x_min))):
            raise GridError(f"line grid extent must be finite, "
                            f"got [{float(x_min)!r}, {float(x_max)!r}]")
        if not x_max > x_min:
            raise GridError("empty line grid extent")
        points = np.linspace(x_min, x_max, n)
        step = (x_max - x_min) / (n - 1)
        weights = np.full(n, step)
        weights[0] = weights[-1] = 0.5 * step
        return cls(points=points, step=step, weights=weights)

    @property
    def size(self):
        return self.points.size


def check_hbar(hbar):
    """Raise GridError unless hbar is positive and finite.

    Every operator, state factory and suite that takes hbar calls this:
    a negative hbar flips the sign of every residual and bound, and 0 or
    a non-finite one makes them nan.
    """
    if not positive_finite(hbar):
        raise GridError(f"hbar must be positive and finite, got {hbar!r}")


def wrap_to_ball(points):
    """Map axis-angle points with norm > pi into the ball, keeping their rotation.

    omega and omega (1 - 2 pi k/||omega||) represent the same rotation for
    every integer k.  Below 3 pi, k = 1 (the antipode) and the image has
    norm |2 pi - ||omega|| |.  From 3 pi on, k is the integer nearest
    ||omega|| / 2 pi, which leaves a norm of at most pi.  Non-finite
    points pass through unchanged.  Used when finite-difference stencils
    poke outside the canonical ball.
    """
    points = np.asarray(points, dtype=float)
    norms = component_length(points)
    outside = norms > np.pi
    if np.any(outside):
        points = points.copy()
        norms = norms[outside]
        turns = np.where((norms >= 3 * np.pi) & (norms < math.inf),
                         np.rint(norms / (2.0 * np.pi)), 1.0)
        factor = 1.0 - 2.0 * np.pi * turns / norms
        points[outside] = points[outside] * factor[..., None]
    return points


@dataclass(frozen=True)
class So3Grid:
    """Product quadrature grid on the axis-angle ball.

    nodes : (K, 3) rotation vectors, norms strictly inside pi.
    haar_weights : (K,) positive weights summing to 1.
    radial_step : spacing of the rotation-angle shells.
    """

    nodes: np.ndarray
    haar_weights: np.ndarray
    radial_step: float
    n_theta: int
    n_dirs: int

    @classmethod
    def make(cls, n_theta, n_dirs):
        if n_theta < MIN_SHELLS:
            raise GridError(f"need at least {MIN_SHELLS} rotation-angle shells, got {n_theta}")
        if n_dirs < MIN_DIRS:
            raise GridError(f"need at least {MIN_DIRS} direction nodes, got {n_dirs}")
        if n_theta > MAX_SHELLS or n_dirs > MAX_DIRS:
            raise GridError(f"the ball takes at most {MAX_SHELLS} rotation-angle shells and "
                            f"{MAX_DIRS} direction nodes, got {n_theta} x {n_dirs}")
        h = np.pi / n_theta
        thetas = (np.arange(n_theta) + 0.5) * h
        # Haar radial density (1 - cos)/(4 pi^2 t^2) times shell area
        # 4 pi t^2 and uniform direction measure: shell weight
        # (1 - cos theta) h / pi sums to exactly 1 (cosine midpoints
        # telescope to zero over [0, pi]).
        w_rad = (1.0 - np.cos(thetas)) * h / np.pi

        n_polar = max(2, math.ceil(math.sqrt(n_dirs / 2.0)))
        n_azi = math.ceil(n_dirs / n_polar)
        n_azi += n_azi % 2  # even azimuth count keeps the set antipodal
        cos_b, w_b = np.polynomial.legendre.leggauss(n_polar)
        sin_b = np.sqrt(1.0 - cos_b**2)
        phi = 2.0 * np.pi * (np.arange(n_azi) + 0.5) / n_azi
        dirs = np.stack(
            [
                np.outer(sin_b, np.cos(phi)).ravel(),
                np.outer(sin_b, np.sin(phi)).ravel(),
                np.outer(cos_b, np.ones(n_azi)).ravel(),
            ],
            axis=1,
        )
        w_dir = np.outer(w_b / 2.0, np.full(n_azi, 1.0 / n_azi)).ravel()

        nodes = (thetas[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
        weights = (w_rad[:, None] * w_dir[None, :]).ravel()
        return cls(
            nodes=nodes,
            haar_weights=weights,
            radial_step=h,
            n_theta=n_theta,
            n_dirs=dirs.shape[0],
        )

    @property
    def size(self):
        return self.nodes.shape[0]

    @cached_property
    def node_angles(self):
        """(K,) rotation angles ||omega|| of the nodes, ``component_length(nodes)``."""
        return component_length(self.nodes)

    @cached_property
    def log_density_gradient(self):
        """(K, 3) gradient d_j ln rho of the Haar density at the nodes
        (``lie_so3.log_density_gradient``): the drift of ``angmom_op``."""
        return log_density_gradient(self.nodes)

    @cached_property
    def seam_mask(self):
        """The two outermost rotation-angle shells, next to the chart seam at pi:
        ``boundary_mass`` weighs them and the commutator checks leave them out."""
        return self.node_angles >= np.pi - 2 * self.radial_step


def _scaled(values, inverse):
    """values / s as a new complex array, given inverse = 1 / s for a real s.

    numpy divides a complex a by a real s with Smith's method at a zero
    imaginary part: (a_r + a_i 0) (1 / s) and (a_i - a_r 0) (1 / s).  That
    is each float of a times 1 / s, the product taken here on the float
    view; at most the sign of an exactly zero part can differ.
    """
    values = np.asarray(values, dtype=complex)
    return np.multiply(np.ascontiguousarray(values).reshape(-1).view(float),
                       inverse).view(complex).reshape(values.shape)


@dataclass(frozen=True)
class GridWavefunction:
    """Complex amplitudes on a grid, optionally backed by a profile.

    The profile is the generating callable (vectorized over (..., 3) for
    orientation grids, over (...,) for line grids) that evaluates the
    state off the nodes; the chart sweep is its one reader.  The state
    factories keep it for orientation states only: line states are
    sampled at their grid's nodes, and every line operator reads node
    amplitudes only.
    """

    grid: object
    amplitudes: np.ndarray
    profile: object = None

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        expected = self.grid.size
        if amp.shape != (expected,):
            raise GridError(f"amplitudes must have shape ({expected},), got {amp.shape}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def weights(self):
        return self.grid.weights if isinstance(self.grid, LineGrid) else self.grid.haar_weights

    def norm(self):
        """sqrt(sum w |psi|^2), the terms formed in one temporary array."""
        terms = np.abs(self.amplitudes)
        np.square(terms, out=terms)
        return float(np.sqrt(np.sum(np.multiply(self.weights, terms, out=terms))))

    @classmethod
    def normalized(cls, grid, amplitudes, profile=None):
        """The state amplitudes / norm, with its profile (if any) scaled by the
        same factor; GridError unless the norm is positive and finite.

        Both are scaled as ``_scaled`` does it: the float view times 1 / norm,
        which is numpy's complex-by-real division without its complex steps.
        """
        raw = cls(grid=grid, amplitudes=amplitudes)
        with np.errstate(over="ignore"):  # a norm past the float range fails below
            scale = raw.norm()
        if not scale > 0.0:
            raise GridError("profile vanishes on the grid")
        if scale == math.inf:
            raise GridError("norm past the float range: max |psi| = "
                            f"{float(np.abs(raw.amplitudes).max())!r}")
        inverse = 1.0 / scale

        def scaled(points):
            return _scaled(profile(points), inverse)

        return cls(grid=grid, amplitudes=_scaled(raw.amplitudes, inverse),
                   profile=None if profile is None else scaled)

    @classmethod
    def from_profile(cls, grid, profile):
        """Sample at the nodes, normalize, and keep a consistently scaled profile."""
        points = grid.points if isinstance(grid, LineGrid) else grid.nodes
        return cls.normalized(grid, profile(points), profile)

    def boundary_mass(self):
        """Probability carried by the grid's seam shells (0 on a line grid)."""
        if isinstance(self.grid, LineGrid):
            return 0.0
        mask = self.grid.seam_mask
        return float(np.sum(self.grid.haar_weights[mask] * np.abs(self.amplitudes[mask]) ** 2))
