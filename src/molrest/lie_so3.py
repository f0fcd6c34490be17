"""Rotation-group primitives: exponential chart and the Killing frame.

Orientation is parametrized by a rotation vector ``omega`` (axis times
angle) restricted to the canonical ball ``||omega|| <= pi``.  The module
provides the exponential and logarithm maps between vectors and rotation
matrices, and the frame field ``n``/``m`` that converts between partial
derivatives in the chart and body-frame angular momentum components:

    R(omega)^-1 dR/domega^j = [n_(j)]x     (columns of the n-matrix)
    m = n^-1                               (rows are the dual frame)

The frame fields are closed-form polynomials in the cross-product matrix
``[omega]x`` with scalar coefficients in the angle.  Each coefficient is
written once: n's pair (c2, c3) in ``n_coefficients``, m's d in
``m_coefficient``, both switching to their Taylor series below
``SERIES_SWITCH`` so nothing degrades at the origin.  ``frame_fields``
reads both, or only d when asked for m alone, as the commutator check's
block loop does; ``log_density_gradient`` reads d alone.

Unit quaternions are scalar-first, (w, x, y, z), and are converted here
only.  Both directions of the chart go through them, at every angle:
``exp_map`` is the matrix of ``unit_quaternion``, and every rotation
vector taken from a matrix or an Eckart solve comes from
``quaternion_to_vector``; ``quaternion_form`` builds the one 4x4 matrix.

Every length of a 3-vector is ``component_length``: the three squares
summed left to right, as ``np.linalg.norm(v, axis=-1)`` does, without
numpy's slow reduction over a short axis.  It is elementwise, so one
vector and a stack give bit-identical lengths.  ``geodesic_distance``
sums its quaternion dot product the same way.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .gates import BALL_EDGE, EPS_BOUNDARY, ORTHOGONALITY, RELATIVE_FLOOR, THETA_FLOOR

__all__ = [
    "EPS_BOUNDARY",
    "SERIES_SWITCH",
    "KillingFrame",
    "skew",
    "vee",
    "cross",
    "cross_sum",
    "component_length",
    "relative",
    "first_failure",
    "n_coefficients",
    "m_coefficient",
    "exp_map",
    "log_map",
    "frame_fields",
    "killing_frame",
    "log_density_gradient",
    "unit_quaternion",
    "quaternion_to_vector",
    "quaternion_form",
    "quaternion_to_matrix",
    "geodesic_distance",
    "geodesic_distance_to",
]

# Angle below which the chart coefficients switch to their series: there
# the quartic series is exact to ~1e-22 relative, while the direct forms
# lose 1e-9 or more to cancellation (1 - cos, theta - sin).
SERIES_SWITCH = 1e-3


def skew(v):
    """Cross-product matrix: skew(v) @ x == cross(v, x).

    Accepts a single 3-vector or an (..., 3) stack.
    """
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def vee(a):
    """Inverse of skew on antisymmetric matrices (antisymmetrizes first)."""
    a = np.asarray(a, dtype=float)
    w = 0.5 * (a - np.swapaxes(a, -1, -2))
    return np.stack([w[..., 2, 1], w[..., 0, 2], w[..., 1, 0]], axis=-1)


def _check_omega(omega):
    """Validated (..., 3) rotation vectors and their angles: finite, and no longer
    than pi + ``gates.BALL_EDGE``, the canonical ball."""
    omega = np.asarray(omega, dtype=float)
    if omega.ndim < 1 or omega.shape[-1] != 3:
        raise ValueError(f"orientation vector must have shape (..., 3), got {omega.shape}")
    infinite = ~np.isfinite(omega).all(axis=-1)
    if infinite.any():
        raise ValueError("orientation vector has non-finite entries" + _where(infinite))
    theta = component_length(omega)
    outside = theta > np.pi + BALL_EDGE
    if outside.any():
        _, (first,) = first_failure(outside, theta)
        raise ValueError(f"orientation vector norm {first:.6f} outside the canonical ball"
                         + _where(outside))
    return omega, theta


def _series_parts(theta):
    """theta^2, the mask of angles below ``SERIES_SWITCH``, and theta with 1 there."""
    theta = np.asarray(theta, dtype=float)
    small = theta < SERIES_SWITCH
    return theta * theta, small, np.where(small, 1.0, theta)


def n_coefficients(theta):
    """The n-frame coefficients of the chart at angles ``theta`` (any shape).

    Returns ``(c2, c3)``:

        c2 = (1 - cos(theta)) / theta^2
        c3 = (theta - sin(theta)) / theta^3

    Below ``SERIES_SWITCH`` each is its quartic Taylor series.
    """
    t2, small, safe = _series_parts(theta)
    safe2 = safe * safe
    with np.errstate(invalid="ignore", divide="ignore"):
        c2 = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0,
                      (1.0 - np.cos(safe)) / safe2)
        c3 = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
                      (safe - np.sin(safe)) / (safe2 * safe))
    return c2, c3


def m_coefficient(theta):
    """The m-frame (m = n^-1) coefficient of the chart at angles ``theta`` (any shape),
    read by ``frame_fields`` and ``log_density_gradient``:

        d = (2/theta - cot(theta/2)) / (2 theta)

    Below ``SERIES_SWITCH`` it is its quartic Taylor series.
    """
    t2, small, safe = _series_parts(theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(small, 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
                        (2.0 / safe - 1.0 / np.tan(0.5 * safe)) / (2.0 * safe))


def exp_map(omega):
    """Rotation matrices of rotation vectors with norm <= pi, (..., 3) -> (..., 3, 3).

    The matrix of the unit quaternion.  A vector that is not finite or
    lies outside the ball raises ValueError naming its index in a stack.
    """
    omega, _ = _check_omega(omega)
    return quaternion_to_matrix(unit_quaternion(omega))


def first_failure(bad, *values):
    """Index of the first set entry of a boolean mask (0 for a 0-d one), and each
    value's entry there; a value has the mask's shape plus any trailing axes."""
    bad = np.asarray(bad)
    i = int(np.flatnonzero(bad)[0])
    return i, [np.reshape(v, (bad.size,) + np.shape(v)[bad.ndim:])[i] for v in values]


def _where(bad):
    """Suffix naming the first flagged entry of a stack; empty for a single one."""
    return "" if bad.ndim == 0 else f" (index {first_failure(bad)[0]})"


def _check_rotation(r):
    """(..., 3, 3) rotations: R^T R within ``gates.ORTHOGONALITY`` of 1, det R > 0."""
    r = np.asarray(r, dtype=float)
    if r.ndim < 2 or r.shape[-2:] != (3, 3):
        raise ValueError(f"rotation matrix must have shape (..., 3, 3), got {r.shape}")
    gram = np.swapaxes(r, -1, -2) @ r
    skewed = ~np.isclose(gram, np.eye(3), rtol=0.0, atol=ORTHOGONALITY).all(axis=(-2, -1))
    if skewed.any():
        raise ValueError("matrix is not orthogonal" + _where(skewed))
    improper = np.linalg.det(r) < 0.0
    if improper.any():
        raise ValueError("matrix is orthogonal but improper (det = -1)" + _where(improper))
    return r


def _component_dot(a, b):
    """Dot product over a last axis of 3, summed left to right by component."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def component_length(v):
    """Euclidean length over the last axis of an (..., 3) array.

    Bit-identical to ``np.linalg.norm(v, axis=-1)``, whose reduction adds
    the three squares left to right, at about a quarter of its cost on a
    large stack: numpy reduces a short last axis slowly.  The order
    matters, v0^2 + (v1^2 + v2^2) rounds differently.
    """
    return np.sqrt(_component_dot(v, v))


def cross(a, b):
    """Broadcasting cross product of (..., 3) arrays, written out by component."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def cross_sum(a, b):
    """sum_mu a_mu x b_mu over the particle axis: (..., M, 3) pairs -> (..., 3)."""
    return cross(a, b).sum(axis=-2)


def relative(residual, scale):
    """residual / scale, the scale floored at ``gates.RELATIVE_FLOOR``: every Eckart condition
    is |sum w a o b| / sum w |a| |b|, a ratio free of the units of mass and length."""
    return residual / np.maximum(scale, RELATIVE_FLOOR)


def log_map(r):
    """Rotation vector of a rotation matrix, with norm <= pi.

    Inverse of exp_map on the canonical ball.  Accepts one (3, 3) matrix
    or an (..., 3, 3) stack and returns (3,) or (..., 3).  The quaternion
    form of R^T is 4 q q^T - I, so the column of its largest diagonal
    entry plus one is 4 q_j q with |q_j| >= 1/2 (Shepperd's choice): a
    well-conditioned multiple of q at every angle, the half turn
    included.  At an exact half turn (w = 0) the largest axis component
    comes out positive.
    """
    k = quaternion_form(np.swapaxes(_check_rotation(r), -1, -2)) + np.eye(4)
    j = np.argmax(np.diagonal(k, axis1=-2, axis2=-1), axis=-1)
    return quaternion_to_vector(np.take_along_axis(k, j[..., None, None], axis=-1)[..., 0])


@dataclass(frozen=True)
class KillingFrame:
    """Frame field at one chart point or a stack of them.

    n : (..., 3, 3) array whose column j gives the body components of the
        angular-momentum direction paired with d/domega^j.
    m : (..., 3, 3) array, inverse of n; column k converts chart
        derivatives into the body component L_k (L = m^T D), and row k is
        the dual covector m^(k) with m^(k) . n_(j) = delta.
    """

    n: np.ndarray
    m: np.ndarray


def frame_fields(omega, dual_only=False):
    """n- and m-matrices at one chart point or a stack, shape (..., 3, 3).

    n = 1 - c2 K + c3 K^2 and its inverse m = 1 + K/2 + d K^2 with
    K = skew(omega).  With ``dual_only`` it returns m alone and forms
    neither n nor its coefficients: the commutator check reads m only.
    No input or boundary check: ``killing_frame`` is the checked form.
    """
    omega = np.asarray(omega, dtype=float)
    theta = component_length(omega)
    k = skew(omega)
    k2 = k @ k
    eye = np.broadcast_to(np.eye(3), k.shape)
    m = eye + 0.5 * k + m_coefficient(theta)[..., None, None] * k2
    if dual_only:
        return m
    c2, c3 = n_coefficients(theta)
    n = eye - c2[..., None, None] * k + c3[..., None, None] * k2
    return n, m


def killing_frame(omega):
    """``frame_fields`` at chart points checked as ``exp_map`` checks them.

    Raises
    ------
    GridError
        If ``||omega|| >= pi - gates.EPS_BOUNDARY``, where the frame field is
        (nearly) singular, naming the first such index of a stack.
    """
    omega, theta = _check_omega(omega)
    near = theta >= np.pi - EPS_BOUNDARY
    if near.any():
        _, (first,) = first_failure(near, theta)
        raise GridError(f"killing frame near-singular: |omega| = {first:.9f}"
                        f" >= pi - {EPS_BOUNDARY:g}" + _where(near))
    n, m = frame_fields(omega)
    return KillingFrame(n=n, m=m)


def log_density_gradient(omega):
    """Gradient of log(haar density), d_j ln rho = -2 d(theta) omega_j, for (..., 3) stacks.

    d = (2/theta - cot(theta/2)) / (2 theta) is ``m_coefficient``.
    """
    omega = np.asarray(omega, dtype=float)
    return -2.0 * m_coefficient(component_length(omega))[..., None] * omega


def _quaternion_parts(omega):
    """Scalar and vector parts of the unit quaternions of rotation vectors, (...) and (3, ...).

    The angle is floored at ``THETA_FLOOR``, in place: there
    sin(theta/2)/theta is its limit 1/2 to the bit, and cos(theta/2) is 1
    at every angle below, so one unmasked division fills in 1/2 for every
    shorter vector, the zero one included.  The vector part is component
    first, omega's components times the ratio, each written as one
    contiguous row.
    """
    omega = np.asarray(omega, dtype=float)
    theta = np.asarray(component_length(omega))
    np.maximum(theta, THETA_FLOOR, out=theta)
    half = 0.5 * theta
    scale = np.sin(half)
    scale /= theta
    v = np.multiply(np.moveaxis(omega, -1, 0), scale, out=np.empty((3,) + scale.shape))
    return np.cos(half), v


def unit_quaternion(omega):
    """Unit quaternions (w, x, y, z) of rotation vectors, (..., 3) -> (..., 4)."""
    w, v = _quaternion_parts(omega)
    return np.stack((w, *v), axis=-1)


def quaternion_to_vector(q):
    """Rotation vectors of quaternions (w, x, y, z), (..., 4) -> (..., 3).

    Inverse of ``unit_quaternion``.  q need not be normalized: any
    nonzero multiple of q, -q included, gives the same vector.  The sign
    is taken with w >= 0, so theta = 2 atan2(|v|, w) <= pi.
    """
    q = np.asarray(q, dtype=float)
    q = np.where(q[..., :1] < 0.0, -q, q)
    v = q[..., 1:]
    s = component_length(v)
    theta = 2.0 * np.arctan2(s, q[..., 0])
    return v * (theta / np.where(s == 0.0, 1.0, s))[..., None]


def quaternion_form(c):
    """Symmetric (..., 4, 4) matrices K with q^T K q = tr(c R(q)) for unit q.

    c is an (..., 3, 3) stack.  For c = R^T, K = 4 q q^T - I with q the
    quaternion of R.
    """
    sigma = np.trace(c, axis1=-2, axis2=-1)
    k = np.empty(c.shape[:-2] + (4, 4))
    k[..., 0, 0] = sigma
    k[..., 0, 1:] = k[..., 1:, 0] = np.stack(
        [c[..., 1, 2] - c[..., 2, 1], c[..., 2, 0] - c[..., 0, 2], c[..., 0, 1] - c[..., 1, 0]],
        axis=-1)
    k[..., 1:, 1:] = c + np.swapaxes(c, -1, -2) - sigma[..., None, None] * np.eye(3)
    return k


def quaternion_to_matrix(q):
    """Rotation matrices of unit quaternions (w, x, y, z), (..., 4) -> (..., 3, 3)."""
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=-1,
    ).reshape(q.shape[:-1] + (3, 3))


def geodesic_distance_to(centers):
    """``geodesic_distance(omegas, centers)`` as a function of omegas, the centers
    converted to quaternions once."""
    # the parts, not the packed (..., 4) array: strided access slowed the grid profiles
    w2, v2 = _quaternion_parts(centers)

    def distance(omegas):
        w1, v1 = _quaternion_parts(omegas)
        w = w2.reshape(w2.shape + (1,) * w1.ndim)
        v = v2.reshape((3,) + w.shape)
        dot = np.asarray(w1 * w)  # 0-d for one omega and one center, so that out= can take it
        dot += v1[0] * v[0] + v1[1] * v[1] + v1[2] * v[2]
        np.abs(dot, out=dot)
        np.minimum(dot, 1.0, out=dot)
        np.arccos(dot, out=dot)
        dot *= 2.0
        return dot[()]

    return distance


def geodesic_distance(omegas, centers):
    """Rotation angle between R(omega) and R(center), vectorized.

    ``centers`` is one rotation vector (3,), which gives distances of
    shape (...) for omegas (..., 3), or a stack (C, 3), which gives
    (C, ...) distances from one quaternion conversion of the omegas.
    """
    return geodesic_distance_to(centers)(omegas)
