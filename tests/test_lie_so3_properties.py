"""Property tests of the exponential chart against scipy's Rotation.

Rotation vectors are drawn in three angle regimes: at and next to the
origin, in the bulk of the ball, and within 1e-3 of the seam at pi,
where the chart is double-valued and a vector and its antipode
omega (1 - 2 pi/|omega|) name the same rotation.

``component_length`` is held bit for bit to ``np.linalg.norm(v, axis=-1)``
over the layouts its callers pass, so a numpy that changes the order of
its reduction fails here rather than moving report bytes.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.transform import Rotation

from molrest.lie_so3 import (
    EPS_BOUNDARY,
    component_length,
    exp_map,
    killing_frame,
    log_map,
    quaternion_to_vector,
    unit_quaternion,
)

AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)
ORIGIN = st.one_of(st.just(0.0), st.floats(0.0, 1e-6))
BULK = st.floats(1e-6, np.pi - 1e-3)
SEAM = st.floats(np.pi - 1e-3, np.pi)


def rotation_vectors(angles=st.one_of(ORIGIN, BULK, SEAM)):
    return st.builds(lambda axis, angle: angle * np.asarray(axis) / np.linalg.norm(axis),
                     AXES, angles)


def seam_distance(got, omega):
    """Distance from ``got`` to the nearer of omega and its antipode."""
    theta = np.linalg.norm(omega)
    if theta == 0.0:
        return np.linalg.norm(got - omega)
    antipode = omega * (1.0 - 2.0 * np.pi / theta)
    return min(np.linalg.norm(got - omega), np.linalg.norm(got - antipode))


@given(rotation_vectors())
def test_exp_map_matches_scipy(omega):
    assert np.abs(exp_map(omega) - Rotation.from_rotvec(omega).as_matrix()).max() <= 2e-15


@given(rotation_vectors())
def test_log_map_matches_scipy(omega):
    r = Rotation.from_rotvec(omega)
    got = log_map(r.as_matrix())
    assert np.linalg.norm(got) <= np.pi + 1e-14  # pi up to the rounding of the norm
    assert seam_distance(got, r.as_rotvec()) <= 1e-14


@given(rotation_vectors())
def test_log_map_inverts_exp_map(omega):
    assert seam_distance(log_map(exp_map(omega)), omega) <= 1e-14


@given(rotation_vectors())
def test_quaternion_round_trip_matches_scipy(omega):
    q = unit_quaternion(omega)
    ref = Rotation.from_rotvec(omega).as_quat(scalar_first=True)
    assert min(np.abs(q - ref).max(), np.abs(q + ref).max()) <= 1e-15
    assert np.abs(quaternion_to_vector(q) - omega).max() <= 1e-15


@given(st.lists(rotation_vectors(), min_size=1, max_size=6))
def test_exp_map_stack_is_each_single_call(omegas):
    stack = exp_map(np.array(omegas))
    assert all((stack[i] == exp_map(w)).all() for i, w in enumerate(omegas))


# the frame field is singular at pi; stay clear of killing_frame's boundary layer
INTERIOR_SEAM = st.floats(np.pi - 1e-3, np.pi - 2.0 * EPS_BOUNDARY)


@given(st.lists(rotation_vectors(st.one_of(ORIGIN, BULK, INTERIOR_SEAM)), min_size=1, max_size=6))
def test_killing_frame_stack_is_each_single_call(omegas):
    stack = killing_frame(np.array(omegas))
    for i, w in enumerate(omegas):
        single = killing_frame(w)
        assert (stack.n[i] == single.n).all() and (stack.m[i] == single.m).all()


# mantissas in [-10, 10], zeros among them, times one power of ten per
# array from 1e-150 to 1e149: components of one size round differently in
# the two summation orders far more often than components decades apart
MANTISSAS = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
DECADES = st.integers(-150, 149)


def _layout(kind, array):
    """The (..., 3) view of ``array`` that a caller of the given kind passes."""
    if kind == "strided":  # the position half of (T, N, 6) particle rows
        return array[..., :3]
    if kind == "fortran":
        return np.asfortranarray(array)
    return array


def vector_stacks():
    shapes = st.one_of(
        st.tuples(st.just("single"), st.just(())),
        st.tuples(st.just("stack"), hnp.array_shapes(min_dims=1, max_dims=1, max_side=40)),
        st.tuples(st.just("stacks"), hnp.array_shapes(min_dims=2, max_dims=2, max_side=12)),
        st.tuples(st.just("strided"), hnp.array_shapes(min_dims=2, max_dims=2, max_side=12)),
        st.tuples(st.just("fortran"), hnp.array_shapes(min_dims=1, max_dims=2, max_side=12)),
    )

    def arrays(kind_and_shape):
        kind, shape = kind_and_shape
        full = tuple(shape) + ((6,) if kind == "strided" else (3,))
        return st.builds(lambda a, decade: _layout(kind, a * 10.0**decade),
                         hnp.arrays(np.float64, full, elements=MANTISSAS), DECADES)

    return shapes.flatmap(arrays)


@given(vector_stacks())
def test_component_length_is_bitwise_numpy_norm(v):
    got = component_length(v)
    ref = np.linalg.norm(v, axis=-1)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
