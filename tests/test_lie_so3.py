from math import factorial

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from molrest.errors import GridError
from molrest.lie_so3 import (
    EPS_BOUNDARY,
    SERIES_SWITCH,
    chart_coefficients,
    exp_map,
    first_failure,
    killing_frame,
    log_density_gradient,
    log_map,
    quaternion_to_matrix,
    quaternion_to_vector,
    relative,
    skew,
    unit_quaternion,
    vee,
)


def haar_density(omega):
    # the normalized Haar density (1 - cos theta)/(4 pi^2 theta^2) on the
    # ball, the reference for log_density_gradient
    return chart_coefficients(np.linalg.norm(omega, axis=-1))[0] / (4.0 * np.pi**2)


def series_exp(omega, terms=30):
    # Independent oracle: truncated matrix power series of skew(omega).
    k = skew(omega)
    out = np.eye(3)
    acc = np.eye(3)
    for j in range(1, terms):
        acc = acc @ k / j
        out = out + acc
    return out


def random_ball(rng, n, radius=np.pi - 1e-3, r_min=0.0):
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = r_min + (radius - r_min) * rng.random(n) ** (1.0 / 3.0)
    return u * r[:, None]


def test_skew_vee_roundtrip():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(8, 3))
    k = skew(v)
    assert np.allclose(k + np.swapaxes(k, -1, -2), 0.0)
    assert np.allclose(vee(k), v)
    x = rng.normal(size=3)
    assert np.allclose(skew(v[0]) @ x, np.cross(v[0], x))


def test_exp_map_identity_at_zero():
    assert np.allclose(exp_map(np.zeros(3)), np.eye(3))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exp_map_matches_series_and_scipy(seed):
    rng = np.random.default_rng(seed)
    for omega in random_ball(rng, 100):
        r = exp_map(omega)
        assert np.allclose(r, series_exp(omega), atol=1e-13)
        assert np.allclose(r, Rotation.from_rotvec(omega).as_matrix(), atol=1e-13)


def test_exp_map_is_proper_orthogonal():
    rng = np.random.default_rng(4)
    for omega in random_ball(rng, 50):
        r = exp_map(omega)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-14)
        assert np.isclose(np.linalg.det(r), 1.0, atol=1e-14)


def test_exp_map_series_branch_is_continuous():
    # Straddle the chart coefficients' series switch; exp_map has no branch there.
    u = np.array([1.0, 2.0, -2.0]) / 3.0
    for theta in (0.9999 * SERIES_SWITCH, 1.0001 * SERIES_SWITCH):
        omega = theta * u
        assert np.allclose(exp_map(omega), series_exp(omega), atol=1e-15)


def test_exp_map_rejects_bad_input():
    with pytest.raises(ValueError):
        exp_map(np.array([4.0, 0.0, 0.0]))  # norm > pi
    with pytest.raises(ValueError):
        exp_map(np.zeros(4))
    with pytest.raises(ValueError):
        exp_map(np.array([np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("excess, inside", [(5e-11, True), (2e-10, False)])
def test_ball_edge(excess, inside):
    # the canonical ball reaches pi + 1e-10, a margin for the round-off of |omega|
    omega = (np.pi + excess) * np.array([1.0, 2.0, 2.0]) / 3.0
    if inside:
        assert exp_map(omega).shape == (3, 3)
    else:
        with pytest.raises(ValueError, match="outside the canonical ball"):
            exp_map(omega)


@pytest.mark.parametrize("margin, near", [(2e-6, False), (5e-7, True)])
def test_killing_frame_seam_edge(margin, near):
    # the frame field is refused within 1e-6 of the seam at pi
    omega = (np.pi - margin) * np.array([0.0, 0.0, 1.0])
    if near:
        with pytest.raises(GridError, match="killing frame near-singular"):
            killing_frame(omega)
    else:
        assert killing_frame(omega).n.shape == (3, 3)


@pytest.mark.parametrize("offset, orthogonal", [(5e-9, True), (2e-8, False)])
def test_log_map_gram_edge(offset, orthogonal):
    # R^T R may be off the identity by 1e-8 per entry; a rotation scaled by
    # 1 + offset/2 has R^T R = (1 + offset + offset^2/4) I
    r = exp_map(np.array([0.3, -0.2, 0.5])) * (1.0 + 0.5 * offset)
    if orthogonal:
        assert np.allclose(log_map(r), [0.3, -0.2, 0.5], rtol=0.0, atol=1e-8)
    else:
        with pytest.raises(ValueError, match="not orthogonal"):
            log_map(r)


def test_relative_floors_the_scale_at_1e_300():
    # a scale above the floor divides as given, one below it is read as 1e-300
    assert relative(1e-299, 1e-299) == 1.0
    assert relative(1e-299, 1e-301) == 10.0


def test_stacks_name_the_first_bad_vector():
    omegas = np.zeros((4, 3))
    omegas[2, 0] = omegas[3, 1] = 4.0
    with pytest.raises(ValueError, match=r"outside the canonical ball \(index 2\)"):
        exp_map(omegas)
    with pytest.raises(ValueError, match=r"outside the canonical ball \(index 2\)"):
        killing_frame(omegas)
    omegas[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"non-finite entries \(index 1\)"):
        exp_map(omegas)
    near = np.zeros((2, 2, 3))
    near[1, 0, 2] = near[1, 1, 0] = np.pi - 0.5 * EPS_BOUNDARY
    with pytest.raises(GridError, match=r"near-singular: .* \(index 2\)"):
        killing_frame(near)
    with pytest.raises(ValueError, match="shape"):
        exp_map(np.zeros((4, 2)))


def test_first_failure_picks_the_first_flagged_entry():
    bad = np.array([[False, False], [True, True]])
    values = np.arange(4.0).reshape(2, 2)
    rows = np.arange(12.0).reshape(2, 2, 3)
    i, (value, row) = first_failure(bad, values, rows)
    assert i == 2 and value == 2.0
    assert np.array_equal(row, [6.0, 7.0, 8.0])
    # a single item is index 0, and its trailing axes are kept
    i, (value, row) = first_failure(np.True_, 5.0, np.array([1.0]))
    assert i == 0 and value == 5.0
    assert np.array_equal(row, [1.0])


def test_log_map_rejects_non_rotations():
    with pytest.raises(ValueError):
        log_map(np.eye(3) * 1.5)
    improper = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        log_map(improper)
    with pytest.raises(ValueError, match=r"must have shape \(\.\.\., 3, 3\), got \(3, 2\)"):
        log_map(np.zeros((3, 2)))


def test_log_map_rejects_near_orthogonal_stretch():
    # the Gram check is absolute: a 5e-6 stretch is 1e-5 off the identity
    with pytest.raises(ValueError, match="not orthogonal"):
        log_map(np.diag([1.0 + 5e-6, 1.0, 1.0]))


def test_log_exp_roundtrip_bulk():
    rng = np.random.default_rng(5)
    for omega in random_ball(rng, 500):
        back = log_map(exp_map(omega))
        assert np.linalg.norm(back - omega) <= 1e-10


@pytest.mark.parametrize("theta", [1e-9, 1e-6, 1e-4, 0.5, 3.0, np.pi - 1e-3, np.pi - 5e-5])
def test_log_exp_roundtrip_extreme_angles(theta):
    u = np.array([2.0, -1.0, 2.0]) / 3.0
    omega = theta * u
    back = log_map(exp_map(omega))
    assert np.linalg.norm(back - omega) <= 1e-10


def test_log_map_at_exact_half_turn():
    # theta = pi: both signs of the axis are valid, exp must reproduce R.
    u = np.array([1.0, -2.0, 2.0]) / 3.0
    r = exp_map(np.pi * u)
    back = log_map(r)
    assert np.isclose(np.linalg.norm(back), np.pi, atol=1e-12)
    assert np.allclose(exp_map(back), r, atol=1e-10)


def test_log_exp_roundtrip_near_seam():
    # the quaternion route keeps full precision up to the half turn
    rng = np.random.default_rng(13)
    u = rng.normal(size=(500, 3))
    omegas = (np.pi - 1e-3 * rng.random(500))[:, None] * u / np.linalg.norm(u, axis=1)[:, None]
    back = log_map(np.stack([exp_map(w) for w in omegas]))
    assert np.abs(back - omegas).max() <= 1e-14


def test_quaternion_to_vector_inverts_unit_quaternion():
    rng = np.random.default_rng(14)
    omegas = np.concatenate([random_ball(rng, 200, radius=np.pi), np.zeros((1, 3))])
    q = unit_quaternion(omegas)
    assert q.shape == (201, 4)
    assert np.allclose(np.linalg.norm(q, axis=-1), 1.0, rtol=0.0, atol=1e-15)
    assert np.allclose(quaternion_to_matrix(q), [exp_map(w) for w in omegas], atol=1e-14)
    for scaled in (q, -q, 3.0 * q):
        assert np.abs(quaternion_to_vector(scaled) - omegas).max() <= 1e-14
    # w = 0: a half turn, the axis taken as it comes
    axis = np.array([2.0, -1.0, 2.0]) / 3.0
    half = quaternion_to_vector(np.concatenate([[0.0], axis]))
    assert np.abs(half - np.pi * axis).max() <= 1e-15
    assert np.abs(quaternion_to_vector(np.concatenate([[0.0], -axis])) + half).max() == 0.0


def test_exp_log_roundtrip_from_random_matrices():
    rng = np.random.default_rng(6)
    mats = Rotation.random(200, random_state=np.random.RandomState(6)).as_matrix()
    for r in mats:
        assert np.allclose(exp_map(log_map(r)), r, atol=1e-12)
    del rng


def fd_n_matrix(omega, h=1e-5):
    # Columns: vee(R^T dR/domega^j) by central differences.
    cols = []
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        dr = (exp_map(omega + e) - exp_map(omega - e)) / (2.0 * h)
        cols.append(vee(exp_map(omega).T @ dr))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("seed", [7, 8])
def test_killing_frame_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for omega in random_ball(rng, 60, radius=np.pi - 2e-2):
        n = killing_frame(omega).n
        ref = fd_n_matrix(omega)
        assert np.linalg.norm(n - ref) / np.linalg.norm(ref) <= 1e-6


def test_killing_frame_small_angle():
    # Near the origin the frame approaches the identity.
    f = killing_frame(np.array([1e-9, 0.0, 0.0]))
    assert np.allclose(f.n, np.eye(3), atol=1e-8)
    assert np.allclose(f.m, np.eye(3), atol=1e-8)
    ref = fd_n_matrix(np.array([5e-5, -3e-5, 2e-5]))
    got = killing_frame(np.array([5e-5, -3e-5, 2e-5])).n
    assert np.allclose(got, ref, atol=1e-9)


def test_killing_frame_duality():
    rng = np.random.default_rng(9)
    for omega in random_ball(rng, 200, radius=np.pi - 1e-2):
        f = killing_frame(omega)
        assert np.allclose(f.n @ f.m, np.eye(3), atol=1e-12)
        assert np.allclose(f.m @ f.n, np.eye(3), atol=1e-12)


def test_killing_frame_rejects_boundary():
    omega = (np.pi - 0.5 * EPS_BOUNDARY) * np.array([0.0, 0.0, 1.0])
    with pytest.raises(GridError):
        killing_frame(omega)


def test_haar_density_limit_and_continuity():
    assert np.isclose(haar_density(np.zeros(3)), 1.0 / (8.0 * np.pi**2), rtol=1e-12)
    a = haar_density(np.array([9.99e-4, 0.0, 0.0]))
    b = haar_density(np.array([1.001e-3, 0.0, 0.0]))
    assert np.isclose(a, b, rtol=1e-8)
    omega = np.array([0.0, 1.2, -0.5])
    theta = np.linalg.norm(omega)
    ref = (1.0 - np.cos(theta)) / (4.0 * np.pi**2 * theta**2)
    assert np.isclose(haar_density(omega), ref, rtol=1e-14)


# Bernoulli numbers B_2, B_4, ... for the series of d = (2/t - cot(t/2))/(2t)
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)

# Each chart coefficient as its Taylor series in t, far past the order the
# implementation switches to.
_COEFFICIENT_SERIES = {
    "one_minus_cos_over_t2": lambda t: sum((-1) ** n * t ** (2 * n) / factorial(2 * n + 2)
                                           for n in range(8)),
    "t_minus_sin_over_t3": lambda t: sum((-1) ** n * t ** (2 * n) / factorial(2 * n + 3)
                                         for n in range(8)),
    "d": lambda t: sum((-1) ** n * b * t ** (2 * n) / factorial(2 * n + 2)
                       for n, b in enumerate(_BERNOULLI)),
}


@pytest.mark.parametrize("index, name", enumerate(_COEFFICIENT_SERIES))
def test_chart_coefficients_match_series_across_switch(index, name):
    series = _COEFFICIENT_SERIES[name]
    below = (0.0, 1e-6, 0.5 * SERIES_SWITCH, SERIES_SWITCH * (1 - 1e-9))
    above = (SERIES_SWITCH * (1 + 1e-9), 2.0 * SERIES_SWITCH, 1e-2, 0.1)
    # below the switch the series is exact; above it the direct form loses
    # up to ~1e-9 relative to cancellation
    for thetas, rtol in ((below, 1e-14), (above, 1e-8)):
        got = chart_coefficients(np.array(thetas))[index]
        ref = np.array([series(t) for t in thetas])
        assert np.allclose(got, ref, rtol=rtol, atol=0.0), (name, got / ref - 1.0)
    # the stacked call and the one-angle call agree
    assert chart_coefficients(0.1)[index] == chart_coefficients(np.array([0.1]))[index][0]


@pytest.mark.parametrize("gap", [1e-5, 1e-7])
def test_chart_coefficient_d_is_exact_near_the_seam(gap):
    # d keeps full precision up to the seam, where 1/t^2 - (1 + cos t)/(2 t sin t)
    # would cancel to 6.3e-11 relative at pi - 1e-7
    mpmath = pytest.importorskip("mpmath")
    theta = np.pi - gap
    with mpmath.workdps(50):
        t = mpmath.mpf(theta)
        ref = (2 / t - mpmath.cot(t / 2)) / (2 * t)
        err = abs((mpmath.mpf(float(chart_coefficients(theta)[2])) - ref) / ref)
    assert err <= 1e-15


def test_log_density_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    h = 1e-6
    for omega in random_ball(rng, 30, radius=3.0, r_min=0.05):
        grad = log_density_gradient(omega)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            ref = (np.log(haar_density(omega + e)) - np.log(haar_density(omega - e))) / (2 * h)
            assert np.isclose(grad[j], ref, atol=5e-7)


def test_log_density_gradient_small_angle_series():
    # FD on the density is too noisy below theta ~ 0.05; check the series
    # form of the radial factor instead, straddling the branch switch.
    for theta in (5e-4, 9.99e-4, 1.001e-3, 2e-3, 1e-2):
        omega = theta * np.array([0.6, -0.8, 0.0])
        ref = (-1.0 / 6.0 - theta**2 / 360.0 - theta**4 / 15120.0) * omega
        assert np.allclose(log_density_gradient(omega), ref, rtol=1e-7, atol=1e-18)
