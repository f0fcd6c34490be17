"""State factories: normalization, moments, seam behavior."""

import numpy as np
import pytest

from molrest.errors import GridError
from molrest.lie_so3 import exp_map, geodesic_distance, log_map
from molrest.quantum import (
    LineGrid,
    So3Grid,
    gaussian_line_state,
    oscillator_state,
    random_line_state,
    random_so3_state,
    so3_gaussian_state,
)
from molrest.quantum.grids import GridWavefunction, wrap_to_ball
from molrest.quantum.states import _line_mixture, _so3_mixture


@pytest.fixture(scope="module")
def line():
    return LineGrid.make(-10.0, 10.0, 2048)


@pytest.fixture(scope="module")
def ball():
    return So3Grid.make(32, 48)


class TestLineStates:
    def test_gaussian_normalized(self, line):
        assert abs(gaussian_line_state(line, 0.3, 0.7, 1.1).norm() - 1.0) <= 1e-12

    def test_gaussian_position_moments(self, line):
        psi = gaussian_line_state(line, center=-1.2, sigma=0.6)
        w, x, a = psi.weights, line.points, psi.amplitudes
        mean = np.sum(w * x * np.abs(a) ** 2)
        var = np.sum(w * (x - mean) ** 2 * np.abs(a) ** 2)
        assert abs(mean - -1.2) <= 1e-10
        assert abs(np.sqrt(var) - 0.6) <= 1e-10

    def test_gaussian_rejects_bad_sigma(self, line):
        with pytest.raises(ValueError):
            gaussian_line_state(line, sigma=0.0)

    def test_oscillator_orthonormal(self, line):
        states = [oscillator_state(line, n) for n in range(5)]
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                overlap = np.sum(si.weights * np.conj(si.amplitudes) * sj.amplitudes)
                assert abs(overlap - (1.0 if i == j else 0.0)) <= 1e-10

    def test_oscillator_node_count(self, line):
        # eigenstate n has n sign changes
        psi = oscillator_state(line, 3)
        vals = psi.amplitudes.real
        core = vals[np.abs(vals) > 1e-6 * np.abs(vals).max()]
        assert int(np.sum(np.diff(np.sign(core)) != 0)) == 3

    def test_oscillator_rejects_negative_n(self, line):
        with pytest.raises(ValueError):
            oscillator_state(line, -1)

    def test_random_states_normalized_and_decayed(self, line):
        rng = np.random.default_rng(9)
        for _ in range(20):
            psi = random_line_state(line, rng)
            assert abs(psi.norm() - 1.0) <= 1e-10
            peak = np.abs(psi.amplitudes).max()
            assert np.abs(psi.amplitudes[:2]).max() <= 1e-8 * peak
            assert np.abs(psi.amplitudes[-2:]).max() <= 1e-8 * peak

    def test_random_states_deterministic_per_seed(self, line):
        a = random_line_state(line, np.random.default_rng(33))
        b = random_line_state(line, np.random.default_rng(33))
        assert np.array_equal(a.amplitudes, b.amplitudes)


class TestGeodesicDistance:
    def test_matches_group_log_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            u = rng.normal(size=3)
            a = u / np.linalg.norm(u) * rng.uniform(0, np.pi - 0.1)
            u = rng.normal(size=3)
            b = u / np.linalg.norm(u) * rng.uniform(0, np.pi - 0.1)
            oracle = np.linalg.norm(log_map(exp_map(a) @ exp_map(b).T))
            assert abs(geodesic_distance(a[None], b)[0] - oracle) <= 1e-12

    def test_zero_at_same_rotation(self):
        v = np.array([0.4, -0.2, 0.9])
        assert geodesic_distance(v[None], v)[0] <= 1e-7

    def test_continuous_across_seam(self):
        # antipodal representatives are the same rotation
        axis = np.array([0.0, 1.0, 0.0])
        just_in = axis * (np.pi - 1e-4)
        wrapped = axis * -(np.pi - 1e-4)
        assert geodesic_distance(just_in[None], wrapped)[0] <= 1e-3

    def test_center_stack_equals_one_call_per_center(self, ball):
        rng = np.random.default_rng(12)
        centers = rng.normal(size=(4, 3)) * rng.uniform(0.0, 3.0, size=(4, 1))
        centers[1] = 0.0
        for pts in (ball.nodes, rng.normal(size=(2, 5, 3)), centers[2]):
            stacked = geodesic_distance(pts, centers)
            assert stacked.shape == (4,) + np.shape(pts)[:-1]
            for row, center in zip(stacked, centers):
                assert_bitwise_equal(row, geodesic_distance(pts, center))


def reference_geodesic_distance(omegas, centers):
    """``geodesic_distance`` with numpy's reductions: lengths from
    ``np.linalg.norm(..., axis=-1)`` and the dot product from ``np.sum``."""

    def parts(omega):
        theta = np.linalg.norm(omega, axis=-1)
        small = theta < 1e-12
        scale = np.empty_like(theta)
        scale[small] = 0.5
        scale[~small] = np.sin(0.5 * theta[~small]) / theta[~small]
        return np.cos(0.5 * theta), omega * scale[..., None]

    w1, v1 = parts(np.asarray(omegas, dtype=float))
    w2, v2 = parts(np.asarray(centers, dtype=float))
    w2 = w2.reshape(w2.shape + (1,) * w1.ndim)
    v2 = v2.reshape(w2.shape + (3,))
    dot = np.abs(w1 * w2 + np.sum(v1 * v2, axis=-1))
    return 2.0 * np.arccos(np.clip(dot, -1.0, 1.0))


class TestGeodesicReductions:
    @pytest.mark.parametrize("step", [5e-3, 0.02, 0.2])
    def test_equals_numpy_reductions_on_wrapped_stencil_points(self, step):
        # the stencil points of a sweep, wrapped through the antipode where
        # they leave the ball; a numpy that reorders its sums fails here
        nodes = So3Grid.make(16, 32).nodes
        rng = np.random.default_rng(16)
        centers = rng.normal(size=(3, 3)) * rng.uniform(0.0, 3.0, size=(3, 1))
        centers[0] = 0.0
        for j in range(3):
            for off in (-2, -1, 1, 2):
                pts = wrap_to_ball(nodes + off * step * np.eye(3)[j])
                assert_bitwise_equal(geodesic_distance(pts, centers),
                                     reference_geodesic_distance(pts, centers))
                assert_bitwise_equal(geodesic_distance(pts, centers[1]),
                                     reference_geodesic_distance(pts, centers[1]))


def assert_bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.reshape(-1).view(np.int64), b.reshape(-1).view(np.int64))


def broadcast_line_profile(c, s, k, a):
    """The line mixture as one broadcast expression, terms on the last axis."""

    def profile(x):
        x = np.asarray(x, dtype=float)[..., None]
        return (a * np.exp(-((x - c) ** 2) / (4.0 * s * s) + 1j * k * x)).sum(axis=-1)

    return profile


def summed_so3_profile(c, s, w, a):
    """The orientation mixture as a running sum, one geodesic distance per term."""

    def profile(pts):
        pts = np.asarray(pts, dtype=float)
        total = np.zeros(pts.shape[:-1], dtype=complex)
        for ci, si, wi, ai in zip(c, s, w, a):
            d = geodesic_distance(pts, ci)
            total = total + ai * np.exp(-(d * d) / (4.0 * si * si) + 1j * (pts @ wi))
        return total

    return profile


class TestMixtureProfiles:
    """The in-place mixtures give the bits of the plain formulas they replaced."""

    @pytest.mark.parametrize("n_terms", [1, 2, 3])
    def test_line_mixture_is_bitwise_the_broadcast_formula(self, line, n_terms):
        rng = np.random.default_rng(40 + n_terms)
        c = rng.uniform(-1.5, 1.5, n_terms)
        s = rng.uniform(0.4, 0.9, n_terms)
        k = rng.uniform(-3.0, 3.0, n_terms)
        a = rng.uniform(0.5, 1.0, n_terms) * np.exp(1j * rng.uniform(0, 2 * np.pi, n_terms))
        new = _line_mixture(line, c, s, k, a)
        old = GridWavefunction.from_profile(line, broadcast_line_profile(c, s, k, a))
        assert_bitwise_equal(new.amplitudes, old.amplitudes)
        for x in (rng.uniform(-10.0, 10.0, 17), rng.uniform(-3.0, 3.0, (2, 3)), 0.25):
            assert_bitwise_equal(new.profile(x), old.profile(x))

    @pytest.mark.parametrize("n_terms", [1, 2, 3])
    def test_so3_mixture_is_bitwise_the_summed_formula(self, ball, n_terms):
        rng = np.random.default_rng(50 + n_terms)
        c = rng.normal(size=(n_terms, 3)) * 0.3
        s = rng.uniform(0.2, 0.45, n_terms)
        w = rng.uniform(-1.0, 1.0, (n_terms, 3))
        a = rng.uniform(0.5, 1.0, n_terms) * np.exp(1j * rng.uniform(0, 2 * np.pi, n_terms))
        new = _so3_mixture(ball, c, s, w, a)
        old = GridWavefunction.from_profile(ball, summed_so3_profile(c, s, w, a))
        assert_bitwise_equal(new.amplitudes, old.amplitudes)
        stencil = ball.nodes + np.array([0.0, 5e-3, 0.0])
        for pts in (stencil, rng.normal(size=(2, 4, 3))):
            assert_bitwise_equal(new.profile(pts), old.profile(pts))


class TestSo3States:
    def test_normalized(self, ball):
        assert abs(so3_gaussian_state(ball, sigma=0.25).norm() - 1.0) <= 1e-12

    def test_envelope_depends_on_distance_only(self, ball):
        psi = so3_gaussian_state(ball, center=(0.2, 0.1, -0.3), sigma=0.3)
        d = geodesic_distance(ball.nodes, np.array([0.2, 0.1, -0.3]))
        order = np.argsort(d)
        mags = np.abs(psi.amplitudes)[order]
        assert np.all(np.diff(mags) <= 1e-12)

    def test_envelope_smooth_across_seam(self, ball):
        # evaluate the profile on both sides of the antipodal seam
        psi = so3_gaussian_state(ball, center=(0.3, 0.0, 0.0), sigma=0.5)
        axis = np.array([0.0, 0.0, 1.0])
        inside = psi.profile((axis * (np.pi - 1e-5))[None])[0]
        outside = psi.profile((-axis * (np.pi - 1e-5))[None])[0]
        assert abs(abs(inside) - abs(outside)) <= 1e-4 * abs(inside)

    def test_rejects_bad_sigma(self, ball):
        with pytest.raises(ValueError):
            so3_gaussian_state(ball, sigma=-0.1)

    def test_random_states_interior(self, ball):
        rng = np.random.default_rng(6)
        for _ in range(20):
            psi = random_so3_state(ball, rng)
            assert abs(psi.norm() - 1.0) <= 1e-10
            assert psi.boundary_mass() < 1e-8

    def test_random_states_deterministic_per_seed(self, ball):
        a = random_so3_state(ball, np.random.default_rng(5))
        b = random_so3_state(ball, np.random.default_rng(5))
        assert np.array_equal(a.amplitudes, b.amplitudes)


class TestHbarChecked:
    @pytest.mark.parametrize("hbar", [-1.0, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("factory", [
        lambda grid, hbar: gaussian_line_state(grid, momentum=0.5, hbar=hbar),
        lambda grid, hbar: oscillator_state(grid, 1, hbar=hbar),
        lambda grid, hbar: random_line_state(grid, np.random.default_rng(5), hbar=hbar),
    ], ids=["gaussian_line_state", "oscillator_state", "random_line_state"])
    def test_line_factories_reject_bad_hbar(self, line, factory, hbar):
        # hbar = 0 ended in a ZeroDivisionError, -1 in a state of negated momentum
        with pytest.raises(GridError, match="hbar must be positive and finite"):
            factory(line, hbar)
