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


def line_terms(rng, n_terms):
    """Mixture terms on the [-10, 10] line: |c| <= 1.5, s in [0.4, 0.9], |k| <= 3."""
    c = rng.uniform(-1.5, 1.5, n_terms)
    s = rng.uniform(0.4, 0.9, n_terms)
    k = rng.uniform(-3.0, 3.0, n_terms)
    a = rng.uniform(0.5, 1.0, n_terms) * np.exp(1j * rng.uniform(0, 2 * np.pi, n_terms))
    return c, s, k, a


def peak_relative_error(new, reference):
    return np.abs(new - reference).max() / np.abs(reference).max()


class TestLineMixture:
    """The line mixture at its nodes, the plane wave from a coarse and a fine table.

    The tables put node I b + J at x_{Ib} + (x_J - x_0).  linspace rounds
    every node at the magnitude of the extent, so that sum misses the float
    node by up to about 2 ulp(10) = 3.6e-15 on these lines, and the phase
    by |k| times that.  Over 60 mixtures of these terms the worst error was
    6.3e-15 of the peak against mpmath on the 2048-point line (the
    per-point form: 5.1e-16), and 6.0e-15 against the per-point form at
    the sizes below.  Both bounds are 1e-14.
    """

    @pytest.mark.parametrize("n_terms", [1, 2, 3])
    def test_matches_mpmath(self, line, n_terms):
        mpmath = pytest.importorskip("mpmath")
        c, s, k, a = line_terms(np.random.default_rng(40 + n_terms), n_terms)
        psi = _line_mixture(line, c, s, k, a)
        with mpmath.workdps(30):
            terms = [(mpmath.mpc(ai), mpmath.mpf(ci), 4 * mpmath.mpf(si) ** 2, mpmath.mpf(ki))
                     for ci, si, ki, ai in zip(c, s, k, a)]
            raw = [mpmath.fsum(ai * mpmath.exp(-(x - ci) ** 2 / v) * mpmath.expj(ki * x)
                               for ai, ci, v, ki in terms)
                   for x in map(mpmath.mpf, line.points)]
            norm = mpmath.sqrt(mpmath.fsum(w * abs(r) ** 2 for w, r in zip(line.weights, raw)))
            reference = np.array([complex(r / norm) for r in raw])
        assert peak_relative_error(psi.amplitudes, reference) <= 1e-14

    @pytest.mark.parametrize("n", [64, 1000, 16384, 16385])
    @pytest.mark.parametrize("n_terms", [1, 2, 3])
    def test_agrees_with_the_per_point_formula(self, n, n_terms):
        # 64 and 16384 fill their b x b table exactly, 1000 and 16385 are cut short
        grid = LineGrid.make(-10.0, 10.0, n)
        c, s, k, a = line_terms(np.random.default_rng(60 + n_terms), n_terms)
        per_point = GridWavefunction.from_profile(grid, broadcast_line_profile(c, s, k, a))
        psi = _line_mixture(grid, c, s, k, a)
        assert peak_relative_error(psi.amplitudes, per_point.amplitudes) <= 1e-14

    @pytest.mark.parametrize("factory", [
        gaussian_line_state,
        lambda grid: oscillator_state(grid, 2),
        lambda grid: random_line_state(grid, np.random.default_rng(3)),
    ], ids=["gaussian_line_state", "oscillator_state", "random_line_state"])
    def test_line_states_keep_no_profile(self, line, factory):
        assert factory(line).profile is None

    def test_state_off_the_grid_vanishes(self, line):
        with pytest.raises(GridError, match="profile vanishes on the grid"):
            gaussian_line_state(line, center=1e3, sigma=0.1)

    def test_norm_past_the_float_range_fails_closed(self):
        # x1e160 squares past the float range: no all-zero state, and no numpy warning
        grid = LineGrid.make(-10.0, 10.0, 1024)
        amps = gaussian_line_state(grid).amplitudes
        with pytest.raises(GridError, match=r"^norm past the float range: max \|psi\| = 6\.3"):
            GridWavefunction.normalized(grid, 1e160 * amps)
        with pytest.raises(GridError, match="^norm past the float range"):
            GridWavefunction.from_profile(grid, lambda x: 1e160 * np.exp(-x * x / 4.0) + 0j)
        # x1e150 squares to 1e300 and normalizes back
        rescaled = GridWavefunction.normalized(grid, 1e150 * amps).amplitudes
        assert np.max(np.abs(rescaled - amps)) <= 1e-15

    def test_oscillator_norm_of_zero_names_the_parameters(self, line):
        # hbar 1e-200: the gaussian underflows at every node (0 is none of them)
        assert not (line.points == 0.0).any()
        with pytest.raises(ValueError, match="^hbar and quantum number take"):
            oscillator_state(line, 0, hbar=1e-200)


class TestMixtureProfiles:
    """The in-place orientation mixture gives the bits of the plain formula it replaced."""

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


NAN, INF = float("nan"), float("inf")


class TestParametersNamed:
    """A bad parameter is named before any sampling, with no numpy warning: a
    NaN no longer ends as a vanishing profile, an infinite width as a flat
    state, or True as 1, and neither does a width, centre, phase or
    oscillator that leaves the float range on the grid."""

    @pytest.mark.parametrize("kwargs, field", [
        ({"sigma": NAN}, "sigma must be positive"),
        ({"sigma": INF}, "sigma must be positive"),
        ({"sigma": -0.5}, "sigma must be positive"),
        ({"sigma": True}, "sigma must be positive"),
        ({"center": NAN}, "center must be finite"),
        ({"center": -INF}, "center must be finite"),
        ({"momentum": NAN}, "momentum must be finite"),
        ({"momentum": INF}, "momentum must be finite"),
        ({"sigma": 1e300}, "^sigma takes"),
        ({"sigma": 1e-160}, "^sigma takes"),
        ({"sigma": 1e-200}, "^sigma takes"),
        ({"center": 1e200}, "^center takes"),
        ({"momentum": 1e300, "hbar": 1e-10}, "^momentum / hbar takes"),
    ])
    def test_gaussian_line_state(self, line, kwargs, field):
        with pytest.raises(ValueError, match=field):
            gaussian_line_state(line, **kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        ({"sigma": NAN}, "sigma must be positive"),
        ({"sigma": INF}, "sigma must be positive"),
        ({"sigma": True}, "sigma must be positive"),
        ({"center": (0.1, NAN, 0.0)}, "center must be finite"),
        ({"wave": (INF, 0.0, 0.0)}, "wave must be finite"),
        ({"wave": (0.0, 0.0, "x")}, "wave must be finite"),
        ({"sigma": 1e300}, "^sigma takes"),
        ({"sigma": 1e-160}, "^sigma takes"),
        ({"sigma": 1e-200}, "^sigma takes"),
        ({"center": (1e200, 0.0, 0.0)}, "^center takes"),
        ({"wave": (1e308, 0.0, 0.0)}, "^wave takes"),
    ])
    def test_so3_gaussian_state(self, ball, kwargs, field):
        with pytest.raises(ValueError, match=field):
            so3_gaussian_state(ball, **kwargs)

    @pytest.mark.parametrize("n, message", [
        (2.5, "quantum number must be an int"),
        (True, "quantum number must be an int"),
        ("2", "quantum number must be an int"),
        (-1, "quantum number must be nonnegative"),
    ])
    def test_oscillator_state(self, line, n, message):
        with pytest.raises(ValueError, match=message):
            oscillator_state(line, n)

    @pytest.mark.parametrize("n, hbar", [(3, 1e-300), (200, 1.0)])
    def test_oscillator_beyond_float_range(self, line, n, hbar):
        with pytest.raises(ValueError, match="^hbar and quantum number take"):
            oscillator_state(line, n, hbar=hbar)

    def test_phases_at_the_float_range_edge_accepted(self, line, ball):
        # 1e307 x and 5e307 omega_x stay finite on the grids: no false rejection
        assert abs(gaussian_line_state(line, momentum=1e307).norm() - 1.0) <= 1e-12
        assert abs(so3_gaussian_state(ball, wave=(5e307, 0.0, 0.0)).norm() - 1.0) <= 1e-12

    def test_numpy_quantum_number_accepted(self, line):
        assert np.array_equal(oscillator_state(line, np.int64(3)).amplitudes,
                              oscillator_state(line, 3).amplitudes)
