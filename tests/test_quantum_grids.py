"""Grid construction, Haar quadrature, and wavefunction plumbing."""

import numpy as np
import pytest

from molrest.errors import GridError
from molrest.lie_so3 import exp_map
from molrest.quantum import (
    GridWavefunction,
    LineGrid,
    So3Grid,
    gaussian_line_state,
    angmom_op,
    so3_gaussian_state,
    wrap_to_ball,
)
from molrest.quantum.grids import MAX_DIRS, MAX_LINE_POINTS, MAX_SHELLS


class TestLineGrid:
    def test_step_times_intervals_equals_span(self):
        g = LineGrid.make(-7.5, 3.25, 513)
        assert abs(g.step * (g.size - 1) - (3.25 - -7.5)) <= 1e-12

    def test_weights_sum_to_span(self):
        g = LineGrid.make(-4.0, 4.0, 201)
        assert abs(g.weights.sum() - 8.0) <= 1e-12

    def test_trapezoid_quadrature_on_polynomial(self):
        # trapezoid is exact for linear functions
        g = LineGrid.make(-2.0, 5.0, 301)
        assert abs(np.sum(g.weights * (3.0 * g.points - 1.0)) - (3.0 / 2.0 * (25 - 4) - 7.0)) <= 1e-10

    def test_too_few_points_rejected(self):
        with pytest.raises(GridError):
            LineGrid.make(-1.0, 1.0, 63)

    def test_empty_extent_rejected(self):
        with pytest.raises(GridError):
            LineGrid.make(2.0, 2.0, 128)

    @pytest.mark.parametrize("x_min, x_max", [
        (-np.inf, 0.0),  # an infinite endpoint: numpy warned "invalid value"
        (-1e308, 1e308),  # finite endpoints, an infinite span: numpy warned "overflow"
        (np.nan, 1.0),
        (0.0, np.nan),
    ])
    def test_non_finite_extent_named(self, x_min, x_max):
        with pytest.raises(GridError, match=r"line grid extent must be finite, got \["):
            LineGrid.make(x_min, x_max, 64)

    def test_ceiling_enforced(self):
        assert LineGrid.make(-1.0, 1.0, 262144).size == 262144  # the reference line
        assert LineGrid.make(-1.0, 1.0, MAX_LINE_POINTS).size == MAX_LINE_POINTS
        with pytest.raises(GridError, match="at most"):
            LineGrid.make(-1.0, 1.0, MAX_LINE_POINTS + 1)


class TestSo3Grid:
    def test_haar_weights_sum_to_one(self):
        g = So3Grid.make(64, 128)
        assert abs(g.haar_weights.sum() - 1.0) <= 1e-6

    def test_weights_positive(self):
        g = So3Grid.make(16, 32)
        assert np.all(g.haar_weights > 0.0)

    def test_node_norms_inside_ball(self):
        g = So3Grid.make(32, 64)
        norms = np.linalg.norm(g.nodes, axis=1)
        assert norms.max() < np.pi - 1e-6
        assert norms.min() > 0.0

    def test_minimum_sizes_enforced(self):
        with pytest.raises(GridError):
            So3Grid.make(15, 128)
        with pytest.raises(GridError):
            So3Grid.make(64, 31)

    def test_ceilings_enforced(self):
        assert So3Grid.make(128, 2048).size == 128 * 2048  # the reference ball
        with pytest.raises(GridError, match="at most"):
            So3Grid.make(MAX_SHELLS + 1, 32)
        with pytest.raises(GridError, match="at most"):
            So3Grid.make(16, MAX_DIRS + 1)

    def test_direction_set_antipodal(self):
        # parity integrals cancel exactly only if -node is also a node
        g = So3Grid.make(16, 32)
        key = {tuple(np.round(n, 10)) for n in g.nodes}
        for n in g.nodes:
            assert tuple(np.round(-n, 10)) in key

    def test_trace_character_integrals(self):
        # Haar moments of the trace: mean 0, mean square 1
        g = So3Grid.make(32, 48)
        theta = np.linalg.norm(g.nodes, axis=1)
        tr = 1.0 + 2.0 * np.cos(theta)
        assert abs(np.sum(g.haar_weights * tr)) <= 1e-12
        assert abs(np.sum(g.haar_weights * tr**2) - 1.0) <= 1e-12

    def test_seam_mask_covers_two_shells(self):
        g = So3Grid.make(24, 32)
        norms = np.linalg.norm(g.nodes, axis=1)
        expected = norms > np.pi - 2.0 * g.radial_step
        assert np.array_equal(g.seam_mask, expected)
        # exactly two shells worth of nodes, computed once
        assert g.seam_mask.sum() == 2 * (g.size // 24)
        assert g.seam_mask is g.seam_mask

    def test_grid_built_without_make_keeps_its_boundary(self):
        g = So3Grid.make(24, 48)
        bare = So3Grid(nodes=g.nodes, haar_weights=g.haar_weights, radial_step=g.radial_step,
                       n_theta=g.n_theta, n_dirs=g.n_dirs)
        psi = so3_gaussian_state(g, sigma=0.3)
        bare_psi = GridWavefunction(grid=bare, amplitudes=psi.amplitudes, profile=psi.profile)
        assert bare_psi.boundary_mass() == psi.boundary_mass() < 1e-8
        assert np.array_equal(angmom_op(bare_psi)[0].amplitudes, angmom_op(psi)[0].amplitudes)


class TestWrapToBall:
    def test_interior_points_untouched(self):
        pts = np.array([[0.1, 0.2, -0.3], [1.0, 1.0, 1.0]])
        assert np.array_equal(wrap_to_ball(pts), pts)

    def test_wrapped_norm_is_reflected(self):
        v = np.array([0.0, 0.0, 3.3])
        w = wrap_to_ball(v[None, :])[0]
        assert abs(np.linalg.norm(w) - (2 * np.pi - 3.3)) <= 1e-12

    def test_wrap_preserves_rotation(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            v = u * rng.uniform(np.pi + 0.05, 2 * np.pi - 0.05)
            w = wrap_to_ball(v[None, :])[0]
            assert np.abs(exp_map(w) - exp_map(v * (1 - 2 * np.pi / np.linalg.norm(v)))).max() <= 1e-12
            # same rotation as the unwrapped vector
            c, s = np.cos, np.sin
            th = np.linalg.norm(v)
            axis = v / th
            r_direct = exp_map(axis * (th - 2 * np.pi)) if th > np.pi else exp_map(v)
            assert np.abs(exp_map(w) - r_direct).max() <= 1e-10


class TestGridWavefunction:
    def test_from_profile_normalizes(self):
        g = LineGrid.make(-8, 8, 256)
        psi = GridWavefunction.from_profile(g, lambda x: np.exp(-((x - 0.5) ** 2)))
        assert abs(psi.norm() - 1.0) <= 1e-12

    def test_profile_rescaled_consistently(self):
        g = LineGrid.make(-8, 8, 256)
        psi = GridWavefunction.from_profile(g, lambda x: 3.7 * np.exp(-(x**2)))
        assert np.abs(psi.profile(g.points) - psi.amplitudes).max() <= 1e-14

    def test_so3_profile_matches_nodes(self):
        g = So3Grid.make(16, 32)
        psi = so3_gaussian_state(g, sigma=0.4)
        assert np.abs(psi.profile(g.nodes) - psi.amplitudes).max() <= 1e-14

    def test_shape_mismatch_rejected(self):
        g = LineGrid.make(-1, 1, 64)
        with pytest.raises(GridError):
            GridWavefunction(grid=g, amplitudes=np.ones(63))

    def test_vanishing_profile_rejected(self):
        g = LineGrid.make(-1, 1, 64)
        with pytest.raises(GridError):
            GridWavefunction.from_profile(g, lambda x: np.zeros_like(x))

    def test_line_boundary_mass_is_zero(self):
        g = LineGrid.make(-10, 10, 128)
        psi = gaussian_line_state(g, sigma=0.5)
        assert psi.boundary_mass() == 0.0

    def test_interior_state_boundary_mass_small(self):
        g = So3Grid.make(32, 48)
        psi = so3_gaussian_state(g, sigma=0.3)
        assert psi.boundary_mass() < 1e-12

    def test_seam_hugging_state_boundary_mass_large(self):
        g = So3Grid.make(32, 48)
        psi = so3_gaussian_state(g, center=(0.0, 0.0, 2.9), sigma=0.35)
        assert psi.boundary_mass() > 1e-3
