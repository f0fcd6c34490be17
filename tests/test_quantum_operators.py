"""Operator realizations and canonical commutator residuals.

Line derivatives are checked against analytic gaussian moments and a
step-refinement truncation oracle; orientation operators against the
frame duality (n- and m-contractions must invert each other node by
node) and parity cancellations on the antipodally symmetric grid.
"""

import numpy as np
import pytest

from molrest.errors import BoundaryMassError, GridError, SingularInertiaError
from molrest.lie_so3 import SERIES_SWITCH, frame_fields, killing_frame, log_density_gradient
from molrest.quantum import (
    GridWavefunction,
    LineGrid,
    So3Grid,
    angmom_op,
    angvel_commutator_check,
    body_commutator_residuals,
    chart_commutator_residuals,
    commutator_residuals,
    dispersion,
    gaussian_line_state,
    heisenberg_suite,
    line_commutator_residual,
    momentum_op,
    oscillator_state,
    position_op,
    random_line_state,
    so3_gaussian_state,
    wrap_to_ball,
)
from molrest.quantum.operators import ORIENTATION_STEP, _chart_sweep


@pytest.fixture(scope="module")
def line():
    return LineGrid.make(-10.0, 10.0, 2048)


@pytest.fixture(scope="module")
def ball():
    return So3Grid.make(64, 128)


@pytest.fixture(scope="module")
def interior(ball):
    return so3_gaussian_state(ball, center=(0.1, -0.1, 0.05), sigma=0.45,
                              wave=(0.8, -1.2, 0.4))


def commutator_step(psi):
    """The chart step of the commutator checks, min(shell spacing, 0.02)."""
    return min(psi.grid.radial_step, 0.02)


def chart_residual_field(psi, hbar):
    """[n_(j).L, w^k] psi + i hbar delta_jk psi at every node, index [j, k], from the
    commutator checks' sweep without their seam gate."""
    d_psi, d_xpsi = _chart_sweep(psi, commutator_step(psi), True)
    comm = -1j * hbar * d_xpsi - psi.grid.nodes.T * (-1j * hbar * d_psi)[:, None, :]
    return comm + 1j * hbar * np.eye(3)[:, :, None] * psi.amplitudes


def body_components(m, chart):
    """L_k psi = sum_j m[:, j, k] D_j psi, k = 0, 1, 2, from the chart components D_j psi."""
    return [sum(m[:, j, k] * chart[j] for j in range(3)) for k in range(3)]


def expectation(psi, op_psi):
    return complex(np.sum(psi.weights * np.conj(psi.amplitudes) * op_psi.amplitudes))


class TestPositionOp:
    def test_constant_state_centered(self, line):
        flat = GridWavefunction.from_profile(line, lambda x: np.ones_like(x) + 0.0j)
        assert abs(expectation(flat, position_op(flat))) <= 1e-12

    def test_delta_like_peak_localizes(self, line):
        x0 = float(line.points[1411])
        for sigma, tol in ((0.2, 1e-8), (0.05, 1e-10)):
            psi = gaussian_line_state(line, center=x0, sigma=sigma)
            assert abs(expectation(psi, position_op(psi)).real - x0) <= tol

    def test_orientation_component_parity(self, ball):
        psi = so3_gaussian_state(ball, sigma=0.3)
        for k in range(3):
            assert abs(expectation(psi, position_op(psi, component=k))) <= 1e-14

    @pytest.mark.parametrize("component", [2.9, -0.5, True, 3, None])
    def test_component_validation(self, line, ball, component):
        # a whole number in range, never truncated: 2.9 is not omega^3 nor -0.5 omega^1
        for psi in (gaussian_line_state(line), so3_gaussian_state(ball, sigma=0.3)):
            with pytest.raises(GridError, match="component"):
                position_op(psi, component=component)

    def test_integer_components_accepted(self, line, ball):
        psi = so3_gaussian_state(ball, sigma=0.3)
        assert np.array_equal(position_op(psi, component=np.int64(2)).amplitudes,
                              ball.nodes[:, 2] * psi.amplitudes)
        flat = gaussian_line_state(line)
        assert np.array_equal(position_op(flat, component=np.int64(0)).amplitudes,
                              line.points * flat.amplitudes)


class TestMomentumOp:
    def test_plane_wave_momentum(self, line):
        for k in (-2.3, 0.7, 1.9):
            psi = gaussian_line_state(line, center=0.2, sigma=0.8, momentum=k)
            assert abs(expectation(psi, momentum_op(psi)).real - k) <= 1e-4

    def test_real_state_zero_momentum(self, line):
        psi = gaussian_line_state(line, center=-0.4, sigma=0.9)
        assert abs(expectation(psi, momentum_op(psi))) <= 1e-12

    def test_hbar_scaling(self, line):
        psi = gaussian_line_state(line, momentum=1.0)
        a1 = momentum_op(psi, hbar=1.0).amplitudes
        a2 = momentum_op(psi, hbar=2.0).amplitudes
        assert np.abs(a2 - 2.0 * a1).max() <= 1e-14

    def test_insufficient_decay_rejected(self, line):
        wide = GridWavefunction.from_profile(line, lambda x: np.exp(-0.01 * x**2) + 0.0j)
        with pytest.raises(BoundaryMassError):
            momentum_op(wide)

    def test_bad_order_rejected(self, line):
        with pytest.raises(GridError):
            momentum_op(gaussian_line_state(line), order=3)

    def test_needs_line_grid(self, ball):
        with pytest.raises(GridError):
            momentum_op(so3_gaussian_state(ball, sigma=0.3))

    def test_fourth_order_derivative_oracle(self, line):
        # exact derivative of the gaussian profile
        psi = gaussian_line_state(line, center=0.3, sigma=0.7)
        x = line.points
        exact = -1j * (-(x - 0.3) / (2 * 0.7**2)) * psi.amplitudes
        got = momentum_op(psi, order=4).amplitudes
        assert np.abs(got - exact).max() <= 5e-9 * np.abs(psi.amplitudes).max()


class TestLineCommutator:
    def test_canonical_residual_small(self):
        g = LineGrid.make(-10, 10, 16384)
        psi = gaussian_line_state(g, center=0.2, sigma=1.0, momentum=0.5)
        assert line_commutator_residual(psi, order=2) <= 1e-6

    def test_second_order_convergence(self):
        residuals = []
        for n in (8192, 16384, 32768):
            g = LineGrid.make(-10, 10, n)
            psi = gaussian_line_state(g, center=0.2, sigma=1.0, momentum=0.5)
            residuals.append(line_commutator_residual(psi, order=2))
        orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        for p in orders:
            assert 1.8 <= p <= 2.2

    def test_fourth_order_stencil_much_smaller(self, line):
        psi = gaussian_line_state(line, center=0.2, sigma=1.0)
        assert line_commutator_residual(psi, order=4) <= 1e-7


class TestFrameFields:
    def test_matches_single_point_frame(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(20, 3))
        pts *= (rng.uniform(0.01, 2.9, size=20) / np.linalg.norm(pts, axis=1))[:, None]
        n, m = frame_fields(pts)
        for i, w in enumerate(pts):
            fr = killing_frame(w)
            assert np.abs(n[i] - fr.n).max() <= 1e-12
            assert np.abs(m[i] - fr.m).max() <= 1e-12

    def test_duality_per_node(self, ball):
        n, m = frame_fields(ball.nodes)
        eye = np.broadcast_to(np.eye(3), n.shape)
        assert np.abs(n @ m - eye).max() <= 1e-10

    def test_small_angle_branch_continuous(self):
        # straddle the series switch with a window tight enough that the
        # genuine frame variation is negligible against the tolerance
        eps = SERIES_SWITCH
        lo = frame_fields(np.array([[eps * (1 - 5e-8), 0.0, 0.0]]))
        hi = frame_fields(np.array([[eps * (1 + 5e-8), 0.0, 0.0]]))
        assert np.abs(lo[0] - hi[0]).max() <= 1e-10
        assert np.abs(lo[1] - hi[1]).max() <= 1e-10


class TestAngmomOp:
    def test_requires_profile(self, ball, interior):
        bare = GridWavefunction(grid=ball, amplitudes=interior.amplitudes)
        with pytest.raises(GridError):
            angmom_op(bare)

    def test_needs_so3_grid(self, line):
        # rejected before the commutator step reads the ball's shell spacing
        psi = gaussian_line_state(line)
        with pytest.raises(GridError):
            angmom_op(psi)
        with pytest.raises(GridError):
            chart_commutator_residuals(psi)

    def test_no_seam_gate(self, ball):
        # the dispersion suite marks such a state indeterminate instead
        seam = so3_gaussian_state(ball, center=(0.0, 0.0, 2.8), sigma=0.3)
        assert seam.boundary_mass() >= 1e-8
        assert all(np.isfinite(l_psi.amplitudes).all() for l_psi in angmom_op(seam))

    def test_parity_zero_mean(self, ball):
        psi = so3_gaussian_state(ball, sigma=0.4)
        for l_psi in angmom_op(psi):
            assert abs(expectation(psi, l_psi)) <= 1e-13

    def test_plane_wave_eigenvalue(self, ball):
        # exp(i a.w) is an eigenfunction of -i d/dw^j with eigenvalue a_j
        a = np.array([0.9, -0.4, 0.6])
        psi = so3_gaussian_state(ball, sigma=0.45, wave=a)
        norms = np.linalg.norm(ball.nodes, axis=1)
        core = norms < 1.5
        drift = 0.5 * log_density_gradient(ball.nodes)
        for j, l_psi in enumerate(angmom_op(psi)):
            dpsi = l_psi.amplitudes
            # envelope contributes the radial derivative and the Haar
            # symmetrization its drift; compare against the analytic
            # derivative of the full profile plus the drift instead
            d = norms
            env_term = -d / (2 * 0.45**2)
            exact = -1j * (env_term * (ball.nodes[:, j] / np.where(d > 0, d, 1.0))
                           + 1j * a[j] + drift[:, j]) * psi.amplitudes
            err = np.abs(dpsi - exact)[core].max() / np.abs(psi.amplitudes).max()
            assert err <= 1e-6

    def test_duality_recovers_chart_derivative(self, ball, interior):
        # the body components L_k = sum_j m[j, k] D_j, contracted back with
        # n, must reproduce D_j = -i hbar d/dw^j exactly
        n, m = frame_fields(ball.nodes)
        d_parts = [d_psi.amplitudes for d_psi in angmom_op(interior)]
        l_parts = body_components(m, d_parts)
        for j, direct in enumerate(d_parts):
            recombined = sum(n[:, k, j] * l_parts[k] for k in range(3))
            assert np.abs(recombined - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_symmetrized_variant_hermitian(self, ball):
        p1 = so3_gaussian_state(ball, center=(0.1, 0.0, -0.1), sigma=0.35, wave=(0.5, -0.3, 0.2))
        p2 = so3_gaussian_state(ball, center=(-0.05, 0.15, 0.0), sigma=0.3, wave=(-0.4, 0.6, 0.1))
        w = ball.haar_weights
        # the plain chart derivative -i d/dw^j at the same step, without the Haar drift
        plain_1, plain_2 = (-1j * _chart_sweep(p, ORIENTATION_STEP, False)[0] for p in (p1, p2))
        sym_1, sym_2 = angmom_op(p1), angmom_op(p2)
        for j in range(3):
            plain_a1 = plain_1[j]
            plain_a2 = plain_2[j]
            sym_a1 = sym_1[j].amplitudes
            sym_a2 = sym_2[j].amplitudes
            plain = abs(np.sum(w * np.conj(p2.amplitudes) * plain_a1)
                        - np.sum(w * np.conj(plain_a2) * p1.amplitudes))
            sym = abs(np.sum(w * np.conj(p2.amplitudes) * sym_a1)
                      - np.sum(w * np.conj(sym_a2) * p1.amplitudes))
            assert sym <= 1e-6
            assert sym <= 1e-3 * plain


class TestChartCommutators:
    def test_residuals_within_tolerance(self, interior):
        res = chart_commutator_residuals(interior)
        assert res.max() <= 1e-5

    def test_family_of_interior_states(self, ball):
        rng = np.random.default_rng(21)
        for _ in range(5):
            u = rng.normal(size=3)
            c = u / np.linalg.norm(u) * rng.uniform(0.0, 0.12)
            psi = so3_gaussian_state(ball, center=c, sigma=rng.uniform(0.38, 0.45),
                                     wave=rng.uniform(-1.2, 1.2, size=3))
            assert chart_commutator_residuals(psi).max() <= 1e-5

    def test_seam_error_without_exclusion(self, ball):
        # the coordinate function jumps by 2 pi across the seam even for
        # a smooth state; the chart residual over every node, seam shells
        # included, must expose it
        seam = so3_gaussian_state(ball, center=(0.0, 0.0, 2.8), sigma=0.3)
        res = np.abs(chart_residual_field(seam, 1.0)).max(axis=-1) / np.abs(seam.amplitudes).max()
        assert res.max() > 1e-2

    def test_gate_respected(self, ball):
        seam = so3_gaussian_state(ball, center=(0.0, 0.0, 2.8), sigma=0.3)
        with pytest.raises(BoundaryMassError):
            chart_commutator_residuals(seam)


class TestBodyCommutators:
    def test_residuals_within_tolerance(self, interior):
        assert body_commutator_residuals(interior).max() <= 1e-5

    def test_matches_chart_form_through_duality(self, interior):
        # both forms derive from the same stencil; tolerances agree
        chart = chart_commutator_residuals(interior)
        body = body_commutator_residuals(interior)
        assert body.max() <= 10.0 * chart.max()


class TestContractionIdentity:
    """The body and angular-velocity tables read off the chart residual
    field equal the commutators formed from body components
    L_k = sum_j m[j, k] D_j of the plain chart derivative at the same step."""

    @pytest.fixture(scope="class")
    def small(self):
        return so3_gaussian_state(So3Grid.make(24, 48), center=(0.1, -0.1, 0.05), sigma=0.45,
                                  wave=(0.8, -1.2, 0.4))

    @pytest.mark.parametrize("hbar", [1.0, 0.37])
    def test_tables_from_body_operator(self, small, hbar):
        psi, nodes = small, small.grid.nodes
        _, m = frame_fields(nodes)
        i0 = np.array([[1.0, 0.2, 0.0], [0.2, 2.0, -0.1], [0.0, -0.1, 3.0]])
        i0_inv = np.linalg.inv(i0)

        def body_op(state):
            chart = -1j * hbar * _chart_sweep(state, commutator_step(state), False)[0]
            return body_components(m, chart)

        l_psi = body_op(psi)
        comm = np.empty((3, 3, psi.grid.size), dtype=complex)  # [L_k, w^j] psi at [k, j]
        for j in range(3):
            w_psi = GridWavefunction(grid=psi.grid, amplitudes=nodes[:, j] * psi.amplitudes,
                                     profile=lambda p, j=j: p[..., j] * psi.profile(p))
            l_w_psi = body_op(w_psi)
            for k in range(3):
                comm[k, j] = l_w_psi[k] - nodes[:, j] * l_psi[k]
        body = comm + 1j * hbar * m.T * psi.amplitudes  # m.T[k, j] = m[:, j, k]
        # [Omega^j, w^k] psi + i hbar (I0^-1 m^(k))^j psi at [k, j], Omega = I0^-1 L
        angvel = (np.einsum("jl,lkn->kjn", i0_inv, comm)
                  + 1j * hbar * np.einsum("jl,nkl->kjn", i0_inv, m) * psi.amplitudes)
        interior = ~psi.grid.seam_mask
        scale = hbar * np.abs(psi.amplitudes).max()
        for field, got in ((body, body_commutator_residuals(psi, hbar=hbar)),
                           (angvel, commutator_residuals(psi, i0, hbar=hbar)[2])):
            want = np.abs(field[..., interior]).max(axis=-1) / scale
            assert np.all(np.abs(want - got) <= 1e-8 * got)

    def test_chart_table_is_the_chart_check(self, small):
        chart, _, _ = commutator_residuals(small, np.eye(3))
        assert np.array_equal(chart, chart_commutator_residuals(small))


class TestEmptyInterior:
    """Seam shells over every node leave no node to check: an error, not a residual of 0."""

    @staticmethod
    def hand_built(off_seam_shells):
        """The 16 x 32 ball with a shell spacing that puts all but ``off_seam_shells``
        shells in its seam mask, and Haar weight only off the seam, so that
        the state passes the seam-mass gate."""
        g = So3Grid.make(16, 32)
        edge = np.pi * off_seam_shells / 16  # the seam starts here: pi - 2 radial_step
        weights = np.where(np.linalg.norm(g.nodes, axis=1) > edge, 0.0, g.haar_weights)
        grid = So3Grid(nodes=g.nodes, haar_weights=weights, radial_step=0.5 * (np.pi - edge),
                       n_theta=16, n_dirs=g.n_dirs)
        psi = so3_gaussian_state(g, sigma=0.3)
        return GridWavefunction(grid=grid, amplitudes=psi.amplitudes, profile=psi.profile)

    @pytest.mark.parametrize("call", [
        lambda psi: commutator_residuals(psi, np.eye(3)),
        chart_commutator_residuals,
        body_commutator_residuals,
        lambda psi: angvel_commutator_check(np.eye(3), psi),
    ], ids=["commutator_residuals", "chart_commutator_residuals", "body_commutator_residuals",
            "angvel_commutator_check"])
    def test_all_shells_excluded(self, call):
        innermost = self.hand_built(1)
        assert np.count_nonzero(~innermost.grid.seam_mask) == innermost.grid.n_dirs
        assert np.all(np.asarray(call(innermost)) > 0.0)  # the innermost shell is still checked
        nothing = self.hand_built(0)
        assert nothing.grid.seam_mask.all() and nothing.boundary_mass() == 0.0
        with pytest.raises(GridError, match="leaves no node"):
            call(nothing)


class TestAngvelCommutator:
    def test_identity_inertia_reduces_to_body_check(self, interior):
        body = body_commutator_residuals(interior)
        reduced = angvel_commutator_check(np.eye(3), interior)
        assert abs(reduced - body.max()) <= 1e-12

    def test_anisotropic_inertia_residual(self, interior):
        assert angvel_commutator_check(np.diag([1.0, 2.0, 3.0]), interior) <= 1e-4

    def test_singular_inertia_rejected(self, interior):
        with pytest.raises(SingularInertiaError):
            angvel_commutator_check(np.diag([1.0, 2.0, 0.0]), interior)

    def test_wrong_shape_rejected(self, interior):
        with pytest.raises(SingularInertiaError):
            angvel_commutator_check(np.eye(2), interior)

    def test_nonsymmetric_inertia_rejected(self, interior):
        # positive-definite symmetric part, but an inertia tensor is symmetric
        i0 = np.array([[1.0, 3.0, 0.0], [-3.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(SingularInertiaError):
            angvel_commutator_check(i0, interior)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("check", [commutator_residuals,
                                       lambda psi, i0: angvel_commutator_check(i0, psi)],
                             ids=["residuals", "angvel"])
    def test_non_finite_inertia_named(self, interior, check, value):
        # named before the symmetry gate, whose inf - inf would warn, and before
        # eigvalsh, which reads a NaN matrix as a wrong spectrum
        i0 = np.diag([value, 1.0, 1.0])
        with pytest.raises(SingularInertiaError,
                           match=r"^equilibrium inertia not finite: \[\[(inf|nan), 0\.0"):
            check(interior, i0)

    @pytest.mark.parametrize("factor, symmetric", [(0.5, True), (2.0, False)])
    def test_inertia_symmetry_gate_edge(self, interior, factor, symmetric):
        # one off-diagonal entry raised by factor times the gate, 1e-12 of the largest
        i0 = np.diag([1.0, 2.0, 3.0])
        i0[0, 1] += factor * 1e-12 * 3.0
        if symmetric:
            assert len(commutator_residuals(interior, i0)) == 3
        else:
            with pytest.raises(SingularInertiaError, match="^equilibrium inertia not symmetric"):
                commutator_residuals(interior, i0)


def counting(psi):
    """psi with a profile that records the shape of every evaluation."""
    seen = []

    def profile(pts):
        seen.append(pts.shape)
        return psi.profile(pts)

    return GridWavefunction(grid=psi.grid, amplitudes=psi.amplitudes, profile=profile), seen


class TestStencilSweep:
    @pytest.mark.parametrize("check", ["chart", "body", "angvel", "residuals", "angmom_op"])
    def test_profile_evaluations_per_check(self, interior, check):
        # one sweep: each stencil offset along each direction is evaluated once
        psi, seen = counting(interior)
        if check == "chart":
            chart_commutator_residuals(psi)
        elif check == "body":
            body_commutator_residuals(psi)
        elif check == "angvel":
            angvel_commutator_check(np.diag([1.0, 2.0, 3.0]), psi)
        elif check == "residuals":
            assert len(commutator_residuals(psi, np.diag([1.0, 2.0, 3.0]))) == 3
        else:
            assert len(angmom_op(psi)) == 3
        assert len(seen) == 12
        assert all(shape == interior.grid.nodes.shape for shape in seen)

    @pytest.mark.parametrize("shape", [(16, 32), (64, 128), (256, 32)], ids=str)
    def test_profile_sees_the_wrapped_stencil_points(self, shape):
        # only near-seam nodes go through wrap_to_ball, yet every point is the one
        # wrap_to_ball gives for the whole stencil row, bit for bit
        grid = So3Grid.make(*shape)
        state = so3_gaussian_state(grid, sigma=0.3)
        wrapped = 0
        for step in (ORIENTATION_STEP, min(grid.radial_step, 0.02), grid.radial_step):
            seen = []

            def profile(pts, seen=seen):
                seen.append(pts.copy())
                return state.profile(pts)

            psi = GridWavefunction(grid=grid, amplitudes=state.amplitudes, profile=profile)
            _chart_sweep(psi, step, False)
            assert len(seen) == 12
            for got, (j, off) in zip(seen, [(j, off) for j in range(3) for off in (-2, -1, 1, 2)]):
                raw = grid.nodes + (off * step) * np.eye(3)[j]
                want = wrap_to_ball(raw)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                wrapped += int(np.count_nonzero((want != raw).any(axis=1)))
        assert wrapped > 0  # every ball has points past pi at its radial step

    def test_profile_evaluations_per_rotational_state(self, interior):
        # the rotational dispersion suite differentiates each state once
        counted = [counting(interior), counting(interior)]
        rows = heisenberg_suite([psi for psi, _ in counted], "rotational")
        assert len(rows) == 18
        assert [len(seen) for _, seen in counted] == [12, 12]


# a bool, an int past the float range and a string are no positive float either
BAD_HBARS = [-1.0, 0.0, float("nan"), float("inf"), True, pytest.param(10**400, id="10**400"),
             "1"]


class TestHbarChecked:
    """Every operator rejects an hbar that is not positive and finite.

    A negative hbar gave a negative residual that passed every
    ``res <= tol`` check, and 0 gave nan.
    """

    @pytest.mark.parametrize("hbar", BAD_HBARS)
    @pytest.mark.parametrize("call", [
        lambda psi, hbar: momentum_op(psi, hbar=hbar),
        lambda psi, hbar: line_commutator_residual(psi, hbar=hbar),
    ], ids=["momentum_op", "line_commutator_residual"])
    def test_line_operators(self, line, call, hbar):
        psi = gaussian_line_state(line)
        with pytest.raises(GridError, match="hbar must be positive and finite"):
            call(psi, hbar)

    @pytest.mark.parametrize("hbar", BAD_HBARS)
    @pytest.mark.parametrize("call", [
        lambda psi, hbar: angmom_op(psi, hbar=hbar),
        lambda psi, hbar: commutator_residuals(psi, np.eye(3), hbar=hbar),
        lambda psi, hbar: chart_commutator_residuals(psi, hbar=hbar),
        lambda psi, hbar: body_commutator_residuals(psi, hbar=hbar),
        lambda psi, hbar: angvel_commutator_check(np.eye(3), psi, hbar=hbar),
    ], ids=["angmom_op", "commutator_residuals",
            "chart_commutator_residuals", "body_commutator_residuals",
            "angvel_commutator_check"])
    def test_orientation_operators(self, interior, call, hbar):
        psi, seen = counting(interior)
        with pytest.raises(GridError, match="hbar must be positive and finite"):
            call(psi, hbar)
        assert seen == []  # rejected before the stencil sweep


def _with_node(psi, node, value):
    """psi with amplitude ``node`` replaced by ``value``, profile kept."""
    amps = psi.amplitudes.copy()
    amps[node] = value
    return GridWavefunction(grid=psi.grid, amplitudes=amps, profile=psi.profile)


NON_FINITE_NODES = [(500, np.nan), (-1, np.inf)]  # an interior NaN, an inf at an end


class TestNonFiniteAmplitudes:
    """A NaN or inf amplitude is a GridError before any arithmetic warns on it."""

    @pytest.mark.parametrize("node,value", NON_FINITE_NODES, ids=["nan", "inf"])
    @pytest.mark.parametrize("call", [
        momentum_op,
        line_commutator_residual,
        lambda psi: dispersion(psi, psi),
        lambda psi: heisenberg_suite([psi], "vibrational"),
        lambda psi: heisenberg_suite([[psi, psi, psi]], "electronic"),
    ], ids=["momentum_op", "line_commutator_residual", "dispersion", "vibrational",
            "electronic"])
    def test_line_state(self, call, node, value):
        bad = _with_node(gaussian_line_state(LineGrid.make(-10.0, 10.0, 1024)), node, value)
        with pytest.raises(GridError, match="non-finite|normalized state, got norm (nan|inf)"):
            call(bad)

    @pytest.mark.parametrize("node,value", NON_FINITE_NODES, ids=["nan", "inf"])
    @pytest.mark.parametrize("call", [
        lambda psi: commutator_residuals(psi, np.eye(3)),
        lambda psi: heisenberg_suite([psi], "rotational"),
    ], ids=["commutator_residuals", "rotational"])
    def test_orientation_state(self, interior, call, node, value):
        bad, seen = counting(_with_node(interior, node, value))
        with pytest.raises(GridError, match="non-finite|normalized state, got norm (nan|inf)"):
            call(bad)
        assert seen == []  # rejected before the stencil sweep

    def test_line_gate_names_the_amplitudes(self):
        bad = _with_node(gaussian_line_state(LineGrid.make(-10.0, 10.0, 1024)), 500, np.nan)
        with pytest.raises(GridError, match=r"non-finite amplitudes: peak \|psi\|\^2 = nan"):
            momentum_op(bad)


def _scaled(factor):
    grid = LineGrid.make(-10.0, 10.0, 1024)
    return GridWavefunction(grid=grid, amplitudes=factor * gaussian_line_state(grid).amplitudes)


class TestOverflowingAmplitudes:
    """Finite amplitudes whose |psi|^2 leaves the float range are a GridError that
    says so, not a numpy overflow warning or a report of non-finite amplitudes."""

    @pytest.mark.parametrize("call", [
        momentum_op,
        line_commutator_residual,
        lambda psi: heisenberg_suite([psi], "vibrational"),
        lambda psi: heisenberg_suite([[psi, psi, psi]], "electronic"),
    ], ids=["momentum_op", "line_commutator_residual", "vibrational", "electronic"])
    def test_squared_amplitudes_overflow(self, call):
        psi = _scaled(1e160)
        assert np.isfinite(psi.amplitudes).all()
        with pytest.raises(GridError, match=r"^\|psi\|\^2 past the float range: "
                                            r"max \|psi\| = 6\.316e\+159$"):
            call(psi)

    @pytest.mark.parametrize("call, factor", [
        (lambda psi: dispersion(psi, psi), 1.5e154),
        (lambda psi: dispersion(psi, psi), 1e160),
        (lambda psi: heisenberg_suite([psi], "vibrational"), 1.5e154),
    ], ids=["dispersion", "dispersion-1e160", "vibrational"])
    def test_norm_overflows(self, call, factor):
        # at 1.5e154 |psi|^2 is finite at every node but its weighted sum is not;
        # dispersion checks the norm first, so it says the same at 1e160
        with pytest.raises(GridError, match="normalized state, got norm inf"):
            call(_scaled(factor))


def _padded_momentum(psi, order, hbar):
    """-i hbar d/dx as written with np.pad before ``central_difference`` replaced it."""
    pad = np.pad(psi.amplitudes, (2, 2))
    if order == 2:
        deriv = (pad[3:-1] - pad[1:-3]) / (2 * psi.grid.step)
    else:
        deriv = pad[:-4] - 8 * pad[1:-3]
        deriv += 8 * pad[3:-1]
        deriv -= pad[4:]
        deriv /= 12 * psi.grid.step
    return -1j * hbar * deriv


class TestStencilBits:
    """``momentum_op`` equals the zero-padded formula bit for bit, signed zeros included."""

    @pytest.mark.parametrize("n", [64, 65, 1000, 16384])
    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_the_padded_formula(self, n, order):
        grid = LineGrid.make(-10.0, 10.0, n)
        rng = np.random.default_rng(n)
        gauss = gaussian_line_state(grid, center=0.3, sigma=0.9, momentum=0.7)
        # zeros of both signs on the six outermost nodes of each end, laid out so that
        # both orders put a -0.0 among the three outermost output nodes of each end
        amps = gauss.amplitudes.copy()
        amps[:6] = [complex(re, im) for re, im in
                    ((-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0), (0.0, 0.0))]
        amps[-6:] = amps[5::-1]
        signed = GridWavefunction(grid=grid, amplitudes=amps)
        for psi in (gauss, signed, random_line_state(grid, rng)):
            for hbar in (1.0, 0.37):
                got = momentum_op(psi, hbar=hbar, order=order).amplitudes
                want = _padded_momentum(psi, order, hbar)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
        out = momentum_op(signed, order=order).amplitudes
        for end in (out[:3].view(float), out[-3:].view(float)):
            assert (np.signbit(end) & (end == 0.0)).any()  # a -0.0 reaches each end
