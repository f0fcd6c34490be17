"""Dispersions and uncertainty-product suites against analytic oracles.

Oscillator eigenstates give exact products (n + 1/2) hbar; coherent
displacement must leave dispersions untouched; the small-width wrapped
gaussian approaches the flat-space saturating pair on the rotation
group.  Violation reporting is exercised with an artificially tight
tolerance so the false verdict path is covered without weakening any
physics.
"""

import weakref

import numpy as np
import pytest

from molrest.errors import BoundaryMassError, GridError
from molrest.quantum import (
    BOUNDARY_MASS_TOL,
    GridWavefunction,
    LineGrid,
    So3Grid,
    angmom_op,
    commutator_residuals,
    dispersion,
    gaussian_line_state,
    heisenberg_suite,
    momentum_op,
    oscillator_state,
    position_op,
    random_line_state,
    random_so3_state,
    so3_gaussian_state,
)
from molrest.quantum import heisenberg
from molrest.quantum.heisenberg import _line_kernel


@pytest.fixture(scope="module")
def line():
    return LineGrid.make(-10.0, 10.0, 2048)


@pytest.fixture(scope="module")
def ball():
    return So3Grid.make(64, 128)


class TestDispersion:
    def test_ground_state_saturates(self, line):
        psi = oscillator_state(line, 0)
        dq = dispersion(psi, position_op(psi))
        dp = dispersion(psi, momentum_op(psi))
        assert abs(dq - np.sqrt(0.5)) <= 1e-8
        assert abs(dp - np.sqrt(0.5)) <= 1e-8
        assert abs(dq * dp - 0.5) <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_eigenstate_products(self, line, n):
        psi = oscillator_state(line, n)
        prod = dispersion(psi, position_op(psi)) * dispersion(psi, momentum_op(psi))
        assert abs(prod - (n + 0.5)) <= 1e-4

    def test_coherent_displacement_invariance(self, line):
        base = gaussian_line_state(line, center=0.0, sigma=np.sqrt(0.5))
        moved = gaussian_line_state(line, center=1.8, sigma=np.sqrt(0.5), momentum=0.9)
        for op in (position_op, momentum_op):
            assert abs(dispersion(base, op(base)) - dispersion(moved, op(moved))) <= 1e-6

    def test_gaussian_width_read_off(self, line):
        psi = gaussian_line_state(line, center=0.4, sigma=0.35)
        assert abs(dispersion(psi, position_op(psi)) - 0.35) <= 1e-9
        assert abs(dispersion(psi, momentum_op(psi)) - 0.5 / 0.35) <= 1e-6

    def test_requires_normalized_state(self, line):
        psi = gaussian_line_state(line)
        bad = GridWavefunction(grid=line, amplitudes=2.0 * psi.amplitudes)
        with pytest.raises(GridError):
            dispersion(bad, position_op(bad))

    def test_identity_operator_dispersion_tiny(self, line):
        # variance is pure rounding noise; sqrt turns 1e-16 into 1e-8
        psi = gaussian_line_state(line, sigma=0.8)
        assert dispersion(psi, psi) <= 1e-7

    def test_rounding_band_clamps_to_zero(self):
        # norm slightly above 1 makes the identity-operator variance
        # land just below zero: s - s^2 = -1e-13, inside the clamp band
        pts = np.linspace(0.0, 63.0, 64)
        weights = np.zeros(64)
        weights[0], weights[1] = 0.5, 0.5 + 1e-13
        grid = LineGrid(points=pts, step=1.0, weights=weights)
        amps = np.zeros(64, dtype=complex)
        amps[0] = amps[1] = 1.0
        psi = GridWavefunction(grid=grid, amplitudes=amps)
        assert dispersion(psi, psi) == 0.0

    @pytest.mark.parametrize("center", [0.0, 1.5])
    def test_variance_beyond_float_range_rejected(self, line, center):
        # <A^2> overflows to inf; off centre <A>^2 overflows as well
        psi = gaussian_line_state(line, center=center)
        huge = GridWavefunction(grid=line, amplitudes=1e160 * position_op(psi).amplitudes)
        with pytest.raises(GridError, match="dispersion"):
            dispersion(psi, huge)

    def test_variance_below_float_range_rejected(self, line):
        # ||A psi||^2 underflows to a subnormal: a scale failure, not a zero dispersion
        psi = gaussian_line_state(line)
        tiny = GridWavefunction(grid=line, amplitudes=1e-160 * position_op(psi).amplitudes)
        with pytest.raises(GridError, match="dispersion out of float range"):
            dispersion(psi, tiny)
        # an A psi that is exactly zero still has dispersion 0
        zero = GridWavefunction(grid=line, amplitudes=np.zeros(line.size))
        assert dispersion(psi, zero) == 0.0

    def test_indefinite_quadrature_detected(self):
        # a hand-built sign-indefinite weight vector breaks Cauchy-Schwarz
        pts = np.linspace(0.0, 1.0, 64)
        weights = np.zeros(64)
        weights[0], weights[1] = 2.0, -1.0
        grid = LineGrid(points=pts, step=pts[1] - pts[0], weights=weights)
        amps = np.zeros(64, dtype=complex)
        amps[0] = amps[1] = 1.0
        psi = GridWavefunction(grid=grid, amplitudes=amps)
        with pytest.raises(GridError, match="quadrature failure"):
            dispersion(psi, position_op(psi))

    def test_sign_flipped_weights_are_a_quadrature_failure(self, line):
        # weights negated left of the origin: a state centred right of it still
        # normalizes, but its position variance comes out negative
        weights = np.where(line.points < 0.0, -line.weights, line.weights)
        flipped = LineGrid(points=line.points, step=line.step, weights=weights)
        psi = GridWavefunction.normalized(flipped, gaussian_line_state(line, center=1.0).amplitudes)
        with pytest.raises(GridError, match="quadrature failure"):
            dispersion(psi, position_op(psi))


class TestVibrationalSuite:
    def test_ground_state_saturation_row(self, line):
        rows = heisenberg_suite([oscillator_state(line, 0)], "vibrational")
        assert len(rows) == 1
        r = rows[0]
        assert r.satisfied is True
        assert abs(r.product - 0.5) <= 1e-6
        assert r.bound == 0.5
        assert r.boundary_mass == 0.0

    def test_cross_mode_bounds_zero(self, line):
        states = [oscillator_state(line, n) for n in range(3)]
        rows = heisenberg_suite(states, "vibrational")
        assert len(rows) == 9
        for r in rows:
            same = r.observable_a[2:] == r.observable_b[2:]
            assert r.bound == (0.5 if same else 0.0)
            assert r.satisfied is True

    def test_product_equals_factor_product(self, line):
        rows = heisenberg_suite([oscillator_state(line, 2)], "vibrational")
        r = rows[0]
        assert abs(r.product - r.delta_a * r.delta_b) <= 1e-12

    def test_random_family_all_satisfied(self, line):
        rng = np.random.default_rng(17)
        states = [random_line_state(line, rng) for _ in range(12)]
        rows = heisenberg_suite(states, "vibrational")
        assert len(rows) == 144
        assert all(r.satisfied for r in rows)

    def test_tight_tolerance_reports_violation(self, line):
        # quadrature puts the ground product a hair under hbar/2; with a
        # sub-rounding tolerance that must surface as satisfied=False,
        # not get dropped
        rows = heisenberg_suite([oscillator_state(line, 0)], "vibrational",
                                tolerance=1e-14)
        assert rows[0].satisfied is False

    def test_hbar_scales_bound(self, line):
        psi = gaussian_line_state(line, sigma=0.5)
        rows = heisenberg_suite([psi], "vibrational", hbar=3.0)
        assert rows[0].bound == 1.5
        assert rows[0].satisfied is True

    def test_empty_set_rejected(self):
        with pytest.raises(GridError):
            heisenberg_suite([], "vibrational")

    def test_wrong_grid_kind_rejected(self, ball):
        with pytest.raises(GridError):
            heisenberg_suite([so3_gaussian_state(ball, sigma=0.3)], "vibrational")


class TestElectronicSuite:
    def test_cross_electron_bounds_exactly_zero(self, line):
        rng = np.random.default_rng(3)
        groups = [[random_line_state(line, rng) for _ in range(3)] for _ in range(2)]
        rows = heisenberg_suite(groups, "electronic")
        assert len(rows) == 36
        for r in rows:
            nu_a = r.observable_a.split(")")[0]
            nu_b = r.observable_b.split(")")[0]
            comp_a = r.observable_a[-1]
            comp_b = r.observable_b[-1]
            if nu_a.replace("p_(", "") != nu_b.replace("q_(", "") or comp_a != comp_b:
                assert r.bound == 0.0
            else:
                assert r.bound == 0.5
            assert r.satisfied is True

    def test_same_pair_count(self, line):
        rng = np.random.default_rng(8)
        groups = [[random_line_state(line, rng) for _ in range(3)] for _ in range(3)]
        rows = heisenberg_suite(groups, "electronic")
        assert sum(1 for r in rows if r.bound > 0) == 9

    def test_malformed_group_rejected(self, line):
        with pytest.raises(GridError):
            heisenberg_suite([[gaussian_line_state(line)] * 2], "electronic")


def drawn(line, rng, n, refs, released):
    """n seeded random line states, made one per request.

    Before each draw it appends to ``released`` whether every state it
    made so far (``refs`` may be shared between generators) is gone.
    """
    for _ in range(n):
        released.append(all(ref() is None for ref in refs))
        psi = random_line_state(line, rng)
        refs.append(weakref.ref(psi))
        yield psi
        del psi


def streamed(line, kind, seed, n_states, released):
    """The states of ``listed(line, kind, seed, n_states)``, drawn as they are asked for."""
    rng, refs = np.random.default_rng(seed), []
    if kind == "vibrational":
        return drawn(line, rng, n_states, refs, released)
    return (drawn(line, rng, 3, refs, released) for _ in range(n_states // 3))


def listed(line, kind, seed, n_states):
    states = list(drawn(line, np.random.default_rng(seed), n_states, [], []))
    if kind == "vibrational":
        return states
    return [states[i:i + 3] for i in range(0, n_states, 3)]


class TestStreamedLineStates:
    @pytest.mark.parametrize("kind", ["vibrational", "electronic"])
    def test_generator_gives_the_rows_of_a_list(self, line, kind):
        rows = heisenberg_suite(streamed(line, kind, 21, 6, []), kind)
        assert len(rows) == 36
        assert rows.tolist() == heisenberg_suite(listed(line, kind, 21, 6), kind).tolist()

    @pytest.mark.parametrize("kind", ["vibrational", "electronic"])
    def test_each_state_is_released_before_the_next_draw(self, line, kind):
        released = []
        heisenberg_suite(streamed(line, kind, 22, 9, released), kind)
        assert released == [True] * 9

    def test_empty_generator_rejected(self, line):
        for kind in ("vibrational", "electronic", "rotational"):
            with pytest.raises(GridError, match="empty state set"):
                heisenberg_suite(iter(()), kind)

    @pytest.mark.parametrize("size", [0, 2, 4])
    def test_generated_group_that_is_no_triple_rejected(self, line, size):
        groups = (iter([gaussian_line_state(line)] * n) for n in (3, size))
        with pytest.raises(GridError, match="one triple per electron"):
            heisenberg_suite(groups, "electronic")

    def test_generated_state_off_the_line_rejected(self, line, ball):
        wrong = so3_gaussian_state(ball, sigma=0.3)
        with pytest.raises(GridError, match="vibrational checks need LineGrid states"):
            heisenberg_suite(iter([gaussian_line_state(line), wrong]), "vibrational")
        group = iter([gaussian_line_state(line), wrong, gaussian_line_state(line)])
        with pytest.raises(GridError, match="electronic checks need LineGrid states"):
            heisenberg_suite(iter([group]), "electronic")
        with pytest.raises(GridError, match="^rotational checks need So3Grid states$"):
            heisenberg_suite([wrong, gaussian_line_state(line)], "rotational")


class TestRotationalSuite:
    def test_small_width_saturation(self, ball):
        rows = heisenberg_suite([so3_gaussian_state(ball, sigma=0.1)], "rotational")
        assert len(rows) == 9
        for r in rows:
            assert r.satisfied is True
            if r.bound > 0:
                assert r.product >= 0.5 - 1e-6
                assert abs(r.product - 0.5) <= 0.05 * 0.5
            else:
                assert r.bound == 0.0

    def test_boundary_mass_recorded(self, ball):
        psi = so3_gaussian_state(ball, sigma=0.25)
        rows = heisenberg_suite([psi], "rotational")
        for r in rows:
            assert r.boundary_mass == psi.boundary_mass()

    def test_seam_state_indeterminate(self, ball):
        wide = so3_gaussian_state(ball, center=(0.0, 0.0, 1.2), sigma=0.6)
        rows = heisenberg_suite([wide], "rotational")
        assert wide.boundary_mass() >= 1e-8
        assert all(r.satisfied is None for r in rows)
        assert all(r.boundary_mass > 0 for r in rows)

    def test_random_family_satisfied(self, ball):
        rng = np.random.default_rng(11)
        states = [random_so3_state(ball, rng) for _ in range(6)]
        rows = heisenberg_suite(states, "rotational")
        assert len(rows) == 54
        assert all(r.satisfied for r in rows)

    def test_unknown_kind_rejected(self, line):
        with pytest.raises(GridError):
            heisenberg_suite([gaussian_line_state(line)], "spin")


def reference_rows(labels_a, deltas_a, labels_b, deltas_b, half, tolerance, boundary_mass):
    """The suite's rows as a loop over (a, b) pairs, one tuple of fields per pair."""
    gated = boundary_mass >= BOUNDARY_MASS_TOL
    rows = []
    for ia, (la, da) in enumerate(zip(labels_a, deltas_a)):
        for ib, (lb, db) in enumerate(zip(labels_b, deltas_b)):
            bound = half if ia == ib else 0.0
            product = da * db
            satisfied = None if gated else bool(bound - product <= tolerance)
            rows.append((la, lb, float(da), float(db), float(product), float(bound),
                         satisfied, float(boundary_mass)))
    return rows


def assert_rows_are(rows, expected):
    """Every column of ``rows`` equal to the reference's, floats bit for bit."""
    assert len(rows) == len(expected)
    for k, name in enumerate(rows.dtype.names):
        want = [row[k] for row in expected]
        if rows.dtype[name].kind == "f":
            got = rows[name].view(np.int64)
            assert np.array_equal(got, np.array(want, dtype=float).view(np.int64)), name
        elif name == "satisfied":
            assert all(g is w for g, w in zip(rows[name], want)), name
        else:
            assert rows[name].tolist() == want, name


class TestLineKernel:
    """The suite's one-pass line kernel against ``dispersion`` of the public operators."""

    @pytest.mark.parametrize("n", [64, 1000, 16384])
    def test_agrees_with_the_operators(self, n):
        # 18 states per grid, 6 per hbar.  Their phases are drawn at hbar = 1, below every
        # grid's Nyquist wavenumber; the operators act at each hbar.  (A phase k / hbar past
        # it makes the momentum variance a small difference of large sums, which both paths
        # round to about 1e-12.)
        grid = LineGrid.make(-10.0, 10.0, n)
        rng = np.random.default_rng(40 + n)
        for hbar in (1.0, 0.37, 1e-2):
            kernel = _line_kernel(grid, hbar)
            for s in [random_line_state(grid, rng) for _ in range(6)]:
                d_p, d_q = kernel(s)
                want_p = dispersion(s, momentum_op(s, hbar=hbar))
                want_q = dispersion(s, position_op(s))
                assert abs(d_p - want_p) <= 1e-13 * want_p
                assert abs(d_q - want_q) <= 1e-13 * want_q

    def test_gates_in_the_operators_order(self, line):
        psi = gaussian_line_state(line)
        wide = GridWavefunction(grid=line,
                                amplitudes=2.0 * gaussian_line_state(line, sigma=3.0).amplitudes)
        kernel = _line_kernel(line, 1.0)
        with pytest.raises(BoundaryMassError, match="insufficient decay at grid ends"):
            kernel(wide)  # unnormalized as well: the decay gate comes first
        with pytest.raises(GridError, match="dispersion needs a normalized state"):
            kernel(GridWavefunction(grid=line, amplitudes=2.0 * psi.amplitudes))
        with pytest.raises(GridError, match="dispersion out of float range"):
            _line_kernel(line, 1e-300)(psi)  # <P^2> underflows while P psi is not zero


class TestRecordsAgainstPairLoop:
    """The column-built records against the per-pair loop they replace.

    The deltas fed to the loop are the line kernel's own, so the records
    must match bit for bit; ``TestLineKernel`` ties those deltas to the
    public operators.
    """

    @pytest.mark.parametrize("hbar, tolerance", [(1.0, None), (2.5, 1e-14)])
    def test_vibrational(self, line, hbar, tolerance):
        rng = np.random.default_rng(31)
        states = [oscillator_state(line, 0)] + [random_line_state(line, rng, hbar=hbar)
                                                for _ in range(4)]
        tol = 1e-6 * hbar if tolerance is None else tolerance
        deltas_p, deltas_q = zip(*map(_line_kernel(line, hbar), states))
        expected = reference_rows([f"P_{i}" for i in range(1, 6)], deltas_p,
                                  [f"Q^{i}" for i in range(1, 6)], deltas_q,
                                  0.5 * hbar, tol, 0.0)
        rows = heisenberg_suite(states, "vibrational", hbar=hbar, tolerance=tolerance)
        assert_rows_are(rows, expected)
        if tolerance is not None:  # the saturated ground state fails a sub-rounding tolerance
            assert rows[0].satisfied is False

    def test_electronic(self, line):
        rng = np.random.default_rng(32)
        groups = [[random_line_state(line, rng) for _ in range(3)] for _ in range(2)]
        flat = [s for g in groups for s in g]
        labels = [(f"p_({nu})_{j}", f"q_({nu})^{j}") for nu in (1, 2) for j in (1, 2, 3)]
        deltas_p, deltas_q = zip(*map(_line_kernel(line, 1.0), flat))
        expected = reference_rows([a for a, _ in labels], deltas_p,
                                  [b for _, b in labels], deltas_q, 0.5, 1e-6, 0.0)
        assert_rows_are(heisenberg_suite(groups, "electronic"), expected)

    def test_rotational_with_a_gated_state(self, ball):
        states = [so3_gaussian_state(ball, sigma=0.1),
                  so3_gaussian_state(ball, center=(0.0, 0.0, 1.2), sigma=0.6)]
        assert states[0].boundary_mass() < BOUNDARY_MASS_TOL <= states[1].boundary_mass()
        expected = []
        for idx, s in enumerate(states, start=1):
            l_psi = angmom_op(s)
            expected += reference_rows([f"n_({j}).L[{idx}]" for j in (1, 2, 3)],
                                       [dispersion(s, a) for a in l_psi],
                                       [f"omega^{k}[{idx}]" for k in (1, 2, 3)],
                                       [dispersion(s, position_op(s, component=k))
                                        for k in range(3)],
                                       0.5, 1e-6, s.boundary_mass())
        rows = heisenberg_suite(states, "rotational")
        assert isinstance(rows, np.recarray)
        assert_rows_are(rows, expected)
        assert [r.satisfied for r in rows[9:]] == [None] * 9


class TestReportShape:
    def test_fields_and_their_kinds(self, line, ball):
        # the CLI's heisenberg rows table is built from these fields
        for rows in (heisenberg_suite([oscillator_state(line, 1)], "vibrational"),
                     heisenberg_suite([so3_gaussian_state(ball, sigma=0.1)], "rotational")):
            assert isinstance(rows, np.recarray)
            assert rows.dtype.names == (
                "observable_a", "observable_b", "delta_a", "delta_b",
                "product", "bound", "satisfied", "boundary_mass",
            )
            assert [rows.dtype[k].kind for k in range(8)] == ["U", "U"] + ["f"] * 4 + ["O", "f"]
            assert all(rows.dtype[k].itemsize == 8 for k in (2, 3, 4, 5, 7))
            assert all(type(v) is bool for v in rows["satisfied"])
            assert rows[0].satisfied is True


class TestArguments:
    @pytest.mark.parametrize("hbar, tolerance", [
        (1.0, float("nan")), (1.0, float("inf")), (1.0, 0.0), (1.0, -1e-6),
        (-1.0, 1e-6), (0.0, 1e-6), (float("nan"), 1e-6), (float("inf"), 1e-6),
        (-1.0, None), (float("nan"), None),
        # a bool, an int past the float range and a string are no positive float
        (1.0, True), pytest.param(1.0, 10**400, id="1.0-10**400"), (1.0, "1e-6"),
        (True, 1e-6), pytest.param(10**400, None, id="10**400-None"), ("1", None),
    ])
    def test_hbar_and_tolerance_must_be_positive_and_finite(self, line, hbar, tolerance):
        psi = oscillator_state(line, 0)
        with pytest.raises(GridError, match="must be positive and finite"):
            heisenberg_suite([psi], "vibrational", hbar=hbar, tolerance=tolerance)


class TestNormalizationChecks:
    """The suite checks each state's norm once; ``dispersion`` checks it per call."""

    @pytest.fixture
    def norm_calls(self, monkeypatch):
        calls = []
        norm = GridWavefunction.norm

        def counted(psi):
            calls.append(psi)
            return norm(psi)

        monkeypatch.setattr(GridWavefunction, "norm", counted)
        return calls

    @pytest.fixture
    def gate_calls(self, monkeypatch):
        calls = []
        gate = heisenberg._gate_norm

        def counted(norm):
            calls.append(norm)
            return gate(norm)

        monkeypatch.setattr(heisenberg, "_gate_norm", counted)
        return calls

    def test_one_check_per_state(self, line, ball, gate_calls):
        # state i is scaled by 1 + i 1e-9, inside the gate, so the gated norms
        # name the states they were taken from
        rng = np.random.default_rng(4)

        def scaled(states):
            return [GridWavefunction(grid=s.grid, amplitudes=(1.0 + i * 1e-9) * s.amplitudes,
                                     profile=s.profile) for i, s in enumerate(states)]

        modes = scaled(random_line_state(line, rng) for _ in range(2))
        triple = scaled(random_line_state(line, rng) for _ in range(3))
        orientations = scaled(random_so3_state(ball, rng) for _ in range(2))
        for states, kind, checked in ((modes, "vibrational", modes),
                                      ([triple], "electronic", triple),
                                      (orientations, "rotational", orientations)):
            gate_calls.clear()
            heisenberg_suite(states, kind)
            assert len(gate_calls) == len(checked)
            for norm, s in zip(gate_calls, checked):
                assert abs(norm - s.norm()) <= 4e-16  # a few ulp of 1, against 1e-9 apart

    def test_direct_call_still_checks(self, line, norm_calls):
        psi = gaussian_line_state(line)
        norm_calls.clear()
        dispersion(psi, position_op(psi))
        assert norm_calls == [psi]

    @pytest.mark.parametrize("kind", ["vibrational", "electronic", "rotational"])
    def test_unnormalized_state_rejected(self, line, ball, kind):
        if kind == "rotational":
            psi = so3_gaussian_state(ball, sigma=0.3)
        else:
            psi = gaussian_line_state(line)
        bad = GridWavefunction(grid=psi.grid, amplitudes=2.0 * psi.amplitudes,
                               profile=psi.profile)
        states = [[psi, bad, psi]] if kind == "electronic" else [psi, bad]
        with pytest.raises(GridError, match="dispersion needs a normalized state"):
            heisenberg_suite(states, kind)


class TestGateEdges:
    """Each gate with one input just inside its threshold and one just outside."""

    @pytest.mark.parametrize("node", [1, -1])
    def test_edge_decay(self, line, node):
        # |psi| at an outer node against 1e-8 of the peak (rho against 1e-16)
        psi = gaussian_line_state(line)
        peak = np.abs(psi.amplitudes).max()
        for ratio, passes in ((0.5e-8, True), (2e-8, False)):
            amps = psi.amplitudes.copy()
            amps[node] = ratio * peak
            edged = GridWavefunction(grid=line, amplitudes=amps)
            if passes:
                momentum_op(edged)
            else:
                with pytest.raises(BoundaryMassError, match="insufficient decay"):
                    momentum_op(edged)

    @pytest.mark.parametrize("call", [
        lambda psi: dispersion(psi, position_op(psi)),
        lambda psi: heisenberg_suite([psi], "vibrational"),  # the line kernel's sqrt(sum w rho)
    ], ids=["dispersion", "vibrational"])
    def test_normalization(self, line, call):
        psi = gaussian_line_state(line)
        for excess, passes in ((0.5e-8, True), (2e-8, False)):
            scaled = GridWavefunction(grid=line, amplitudes=(1.0 + excess) * psi.amplitudes)
            if passes:
                call(scaled)
            else:
                with pytest.raises(GridError, match="dispersion needs a normalized state"):
                    call(scaled)

    def test_variance_clamp(self):
        # the identity operator on a norm^2 = 1 + eps state: variance (1 + eps) - (1 + eps)^2
        pts = np.linspace(0.0, 63.0, 64)
        amps = np.zeros(64, dtype=complex)
        amps[0] = amps[1] = 1.0
        for eps, passes in ((0.5e-12, True), (2e-12, False)):
            weights = np.zeros(64)
            weights[0], weights[1] = 0.5, 0.5 + eps
            psi = GridWavefunction(grid=LineGrid(points=pts, step=1.0, weights=weights),
                                   amplitudes=amps)
            if passes:
                assert dispersion(psi, psi) == 0.0
            else:
                with pytest.raises(GridError, match="quadrature failure: variance -2.000e-12"):
                    dispersion(psi, psi)

    def test_seam_mass(self, ball):
        # a gaussian moved toward the seam until its seam mass is 0.5e-8, then 2e-8
        for center, passes in ((1.312, True), (1.385, False)):
            psi = so3_gaussian_state(ball, center=(0.0, 0.0, center), sigma=0.3)
            ratio = psi.boundary_mass() / BOUNDARY_MASS_TOL
            assert 0.49 < ratio < 0.51 if passes else 1.98 < ratio < 2.0
            verdicts = {r.satisfied for r in heisenberg_suite([psi], "rotational")}
            if passes:
                commutator_residuals(psi, np.diag([1.0, 2.0, 3.0]))
                assert verdicts <= {True, False}
            else:
                with pytest.raises(BoundaryMassError, match="boundary mass 1.987e-08 >= 1e-08"):
                    commutator_residuals(psi, np.diag([1.0, 2.0, 3.0]))
                assert verdicts == {None}

    def test_verdict_tolerance(self):
        # a gaussian two steps wide on 64 points: the stencil puts its product a
        # definite gap below hbar/2, read off once and then set against the tolerance
        psi = gaussian_line_state(LineGrid.make(-10.0, 10.0, 64), sigma=0.5)
        row = heisenberg_suite([psi], "vibrational", tolerance=1.0)[0]
        gap = float(row.bound - row.product)
        assert gap > 1e-4
        assert heisenberg_suite([psi], "vibrational", tolerance=2.0 * gap)[0].satisfied is True
        assert heisenberg_suite([psi], "vibrational", tolerance=0.5 * gap)[0].satisfied is False
