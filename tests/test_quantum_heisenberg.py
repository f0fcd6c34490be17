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

from molrest.errors import GridError
from molrest.quantum import (
    BOUNDARY_MASS_TOL,
    GridWavefunction,
    LineGrid,
    So3Grid,
    angmom_op,
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
        with pytest.raises(GridError):
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
        for kind in ("vibrational", "electronic"):
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


class TestRecordsAgainstPairLoop:
    """The column-built records against the per-pair loop they replace."""

    @pytest.mark.parametrize("hbar, tolerance", [(1.0, None), (2.5, 1e-14)])
    def test_vibrational(self, line, hbar, tolerance):
        rng = np.random.default_rng(31)
        states = [oscillator_state(line, 0)] + [random_line_state(line, rng, hbar=hbar)
                                                for _ in range(4)]
        tol = 1e-6 * hbar if tolerance is None else tolerance
        deltas_p = [dispersion(s, momentum_op(s, hbar=hbar, order=4)) for s in states]
        deltas_q = [dispersion(s, position_op(s)) for s in states]
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
        expected = reference_rows([a for a, _ in labels],
                                  [dispersion(s, momentum_op(s, order=4)) for s in flat],
                                  [b for _, b in labels],
                                  [dispersion(s, position_op(s)) for s in flat],
                                  0.5, 1e-6, 0.0)
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

    def test_one_check_per_state(self, line, ball, norm_calls):
        rng = np.random.default_rng(4)
        modes = [random_line_state(line, rng) for _ in range(2)]
        triple = [random_line_state(line, rng) for _ in range(3)]
        orientations = [random_so3_state(ball, rng) for _ in range(2)]
        norm_calls.clear()
        for states, kind, checked in ((modes, "vibrational", modes),
                                      ([triple], "electronic", triple),
                                      (orientations, "rotational", orientations)):
            heisenberg_suite(states, kind)
            assert [id(s) for s in norm_calls] == [id(s) for s in checked]
            norm_calls.clear()

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
