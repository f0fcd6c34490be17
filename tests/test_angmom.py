import numpy as np
import pytest

from molrest.angmom import (
    MAX_INERTIA_COND,
    build_inertia,
    decompose_angmom,
    inertia_at,
    mode_sum,
    pd_bound,
    relative_angmom,
)
from molrest.errors import EckartViolationError, SingularInertiaError
from molrest.frames import (Configuration, analyze, com_split, extract_internal, reconstruct,
                            solve_eckart, to_rest)
from molrest.modes import ModeBasis, build_modes, verify_eckart


def test_i0_matches_hand_value(square):
    basis = build_modes(square, rng=0)
    model = build_inertia(square, basis)
    assert np.allclose(model.i0, np.diag([2.0, 2.0, 4.0]), atol=1e-12)


@pytest.mark.parametrize("fixture", ["water", "penta"])
def test_coupling_tensors_symmetric(fixture, request):
    mol = request.getfixturevalue(fixture)
    basis = build_modes(mol, rng=1)
    model = build_inertia(mol, basis)
    asym = np.max(np.abs(model.i_alpha - np.transpose(model.i_alpha, (0, 2, 1))))
    assert asym <= 1e-10 * np.trace(model.i0)
    assert model.i_alpha.shape == (basis.n_modes, 3, 3)


def test_broken_basis_fails_symmetry_assertion(water):
    basis = build_modes(water, rng=2)
    rot_dir = np.sqrt(water.masses)[:, None] * np.cross(np.array([0.0, 0.0, 1.0]),
                                                        water.positions)
    rot_dir /= np.linalg.norm(rot_dir)
    bad_x = basis.x.copy()
    bad_x[:, 0, :] += 0.1 * rot_dir
    broken = ModeBasis(x=bad_x, x_dual=basis.x_dual)
    with pytest.raises(EckartViolationError) as err:
        build_inertia(water, broken)
    assert err.value.residual > 1e-3


def test_violation_carries_the_relative_rotation_residual(penta):
    basis = build_modes(penta, rng=4)
    rng = np.random.default_rng(11)
    broken = ModeBasis(x=basis.x + 0.01 * rng.normal(size=basis.x.shape), x_dual=basis.x_dual)
    with pytest.raises(EckartViolationError) as err:
        build_inertia(penta, broken)
    assert err.value.residual == verify_eckart(penta, broken).rotation


def test_zero_basis_gives_zero_coupling(square):
    basis = build_modes(square, rng=3)
    silent = ModeBasis(x=np.zeros_like(basis.x), x_dual=np.zeros_like(basis.x_dual))
    model = build_inertia(square, silent)
    assert np.allclose(model.i_alpha, 0.0)


def test_inertia_at_affine(penta):
    basis = build_modes(penta, rng=4)
    model = build_inertia(penta, basis)
    assert np.allclose(inertia_at(model, np.zeros(basis.n_modes)), model.i0)
    e2 = np.zeros(basis.n_modes)
    e2[2] = 0.37
    assert np.allclose(inertia_at(model, e2), model.i0 + 0.37 * model.i_alpha[2], atol=1e-14)
    rng = np.random.default_rng(5)
    q1 = rng.normal(size=basis.n_modes)
    q2 = rng.normal(size=basis.n_modes)
    lhs = inertia_at(model, q1 + q2)
    rhs = inertia_at(model, q1) + inertia_at(model, q2) - model.i0
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.trace(model.i0)
    with pytest.raises(ValueError):
        inertia_at(model, np.zeros(2))


def test_inertia_positive_definite_inside_bound(penta):
    basis = build_modes(penta, rng=6)
    model = build_inertia(penta, basis)
    radius = pd_bound(model)
    assert radius > 0
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = rng.normal(size=basis.n_modes)
        q *= 0.99 * radius / np.linalg.norm(q)
        evals = np.linalg.eigvalsh(inertia_at(model, q))
        assert evals[0] > 0
        assert evals[-1] / MAX_INERTIA_COND <= evals[0]  # extract_internal inverts it


def test_inertia_checked_mode_reports_loss(water):
    basis = build_modes(water, rng=8)
    model = build_inertia(water, basis)
    alpha = int(np.argmax(np.linalg.norm(model.i_alpha, axis=(1, 2))))
    q = np.zeros(basis.n_modes)
    q[alpha] = 1.0
    t = 1.0
    while np.linalg.eigvalsh(inertia_at(model, t * q))[0] > 0:
        t *= 2.0
        assert t < 1e8
    # the rest configuration whose mode amplitudes are t q
    pos = water.positions + mode_sum(t * q, basis.x) / np.sqrt(water.masses)[:, None]
    rest = Configuration(pos, np.zeros_like(pos), np.zeros((water.electron_count, 3)),
                         np.zeros((water.electron_count, 3)))
    frame = solve_eckart(water, water.positions)
    with pytest.raises(SingularInertiaError, match="frame 0"):
        extract_internal(water, basis, frame, rest)


def test_relative_angmom_basics():
    cfg = Configuration(
        nuclei_positions=np.array([[2.0, 0.0, 0.0]]),
        nuclei_momenta=np.array([[0.0, 3.0, 0.0]]),
    )
    assert np.allclose(relative_angmom(cfg), [0.0, 0.0, 6.0])
    silent = Configuration(
        nuclei_positions=np.array([[2.0, 0.0, 0.0]]),
        nuclei_momenta=np.zeros((1, 3)),
    )
    assert np.allclose(relative_angmom(silent), 0.0)


def test_relative_angmom_matches_bruteforce(penta):
    rng = np.random.default_rng(9)
    cfg = Configuration(
        nuclei_positions=rng.normal(size=(5, 3)),
        nuclei_momenta=rng.normal(size=(5, 3)),
        electron_positions=rng.normal(size=(4, 3)),
        electron_momenta=rng.normal(size=(4, 3)),
    )
    expected = np.zeros(3)
    for r, p in zip(cfg.nuclei_positions, cfg.nuclei_momenta):
        expected += np.cross(r, p)
    for r, p in zip(cfg.electron_positions, cfg.electron_momenta):
        expected += np.cross(r, p)
    assert np.allclose(relative_angmom(cfg), expected, atol=1e-12)


def test_rest_angmom_equivariance(penta):
    rng = np.random.default_rng(10)
    cfg = Configuration(
        nuclei_positions=penta.positions + rng.normal(scale=0.05, size=(5, 3)),
        nuclei_momenta=rng.normal(scale=0.3, size=(5, 3)),
        electron_positions=rng.normal(size=(4, 3)),
        electron_momenta=rng.normal(scale=0.2, size=(4, 3)),
    )
    com, mom, rel = com_split(penta, cfg)
    from molrest.frames import solve_eckart

    frame = solve_eckart(penta, rel.nuclei_positions)
    rest = to_rest(frame, rel)
    assert np.allclose(relative_angmom(rest), frame.rotation.T @ relative_angmom(rel),
                       atol=1e-12)


def test_decompose_rigid_rotation(penta):
    basis = build_modes(penta, rng=11)
    model = build_inertia(penta, basis)
    omega0 = np.array([0.5, 0.1, -0.3])
    cfg = Configuration(
        nuclei_positions=penta.positions,
        nuclei_momenta=np.cross(omega0, penta.masses[:, None] * penta.positions),
        electron_positions=np.zeros((4, 3)),
        electron_momenta=np.zeros((4, 3)),
    )
    state = analyze(penta, basis, cfg)
    rotational, deformation, electronic = decompose_angmom(model, basis, state)
    assert np.allclose(deformation, 0.0, atol=1e-12)
    assert np.allclose(electronic, 0.0, atol=1e-12)
    assert np.allclose(rotational, model.i0 @ omega0, atol=1e-10)


def test_decompose_zero_displacement_kills_deformation(penta):
    basis = build_modes(penta, rng=12)
    model = build_inertia(penta, basis)
    mom = np.sqrt(penta.masses)[:, None] * basis.x_dual[:, 1, :] * 0.4
    cfg = Configuration(
        nuclei_positions=penta.positions,
        nuclei_momenta=mom,
        electron_positions=np.zeros((4, 3)),
        electron_momenta=np.zeros((4, 3)),
    )
    state = analyze(penta, basis, cfg)
    _, deformation, _ = decompose_angmom(model, basis, state)
    assert np.allclose(deformation, 0.0, atol=1e-12)


@pytest.mark.parametrize("fixture", ["water", "penta"])
def test_decompose_sums_to_rest_angmom(fixture, request):
    mol = request.getfixturevalue(fixture)
    basis = build_modes(mol, rng=13)
    model = build_inertia(mol, basis)
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = mol.electron_count
        cfg = Configuration(
            nuclei_positions=mol.positions + rng.normal(scale=0.08, size=mol.positions.shape),
            nuclei_momenta=rng.normal(scale=0.4, size=mol.positions.shape),
            electron_positions=rng.normal(size=(n, 3)),
            electron_momenta=rng.normal(scale=0.3, size=(n, 3)),
        )
        state = analyze(mol, basis, cfg)
        parts = decompose_angmom(model, basis, state)
        back = reconstruct(mol, basis, state)
        _, _, rel = com_split(mol, back)
        rest = to_rest(state.frame, rel)
        total = relative_angmom(rest)
        assert np.max(np.abs(sum(parts) - total)) <= 1e-9
        assert np.allclose(sum(parts), state.angular_momentum, atol=1e-9)
