import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from molrest import frames
from molrest.errors import EckartSolveError, SchemaError, SingularInertiaError
from molrest.frames import (
    BLOCKS,
    Configuration,
    a_matrix,
    analyze,
    com_split,
    extract_internal,
    load_trajectory,
    reconstruct,
    solve_eckart,
    to_rest,
    write_trajectory,
)
from molrest.lie_so3 import exp_map, quaternion_form
from molrest.modes import build_modes
from molrest.molecule import Molecule, prepare_equilibrium


def random_rotation(rng, max_angle=np.pi - 0.1):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return exp_map(axis * rng.uniform(0.0, max_angle))


def random_config(mol, rng, disp=0.1, mom=0.4, com=2.0, boost=0.5):
    n = mol.electron_count
    return Configuration(
        nuclei_positions=mol.positions + rng.normal(scale=disp, size=(mol.n_nuclei, 3))
        + rng.normal(scale=com, size=3),
        nuclei_momenta=rng.normal(scale=mom, size=(mol.n_nuclei, 3))
        + np.outer(mol.masses, rng.normal(scale=boost, size=3)),
        electron_positions=rng.normal(scale=1.5, size=(n, 3)),
        electron_momenta=rng.normal(scale=0.2, size=(n, 3)),
    )


# --- center of mass ---------------------------------------------------------


def test_com_split_zeroes_weighted_sums(penta):
    rng = np.random.default_rng(0)
    cfg = random_config(penta, rng)
    com, mom, rel = com_split(penta, cfg)
    weighted = penta.masses @ rel.nuclei_positions + \
        penta.electron_mass * rel.electron_positions.sum(axis=0)
    assert np.allclose(weighted, 0.0, atol=1e-10)
    assert np.allclose(rel.nuclei_momenta.sum(axis=0) + rel.electron_momenta.sum(axis=0),
                       0.0, atol=1e-10)
    assert np.allclose(mom, cfg.nuclei_momenta.sum(axis=0) + cfg.electron_momenta.sum(axis=0))


def test_com_split_single_nucleus():
    mol = Molecule(masses=np.array([5.0]), positions=np.array([[1.0, 2.0, 3.0]]))
    cfg = Configuration(
        nuclei_positions=np.array([[4.0, 5.0, 6.0]]),
        nuclei_momenta=np.array([[1.0, -1.0, 0.5]]),
    )
    com, mom, rel = com_split(mol, cfg)
    assert np.allclose(com, [4.0, 5.0, 6.0])
    assert np.allclose(mom, [1.0, -1.0, 0.5])
    assert np.allclose(rel.nuclei_positions, 0.0)
    assert np.allclose(rel.nuclei_momenta, 0.0, atol=1e-15)


def test_com_split_boost_and_translation_invariance(penta):
    rng = np.random.default_rng(1)
    cfg = random_config(penta, rng)
    shift = np.array([10.0, -3.0, 7.0])
    velocity = np.array([0.8, 0.2, -0.5])
    moved = Configuration(
        nuclei_positions=cfg.nuclei_positions + shift,
        nuclei_momenta=cfg.nuclei_momenta + np.outer(penta.masses, velocity),
        electron_positions=cfg.electron_positions + shift,
        electron_momenta=cfg.electron_momenta + penta.electron_mass * velocity,
    )
    _, _, rel = com_split(penta, cfg)
    _, _, rel2 = com_split(penta, moved)
    assert np.allclose(rel2.nuclei_positions, rel.nuclei_positions, atol=1e-12)
    assert np.allclose(rel2.nuclei_momenta, rel.nuclei_momenta, atol=1e-12)
    assert np.allclose(rel2.electron_positions, rel.electron_positions, atol=1e-12)
    assert np.allclose(rel2.electron_momenta, rel.electron_momenta, atol=1e-12)


def test_com_split_validates_shapes(penta):
    cfg = Configuration(nuclei_positions=np.zeros((2, 3)), nuclei_momenta=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        com_split(penta, cfg)


@pytest.mark.filterwarnings("error")
def test_com_split_names_the_first_frame_past_the_float_range(water):
    # finite inputs: frame 1's center of mass overflows; frame 2's is finite,
    # but nucleus 1's position relative to it is not
    rng = np.random.default_rng(7)
    frames_ = [random_config(water, rng) for _ in range(3)]
    frames_[1] = replace(frames_[1], nuclei_positions=np.full((3, 3), 1.5e308))
    apart = np.zeros((3, 3))
    apart[:, 0] = [-5.6e306, 1.79e308, -1.79e308]
    assert np.isfinite(water.masses @ apart).all()
    frames_[2] = replace(frames_[2], nuclei_positions=apart)
    message = (r"^center-of-mass split failed at frame {}: its center of mass, momentum or "
               r"relative data are not finite$")
    with pytest.raises(EckartSolveError, match=message.format(1)):
        com_split(water, Configuration.stack(frames_))
    for i in (1, 2):
        with pytest.raises(EckartSolveError, match=message.format(0)):
            com_split(water, frames_[i])


def test_com_split_names_missing_electrons(water):
    cfg = Configuration(nuclei_positions=np.zeros((3, 3)), nuclei_momenta=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="configuration has 0 electrons, molecule defines 2"):
        com_split(water, cfg)


# --- orientation solve ------------------------------------------------------


def test_solve_eckart_recovers_rigid_rotation(penta):
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = random_rotation(rng)
        frame = solve_eckart(penta, penta.positions @ s.T)
        assert np.max(np.abs(frame.rotation - s)) <= 1e-9
        assert not frame.degenerate
        assert frame.residual <= 1e-10 * np.sum(
            penta.masses * np.linalg.norm(penta.positions, axis=1) ** 2)


def test_solve_eckart_residual_on_perturbed_configs(penta):
    rng = np.random.default_rng(3)
    scale = np.sum(penta.masses * np.linalg.norm(penta.positions, axis=1) ** 2)
    for _ in range(25):
        s = random_rotation(rng)
        pos = (penta.positions + rng.normal(scale=0.08, size=penta.positions.shape)) @ s.T
        frame = solve_eckart(penta, pos)
        body = pos @ frame.rotation
        residual = np.einsum("m,mk->k", penta.masses, np.cross(penta.positions, body))
        assert np.linalg.norm(residual) <= 1e-10 * scale
        assert np.isclose(frame.residual, np.linalg.norm(residual))


def test_solve_eckart_equivariance(penta):
    rng = np.random.default_rng(4)
    pos = penta.positions + rng.normal(scale=0.05, size=penta.positions.shape)
    frame = solve_eckart(penta, pos)
    for _ in range(10):
        t = random_rotation(rng)
        moved = solve_eckart(penta, pos @ t.T)
        assert np.max(np.abs(moved.rotation - t @ frame.rotation)) <= 1e-9


def test_solve_eckart_orientation_consistent(penta):
    rng = np.random.default_rng(5)
    pos = penta.positions + rng.normal(scale=0.03, size=penta.positions.shape)
    frame = solve_eckart(penta, pos)
    assert np.allclose(exp_map(frame.orientation), frame.rotation, atol=1e-12)


def test_solve_eckart_flags_degeneracy(penta):
    # Rank-1 attitude profile: any rotation about e_z is optimal.
    heights = penta.positions @ np.array([0.0, 0.0, 1.0])
    collinear = np.outer(heights, np.array([0.0, 0.0, 1.0]))
    frame = solve_eckart(penta, collinear)
    assert frame.degenerate


@pytest.mark.parametrize("ratio, degenerate", [(4e-10, True), (6e-10, False)])
def test_solve_eckart_degeneracy_gap_edge(ratio, degenerate):
    # masses 16, 1, 1 at (0, 0, 0) and (+-1, h, 0): the second planar moment is
    # 8 h^2 / 9 of the first, and the equilibrium frame's relative quaternion gap
    # twice that, either side of the gate at 1e-9
    h = np.sqrt(9.0 * ratio / 8.0)
    mol = prepare_equilibrium(Molecule(masses=np.array([16.0, 1.0, 1.0]),
                                       positions=np.array([[0.0, 0.0, 0.0], [1.0, h, 0.0],
                                                           [-1.0, h, 0.0]]),
                                       electron_count=0))
    assert build_modes(mol, rng=0).n_modes == 3
    evals = np.linalg.eigvalsh(quaternion_form(
        np.einsum("m,mi,mj->ij", mol.masses, mol.positions, mol.positions)))
    assert (evals[3] - evals[2]) / evals[3] == pytest.approx(2.0 * ratio, rel=1e-6)
    assert solve_eckart(mol, mol.positions).degenerate == degenerate


def test_solve_eckart_requires_prepared(water_raw):
    with pytest.raises(ValueError):
        solve_eckart(water_raw, water_raw.positions)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3,), (1, 1, 3, 3)])
def test_solve_eckart_rejects_misshapen_positions(water, shape):
    with pytest.raises(ValueError, match=r"^positions must have shape \(3, 3\) or \(T, 3, 3\)$"):
        solve_eckart(water, np.ones(shape))


@pytest.mark.filterwarnings("error")
def test_solve_eckart_fails_a_frame_whose_scale_overflows(water):
    # past 1.3e154 a squared length, and so the scale sum M |R0| |R'|, is
    # inf, and residual / scale would read a perfect 0
    stack = np.stack([1e150 * water.positions, 1e155 * water.positions, water.positions])
    with pytest.raises(EckartSolveError,
                       match=r"^orientation solve failed at frame 1: .*scale.* overflowed$"):
        solve_eckart(water, stack)
    with pytest.raises(EckartSolveError, match="at frame 0: .*overflowed"):
        solve_eckart(water, 1e155 * water.positions)


def test_solve_eckart_names_the_first_frame_off_its_condition(water, monkeypatch):
    # turning frame 1's optimal rotation by 0.1 rad leaves a residual far above 1e-8 of its scale
    optimal = frames.quaternion_to_matrix

    def turned(q):
        r = optimal(q).copy()
        r[1] = r[1] @ exp_map(np.array([0.0, 0.0, 0.1]))
        return r

    monkeypatch.setattr(frames, "quaternion_to_matrix", turned)
    with pytest.raises(EckartSolveError, match=r"^orientation solve failed at frame 1: residual "
                                               r"\S+ for scale \S+ \(relative \S+ > 1e-8\)$"):
        solve_eckart(water, np.stack([water.positions] * 3))


@pytest.mark.parametrize("delta", [5e-9, 2e-8])
def test_solve_eckart_relative_residual_edge(water, monkeypatch, delta):
    # the solved rotation turned by delta about the normal of the planar water
    # leaves a relative residual of delta, either side of the gate at 1e-8
    optimal = frames.quaternion_to_matrix
    turn = exp_map(np.array([0.0, 0.0, delta]))
    monkeypatch.setattr(frames, "quaternion_to_matrix", lambda q: optimal(q) @ turn)
    positions = water.positions @ exp_map(np.array([0.3, -0.2, 0.1])).T
    if delta < 1e-8:
        assert solve_eckart(water, positions).relative_residual == pytest.approx(delta, rel=1e-6)
    else:
        with pytest.raises(EckartSolveError, match=r"^orientation solve failed at frame 0: "
                                                   r"residual \S+ for scale \S+ "
                                                   r"\(relative 2\.000e-08 > 1e-8\)$"):
            solve_eckart(water, positions)


def test_to_rest_is_frame_transpose(penta):
    rng = np.random.default_rng(6)
    cfg = random_config(penta, rng)
    _, _, rel = com_split(penta, cfg)
    frame = solve_eckart(penta, rel.nuclei_positions)
    rest = to_rest(frame, rel)
    for mu in range(penta.n_nuclei):
        assert np.allclose(rest.nuclei_positions[mu],
                           frame.rotation.T @ rel.nuclei_positions[mu], atol=1e-13)


# --- electron mixing --------------------------------------------------------


def test_a_matrix_inverse_identity(penta):
    mix = a_matrix(penta)
    n = penta.electron_count
    assert np.max(np.abs(mix.a @ mix.a_inv - np.eye(n))) <= 1e-14
    s = np.sqrt(penta.nuclear_mass / penta.total_mass)
    assert np.allclose(mix.a.sum(axis=0), s, atol=1e-14)


def test_a_matrix_light_electron_limit(water):
    mix = a_matrix(water)
    m_ratio = water.electron_count * water.electron_mass / water.nuclear_mass
    assert np.max(np.abs(mix.a - np.eye(water.electron_count))) <= m_ratio


def test_a_matrix_no_electrons(square):
    mix = a_matrix(square)
    assert mix.a.shape == (0, 0)
    assert mix.a_inv.shape == (0, 0)


# --- extraction and reconstruction ------------------------------------------


def test_extract_reads_off_mode_displacement(penta):
    basis = build_modes(penta, rng=7)
    beta, c = 2, 0.07
    disp = c * basis.x[:, beta, :] / np.sqrt(penta.masses)[:, None]
    rest = Configuration(
        nuclei_positions=penta.positions + disp,
        nuclei_momenta=np.zeros_like(disp),
        electron_positions=np.zeros((penta.electron_count, 3)),
        electron_momenta=np.zeros((penta.electron_count, 3)),
    )
    frame = solve_eckart(penta, rest.nuclei_positions)
    state = extract_internal(penta, basis, frame, rest)
    expected = np.zeros(basis.n_modes)
    expected[beta] = c
    assert np.allclose(state.Q, expected, atol=1e-12)
    assert np.allclose(state.P, 0.0, atol=1e-13)


def test_extract_reads_off_mode_momentum(penta):
    basis = build_modes(penta, rng=8)
    beta, c = 4, 0.31
    mom = c * np.sqrt(penta.masses)[:, None] * basis.x_dual[:, beta, :]
    rest = Configuration(
        nuclei_positions=penta.positions.copy(),
        nuclei_momenta=mom,
        electron_positions=np.zeros((penta.electron_count, 3)),
        electron_momenta=np.zeros((penta.electron_count, 3)),
    )
    frame = solve_eckart(penta, rest.nuclei_positions)
    state = extract_internal(penta, basis, frame, rest)
    expected = np.zeros(basis.n_modes)
    expected[beta] = c
    assert np.allclose(state.P, expected, atol=1e-12)
    assert np.allclose(state.Q, 0.0, atol=1e-12)


def test_extract_rigid_rotation_velocity(penta):
    basis = build_modes(penta, rng=9)
    omega0 = np.array([0.3, -0.7, 0.2])
    rest = Configuration(
        nuclei_positions=penta.positions.copy(),
        nuclei_momenta=np.cross(omega0, penta.masses[:, None] * penta.positions),
        electron_positions=np.zeros((penta.electron_count, 3)),
        electron_momenta=np.zeros((penta.electron_count, 3)),
    )
    frame = solve_eckart(penta, rest.nuclei_positions)
    state = extract_internal(penta, basis, frame, rest)
    assert np.allclose(state.angular_velocity, omega0, atol=1e-11)
    assert np.allclose(state.Q, 0.0, atol=1e-12)
    assert np.allclose(state.P, 0.0, atol=1e-12)
    from molrest.molecule import equilibrium_inertia
    assert np.allclose(state.angular_momentum, equilibrium_inertia(penta) @ omega0,
                       atol=1e-11)


@pytest.mark.parametrize("fixture", ["water", "penta"])
def test_roundtrip_configuration(fixture, request):
    mol = request.getfixturevalue(fixture)
    basis = build_modes(mol, rng=10)
    rng = np.random.default_rng(11)
    for _ in range(25):
        cfg = random_config(mol, rng, disp=0.05, mom=0.3)
        state = analyze(mol, basis, cfg)
        back = reconstruct(mol, basis, state)
        assert np.max(np.abs(back.nuclei_positions - cfg.nuclei_positions)) <= 1e-10
        assert np.max(np.abs(back.nuclei_momenta - cfg.nuclei_momenta)) <= 1e-10
        assert np.max(np.abs(back.electron_positions - cfg.electron_positions)) <= 1e-10
        assert np.max(np.abs(back.electron_momenta - cfg.electron_momenta)) <= 1e-10


def test_internal_observables_invariant_under_translation_and_boost(penta):
    basis = build_modes(penta, rng=12)
    rng = np.random.default_rng(13)
    cfg = random_config(penta, rng, disp=0.06, mom=0.3)
    state = analyze(penta, basis, cfg)
    shift = np.array([5.0, -2.0, 1.0])
    velocity = np.array([0.4, 0.1, -0.9])
    moved = Configuration(
        nuclei_positions=cfg.nuclei_positions + shift,
        nuclei_momenta=cfg.nuclei_momenta + np.outer(penta.masses, velocity),
        electron_positions=cfg.electron_positions + shift,
        electron_momenta=cfg.electron_momenta + penta.electron_mass * velocity,
    )
    state2 = analyze(penta, basis, moved)
    assert np.allclose(state2.Q, state.Q, atol=1e-10)
    assert np.allclose(state2.P, state.P, atol=1e-10)
    assert np.allclose(state2.q, state.q, atol=1e-10)
    assert np.allclose(state2.p, state.p, atol=1e-10)
    assert np.allclose(state2.angular_velocity, state.angular_velocity, atol=1e-10)
    assert np.allclose(state2.frame.rotation, state.frame.rotation, atol=1e-10)


def test_extract_raises_on_singular_inertia(water):
    basis = build_modes(water, rng=14)
    from molrest.angmom import build_inertia, inertia_at

    model = build_inertia(water, basis)
    # Walk along one mode amplitude until the smallest eigenvalue crosses zero.
    alpha = int(np.argmax(np.linalg.norm(model.i_alpha, axis=(1, 2))))
    direction = np.zeros(basis.n_modes)
    direction[alpha] = 1.0

    def smallest(t):
        return np.linalg.eigvalsh(inertia_at(model, t * direction))[0]

    t_hi = 1.0
    while smallest(t_hi) > 0 and t_hi < 1e6:
        t_hi *= 2.0
    t_lo = 0.0
    for _ in range(200):
        mid = 0.5 * (t_lo + t_hi)
        if smallest(mid) > 0:
            t_lo = mid
        else:
            t_hi = mid
    t_star = 0.5 * (t_lo + t_hi)

    disp = t_star * basis.x[:, alpha, :] / np.sqrt(water.masses)[:, None]
    rest = Configuration(
        nuclei_positions=water.positions + disp,
        nuclei_momenta=np.zeros_like(disp),
        electron_positions=np.zeros((water.electron_count, 3)),
        electron_momenta=np.zeros((water.electron_count, 3)),
    )
    frame = solve_eckart(water, water.positions)
    with pytest.raises(SingularInertiaError):
        extract_internal(water, basis, frame, rest)


def test_extract_rejects_indefinite_well_conditioned_inertia():
    # For tests/data/water.json at Q = -e_alpha the inertia tensor has one
    # negative eigenvalue but a modest condition number, so a
    # condition-number gate alone lets it by.
    from molrest.angmom import build_inertia, inertia_at
    from molrest.molecule import load_molecule, prepare_equilibrium

    water = prepare_equilibrium(load_molecule(Path(__file__).parent / "data" / "water.json"))
    basis = build_modes(water, rng=8)
    model = build_inertia(water, basis)
    alpha = int(np.argmax(np.linalg.norm(model.i_alpha, axis=(1, 2))))
    disp = -basis.x[:, alpha, :] / np.sqrt(water.masses)[:, None]
    rest = Configuration(
        nuclei_positions=water.positions + disp,
        nuclei_momenta=np.zeros_like(disp),
        electron_positions=np.zeros((water.electron_count, 3)),
        electron_momenta=np.zeros((water.electron_count, 3)),
    )
    q = np.zeros(basis.n_modes)
    q[alpha] = -1.0
    evals = np.linalg.eigvalsh(inertia_at(model, q))
    assert evals[0] < 0.0 < evals[1] and evals[2] < 20.0 * -evals[0]
    frame = solve_eckart(water, water.positions)
    with pytest.raises(SingularInertiaError, match="frame 0"):
        extract_internal(water, basis, frame, rest)


@pytest.mark.parametrize("cond, singular", [(1e11, False), (1e13, True)])
def test_extract_inertia_condition_edge(water, cond, singular):
    # a displacement along one mode until cond I(Q) is 1e11, then 1e13: either
    # side of the ceiling 1e12
    from molrest.angmom import build_inertia, inertia_at, mode_sum

    basis = build_modes(water, rng=8)
    model = build_inertia(water, basis)
    direction = np.zeros(basis.n_modes)
    direction[int(np.argmax(np.linalg.norm(model.i_alpha, axis=(1, 2))))] = 1.0

    def condition(q):
        evals = np.linalg.eigvalsh(inertia_at(model, q))
        return evals[-1] / evals[0] if evals[0] > 0.0 else np.inf

    lo, hi = 0.0, 1.0
    while condition(hi * direction) < np.inf:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if condition(mid * direction) < cond else (lo, mid)
    disp = mode_sum(lo * direction, basis.x) / np.sqrt(water.masses)[:, None]
    rest = Configuration(water.positions + disp, np.zeros((3, 3)), np.zeros((2, 3)),
                         np.zeros((2, 3)))
    frame = solve_eckart(water, water.positions)
    if singular:
        with pytest.raises(SingularInertiaError, match=r"frame 0 .* or cond > 1e\+12\)"):
            extract_internal(water, basis, frame, rest)
    else:
        state = extract_internal(water, basis, frame, rest)
        assert abs(condition(state.Q) / cond - 1.0) <= 1e-3
        assert np.isfinite(state.angular_velocity).all()


# --- trajectory file format --------------------------------------------------


def test_trajectory_roundtrip(tmp_path, penta):
    rng = np.random.default_rng(15)
    configs = [random_config(penta, rng) for _ in range(3)]
    path = tmp_path / "traj.xyz"
    write_trajectory(penta, path, configs)
    back = load_trajectory(penta, path)
    assert back.nuclei_positions.shape == (3, penta.n_nuclei, 3)
    for t, a in enumerate(configs):
        assert np.array_equal(a.nuclei_positions, back.nuclei_positions[t])
        assert np.array_equal(a.electron_momenta, back.electron_momenta[t])


def test_trajectory_errors(tmp_path, penta):
    path = tmp_path / "bad.xyz"

    path.write_text("4\ncomment\n")
    with pytest.raises(SchemaError, match="particles"):
        load_trajectory(penta, path)

    path.write_text("9\ncomment\nX 0 0 0 0 0 0\n")
    with pytest.raises(SchemaError, match="truncated"):
        load_trajectory(penta, path)

    rows = "\n".join(["X 0 0 0 0 0 0"] * 5 + ["e 0 0 0 0 0 0"] * 4)
    path.write_text(f"9\ncomment\n{rows}\n".replace("X 0 0 0 0 0 0", "X 0 0 zz 0 0 0", 1))
    with pytest.raises(SchemaError, match="non-numeric"):
        load_trajectory(penta, path)

    swapped = ["e 0 0 0 0 0 0"] + ["X 0 0 0 0 0 0"] * 4 + ["e 0 0 0 0 0 0"] * 4
    path.write_text("9\ncomment\n" + "\n".join(swapped) + "\n")
    with pytest.raises(SchemaError, match="nuclei must come first"):
        load_trajectory(penta, path)

    path.write_text("not-a-count\ncomment\n")
    with pytest.raises(SchemaError, match="count"):
        load_trajectory(penta, path)

    path.write_text("")
    with pytest.raises(SchemaError, match="no frames"):
        load_trajectory(penta, path)

    short = ["X 0 0 0 0 0"] + ["X 0 0 0 0 0 0"] * 4 + ["e 0 0 0 0 0 0"] * 4
    path.write_text("9\ncomment\n" + "\n".join(short) + "\n")
    with pytest.raises(SchemaError, match="7 fields"):
        load_trajectory(penta, path)


@pytest.mark.parametrize("count, accepted", [("0_5", False), ("\u0665", False),
                                              ("\uff15", False), ("+5", True), (" 5\t", True)],
                         ids=["underscore", "arabic-indic", "fullwidth", "plus", "padded"])
def test_trajectory_count_line_follows_the_row_grammar(tmp_path, water_raw, count, accepted):
    # ASCII digits, no "_": what numpy reads in a row, where Python's int reads more
    rows = (Path(__file__).parent / "data" / "water_traj.xyz").read_text().split("\n")
    path = tmp_path / "traj.xyz"
    path.write_text("\n".join([count] + rows[1:]), encoding="utf-8")
    if accepted:
        assert load_trajectory(water_raw, path).nuclei_positions.shape[1:] == (3, 3)
    else:
        with pytest.raises(SchemaError, match=r"^line 1: expected a particle count$"):
            load_trajectory(water_raw, path)


def test_trajectory_errors_name_the_first_bad_line(tmp_path, penta):
    rng = np.random.default_rng(16)
    path = tmp_path / "traj.xyz"
    write_trajectory(penta, path, [random_config(penta, rng) for _ in range(4)])
    lines = path.read_text().splitlines()
    # frames are 11 lines; a blank line between frames is skipped
    blank = lines[:11] + [""] + lines[11:]

    def load(rows):
        path.write_text("\n".join(rows) + "\n")
        return load_trajectory(penta, path)

    assert load(blank).nuclei_positions.shape == (4, 5, 3)

    def replace_field(row, k, value):
        parts = row.split()
        parts[k] = value
        return " ".join(parts)

    # 0-based rows: frame 0 at 0-10, blank 11, frame 1 at 12-22,
    # frame 2 at 23-33, frame 3 at 34-44; particle j of a frame starting
    # at s is row s + 2 + j, reported as line s + 3 + j.
    bad = list(blank)
    bad[27] = bad[27] + " 1.0"              # frame 2, nucleus j=2
    bad[39] = "X 0 0 0 0 0"                  # frame 3, later
    with pytest.raises(SchemaError, match=r"^line 28: expected 'species"):
        load(bad)

    bad = list(blank)
    bad[14] = replace_field(bad[14], 0, "e")  # frame 1: electron among the nuclei
    bad[20] = bad[20] + " 1.0"               # same frame: field count wins
    with pytest.raises(SchemaError, match=r"^line 21: expected 'species"):
        load(bad)

    bad = list(blank)
    bad[25] = replace_field(bad[25], 0, "e")  # frame 2
    bad[34] = "6"                              # header error in a later frame
    with pytest.raises(SchemaError, match=r"^line 26: electron row"):
        load(bad)

    bad = list(blank)
    bad[31] = replace_field(bad[31], 1, "1e5x")  # frame 2, electron j=6
    with pytest.raises(SchemaError, match=r"^line 32: non-numeric"):
        load(bad)

    bad = list(blank)
    bad[42] = replace_field(bad[42], 0, "X")  # frame 3: nucleus among the electrons
    with pytest.raises(SchemaError, match=r"^line 43: expected electron row"):
        load(bad)


@pytest.mark.parametrize("token", ["nan", "-inf"])
def test_trajectory_non_finite_coordinate_names_its_line(tmp_path, penta, token):
    rng = np.random.default_rng(16)
    path = tmp_path / "traj.xyz"
    write_trajectory(penta, path, [random_config(penta, rng) for _ in range(4)])
    rows = path.read_text().splitlines()
    # frame f starts at row 11 f; its particle j is row 11 f + 2 + j, line 11 f + 3 + j
    rows[29] = "X " + rows[29].split(" ", 1)[1]  # frame 2, electron j=5 labelled a nucleus
    parts = rows[30].split()
    parts[4] = token                             # same frame, j=6: numbers come first
    rows[30] = " ".join(parts)
    rows[40] = rows[40] + " 1.0"                 # frame 3, later in the file
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match=r"^line 31: non-finite coordinate"):
        load_trajectory(penta, path)


@pytest.mark.parametrize("label", ["e\0", "e\0X"])
def test_trajectory_nul_label_is_no_electron(tmp_path, penta, label):
    rng = np.random.default_rng(16)
    path = tmp_path / "traj.xyz"
    write_trajectory(penta, path, [random_config(penta, rng) for _ in range(4)])
    rows = path.read_text().splitlines()
    # frame f starts at row 11 f; its particle j is row 11 f + 2 + j, line 11 f + 3 + j
    rows[13] = label + " " + rows[13].split(" ", 1)[1]  # frame 1, nucleus j=0: accepted
    path.write_text("\n".join(rows) + "\n")
    assert load_trajectory(penta, path).nuclei_positions.shape == (4, 5, 3)
    rows[29] = label + " " + rows[29].split(" ", 1)[1]  # frame 2, electron j=5
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match=r"^line 30: expected electron row"):
        load_trajectory(penta, path)


# Every line break of str.splitlines other than "\n" and "\r".  None of them
# ends a line of the trajectory format, and inside a particle row numpy
# reads each as whitespace, as str.split does.
FORMAT_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _break_id(ch):
    return f"U+{ord(ch):04X}"


@pytest.mark.parametrize("ch", FORMAT_BREAKS, ids=_break_id)
def test_trajectory_format_breaks_split_no_line(tmp_path, penta, ch):
    rng = np.random.default_rng(17)
    path = tmp_path / "traj.xyz"
    write_trajectory(penta, path, [random_config(penta, rng) for _ in range(3)])
    clean = load_trajectory(penta, path)
    rows = path.read_text().split("\n")
    # frame f starts at row 11 f; its particle j is row 11 f + 2 + j, line 11 f + 3 + j

    def load(rows):
        path.write_text("\n".join(rows))
        return load_trajectory(penta, path)

    def same(cfg):
        return all(np.array_equal(getattr(cfg, name), getattr(clean, name)) for name in BLOCKS)

    commented = list(rows)
    commented[12] = f"frame 1{ch}note"
    assert same(load(commented))

    spaced = list(rows)
    species, rest = spaced[15].split(" ", 1)
    spaced[15] = species + ch + rest  # frame 1, nucleus j=2
    assert same(load(spaced))

    commented[26] = commented[26] + " 1.0"  # frame 2, nucleus j=2
    with pytest.raises(SchemaError, match=r"^line 27: expected 'species"):
        load(commented)


# --- trajectories read a block of frames at a time -----------------------------

WATER_TRAJ = (Path(__file__).parent / "data" / "water_traj.xyz").read_text()
WATER_ROWS = 5  # particle rows per frame of water_traj.xyz: 3 nuclei, 2 electrons
# block sizes in rows: one frame, two frames, two frames and a part, less than a frame
BLOCK_SIZES = [WATER_ROWS, 2 * WATER_ROWS, 3 * WATER_ROWS - 1, 1]


def _arrays(cfg):
    return [getattr(cfg, name) for name in BLOCKS]


def _counting_parse(monkeypatch):
    """Patch ``frames._parse`` to record the rows of every call."""
    calls = []
    parse = frames._parse

    def counted(rows):
        rows = list(rows)
        calls.append(rows)
        return parse(rows)

    monkeypatch.setattr(frames, "_parse", counted)
    return calls


@pytest.mark.parametrize("size", BLOCK_SIZES)
@pytest.mark.parametrize("text", [
    WATER_TRAJ * 7,
    WATER_TRAJ * 6,  # ends at the end of a block of two or three frames
    (WATER_TRAJ * 7)[:-1],  # no newline after the last row
    (WATER_TRAJ + "\n") * 7 + "\n \n",  # blank lines between frames and at the end
], ids=["repeated", "block-end", "no-final-newline", "blank-lines"])
def test_blocks_match_one_block(tmp_path, monkeypatch, water, text, size):
    path = tmp_path / "traj.xyz"
    path.write_text(text)
    whole = load_trajectory(water, path)
    assert whole.nuclei_positions.shape == (text.count("frame"), 3, 3)
    monkeypatch.setattr(frames, "BLOCK_ROWS", size)
    calls = _counting_parse(monkeypatch)
    blocked = load_trajectory(water, path)
    per_block = max(1, size // WATER_ROWS)
    assert [len(rows) for rows in calls] == [
        WATER_ROWS * min(per_block, len(whole.nuclei_positions) - lo)
        for lo in range(0, len(whole.nuclei_positions), per_block)]
    for got, want in zip(_arrays(blocked), _arrays(whole), strict=True):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit


def _water_lines(repeats):
    return (WATER_TRAJ * repeats).split("\n")


def _load_lines(path, mol, lines):
    path.write_text("\n".join(lines))
    return load_trajectory(mol, path)


@pytest.mark.parametrize("size", [frames.BLOCK_ROWS] + BLOCK_SIZES)
@pytest.mark.parametrize("edits, message", [
    # 0-based lines: frame f's count line is 7 f, its particle j line 7 f + 2 + j
    ({46: "e 0 0 0 0 0 0"}, r"^line 47: electron row among the first 3"),  # frame 6
    ({46: "e 0 0 0 0 0 0", 48: "e 0 0 0 0 0"}, r"^line 49: expected 'species"),
    ({18: "X 0 0 0 0 nan 0", 42: "6"}, r"^line 19: non-finite coordinate"),  # frame 2
    ({42: "6", 46: "X 0 0 0 0 0"}, r"^line 43: frame holds 6 particles"),  # frame 6
    ({40: "X 0 0 0 0 0 0", 42: "x"}, r"^line 41: expected electron row"),  # frame 5, then 6
    ({35: "zz", 37: "X 0 0"}, r"^line 36: expected a particle count"),  # frame 5
], ids=["label", "fields-first", "row-before-header", "header", "row-in-frame-before-header",
        "count"])
def test_blocks_name_the_first_problem(tmp_path, monkeypatch, water, size, edits, message):
    lines = _water_lines(3)  # 9 frames, 63 lines
    for i, text in edits.items():
        lines[i] = text
    monkeypatch.setattr(frames, "BLOCK_ROWS", size)
    with pytest.raises(SchemaError, match=message):
        _load_lines(tmp_path / "traj.xyz", water, lines)


def test_early_error_parses_one_block(tmp_path, monkeypatch, water):
    # line 3 is the first frame's first row; of a 200-frame file in blocks of
    # 10 frames, only the first block's rows are ever parsed
    lines = _water_lines(67)[:1400]
    lines[2] = "e" + lines[2][2:]
    monkeypatch.setattr(frames, "BLOCK_ROWS", 10 * WATER_ROWS)
    calls = _counting_parse(monkeypatch)
    with pytest.raises(SchemaError, match=r"^line 3: electron row among the first 3"):
        _load_lines(tmp_path / "traj.xyz", water, lines)
    first_frame = lines[2:7]
    assert len(calls[0]) == 10 * WATER_ROWS
    assert all(rows == first_frame or rows[0] in first_frame and len(rows) == 1
               for rows in calls[1:])


@pytest.mark.parametrize("where, bad, message", [
    (50, b"\xff", "line 3: not UTF-8 text (byte 0xff)"),
    (20000, b"\xff", "line 223: not UTF-8 text (byte 0xff)"),
    (60000, b"\xff", "line 664: not UTF-8 text (byte 0xff)"),
    (65535, b"\xff", "line 726: not UTF-8 text (byte 0xff)"),  # the last of the first chunk
    (65536, b"\xff", "line 726: not UTF-8 text (byte 0xff)"),  # the first of the second
    (30000, b"\xc3(", "line 333: not UTF-8 text (byte 0xc3)"),  # a lead byte, then no tail
], ids=["50", "20000", "60000", "65535", "65536", "split-sequence"])
def test_undecodable_byte_named_in_the_file(tmp_path, monkeypatch, water, where, bad, message):
    # the file is read a chunk at a time; the error names the line the byte is on
    data = bytearray((WATER_TRAJ * 200).encode())
    data[where:where + len(bad)] = bad
    line = data.count(b"\n", 0, where) + 1
    assert message.startswith(f"line {line}:")
    path = tmp_path / "traj.xyz"
    path.write_bytes(bytes(data))
    monkeypatch.setattr(frames, "BLOCK_ROWS", 10 * WATER_ROWS)
    with pytest.raises(SchemaError) as got:
        load_trajectory(water, path)
    assert str(got.value) == message


@pytest.mark.parametrize("size", [frames.BLOCK_ROWS, WATER_ROWS])
def test_undecodable_byte_after_a_bad_row(tmp_path, monkeypatch, water, size):
    # two problems, line 3 first: the row is named, in one block or many
    data = bytearray((WATER_TRAJ * 200).replace("X0 ", "e  ", 1).encode())
    data[50000] = 0xFF
    path = tmp_path / "traj.xyz"
    path.write_bytes(bytes(data))
    monkeypatch.setattr(frames, "BLOCK_ROWS", size)
    with pytest.raises(SchemaError, match=r"^line 3: electron row among the first 3"):
        load_trajectory(water, path)


def test_utf8_text_across_chunks_reads_the_same(tmp_path, water):
    # comments of two-byte characters, at both byte parities, across chunk boundaries
    plain = WATER_TRAJ * 200
    accented = plain.replace("frame 1\n", "frame 1 " + "é" * (1 << 16) + "\n", 1)
    accented = accented.replace("frame 2\n", "frame 2  " + "é" * (1 << 16) + "\n", 1)
    path = tmp_path / "traj.xyz"
    path.write_text(plain)
    want = load_trajectory(water, path)
    path.write_text(accented, encoding="utf-8")
    for got, expected in zip(_arrays(load_trajectory(water, path)), _arrays(want), strict=True):
        assert np.array_equal(got, expected)


def _line_ends(text, end):
    """``text`` with every newline made ``end``, as UTF-8 bytes; "\udcff" is byte 0xff."""
    return text.replace("\n", end).encode(errors="surrogateescape")


@pytest.mark.parametrize("size", [frames.BLOCK_ROWS, WATER_ROWS])
@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_line_ends_read_as_newline(tmp_path, monkeypatch, water, end, size):
    # text mode reads \r\n and a lone \r as \n: the same bits, in one block or many
    path = tmp_path / "traj.xyz"
    path.write_bytes(WATER_TRAJ.encode())
    want = load_trajectory(water, path)
    monkeypatch.setattr(frames, "BLOCK_ROWS", size)
    path.write_bytes(_line_ends(WATER_TRAJ, end))
    for got, expected in zip(_arrays(load_trajectory(water, path)), _arrays(want), strict=True):
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_line_ends_name_the_same_line(tmp_path, water, end):
    # line 3 relabelled "e", then byte 0xff in line 9 (the second comment line)
    path = tmp_path / "traj.xyz"
    path.write_bytes(_line_ends(WATER_TRAJ.replace("X0 ", "e ", 1), end))
    with pytest.raises(SchemaError, match=r"^line 3: electron row among the first 3"):
        load_trajectory(water, path)
    path.write_bytes(_line_ends(WATER_TRAJ.replace("frame 1", "frame \udcff", 1), end))
    with pytest.raises(SchemaError) as got:
        load_trajectory(water, path)
    assert str(got.value) == "line 9: not UTF-8 text (byte 0xff)"


def test_crlf_split_at_65535_reads_the_same(tmp_path, water):
    # a \r\n whose \r is character 65535, where a reader of 64K-character blocks splits it
    plain = WATER_TRAJ * 200
    crlf = plain.replace("\n", "\r\n")
    pad = 65535 - crlf.rindex("\r", 0, 65536)
    crlf = crlf.replace("frame 0", "frame 0" + " " * pad, 1)
    assert crlf[65535:65537] == "\r\n"
    path = tmp_path / "traj.xyz"
    path.write_bytes(plain.encode())
    want = load_trajectory(water, path)
    path.write_bytes(crlf.encode())
    for got, expected in zip(_arrays(load_trajectory(water, path)), _arrays(want), strict=True):
        assert np.array_equal(got, expected)


def test_a_long_line_is_read_in_linear_time(tmp_path, water):
    # 20 MB with no newline is one line, named in time linear in its length
    path = tmp_path / "traj.xyz"
    path.write_bytes(b"1 " * 10485760)
    start = time.perf_counter()
    with pytest.raises(SchemaError, match=r"^line 1: expected a particle count$"):
        load_trajectory(water, path)
    assert time.perf_counter() - start < 1.0


def test_long_comment_lines_read_the_same(tmp_path, water):
    # comment lines of 300 000 characters, each longer than a read of the file
    plain = WATER_TRAJ * 4
    path = tmp_path / "traj.xyz"
    path.write_text(plain)
    want = load_trajectory(water, path)
    path.write_text(re.sub(r"(?m)^frame \d+$", "c" * 300000, plain))
    for got, expected in zip(_arrays(load_trajectory(water, path)), _arrays(want), strict=True):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("size", [frames.BLOCK_ROWS, WATER_ROWS, 2 * WATER_ROWS])
@pytest.mark.parametrize("frames_before", [1, 2, 3])
@pytest.mark.parametrize("newline", [True, False], ids=["newline", "no-newline"])
def test_truncated_final_frame(tmp_path, monkeypatch, water, size, frames_before, newline):
    # a final frame one row short: its count line is named, whether or not the
    # file ends in a newline and wherever the frame falls among the blocks
    lines = _water_lines(2)[:7 * (frames_before + 1) - 1]
    path = tmp_path / "traj.xyz"
    monkeypatch.setattr(frames, "BLOCK_ROWS", size)
    path.write_text("\n".join(lines) + ("\n" if newline else ""))
    with pytest.raises(SchemaError, match=rf"^line {7 * frames_before + 1}: truncated frame$"):
        load_trajectory(water, path)
    complete = lines[:7 * frames_before]
    path.write_text("\n".join(complete) + ("\n" if newline else ""))
    assert load_trajectory(water, path).nuclei_positions.shape == (frames_before, 3, 3)


@pytest.mark.parametrize("name", BLOCKS)
@pytest.mark.filterwarnings("error")
def test_configuration_rejects_complex_blocks(name):
    blocks = {b: np.zeros((2, 3)) for b in BLOCKS}
    blocks[name] = blocks[name] + 1e-3j
    with pytest.raises(ValueError, match=f"^{name} has complex entries"):
        Configuration(**blocks)


@pytest.mark.parametrize("block, value, message", [
    ("nuclei_positions", np.zeros((3, 2)), r"nuclei_positions must have shape \(\*, 3\)"),
    ("electron_momenta", np.zeros((1, 1, 2, 3)), r"electron_momenta must have shape"),
    ("nuclei_momenta", np.array([[0.0, np.inf, 0.0]] * 2), "nuclei_momenta has non-finite"),
    ("electron_positions", np.full((2, 3), np.nan), "electron_positions has non-finite"),
    ("nuclei_momenta", np.zeros((3, 3)), "nuclei position/momentum shapes differ"),
    ("electron_momenta", np.zeros((1, 3)), "electron position/momentum shapes differ"),
], ids=["columns", "ndim", "inf", "nan", "nuclei-pair", "electron-pair"])
def test_configuration_rejects_malformed_blocks(block, value, message):
    blocks = {b: np.zeros((2, 3)) for b in BLOCKS}
    blocks[block] = value
    with pytest.raises(ValueError, match=f"^{message}"):
        Configuration(**blocks)


@pytest.mark.filterwarnings("error")
def test_inertia_gate_holds_at_extreme_amplitudes(water):
    # At x1e300 the spectrum is finite but MAX_INERTIA_COND times its
    # smallest eigenvalue is not; at x1.7e308 the amplitudes, and I(Q), are
    # not finite, which eigvalsh cannot take.
    basis = build_modes(water, rng=18)

    def rest(scale):
        pos = scale * water.positions
        return Configuration(pos, np.zeros_like(pos), np.zeros((2, 3)), np.zeros((2, 3)))

    frame = solve_eckart(water, water.positions)
    assert np.all(np.isfinite(extract_internal(water, basis, frame, rest(1e300)).Q))
    stack = Configuration.stack([rest(1.0), rest(1.7e308)])
    frames = solve_eckart(water, np.stack([water.positions] * 2))
    with pytest.raises(SingularInertiaError, match="frame 1"):
        extract_internal(water, basis, frames, stack)
