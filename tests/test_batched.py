"""A stack of T frames through the batched pipeline against T single frames."""

import numpy as np
import pytest

from molrest.angmom import build_inertia, decompose_angmom, mode_sum
from molrest.frames import BLOCKS, Configuration, analyze, reconstruct, solve_eckart
from molrest.gates import TOL_ROUNDTRIP
from molrest.lie_so3 import exp_map, log_map
from molrest.modes import build_modes


def _same(batched, single):
    """Every entry equal to the single-frame value: one frame is the stack of one."""
    batched = np.asarray(batched, dtype=float)
    single = np.asarray(single, dtype=float)
    assert batched.shape == single.shape
    return np.array_equal(batched, single)


def _axis(rng):
    u = rng.normal(size=3)
    return u / np.linalg.norm(u)


def _rotations(rng):
    """Generic rotations plus angles within 1e-6 of pi and exactly pi."""
    angles = [rng.uniform(0.0, np.pi - 0.1) for _ in range(5)]
    angles += [np.pi - 1e-6, np.pi - 3e-7, np.pi, np.pi]
    return [exp_map(theta * _axis(rng)) for theta in angles]


def _trajectory(mol, basis, rng):
    """Lab frames C + R (X0 + d) with Eckart-clean mode displacements d."""
    sqrt_m = np.sqrt(mol.masses)[:, None]
    n = mol.electron_count
    frames = []
    for r in _rotations(rng):
        disp = mode_sum(rng.normal(scale=0.03, size=basis.n_modes), basis.x) / sqrt_m
        com = rng.normal(scale=2.0, size=3)
        frames.append(Configuration(
            nuclei_positions=(mol.positions + disp) @ r.T + com,
            nuclei_momenta=rng.normal(scale=0.3, size=(mol.n_nuclei, 3)),
            electron_positions=rng.normal(size=(n, 3)) + com,
            electron_momenta=rng.normal(scale=0.2, size=(n, 3)),
        ))
    return frames


def _state_fields(state):
    frame = state.frame
    return {
        "com_position": state.com_position, "com_momentum": state.com_momentum,
        "Q": state.Q, "P": state.P, "q": state.q, "p": state.p,
        "angular_velocity": state.angular_velocity,
        "angular_momentum": state.angular_momentum,
        "rotation": frame.rotation, "orientation": frame.orientation,
        "residual": frame.residual, "scale": frame.scale,
        "degenerate": frame.degenerate,
    }


@pytest.mark.parametrize("fixture", ["penta", "water", "square"])
def test_stack_matches_single_frames(fixture, request):
    mol = request.getfixturevalue(fixture)
    basis = build_modes(mol, rng=21)
    model = build_inertia(mol, basis)
    frames = _trajectory(mol, basis, np.random.default_rng(22))
    stack = Configuration.stack(frames)
    assert stack.electron_positions.shape == (len(frames), mol.electron_count, 3)

    batched = analyze(mol, basis, stack)
    theta = np.linalg.norm(batched.frame.orientation, axis=-1)
    assert np.sum(np.abs(theta - np.pi) <= 1e-6) >= 4  # the seam is exercised
    parts = decompose_angmom(model, basis, batched)
    for t, cfg in enumerate(frames):
        single = analyze(mol, basis, cfg)
        for name, value in _state_fields(single).items():
            assert _same(_state_fields(batched)[name][t], value), (fixture, t, name)
        for part, one in zip(parts, decompose_angmom(model, basis, single)):
            assert _same(part[t], one), (fixture, t)

    rebuilt = reconstruct(mol, basis, batched)
    for name in BLOCKS:
        err = np.abs(getattr(rebuilt, name) - getattr(stack, name)).max(initial=0.0)
        assert err <= TOL_ROUNDTRIP, (fixture, name, err)


def test_single_frame_is_the_one_frame_stack(penta):
    basis = build_modes(penta, rng=23)
    cfg = _trajectory(penta, basis, np.random.default_rng(24))[0]
    single = analyze(penta, basis, cfg)
    stacked = analyze(penta, basis, Configuration.stack([cfg]))
    assert single.Q.shape == (basis.n_modes,)
    assert single.frame.rotation.shape == (3, 3)
    assert isinstance(single.frame.residual, float)
    assert stacked.Q.shape == (1, basis.n_modes)
    for name, value in _state_fields(single).items():
        assert _same(_state_fields(stacked)[name][0], value), name


def test_log_map_stack_matches_per_matrix():
    rng = np.random.default_rng(25)
    mats = [exp_map(theta * _axis(rng))
            for theta in [0.0, 1e-9, 1e-5, 0.3, 2.0, np.pi - 1e-4, np.pi - 1e-6, np.pi]]
    # exact half turns about axes whose sign the antipodal rule must fix
    for axis in ([1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.6, -0.8], [-1.0, -1.0, 1.0]):
        axis = np.asarray(axis) / np.linalg.norm(axis)
        mats.append(2.0 * np.outer(axis, axis) - np.eye(3))
    stack = np.stack(mats)
    batched = log_map(stack)
    assert batched.shape == (len(mats), 3)
    for omega, r in zip(batched, mats):
        assert _same(omega, log_map(r))
        assert np.allclose(exp_map(omega), r, atol=1e-12)
    for omega in batched[-4:]:
        assert np.isclose(np.linalg.norm(omega), np.pi)
        assert omega[np.argmax(np.abs(omega))] > 0.0
    # a (2, K, 3, 3) stack keeps its leading shape
    assert _same(log_map(np.stack([stack, stack])), np.stack([batched, batched]))


@pytest.mark.parametrize("fixture", ["penta", "water", "square"])
def test_eckart_orientation_is_the_log_of_its_rotation(fixture, request):
    # the orientation comes from the eigenvector, not from the matrix
    mol = request.getfixturevalue(fixture)
    basis = build_modes(mol, rng=26)
    rng = np.random.default_rng(27)
    sqrt_m = np.sqrt(mol.masses)[:, None]
    angles = [0.0, 1e-7, 0.4, 2.0, np.pi - 1e-3, np.pi - 1e-6, np.pi - 3e-7, np.pi - 1e-9]
    positions = np.stack([
        (mol.positions + mode_sum(rng.normal(scale=0.03, size=basis.n_modes), basis.x) / sqrt_m)
        @ exp_map(theta * _axis(rng)).T for theta in angles])
    frame = solve_eckart(mol, positions)
    assert np.abs(np.linalg.norm(frame.orientation, axis=-1) - angles).max() <= 1e-9
    assert np.abs(frame.orientation - log_map(frame.rotation)).max() <= 1e-14


def test_log_map_stack_names_bad_matrix():
    stack = np.stack([np.eye(3), np.eye(3), 1.5 * np.eye(3)])
    with pytest.raises(ValueError, match="index 2"):
        log_map(stack)


def test_configuration_stack_validation(square):
    pos = np.zeros((5, square.n_nuclei, 3))
    cfg = Configuration(nuclei_positions=pos, nuclei_momenta=pos)
    assert cfg.electron_positions.shape == (5, 0, 3)
    with pytest.raises(ValueError, match="frames"):
        Configuration(nuclei_positions=pos, nuclei_momenta=pos,
                      electron_positions=np.zeros((4, 2, 3)),
                      electron_momenta=np.zeros((4, 2, 3)))
    with pytest.raises(ValueError):
        Configuration.stack([])
