from pathlib import Path

import numpy as np
import pytest

from molrest.errors import SchemaError, SingularInertiaError
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
from molrest.lie_so3 import exp_map
from molrest.modes import build_modes
from molrest.molecule import Molecule


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


def test_solve_eckart_requires_prepared(water_raw):
    with pytest.raises(ValueError):
        solve_eckart(water_raw, water_raw.positions)


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


@pytest.mark.parametrize("name", BLOCKS)
@pytest.mark.filterwarnings("error")
def test_configuration_rejects_complex_blocks(name):
    blocks = {b: np.zeros((2, 3)) for b in BLOCKS}
    blocks[name] = blocks[name] + 1e-3j
    with pytest.raises(ValueError, match=f"^{name} has complex entries"):
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
