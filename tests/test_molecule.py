import json
from pathlib import Path

import numpy as np
import pytest

from molrest.errors import CollinearGeometryError, SchemaError
from molrest.modes import build_modes
from molrest.molecule import (
    MAX_ELECTRONS,
    Molecule,
    equilibrium_inertia,
    load_molecule,
    prepare_equilibrium,
)


def test_mass_summary(water_raw):
    assert np.isclose(water_raw.nuclear_mass, 15.999 + 2 * 1.008)
    assert np.isclose(water_raw.total_mass, water_raw.nuclear_mass + 2 * 5.5e-4)


def test_constructor_validation():
    good = dict(masses=np.ones(3), positions=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Molecule(masses=np.array([1.0, -1.0, 1.0]), positions=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Molecule(masses=np.ones(3), positions=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Molecule(**good, electron_count=-1)
    with pytest.raises(ValueError):
        Molecule(**good, electron_mass=0.0)
    with pytest.raises(ValueError):
        Molecule(**good, hbar=-1.0)
    with pytest.raises(ValueError):
        Molecule(masses=np.ones(3), positions=np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match="^masses must be a non-empty 1-d array$"):
        Molecule(masses=np.zeros(0), positions=np.zeros((0, 3)))
    with pytest.raises(ValueError, match=r"^hessian must have shape \(9, 9\)$"):
        Molecule(**good, hessian=np.eye(6))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["mode_seed", "hessian"])
def test_constructor_rejects_non_finite_seed_and_hessian(field, value):
    # named as masses and positions are: past the constructor a NaN seed gives
    # an all-NaN basis, and a NaN Hessian reads as an asymmetric one
    shape = {"mode_seed": (9, 3), "hessian": (9, 9)}[field]
    entries = np.ones(shape)
    entries[4, 2] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        Molecule(masses=np.ones(3), positions=np.eye(3), **{field: entries})


@pytest.mark.parametrize("flag", [True, False])
def test_constructor_rejects_bool_electron_count(flag):
    # load_molecule rejects a JSON true already; True is no count of one electron
    with pytest.raises(ValueError, match="electron_count must be a non-negative integer"):
        Molecule(masses=np.ones(3), positions=np.eye(3), electron_count=flag)


@pytest.mark.parametrize("value", [True, "1.0", pytest.param(10**400, id="10**400")])
@pytest.mark.parametrize("field", ["electron_mass", "hbar"])
def test_constructor_rejects_non_real_mass_and_hbar(field, value):
    # True would read as 1.0 in total_mass; a string, or an int past the
    # float range, would reach np.isfinite
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        Molecule(masses=np.ones(3), positions=np.eye(3), electron_count=1, **{field: value})


def test_prepare_centers_and_diagonalizes(water_raw):
    mol = prepare_equilibrium(water_raw)
    assert mol.prepared
    com = mol.masses @ mol.positions / mol.masses.sum()
    assert np.allclose(com, 0.0, atol=1e-12)
    inertia = equilibrium_inertia(mol)
    off = inertia - np.diag(np.diag(inertia))
    assert np.max(np.abs(off)) <= 1e-10 * np.trace(inertia)
    d = np.diag(inertia)
    assert d[0] <= d[1] <= d[2]


def test_prepare_preserves_distances(water_raw):
    mol = prepare_equilibrium(water_raw)

    def dists(p):
        return np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)

    assert np.allclose(dists(mol.positions), dists(water_raw.positions), atol=1e-12)


def test_prepare_idempotent(water):
    again = prepare_equilibrium(water)
    assert np.allclose(again.positions, water.positions, atol=1e-12)


def test_prepare_invariant_under_rigid_motion(penta):
    rng = np.random.default_rng(21)
    from molrest.lie_so3 import exp_map

    q = exp_map(rng.normal(size=3) * 0.8)
    moved = Molecule(
        masses=penta.masses,
        positions=penta.positions @ q.T + np.array([3.0, -1.0, 2.0]),
        electron_count=penta.electron_count,
        electron_mass=penta.electron_mass,
    )
    re = prepare_equilibrium(moved)
    assert np.allclose(
        np.diag(equilibrium_inertia(re)), np.diag(equilibrium_inertia(penta)), rtol=1e-10
    )
    # Canonical positions agree up to proper sign flips about principal axes.
    best = np.inf
    for sx, sy in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        flip = np.array([sx, sy, sx * sy], dtype=float)
        best = min(best, np.max(np.abs(re.positions * flip - penta.positions)))
    assert best <= 1e-9


def test_prepare_rejects_degenerate_input():
    line = Molecule(
        masses=np.ones(3),
        positions=np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.5]]),
    )
    with pytest.raises(CollinearGeometryError):
        prepare_equilibrium(line)
    dup = Molecule(
        masses=np.ones(3),
        positions=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    )
    with pytest.raises(CollinearGeometryError):
        prepare_equilibrium(dup)
    pair = Molecule(masses=np.ones(2), positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        prepare_equilibrium(pair)


@pytest.mark.parametrize("ratio, coincident", [(5e-10, True), (2e-9, False)])
def test_coincident_nuclei_gate_edge(water_raw, ratio, coincident):
    # water, a fourth nucleus off its plane and a fifth ratio times the extent
    # from the first H, either side of the gate at 1e-9 of the extent
    pos = np.vstack([water_raw.positions, water_raw.positions.mean(axis=0) + [0.8, 0.0, 0.0],
                     water_raw.positions[1]])
    pos[4, 2] += ratio * np.max(np.linalg.norm(pos - pos.mean(axis=0), axis=1))
    mol = Molecule(masses=np.array([15.999, 1.008, 1.008, 12.0, 1.008]), positions=pos)
    if coincident:
        with pytest.raises(CollinearGeometryError, match="coincident nuclei"):
            prepare_equilibrium(mol)
    else:
        assert prepare_equilibrium(mol).n_nuclei == 5


def test_equilibrium_inertia_requires_preparation(water_raw, square):
    with pytest.raises(ValueError):
        equilibrium_inertia(water_raw)
    assert np.allclose(np.diag(equilibrium_inertia(square)), [2.0, 2.0, 4.0], atol=1e-12)


def test_prepare_rotates_hessian_consistently(water_raw):
    rng = np.random.default_rng(3)
    n3 = 9
    h = rng.normal(size=(n3, n3))
    h = h + h.T
    mol = Molecule(
        masses=water_raw.masses,
        positions=water_raw.positions,
        hessian=h,
        mode_seed=rng.normal(size=(n3, n3 - 6)),
    )
    prep = prepare_equilibrium(mol)
    # Both blocks must be conjugated by the same per-nucleus rotation:
    # spectrum and Gram matrices survive, and so does the mixed form.
    assert np.allclose(np.linalg.eigvalsh(prep.hessian), np.linalg.eigvalsh(h), atol=1e-10)
    assert np.allclose(prep.mode_seed.T @ prep.mode_seed, mol.mode_seed.T @ mol.mode_seed,
                       atol=1e-12)
    assert np.allclose(prep.mode_seed.T @ prep.hessian @ prep.mode_seed,
                       mol.mode_seed.T @ h @ mol.mode_seed, atol=1e-10)
    assert prep.mode_seed.shape == (n3, n3 - 6)
    # and the rotation was not a no-op for this tilted geometry
    com = mol.masses @ mol.positions / mol.masses.sum()
    assert not np.allclose(prep.positions, mol.positions - com, atol=1e-8)


# --- JSON schema ----------------------------------------------------------


def write_json(tmp_path, payload, name="mol.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def valid_payload():
    return {
        "name": "tri",
        "hbar": 1.0,
        "nuclei": [
            {"mass": 12.0, "position": [0.0, 0.0, 0.1]},
            {"mass": 1.0, "position": [0.0, 0.9, -0.3]},
            {"mass": 1.0, "position": [0.0, -0.9, -0.3]},
        ],
        "electrons": {"count": 2, "mass": 0.01},
    }


def test_load_molecule_roundtrip(tmp_path):
    payload = valid_payload()
    mol = load_molecule(write_json(tmp_path, payload))
    assert mol.name == "tri"
    assert mol.n_nuclei == 3
    assert mol.electron_count == 2
    assert not mol.prepared
    assert np.allclose(mol.masses, [12.0, 1.0, 1.0])


def test_load_molecule_optional_blocks(tmp_path):
    payload = valid_payload()
    payload["modes"] = [[float(i == j) for i in range(9)] for j in range(3)]
    payload["hessian"] = list(np.eye(9).ravel())
    mol = load_molecule(write_json(tmp_path, payload))
    assert mol.mode_seed.shape == (9, 3)
    assert mol.hessian.shape == (9, 9)


def test_load_molecule_accepts_the_electron_ceiling(tmp_path):
    payload = valid_payload()
    payload["electrons"]["count"] = MAX_ELECTRONS
    assert load_molecule(write_json(tmp_path, payload)).electron_count == MAX_ELECTRONS


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda p: p.update(extra=1), "extra"),
        (lambda p: p["nuclei"][1].pop("mass"), ("nuclei[1]", "mass")),
        (lambda p: p["nuclei"][0].update(charge=6), "charge"),
        (lambda p: p["nuclei"][0].update(position=[0.0, 0.0]), "position"),
        (lambda p: p.update(hbar=0.0), "hbar"),
        (lambda p: p["electrons"].update(count=-2), "electrons.count"),
        (lambda p: p["electrons"].update(count=True), "electrons.count"),
        (lambda p: p["electrons"].pop("mass"), "mass"),
        (lambda p: p.update(nuclei=[]), "nuclei"),
        (lambda p: p["nuclei"][2].update(mass=-5.0), "nuclei[2].mass"),
        (lambda p: p["nuclei"][0].update(mass=float("inf")), "nuclei[0].mass: must be finite"),
        (lambda p: p.update(modes=[[0.0] * 9]), "modes"),
        (lambda p: p.update(hessian=[0.0] * 10), "hessian"),
    ],
)
def test_load_molecule_schema_errors_name_the_field(tmp_path, mutate, fragment):
    payload = valid_payload()
    mutate(payload)
    path = write_json(tmp_path, payload)
    with pytest.raises(SchemaError) as err:
        load_molecule(path)
    parts = (fragment,) if isinstance(fragment, str) else fragment
    for part in parts:
        assert part in str(err.value)


@pytest.mark.parametrize("n_nuclei, modes", [(2, []), (1, [[0.0, 0.0, 1.0]])])
def test_load_molecule_modes_need_three_nuclei(tmp_path, n_nuclei, modes):
    payload = valid_payload()
    payload["nuclei"] = payload["nuclei"][:n_nuclei]
    payload["modes"] = modes
    with pytest.raises(SchemaError, match="^modes: internal modes need at least 3 nuclei$"):
        load_molecule(write_json(tmp_path, payload))


def test_load_molecule_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_molecule(path)


@pytest.mark.parametrize("where", [0, 10, -2])
def test_load_molecule_names_a_byte_that_is_not_utf8(tmp_path, where):
    # a byte that is not UTF-8 is invalid JSON, not a codec error
    data = bytearray((Path(__file__).parent / "data" / "water.json").read_bytes())
    data[where] = 0xFF
    path = tmp_path / "bad.json"
    path.write_bytes(bytes(data))
    with pytest.raises(SchemaError, match=rf"^invalid JSON: .* byte 0xff in position "
                                          rf"{where % len(data)}: invalid start byte$"):
        load_molecule(path)


@pytest.mark.parametrize("ratio, collinear", [(1e-8, False), (1e-11, True)])
def test_collinear_gate_edge(water_raw, ratio, collinear):
    # water flattened until its second planar moment is ratio times its first,
    # either side of the gate at 1e-10
    masses, pos = water_raw.masses, water_raw.positions.copy()
    pos -= masses @ pos / masses.sum()
    first, second = masses @ pos[:, 1:] ** 2  # the y and z moments; the yz sum is 0
    pos[:, 2] *= np.sqrt(ratio * first / second)
    flat = Molecule(masses=masses, positions=pos, electron_count=2, electron_mass=5.5e-4)
    if collinear:
        with pytest.raises(CollinearGeometryError, match="collinear"):
            prepare_equilibrium(flat)
    else:
        mol = prepare_equilibrium(flat)
        moments = np.sort(np.linalg.eigvalsh(np.einsum("m,mi,mj->ij", masses, mol.positions,
                                                       mol.positions)))
        assert abs(moments[1] / moments[2] / ratio - 1.0) <= 1e-6
        assert build_modes(mol, rng=0).n_modes == 3
