from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from molrest.errors import CollinearGeometryError
from molrest.molecule import Molecule, load_molecule, prepare_equilibrium
from molrest.modes import ModeBasis, build_modes, external_subspace, verify_eckart


def test_external_subspace_orthonormal(penta):
    ext = external_subspace(penta)
    assert ext.shape == (15, 6)
    assert np.allclose(ext.T @ ext, np.eye(6), atol=1e-12)


def test_external_subspace_contains_translations(water):
    ext = external_subspace(water)
    sqrt_m = np.sqrt(water.masses)
    for axis in range(3):
        block = np.zeros((3, 3))
        block[:, axis] = sqrt_m
        vec = block.ravel()
        # vec lies in the span: projecting onto the columns reproduces it
        proj = ext @ (ext.T @ vec)
        assert np.allclose(proj, vec, atol=1e-12)


def test_external_subspace_requires_prepared(water_raw):
    with pytest.raises(ValueError):
        external_subspace(water_raw)


def test_external_subspace_rejects_collinear_geometry():
    # prepare_equilibrium rejects it first, so the molecule is built as prepared
    rod = Molecule(masses=np.ones(3), prepared=True,
                   positions=[[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(CollinearGeometryError, match="collinear"):
        external_subspace(rod)


@pytest.mark.parametrize("fixture", ["water", "penta", "square"])
def test_build_modes_satisfies_sum_rules(fixture, request):
    mol = request.getfixturevalue(fixture)
    basis = build_modes(mol, rng=0)
    assert basis.n_modes == 3 * mol.n_nuclei - 6
    res = verify_eckart(mol, basis)
    assert res.translation <= 1e-10
    assert res.rotation <= 1e-10
    assert res.duality <= 1e-12


def test_build_modes_orthonormal(penta):
    basis = build_modes(penta, rng=1)
    gram = np.einsum("mak,mbk->ab", basis.x, basis.x)
    assert np.allclose(gram, np.eye(basis.n_modes), atol=1e-13)


def test_build_modes_subspace_independent_of_seed(penta):
    def projector(basis):
        cols = np.transpose(basis.x, (0, 2, 1)).reshape(15, -1)
        return cols @ cols.T

    p1 = projector(build_modes(penta, rng=2))
    p2 = projector(build_modes(penta, rng=3))
    assert np.max(np.abs(p1 - p2)) <= 1e-10


def test_build_modes_deterministic(penta):
    a = build_modes(penta, rng=7)
    b = build_modes(penta, rng=7)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.x_dual, b.x_dual)


def test_build_modes_candidate_with_external_contamination(water):
    rng = np.random.default_rng(5)
    ext = external_subspace(water)
    cand = rng.normal(size=(9, 3)) + ext[:, :3] @ rng.normal(size=(3, 3)) * 10.0
    basis = build_modes(replace(water, mode_seed=cand))
    assert verify_eckart(water, basis).max <= 1e-10


def test_build_modes_rejects_rank_deficient_candidate(water):
    rng = np.random.default_rng(6)
    col = rng.normal(size=9)
    cand = np.stack([col, col, rng.normal(size=9)], axis=1)
    cand[:, 1] = cand[:, 0]  # duplicated direction
    with pytest.raises(ValueError):
        build_modes(replace(water, mode_seed=cand))


@pytest.mark.parametrize("scale, deficient", [(5e-11, True), (2e-10, False)])
def test_candidate_rank_gate_edge(water, scale, deficient):
    # orthonormal internal candidates, the last scaled: the R factor's diagonal
    # ratio is scale, either side of the gate at 1e-10
    cols = np.transpose(build_modes(water, rng=0).x, (0, 2, 1)).reshape(9, 3)
    seeded = replace(water, mode_seed=cols * [1.0, 1.0, scale])
    if deficient:
        with pytest.raises(ValueError, match="rank-deficient"):
            build_modes(seeded)
    else:
        assert build_modes(seeded).n_modes == 3


def test_build_modes_rejects_bad_seed_shape(water):
    with pytest.raises(ValueError):
        build_modes(replace(water, mode_seed=np.zeros((9, 5))))


def test_build_modes_requires_prepared(water_raw):
    with pytest.raises(ValueError):
        build_modes(water_raw)


def test_build_modes_from_hessian_recovers_spectrum(penta):
    # Synthesize a force-constant matrix with known internal eigenvalues.
    rng = np.random.default_rng(8)
    ext = external_subspace(penta)
    full, _ = np.linalg.qr(ext, mode="complete")
    internal = full[:, 6:]
    w = np.sort(rng.uniform(0.5, 4.0, size=9))
    weighted = internal @ np.diag(w) @ internal.T
    sqrt_m = np.repeat(np.sqrt(penta.masses), 3)
    hessian = weighted * sqrt_m[:, None] * sqrt_m[None, :]

    basis = build_modes(replace(penta, hessian=hessian))
    assert basis.frequencies is not None
    assert np.allclose(np.sort(basis.frequencies), np.sqrt(w), atol=1e-10)
    assert verify_eckart(penta, basis).max <= 1e-10
    # the modes diagonalize the mass-weighted internal block
    cols = np.transpose(basis.x, (0, 2, 1)).reshape(15, -1)
    block = cols.T @ weighted @ cols
    assert np.allclose(block, np.diag(np.sort(w)), atol=1e-10)


def test_build_modes_rejects_asymmetric_hessian(water):
    h = np.arange(81, dtype=float).reshape(9, 9)
    with pytest.raises(ValueError):
        build_modes(replace(water, hessian=h))


@pytest.mark.parametrize("factor, symmetric", [(0.5, True), (2.0, False)])
def test_hessian_symmetry_gate_edge(factor, symmetric):
    # water.json's entry (1, 4), -4.13, raised by factor times the gate 1e-8 max|H|:
    # a relative tolerance of 1e-5 on it would accept 250 times the gate
    mol = prepare_equilibrium(load_molecule(Path(__file__).parent / "data" / "water.json"))
    hessian = mol.hessian.copy()
    hessian[1, 4] += factor * 1e-8 * np.abs(hessian).max()
    if symmetric:
        assert build_modes(replace(mol, hessian=hessian)).frequencies is not None
    else:
        with pytest.raises(ValueError, match="^hessian must be symmetric$"):
            build_modes(replace(mol, hessian=hessian))


def test_build_modes_uses_molecule_payload(water):
    rng = np.random.default_rng(9)
    carried = replace(water, mode_seed=rng.normal(size=(9, 3)))
    basis = build_modes(carried)
    assert verify_eckart(carried, basis).max <= 1e-10


def test_verify_eckart_flags_broken_basis(water):
    basis = build_modes(water, rng=10)
    bad_x = basis.x.copy()
    bad_x[:, 0, 0] += 0.05  # inject a translation component
    broken = ModeBasis(x=bad_x, x_dual=basis.x_dual)
    res = verify_eckart(water, broken)
    assert res.translation > 1e-3


@pytest.mark.parametrize("mass_scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("length_scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("fixture", ["water", "penta"])
def test_verify_eckart_does_not_depend_on_units(fixture, mass_scale, length_scale, request):
    # the mode directions are dimensionless: one basis fits the molecule in
    # any units, and every residual is relative, so each stays at round-off
    mol = request.getfixturevalue(fixture)
    basis = build_modes(mol, rng=5)
    scaled = replace(mol, masses=mass_scale * mol.masses, positions=length_scale * mol.positions)
    res = verify_eckart(scaled, basis)
    assert res.translation <= 1e-14
    assert res.rotation <= 1e-14
    assert res.duality <= 1e-14


def _heavy_clusters(count, seed=3):
    # 20-nucleus clusters in electron-mass units, far from the origin
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mol = Molecule(masses=rng.uniform(1.0, 20.0, 20) * 1822.9,
                       positions=rng.normal(0.0, 3.0, (20, 3)) + rng.uniform(-30.0, 30.0, 3))
        yield prepare_equilibrium(mol), rng.normal(size=(60, 54))


def test_build_modes_round_off_floor_on_heavy_clusters():
    # the sum rules hold to round-off whatever the condition number of the
    # candidates, which reaches 2e5 on these clusters
    worst_random = worst_seeded = 0.0
    for i, (mol, candidate) in enumerate(_heavy_clusters(200)):
        worst_random = max(worst_random, verify_eckart(mol, build_modes(mol, rng=i)).max)
        seeded = replace(mol, mode_seed=candidate)
        worst_seeded = max(worst_seeded, verify_eckart(mol, build_modes(seeded)).max)
    assert worst_random <= 1e-14
    assert worst_seeded <= 1e-14


def test_build_modes_draws_one_block_on_the_random_path_only(penta):
    # heisenberg draws its states from the generator after the basis
    def state_after(mol):
        gen = np.random.default_rng(11)
        build_modes(mol, rng=gen)
        return gen.bit_generator.state

    drawn = np.random.default_rng(11)
    drawn.normal(size=(15, 9))
    assert state_after(penta) == drawn.bit_generator.state
    untouched = np.random.default_rng(11).bit_generator.state
    rng = np.random.default_rng(12)
    assert state_after(replace(penta, mode_seed=rng.normal(size=(15, 9)))) == untouched
    hessian = rng.normal(size=(15, 15))
    assert state_after(replace(penta, hessian=hessian + hessian.T)) == untouched


def test_mode_seed_wins_over_hessian(water):
    rng = np.random.default_rng(13)
    candidate = rng.normal(size=(9, 3))
    hessian = rng.normal(size=(9, 9))
    both = build_modes(replace(water, mode_seed=candidate, hessian=hessian + hessian.T))
    assert both.frequencies is None
    assert np.array_equal(both.x, build_modes(replace(water, mode_seed=candidate)).x)


def test_built_basis_is_its_own_dual(penta):
    basis = build_modes(penta, rng=14)
    assert basis.x_dual is basis.x
