from dataclasses import replace

import numpy as np
import pytest

from molrest.errors import CollinearGeometryError
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
    basis = build_modes(water, seed=cand)
    assert verify_eckart(water, basis).max <= 1e-10


def test_build_modes_rejects_rank_deficient_candidate(water):
    rng = np.random.default_rng(6)
    col = rng.normal(size=9)
    cand = np.stack([col, col, rng.normal(size=9)], axis=1)
    cand[:, 1] = cand[:, 0]  # duplicated direction
    with pytest.raises(ValueError):
        build_modes(water, seed=cand)


def test_build_modes_rejects_bad_seed_shape(water):
    with pytest.raises(ValueError):
        build_modes(water, seed=np.zeros((9, 5)))


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

    basis = build_modes(penta, seed=hessian)
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
        build_modes(water, seed=h)


def test_build_modes_uses_molecule_payload(water):
    rng = np.random.default_rng(9)
    from dataclasses import replace

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
