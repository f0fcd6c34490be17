"""The orientation solve recovers a known rotation, and turns with the frame.

Each example is a random prepared molecule (3-12 nuclei, masses up to
200) and a stack of 1-5 frames C + R (X + d): X the equilibrium
geometry, R a rotation by an angle up to pi (the seam included), C a
centre-of-mass offset of size 0, 1 or 100, and d a displacement with
sum M d = 0 and sum M X x d = 0.  Those two conditions make R the exact
solution of the rotational Eckart condition, so ``solve_eckart`` must
return it with a relative residual at round-off, and must return Q R
for the same frames turned by a further rotation Q.  The frames go in
with their offset C: the prepared X has sum M X = 0, so the solve
does not see it.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from molrest.frames import solve_eckart
from molrest.lie_so3 import component_length, cross, exp_map
from molrest.molecule import Molecule, prepare_equilibrium
from test_roundtrip_properties import ANGLES, SCALES

ROTATION_TOL = 1e-10
RESIDUAL_TOL = 1e-12
EQUIVARIANCE_TOL = 1e-9


def eckart_displacements(mol, d):
    """d (T, N, 3) projected onto sum M d = 0 and sum M X x d = 0, Euclidean-nearest."""
    eye = np.eye(3)
    rows = [mol.masses[:, None] * unit for unit in eye]  # (sum M d)_k
    rows += [mol.masses[:, None] * cross(unit, mol.positions) for unit in eye]  # (sum M X x d)_k
    a = np.stack([row.ravel() for row in rows])  # (6, 3N)
    flat = d.reshape(len(d), -1)
    flat = flat - np.linalg.solve(a @ a.T, a @ flat.T).T @ a
    return flat.reshape(d.shape)


def rotation(rng, theta):
    axis = rng.normal(size=3)
    return exp_map(theta * axis / component_length(axis))


@st.composite
def eckart_frames(draw):
    """(molecule, generating rotations, lab nuclear positions, a further rotation Q)."""
    n = draw(st.integers(3, 12))
    angles = draw(st.lists(ANGLES, min_size=1, max_size=5))
    turn = draw(ANGLES)
    offset = draw(SCALES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    positions = rng.uniform(-2.0, 2.0, (n, 3))
    dist = component_length(positions[:, None] - positions[None])
    np.fill_diagonal(dist, np.inf)
    assume(dist.min() > 0.3)
    mol = prepare_equilibrium(Molecule(masses=np.exp(rng.uniform(0.0, np.log(200.0), n)),
                                       positions=positions))

    rotations = np.stack([rotation(rng, theta) for theta in angles])
    d = eckart_displacements(mol, rng.normal(scale=0.03, size=(len(angles), n, 3)))
    com = offset * rng.normal(size=(len(angles), 1, 3))
    lab = com + (mol.positions + d) @ np.swapaxes(rotations, -1, -2)
    return mol, rotations, lab, rotation(rng, turn)


@given(eckart_frames())
def test_solve_eckart_returns_the_generating_rotation(example):
    mol, rotations, lab, q = example
    frame = solve_eckart(mol, lab)
    assert not frame.degenerate.any()
    assert np.abs(frame.rotation - rotations).max() <= ROTATION_TOL
    assert frame.relative_residual.max() <= RESIDUAL_TOL

    turned = solve_eckart(mol, lab @ q.T)
    assert np.abs(turned.rotation - q @ frame.rotation).max() <= EQUIVARIANCE_TOL
