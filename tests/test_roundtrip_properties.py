"""analyze -> reconstruct round trips over random molecules and stacks.

Hypothesis draws the structure of each example: 3-12 nuclei, 0-4
electrons, a random or a Hessian mode basis, 1-5 frames, rotation
angles up to pi (the seam included), the size of the center-of-mass
offset and of the boost.  A drawn seed fills in the numbers (masses,
geometry, displacements, momenta), so every example is a generic
molecule.  ``reconstruct(analyze(cfg))`` must give back ``cfg`` within
the CLI's round-trip gate, relative to each entry, and the stacked
``analyze`` must give each frame the bits of the single-frame call.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from molrest.cli import TOL_ROUNDTRIP
from molrest.frames import BLOCKS, Configuration, analyze, reconstruct
from molrest.lie_so3 import component_length, exp_map
from molrest.modes import build_modes
from molrest.molecule import Molecule, prepare_equilibrium

ANGLES = st.one_of(st.floats(0.0, np.pi), st.floats(np.pi - 1e-6, np.pi), st.just(np.pi))
SCALES = st.sampled_from([0.0, 1.0, 100.0])


@st.composite
def systems(draw):
    """(molecule, basis, lab frames) of one example."""
    n = draw(st.integers(3, 12))
    n_el = draw(st.integers(0, 4))
    hessian_basis = draw(st.booleans())
    angles = draw(st.lists(ANGLES, min_size=1, max_size=5))
    offset, boost = draw(SCALES), draw(SCALES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    positions = rng.uniform(-2.0, 2.0, (n, 3))
    dist = component_length(positions[:, None] - positions[None])
    np.fill_diagonal(dist, np.inf)
    assume(dist.min() > 0.3)
    hessian = rng.normal(size=(3 * n, 3 * n)) if hessian_basis else None
    mol = prepare_equilibrium(Molecule(
        masses=np.exp(rng.uniform(0.0, np.log(200.0), n)),
        positions=positions,
        electron_count=n_el,
        electron_mass=rng.uniform(1e-4, 0.1),
        hessian=None if hessian is None else hessian + hessian.T,
    ))
    basis = build_modes(mol, rng=rng)

    frames = []
    for theta in angles:
        axis = rng.normal(size=3)
        r = exp_map(theta * axis / component_length(axis))
        com = offset * rng.normal(size=3)
        drift = boost * rng.normal(size=3)
        frames.append(Configuration(
            nuclei_positions=(mol.positions + rng.normal(scale=0.03, size=(n, 3))) @ r.T + com,
            nuclei_momenta=rng.normal(scale=0.3, size=(n, 3)) + np.outer(mol.masses, drift),
            electron_positions=rng.normal(scale=1.5, size=(n_el, 3)) + com,
            electron_momenta=rng.normal(scale=0.2, size=(n_el, 3)) + mol.electron_mass * drift,
        ))
    return mol, basis, frames


def _fields(state):
    """Every array of an InternalState and of its EckartFrame, by name."""
    return {**{k: v for k, v in vars(state).items() if k != "frame"}, **vars(state.frame)}


@given(systems())
def test_reconstruct_inverts_analyze(system):
    mol, basis, frames = system
    stack = Configuration.stack(frames)
    rebuilt = reconstruct(mol, basis, analyze(mol, basis, stack))
    for name in BLOCKS:
        want = getattr(stack, name)
        err = np.abs(getattr(rebuilt, name) - want)
        assert np.all(err <= TOL_ROUNDTRIP * np.maximum(1.0, np.abs(want))), (name, err.max())


@given(systems())
def test_stacked_analyze_is_each_single_frame(system):
    mol, basis, frames = system
    batched = _fields(analyze(mol, basis, Configuration.stack(frames)))
    for t, cfg in enumerate(frames):
        for name, value in _fields(analyze(mol, basis, cfg)).items():
            assert np.array_equal(batched[name][t], value), (t, name)
