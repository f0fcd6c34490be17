"""The extraction map is canonical: Poisson brackets of the extracted observables.

The forward map ``analyze`` takes the lab coordinates z = (r, p) of every
particle to the centre-of-mass pair (X, P_cm), the mode pair (Q, P), the
internal electron pair (q, p), the body-frame angular momentum L and the
orientation omega.  Its Jacobian J, by central differences over every lab
coordinate, gives every bracket at once: {f, g} = J_r(f) . J_p(g) - J_p(f) . J_r(g).
All 12 (N + n) perturbed frames go through one batched ``analyze``.
"""

from pathlib import Path

import numpy as np
import pytest

from molrest.frames import Configuration, EckartFrame, InternalState, analyze, reconstruct
from molrest.lie_so3 import exp_map, frame_fields
from molrest.modes import build_modes
from molrest.molecule import load_molecule, prepare_equilibrium

TOL = 1e-8
REL_STEP = 1e-5


@pytest.fixture
def water_file():
    return prepare_equilibrium(load_molecule(Path(__file__).parent / "data" / "water.json"))


def boosted_displaced_config(mol, basis, omega_norm, rng):
    """A lab frame at orientation |omega| = omega_norm with every internal pair nonzero."""
    k, n = basis.x.shape[1], mol.electron_count
    axis = rng.normal(size=3)
    omega = omega_norm * axis / np.linalg.norm(axis)
    frame = EckartFrame(rotation=exp_map(omega), orientation=omega, residual=0.0, scale=0.0)
    state = InternalState(
        com_position=rng.normal(scale=2.0, size=3),
        com_momentum=rng.normal(scale=0.5, size=3),
        Q=rng.normal(scale=0.05, size=k),
        P=rng.normal(scale=0.3, size=k),
        q=rng.normal(scale=1.0, size=(n, 3)),
        p=rng.normal(scale=0.2, size=(n, 3)),
        angular_velocity=rng.normal(scale=0.3, size=3),
        angular_momentum=np.zeros(3),
        frame=frame,
    )
    return reconstruct(mol, basis, state)


def observables(state):
    """(T, F) rows: X, P_cm, Q, P, q, p, L, omega, and the slices naming them."""
    parts = {
        "X": state.com_position, "P_cm": state.com_momentum, "Q": state.Q, "P": state.P,
        "q": state.q.reshape(len(state.Q), -1), "p": state.p.reshape(len(state.Q), -1),
        "L": state.angular_momentum, "omega": state.frame.orientation,
    }
    slices, start = {}, 0
    for name, value in parts.items():
        slices[name] = slice(start, start + value.shape[1])
        start += value.shape[1]
    return np.concatenate(list(parts.values()), axis=1), slices


def brackets(mol, basis, cfg, rel_step=REL_STEP):
    """The (F, F) bracket matrix of ``observables`` at cfg, and its slices."""
    z = np.concatenate([cfg.nuclei_positions.ravel(), cfg.electron_positions.ravel(),
                        cfg.nuclei_momenta.ravel(), cfg.electron_momenta.ravel()])
    h = rel_step * np.maximum(1.0, np.abs(z))
    shifted = np.concatenate([z + np.diag(h), z - np.diag(h)])  # (2 D, D)
    nr, er = 3 * mol.n_nuclei, 3 * mol.electron_count
    cuts = np.cumsum([nr, er, nr])
    nuc_r, el_r, nuc_p, el_p = np.split(shifted, cuts, axis=1)
    stack = Configuration(*(block.reshape(len(shifted), -1, 3)
                            for block in (nuc_r, nuc_p, el_r, el_p)))
    values, slices = observables(analyze(mol, basis, stack))
    plus, minus = np.split(values, 2)
    jac = ((plus - minus) / (2.0 * h[:, None])).T  # (F, D)
    half = len(z) // 2
    j_r, j_p = jac[:, :half], jac[:, half:]
    return j_r @ j_p.T - j_p @ j_r.T, slices


def assert_canonical(bracket, sl, state, tol, spread=0.0, with_omega=True):
    """Every bracket of the split within tol of its canonical value.

    ``spread``, when given, is |B(2h) - B(h)| (F, F) of two ``brackets``
    steps: three times its largest entry in a block is added to that
    block's tolerance, a bound on the central difference's own error.
    {omega, L} is checked only when ``with_omega``: omega jumps at the
    antipode.
    """
    spread = np.broadcast_to(spread, bracket.shape)

    def check(a, b, expected):
        err = np.abs(bracket[sl[a], sl[b]] - expected).max(initial=0.0)
        assert err <= tol + 3.0 * spread[sl[a], sl[b]].max(initial=0.0), (a, b, err)

    # (X, P_cm), (Q, P), (q, p) bracket to I; every other pair of these and L is 0
    pairs = {"X": "P_cm", "Q": "P", "q": "p"}
    names = ["X", "P_cm", "Q", "P", "q", "p"]
    for a in names:
        for b in names + ["L"]:
            expected = 0.0
            if pairs.get(a) == b:
                expected = np.eye(sl[a].stop - sl[a].start)
            elif pairs.get(b) == a:
                expected = -np.eye(sl[a].stop - sl[a].start)
            check(a, b, expected)

    # body components: {L_i, L_j} = -eps_ijk L_k
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    check("L", "L", -eps @ state.angular_momentum)

    # {omega^k, L_i} = m[k, i], the dual frame field at the orientation
    if with_omega:
        check("omega", "L", frame_fields(state.frame.orientation)[1])


@pytest.mark.parametrize("omega_norm", [0.67, 2.5])
@pytest.mark.parametrize("name", ["water_file", "penta", "square"])
def test_extraction_map_is_canonical(request, name, omega_norm):
    mol = request.getfixturevalue(name)
    rng = np.random.default_rng(21)
    basis = build_modes(mol, rng=rng)
    cfg = boosted_displaced_config(mol, basis, omega_norm, rng)
    bracket, sl = brackets(mol, basis, cfg)
    state = analyze(mol, basis, cfg)
    assert np.isclose(np.linalg.norm(state.frame.orientation), omega_norm, atol=1e-12)
    assert_canonical(bracket, sl, state, TOL)
