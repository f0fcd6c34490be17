"""Mass-weighted internal mode bases and the frame-defining sum rules.

A mode basis is a set of 3N-6 mass-weighted displacement directions
X_{mu alpha} that are orthogonal to the six external directions (overall
translations and infinitesimal rotations of the equilibrium geometry):

    sum_mu sqrt(M_mu) X_{mu alpha} = 0
    sum_mu sqrt(M_mu) R0_mu x X_{mu alpha} = 0

Every basis produced here is orthonormal, so the dual basis (the one
pairing with mode momenta) coincides with it up to round-off; the dual
is nevertheless computed through the Gram matrix so slightly skewed
bases remain consistent.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CollinearGeometryError
from .lie_so3 import cross, cross_sum, length, relative
from .molecule import equilibrium_inertia, fix_column_signs

__all__ = ["ModeBasis", "EckartResiduals", "external_subspace", "build_modes", "verify_eckart"]


@dataclass(frozen=True)
class ModeBasis:
    """Internal directions per nucleus.

    x : (N, K, 3) array, K = 3N - 6; x[mu, alpha] is the displacement
        direction of nucleus mu in mode alpha (mass-weighted).
    x_dual : (N, K, 3) array, the dual directions.
    frequencies : (K,) array of mode frequencies when the basis came
        from a force-constant matrix, else None.
    """

    x: np.ndarray
    x_dual: np.ndarray
    frequencies: np.ndarray | None = None

    @property
    def n_modes(self):
        return self.x.shape[1]


@dataclass(frozen=True)
class EckartResiduals:
    """Worst residual over the modes of each sum rule, all free of units.

    translation |sum sqrt(M) X| / sum sqrt(M) |X| and rotation
    |sum sqrt(M) R0 x X| / sum sqrt(M) |R0| |X| (``lie_so3.relative``);
    duality is the largest entry of |X . X_dual - 1|.
    """

    translation: float
    rotation: float
    duality: float

    @property
    def max(self):
        return max(self.translation, self.rotation, self.duality)


def _require_prepared(mol):
    if not mol.prepared:
        raise ValueError("a prepared molecule is required (run prepare_equilibrium)")


def external_subspace(mol):
    """Orthonormal (3N, 6) basis of mass-weighted translations and rotations.

    Columns 0..2 are the translations, 3..5 the rotations about the
    principal axes.  Requires a prepared molecule; collinear geometries
    (vanishing principal moment) are rejected.
    """
    _require_prepared(mol)
    moments = np.diag(equilibrium_inertia(mol))
    if np.min(moments) <= 1e-10 * max(np.max(moments), 1e-300):
        raise CollinearGeometryError("rotational directions degenerate: collinear geometry")
    sqrt_m = np.sqrt(mol.masses)[:, None]
    cols = np.zeros((3 * mol.n_nuclei, 6))
    for axis, unit in enumerate(np.eye(3)):
        cols[:, axis] = (sqrt_m * unit).ravel() / np.sqrt(mol.masses.sum())
        cols[:, 3 + axis] = (sqrt_m * cross(unit, mol.positions)).ravel() / np.sqrt(moments[axis])
    return cols


def _internal_complement(external):
    full, _ = np.linalg.qr(external, mode="complete")
    return fix_column_signs(full[:, external.shape[1]:])


def _from_candidate(external, candidate):
    projected = candidate - external @ (external.T @ candidate)
    q, r = np.linalg.qr(projected)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-10 * max(diag.max(), 1e-300):
        raise ValueError("candidate directions are rank-deficient after projection")
    return fix_column_signs(q), None


def _from_hessian(mol, external, hessian):
    if not np.allclose(hessian, hessian.T, atol=1e-8 * max(1.0, np.abs(hessian).max())):
        raise ValueError("hessian must be symmetric")
    inv_sqrt = np.repeat(1.0 / np.sqrt(mol.masses), 3)
    weighted = hessian * inv_sqrt[:, None] * inv_sqrt[None, :]
    basis = _internal_complement(external)
    evals, evecs = np.linalg.eigh(basis.T @ weighted @ basis)
    cols = fix_column_signs(basis @ evecs)
    return cols, np.sqrt(np.abs(evals))


def build_modes(mol, seed=None, rng=None):
    """Construct an orthonormal internal ModeBasis.

    Parameters
    ----------
    mol : prepared Molecule.
    seed : optional array.  Shape (3N, 3N) means a symmetric
        force-constant matrix (modes diagonalize its mass-weighted
        internal block, frequencies are returned); shape (3N, 3N-6)
        means candidate directions (projected and orthonormalized).
        When omitted, the molecule's own hessian or mode seed is used
        if present, otherwise random candidates drawn from ``rng``.
    rng : int seed or numpy Generator for the random fallback.

    The returned basis satisfies the sum rules to round-off regardless
    of the seed; different random seeds span the identical subspace.
    """
    _require_prepared(mol)
    n3 = 3 * mol.n_nuclei
    k = n3 - 6
    external = external_subspace(mol)

    if seed is None:
        if mol.mode_seed is not None:
            seed = mol.mode_seed
        elif mol.hessian is not None:
            seed = mol.hessian

    freqs = None
    if seed is None:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        cols, freqs = _from_candidate(external, gen.normal(size=(n3, k)))
    else:
        seed = np.asarray(seed, dtype=float)
        if seed.shape == (n3, n3):
            cols, freqs = _from_hessian(mol, external, seed)
        elif seed.shape == (n3, k):
            cols, freqs = _from_candidate(external, seed)
        else:
            raise ValueError(
                f"seed must have shape ({n3}, {n3}) for a hessian or ({n3}, {k}) "
                f"for candidate directions, got {seed.shape}"
            )

    x = np.transpose(cols.reshape(mol.n_nuclei, 3, k), (0, 2, 1))
    gram = np.einsum("mak,mbk->ab", x, x)
    dual_cols = np.linalg.solve(gram.T, cols.T).T
    x_dual = np.transpose(dual_cols.reshape(mol.n_nuclei, 3, k), (0, 2, 1))
    return ModeBasis(x=x, x_dual=x_dual, frequencies=freqs)


def verify_eckart(mol, basis):
    """Relative residuals of the translation and rotation sum rules, and the duality residual."""
    sqrt_m = np.sqrt(mol.masses)
    x = np.swapaxes(basis.x, 0, 1)  # (K, N, 3): the particle axis second to last
    size = sqrt_m * length(x)
    trans = relative(length(np.sum(sqrt_m[:, None] * x, axis=-2)), np.sum(size, axis=-1))
    rot = relative(length(cross_sum(mol.positions, sqrt_m[:, None] * x)),
                   size @ length(mol.positions))
    pairing = np.einsum("mak,mbk->ab", basis.x, basis.x_dual)
    return EckartResiduals(
        translation=float(np.max(trans, initial=0.0)),
        rotation=float(np.max(rot, initial=0.0)),
        duality=float(np.max(np.abs(pairing - np.eye(x.shape[0])), initial=0.0)),
    )
