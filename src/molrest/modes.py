"""Mass-weighted internal mode bases and the frame-defining sum rules.

A mode basis is a set of 3N-6 mass-weighted displacement directions
X_{mu alpha} that are orthogonal to the six external directions (overall
translations and infinitesimal rotations of the equilibrium geometry):

    sum_mu sqrt(M_mu) X_{mu alpha} = 0
    sum_mu sqrt(M_mu) R0_mu x X_{mu alpha} = 0

``build_modes`` makes every basis one way: the orthonormal complement of
the external directions, turned by an orthogonal matrix from the
molecule's seed.  Such a basis is orthonormal, so it is its own dual
(the directions that pair with mode momenta).
"""

from dataclasses import dataclass

import numpy as np

from .errors import CollinearGeometryError
from .gates import COLLINEAR_RTOL, HESSIAN_SYMMETRY, RANK_RATIO
from .lie_so3 import component_length, cross, cross_sum, relative
from .molecule import equilibrium_inertia, fix_column_signs

__all__ = ["ModeBasis", "EckartResiduals", "external_subspace", "build_modes", "verify_eckart"]


@dataclass(frozen=True)
class ModeBasis:
    """Internal directions per nucleus.

    x : (N, K, 3) array, K = 3N - 6; x[mu, alpha] is the displacement
        direction of nucleus mu in mode alpha (mass-weighted).
    x_dual : (N, K, 3) array, the dual directions, with
        sum_{mu, i} x[mu, alpha, i] x_dual[mu, beta, i] = delta.
        ``build_modes`` returns orthonormal bases, whose x_dual is x
        itself; a hand-built basis supplies its own.
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


def external_subspace(mol):
    """Orthonormal (3N, 6) basis of mass-weighted translations and rotations.

    Columns 0..2 are the translations, 3..5 the rotations about the
    principal axes.  Requires a prepared molecule; collinear geometries
    (vanishing principal moment) are rejected.
    """
    if not mol.prepared:
        raise ValueError("a prepared molecule is required (run prepare_equilibrium)")
    moments = np.diag(equilibrium_inertia(mol))
    if relative(np.min(moments), np.max(moments)) <= COLLINEAR_RTOL:
        raise CollinearGeometryError("rotational directions degenerate: collinear geometry")
    sqrt_m = np.sqrt(mol.masses)[:, None]
    cols = np.zeros((3 * mol.n_nuclei, 6))
    for axis, unit in enumerate(np.eye(3)):
        cols[:, axis] = (sqrt_m * unit).ravel() / np.sqrt(mol.masses.sum())
        cols[:, 3 + axis] = (sqrt_m * cross(unit, mol.positions)).ravel() / np.sqrt(moments[axis])
    return cols


def build_modes(mol, rng=None):
    """Construct the orthonormal internal ModeBasis of a prepared molecule.

    Every basis is the internal complement of ``external_subspace`` (the
    last 3N-6 columns of its complete QR, sign-fixed) turned by an
    orthogonal (3N-6, 3N-6) matrix U taken from the molecule's seed:

    - ``mol.mode_seed`` (3N, 3N-6) candidate directions, which win when
      both seeds are present: U is the Q factor of their internal
      components;
    - else ``mol.hessian``, a symmetric (3N, 3N) force-constant matrix:
      U holds the eigenvectors of its mass-weighted internal block, whose
      eigenvalues give the frequencies;
    - else one (3N, 3N-6) normal draw from ``rng`` (an int seed or a
      numpy Generator), treated as candidate directions.

    The columns are sign-fixed and the basis is its own dual, so it
    satisfies the sum rules to round-off whatever the seed; different
    random draws span the identical subspace.  Only the random path
    draws from ``rng``.
    """
    full, _ = np.linalg.qr(external_subspace(mol), mode="complete")
    internal = fix_column_signs(full[:, 6:])

    freqs = None
    if mol.mode_seed is None and mol.hessian is not None:
        hessian = mol.hessian
        # each pair within the gate times the largest entry: allclose's default rtol allows 1e-5
        if not np.allclose(hessian, hessian.T, rtol=0.0,
                           atol=HESSIAN_SYMMETRY * max(1.0, np.abs(hessian).max())):
            raise ValueError("hessian must be symmetric")
        inv_sqrt = np.repeat(1.0 / np.sqrt(mol.masses), 3)
        weighted = hessian * inv_sqrt[:, None] * inv_sqrt[None, :]
        evals, turn = np.linalg.eigh(internal.T @ weighted @ internal)
        freqs = np.sqrt(np.abs(evals))
    else:
        candidate = mol.mode_seed
        if candidate is None:
            gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
            candidate = gen.normal(size=internal.shape)
        turn, r = np.linalg.qr(internal.T @ candidate)
        diag = np.abs(np.diag(r))
        if relative(diag.min(), diag.max()) <= RANK_RATIO:
            raise ValueError("candidate directions are rank-deficient after projection")

    cols = fix_column_signs(internal @ turn)
    x = np.transpose(cols.reshape(mol.n_nuclei, 3, -1), (0, 2, 1))
    return ModeBasis(x=x, x_dual=x, frequencies=freqs)


def verify_eckart(mol, basis):
    """Relative residuals of the translation and rotation sum rules, and the duality residual."""
    sqrt_m = np.sqrt(mol.masses)
    x = np.swapaxes(basis.x, 0, 1)  # (K, N, 3): the particle axis second to last
    size = sqrt_m * component_length(x)
    trans = relative(component_length(np.sum(sqrt_m[:, None] * x, axis=-2)),
                     np.sum(size, axis=-1))
    rot = relative(component_length(cross_sum(mol.positions, sqrt_m[:, None] * x)),
                   size @ component_length(mol.positions))
    pairing = np.einsum("mak,mbk->ab", basis.x, basis.x_dual)
    return EckartResiduals(
        translation=float(np.max(trans, initial=0.0)),
        rotation=float(np.max(rot, initial=0.0)),
        duality=float(np.max(np.abs(pairing - np.eye(x.shape[0])), initial=0.0)),
    )
