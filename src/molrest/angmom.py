"""Inertia tensors and angular-momentum bookkeeping.

The instantaneous inertia tensor is affine in the mode amplitudes,
I(Q) = I0 + sum_alpha Q^alpha I_alpha, where I0 is the (diagonal)
equilibrium tensor and the coupling tensors

    (I_alpha)_kl = sum_mu sqrt(M_mu) (e_k x X_{mu alpha}) . (e_l x R0_mu)

are symmetric exactly when the mode basis satisfies the rotational sum
rule (their antisymmetric part is [sum_mu sqrt(M_mu) R0_mu x X_mu alpha]x);
the rule is asserted by ``verify_eckart``, never patched up.  The
rest-frame angular momentum splits into rigid I(Q) Omega, a
mode-coupling (deformation) term, and an electronic term.

Every function accepts one frame or a stack of T frames: mode
amplitudes (K,) or (T, K), particle blocks (N, 3) or (T, N, 3).  All
three angular-momentum terms go through the one ``lie_so3.cross_sum``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EckartViolationError
from .gates import INERTIA_SYMMETRY, MAX_INERTIA_COND
from .lie_so3 import cross_sum
from .modes import verify_eckart
from .molecule import equilibrium_inertia

__all__ = [
    "MAX_INERTIA_COND",
    "InertiaModel",
    "build_inertia",
    "inertia_at",
    "pd_bound",
    "mode_sum",
    "relative_angmom",
    "deformation_angmom",
    "decompose_angmom",
]


@dataclass(frozen=True)
class InertiaModel:
    """Equilibrium inertia i0 and per-mode coupling tensors i_alpha."""

    i0: np.ndarray
    i_alpha: np.ndarray  # (K, 3, 3)


def build_inertia(mol, basis, symmetry_tol=INERTIA_SYMMETRY):
    """Assemble the InertiaModel for a molecule and mode basis.

    Raises ``EckartViolationError`` when the basis violates the
    rotational sum rule, the condition for symmetric coupling tensors:
    when ``verify_eckart(mol, basis).rotation``, a relative residual,
    exceeds ``symmetry_tol``.  The error carries that residual;
    ``symmetry_tol=np.inf`` disables the check.
    """
    rotation = verify_eckart(mol, basis).rotation
    if rotation > symmetry_tol:
        raise EckartViolationError(
            f"inertia coupling tensors asymmetric (relative residual {rotation:.3e} > "
            f"{symmetry_tol:g}): mode basis violates the rotational sum rule",
            residual=rotation,
        )
    sqrt_m = np.sqrt(mol.masses)
    x = basis.x
    dot = np.einsum("m,mak,mk->a", sqrt_m, x, mol.positions)
    outer = np.einsum("m,mk,mal->akl", sqrt_m, mol.positions, x)
    i_alpha = dot[:, None, None] * np.eye(3)[None, :, :] - outer
    return InertiaModel(i0=equilibrium_inertia(mol), i_alpha=i_alpha)


def inertia_at(model, q):
    """Instantaneous inertia I0 + sum_alpha Q^alpha I_alpha.

    ``q`` is (K,) for one frame or (T, K) for a stack, giving (3, 3) or
    (T, 3, 3).  The spectrum is not checked here: ``extract_internal``,
    the one caller that inverts I(Q), gates it against
    ``gates.MAX_INERTIA_COND``.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    k = model.i_alpha.shape[0]
    if q.shape[-1] != k:
        raise ValueError(f"expected {k} mode amplitudes, got shape {q.shape}")
    return model.i0 + np.einsum("...a,akl->...kl", q, model.i_alpha)


def pd_bound(model):
    """Amplitude radius within which I(Q) is guaranteed positive-definite.

    For ||Q||_2 below the returned value the perturbation
    sum Q^alpha I_alpha cannot reach the smallest eigenvalue of i0.
    """
    smallest = float(np.linalg.eigvalsh(model.i0)[0])
    if model.i_alpha.size == 0:
        return np.inf
    norms = np.linalg.norm(model.i_alpha, ord=2, axis=(1, 2))
    total = float(np.sqrt(np.sum(norms**2)))
    return np.inf if total == 0.0 else smallest / total


def mode_sum(coeff, directions):
    """sum_alpha coeff^alpha directions[:, alpha]: (..., K) -> (..., N, 3)."""
    return np.einsum("...a,mak->...mk", coeff, directions)


def relative_angmom(relative):
    """Orbital angular momentum of a relative configuration about the COM.

    On rest-frame data this is the rest angular momentum; the symmetrized
    operator ordering reduces to it on commuting samples.
    """
    return (cross_sum(relative.nuclei_positions, relative.nuclei_momenta)
            + cross_sum(relative.electron_positions, relative.electron_momenta))


def deformation_angmom(basis, amplitudes, momenta):
    """Mode-coupling term sum_mu (sum_a Q^a X_mu a) x (sum_b P_b X^dual_mu b)."""
    return cross_sum(mode_sum(amplitudes, basis.x), mode_sum(momenta, basis.x_dual))


def decompose_angmom(model, basis, state):
    """Three-term split of the rest angular momentum.

    Returns ``(rotational, deformation, electronic)`` with
    rotational = I(Q) Omega, deformation the mode-coupling cross term,
    electronic the internal electron term.  Their sum reproduces the
    rest-frame angular momentum of the corresponding configuration.
    Each term is (3,) for one frame or (T, 3) for a stacked state.
    """
    inertia = inertia_at(model, state.Q)
    rotational = (inertia @ state.angular_velocity[..., None])[..., 0]
    deformation = deformation_angmom(basis, state.Q, state.P)
    electronic = cross_sum(state.q, state.p)
    return rotational, deformation, electronic
