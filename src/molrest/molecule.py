"""Molecular system definition, input schema, and equilibrium preparation.

A ``Molecule`` bundles the nuclear masses, the equilibrium nuclear
geometry, the electron count and mass, and hbar.  The equilibrium
geometry is the reference the body frame is anchored to; it must be
prepared (nuclear center of mass at the origin, principal axes of
inertia aligned with the coordinate axes) before mode bases and inertia
tensors are meaningful.
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CollinearGeometryError, SchemaError, positive_finite
from .gates import COINCIDENT_NUCLEI, COLLINEAR_RTOL
from .lie_so3 import component_length, cross

__all__ = [
    "MAX_ELECTRONS",
    "Molecule",
    "load_molecule",
    "prepare_equilibrium",
    "equilibrium_inertia",
]

# Largest electrons.count an input may give.  heisenberg reports a row
# for each of the (3 * count)^2 pairs of electronic line states; it takes
# the states one at a time, so the rows alone grow with the count, which
# the input alone sets.  128 caps them at 147456 rows, a 39 MB JSON
# report (water at the default grids: 3.3 s and 86 MB peak on a 2-CPU VM).
MAX_ELECTRONS = 128


@dataclass(frozen=True)
class Molecule:
    """Masses, equilibrium geometry and particle content of one system.

    Parameters
    ----------
    masses : (N,) array of positive nuclear masses.
    positions : (N, 3) array, the equilibrium nuclear geometry.
    electron_count : number of electrons treated as point particles.
    electron_mass : common electron mass m > 0.
    hbar : value of hbar used by every quantum check.
    prepared : True once the geometry has passed prepare_equilibrium.
    mode_seed : optional (3N, 3N-6) candidate internal directions.
    hessian : optional (3N, 3N) symmetric force-constant matrix.
    """

    masses: np.ndarray
    positions: np.ndarray
    electron_count: int = 0
    electron_mass: float = 1.0
    hbar: float = 1.0
    name: str = ""
    prepared: bool = False
    mode_seed: np.ndarray | None = field(default=None, repr=False)
    hessian: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        masses = np.atleast_1d(np.asarray(self.masses, dtype=float))
        positions = np.asarray(self.positions, dtype=float)
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("masses must be a non-empty 1-d array")
        if positions.shape != (masses.size, 3):
            raise ValueError(
                f"positions must have shape ({masses.size}, 3), got {positions.shape}"
            )
        if not np.all(np.isfinite(masses)) or np.any(masses <= 0.0):
            raise ValueError("masses must be finite and positive")
        if not np.all(np.isfinite(positions)):
            raise ValueError("positions must be finite")
        count = self.electron_count
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
            raise ValueError("electron_count must be a non-negative integer")
        for name in ("electron_mass", "hbar"):
            if not positive_finite(getattr(self, name)):
                raise ValueError(f"{name} must be positive")
        masses.setflags(write=False)
        positions.setflags(write=False)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "electron_count", int(count))
        n3 = 3 * masses.size
        if self.mode_seed is not None:
            seed = np.asarray(self.mode_seed, dtype=float)
            if seed.shape != (n3, n3 - 6):
                raise ValueError(f"mode_seed must have shape ({n3}, {n3 - 6})")
            if not np.all(np.isfinite(seed)):
                raise ValueError("mode_seed must be finite")
            object.__setattr__(self, "mode_seed", seed)
        if self.hessian is not None:
            hess = np.asarray(self.hessian, dtype=float)
            if hess.shape != (n3, n3):
                raise ValueError(f"hessian must have shape ({n3}, {n3})")
            if not np.all(np.isfinite(hess)):
                raise ValueError("hessian must be finite")
            object.__setattr__(self, "hessian", hess)

    @property
    def n_nuclei(self):
        return self.masses.size

    @property
    def nuclear_mass(self):
        """Nuclear mass M, the sum of the nuclear masses."""
        return float(self.masses.sum())

    @property
    def total_mass(self):
        """Total mass M + n m of nuclei and electrons."""
        return self.nuclear_mass + self.electron_count * self.electron_mass


def fix_column_signs(q):
    """Flip each column of ``q`` in place so its largest-magnitude entry is positive."""
    for k in range(q.shape[1]):
        j = int(np.argmax(np.abs(q[:, k])))
        if q[j, k] < 0.0:
            q[:, k] = -q[:, k]
    return q


def _principal_axes(masses, centered):
    """Right-handed eigenbasis of the planar tensor, moments descending."""
    s = np.einsum("m,mi,mj->ij", masses, centered, centered)
    evals, vecs = np.linalg.eigh(s)  # ascending
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    vecs = vecs[:, order]
    scale = max(evals[0], 0.0)
    if scale <= 0.0 or evals[1] <= COLLINEAR_RTOL * scale:
        raise CollinearGeometryError(
            "equilibrium geometry is collinear; a non-linear reference is required"
        )
    fix_column_signs(vecs[:, :2])
    vecs[:, 2] = cross(vecs[:, 0], vecs[:, 1])
    return evals, vecs


def prepare_equilibrium(mol):
    """Shift and rotate the equilibrium geometry into canonical position.

    Moves the nuclear center of mass to the origin and rotates the
    nuclei so the inertia tensor is diagonal with ascending moments; the
    applied rotation is proper and deterministic (sign convention on the
    principal axes).  Any mode seed or Hessian the molecule carries is
    rotated along with the geometry.

    Returns a new prepared ``Molecule``.  Raises
    ``CollinearGeometryError`` for collinear or coincident-nucleus
    geometries (coincident: within ``gates.COINCIDENT_NUCLEI`` of the
    extent, in any units), ``ValueError`` for fewer than 3 nuclei or an
    extent whose square overflows.
    """
    if mol.n_nuclei < 3:
        raise ValueError("preparation requires at least 3 nuclei")
    pos = mol.positions
    with np.errstate(over="ignore"):  # a square beyond the float range raises below
        extent = float(np.max(component_length(pos - pos.mean(axis=0))))
    if not np.isfinite(extent):
        raise ValueError("equilibrium geometry out of float range: its squared extent overflows")
    diffs = pos[:, None, :] - pos[None, :, :]
    dist = component_length(diffs)
    np.fill_diagonal(dist, np.inf)
    if np.min(dist) <= COINCIDENT_NUCLEI * extent:
        raise CollinearGeometryError("coincident nuclei in the equilibrium geometry")

    com = mol.masses @ pos / mol.masses.sum()
    centered = pos - com
    _, vecs = _principal_axes(mol.masses, centered)
    rotated = centered @ vecs

    seed = mol.mode_seed
    if seed is not None:
        blocks = seed.reshape(mol.n_nuclei, 3, -1)
        seed = np.einsum("ij,mjk->mik", vecs.T, blocks).reshape(seed.shape)
    hess = mol.hessian
    if hess is not None:
        n3 = 3 * mol.n_nuclei
        big = np.kron(np.eye(mol.n_nuclei), vecs)
        hess = big.T @ hess.reshape(n3, n3) @ big

    return replace(mol, positions=rotated, mode_seed=seed, hessian=hess, prepared=True)


def equilibrium_inertia(mol):
    """Inertia tensor of the prepared equilibrium geometry (diagonal).

    Raises ``ValueError`` if the molecule has not been prepared.
    """
    if not mol.prepared:
        raise ValueError("equilibrium_inertia requires a prepared molecule")
    pos = mol.positions
    r2 = np.einsum("mi,mi->m", pos, pos)
    inertia = np.einsum("m,m,ij->ij", mol.masses, r2, np.eye(3)) - np.einsum(
        "m,mi,mj->ij", mol.masses, pos, pos
    )
    return inertia


# --- JSON input -----------------------------------------------------------


def _require_number(value, where, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number")
    try:
        value = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise SchemaError(f"{where}: must be finite") from None
    if not np.isfinite(value):
        raise SchemaError(f"{where}: must be finite")
    if positive and value <= 0.0:
        raise SchemaError(f"{where}: must be positive")
    return value


def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{where}: unknown key '{key}'")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{where}: missing required key '{key}'")


def _parse_vector(value, length, where):
    if not isinstance(value, list) or len(value) != length:
        raise SchemaError(f"{where}: expected an array of {length} numbers")
    return np.array([_require_number(v, f"{where}[{i}]") for i, v in enumerate(value)])


def load_molecule(path):
    """Read a molecule definition from a JSON file.

    Schema (unknown keys are rejected, messages name the bad field)::

        {
          "name": "water",                  # optional
          "hbar": 1.0,                      # optional, default 1.0
          "nuclei": [{"mass": 16.0, "position": [x, y, z]}, ...],
          "electrons": {"count": 2, "mass": 1.0},
          "modes": [[...3N numbers...], ...],      # optional, 3N-6 vectors
          "hessian": [...(3N)^2 numbers...]        # optional, row-major
        }

    Returns an unprepared ``Molecule``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:  # nested deeper than the stack
            raise SchemaError(f"invalid JSON: {exc}") from exc

    _require_keys(
        raw,
        allowed={"name", "hbar", "nuclei", "electrons", "modes", "hessian"},
        required={"nuclei", "electrons"},
        where="molecule",
    )
    name = raw.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("name: expected a string")
    hbar = _require_number(raw.get("hbar", 1.0), "hbar", positive=True)

    nuclei = raw["nuclei"]
    if not isinstance(nuclei, list) or not nuclei:
        raise SchemaError("nuclei: expected a non-empty array")
    masses = []
    positions = []
    for i, entry in enumerate(nuclei):
        where = f"nuclei[{i}]"
        _require_keys(entry, allowed={"mass", "position"}, required={"mass", "position"}, where=where)
        masses.append(_require_number(entry["mass"], f"{where}.mass", positive=True))
        positions.append(_parse_vector(entry["position"], 3, f"{where}.position"))

    electrons = raw["electrons"]
    _require_keys(electrons, allowed={"count", "mass"}, required={"count", "mass"}, where="electrons")
    count = electrons["count"]
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise SchemaError("electrons.count: expected a non-negative integer")
    if count > MAX_ELECTRONS:
        raise SchemaError(f"electrons.count: at most {MAX_ELECTRONS} electrons are supported")
    emass = _require_number(electrons["mass"], "electrons.mass", positive=True)

    n3 = 3 * len(nuclei)
    seed = None
    if "modes" in raw:
        vectors = raw["modes"]
        if len(nuclei) < 3:
            raise SchemaError("modes: internal modes need at least 3 nuclei")
        if not isinstance(vectors, list) or len(vectors) != n3 - 6:
            raise SchemaError(f"modes: expected {n3 - 6} vectors of length {n3}")
        seed = np.stack(
            [_parse_vector(v, n3, f"modes[{i}]") for i, v in enumerate(vectors)], axis=1
        )
    hessian = None
    if "hessian" in raw:
        flat = raw["hessian"]
        if not isinstance(flat, list) or len(flat) != n3 * n3:
            raise SchemaError(f"hessian: expected a flat row-major array of {n3 * n3} numbers")
        hessian = _parse_vector(flat, n3 * n3, "hessian").reshape(n3, n3)

    return Molecule(
        masses=np.array(masses),
        positions=np.stack(positions),
        electron_count=count,
        electron_mass=emass,
        hbar=hbar,
        name=name,
        mode_seed=seed,
        hessian=hessian,
    )
