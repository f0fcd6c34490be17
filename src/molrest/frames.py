"""Center-of-mass split, Eckart orientation, internal observables.

The pipeline runs lab configuration -> relative (COM removed) -> rest
frame (body axes from the Eckart conditions) -> internal observables
(mode amplitudes/momenta, electron coordinates, angular velocity), and
back.  The forward and backward maps are exact inverses up to round-off
because the Eckart conditions remove precisely the rotational component
of the mass-weighted displacement.  Each stage takes only its data.

Every stage works on a whole trajectory at once: particle blocks are
(T, N, 3) stacks, rotations (T, 3, 3), per-frame scalars (T,).  A single
frame, with (N, 3) blocks, runs the same code and gets the same shapes
without the leading T.  The contractions are einsums over a leading
ellipsis, which sum in the same order for a stack as for one frame, so
a trajectory gives the same numbers as its frames one at a time.
"""

import itertools
import re
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .angmom import (MAX_INERTIA_COND, build_inertia, deformation_angmom, inertia_at, mode_sum,
                     relative_angmom)
from .errors import EckartSolveError, SchemaError, SingularInertiaError
from .lie_so3 import (component_length, cross, cross_sum, first_failure, quaternion_form,
                      quaternion_to_matrix, quaternion_to_vector, relative)

__all__ = [
    "Configuration",
    "EckartFrame",
    "AMatrix",
    "InternalState",
    "com_split",
    "solve_eckart",
    "to_rest",
    "a_matrix",
    "extract_internal",
    "reconstruct",
    "analyze",
    "load_trajectory",
    "write_trajectory",
]

BLOCKS = ("nuclei_positions", "nuclei_momenta", "electron_positions", "electron_momenta")

# A particle row: ``species x y z px py pz``.  Two characters of the label
# tell the electron label "e" apart from every other, once ``_lines``
# has turned each NUL into ``\x01`` (numpy's ``U2`` drops trailing NULs).
_ROW_DTYPE = np.dtype([("species", "U2"), ("values", float, 6)])

# A trajectory is read, and the CLI analyzes it, a block of whole frames at a
# time: as many as fit in this many particle rows (``frames_per_block``).
BLOCK_ROWS = 8192
_CHUNK_CHARS = 1 << 16  # text read at once, split into lines
_UNDECODED = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, read by surrogateescape


@dataclass(frozen=True)
class Configuration:
    """Positions and momenta of every particle, nuclei then electrons.

    Each block is (N, 3) for one frame or (T, N, 3) for a stack of T
    frames, with the same T in every block.  The electron blocks of an
    electron-free stack may stay at their (0, 3) default.
    """

    nuclei_positions: np.ndarray
    nuclei_momenta: np.ndarray
    electron_positions: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    electron_momenta: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    def __post_init__(self):
        arrays = {}
        for name in BLOCKS:
            arr = np.asarray(getattr(self, name))
            if np.iscomplexobj(arr):  # a float cast would keep only the real part
                raise ValueError(f"{name} has complex entries")
            arr = arr.astype(float, copy=False)
            if arr.ndim not in (2, 3) or arr.shape[-1] != 3:
                raise ValueError(f"{name} must have shape (*, 3) or (T, *, 3), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
            arrays[name] = arr
        frames = arrays["nuclei_positions"].shape[:-2]
        for name, arr in arrays.items():
            if arr.shape[:-2] != frames and arr.shape == (0, 3):
                arr = np.zeros(frames + (0, 3))
            if arr.shape[:-2] != frames:
                raise ValueError(f"{name} holds {arr.shape[:-2]} frames, nuclei_positions "
                                 f"{frames}")
            object.__setattr__(self, name, arr)
        if self.nuclei_positions.shape != self.nuclei_momenta.shape:
            raise ValueError("nuclei position/momentum shapes differ")
        if self.electron_positions.shape != self.electron_momenta.shape:
            raise ValueError("electron position/momentum shapes differ")

    @classmethod
    def stack(cls, configs):
        """One (T, N, 3) configuration from a sequence of T single frames."""
        configs = list(configs)
        if not configs:
            raise ValueError("no configurations to stack")
        return cls(*(np.stack([getattr(c, name) for c in configs]) for name in BLOCKS))


@dataclass(frozen=True)
class EckartFrame:
    """Solved body orientation, per frame.

    rotation : (3, 3) proper orthogonal matrix R mapping body to lab.
    orientation : (3,) rotation vector of R in the canonical ball.
    residual : |sum_mu M_mu R0_mu x R'_mu| after the solve, R' in the body frame.
    scale : sum_mu M_mu |R0_mu| |R'_mu|; ``relative_residual`` is
        ``lie_so3.relative(residual, scale)``, free of the units.
    degenerate : True when the orientation is not uniquely determined
        (near-degenerate top eigenvalue of the quaternion problem).

    For a stack every field gains a leading (T,) axis.
    """

    rotation: np.ndarray
    orientation: np.ndarray
    residual: float
    scale: float
    degenerate: bool = False

    @property
    def relative_residual(self):
        return relative(self.residual, self.scale)


@dataclass(frozen=True)
class AMatrix:
    """Electron mixing matrix and its exact inverse."""

    a: np.ndarray
    a_inv: np.ndarray


@dataclass(frozen=True)
class InternalState:
    """Internal observables extracted from one configuration or a stack.

    Q, P : (K,) mode amplitudes and conjugate momenta.
    q, p : (n, 3) internal electron coordinates and momenta.
    angular_velocity, angular_momentum : (3,) body-frame vectors.
    com_position, com_momentum : the center-of-mass pair that was split
        off, so the configuration can be rebuilt.
    frame : the EckartFrame used for the extraction.

    For a stack every array gains a leading (T,) axis.
    """

    com_position: np.ndarray
    com_momentum: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    q: np.ndarray
    p: np.ndarray
    angular_velocity: np.ndarray
    angular_momentum: np.ndarray
    frame: EckartFrame


def _check_config(mol, cfg):
    if cfg.nuclei_positions.shape[-2] != mol.n_nuclei:
        raise ValueError(
            f"configuration has {cfg.nuclei_positions.shape[-2]} nuclei, "
            f"molecule defines {mol.n_nuclei}"
        )
    if cfg.electron_positions.shape[-2] != mol.electron_count:
        raise ValueError(
            f"configuration has {cfg.electron_positions.shape[-2]} electrons, "
            f"molecule defines {mol.electron_count}"
        )


def com_split(mol, cfg):
    """Split off the center of mass.

    Returns ``(com_position, com_momentum, relative)`` where the relative
    configuration satisfies sum(M R' ) + m sum(r') = 0 and
    sum(P') + sum(p') = 0, and momenta are reduced by each particle's
    mass fraction so a uniform boost leaves the relative data unchanged.
    Raises ``EckartSolveError`` naming the first frame with relative data not finite.
    """
    _check_config(mol, cfg)
    total = mol.total_mass
    with np.errstate(over="ignore", invalid="ignore"):  # data past the float range fail below
        com = (mol.masses @ cfg.nuclei_positions
               + mol.electron_mass * cfg.electron_positions.sum(axis=-2)) / total
        mom = cfg.nuclei_momenta.sum(axis=-2) + cfg.electron_momenta.sum(axis=-2)
        rel = (cfg.nuclei_positions - com[..., None, :],
               cfg.nuclei_momenta - (mol.masses / total)[:, None] * mom[..., None, :],
               cfg.electron_positions - com[..., None, :],
               cfg.electron_momenta - (mol.electron_mass / total) * mom[..., None, :])
    lost = ~np.all([np.isfinite(block).all(axis=(-2, -1)) for block in rel], axis=0)
    if lost.any():
        raise EckartSolveError(f"center-of-mass split failed at frame {first_failure(lost)[0]}: "
                               "its center of mass, momentum or relative data are not finite")
    return com, mom, Configuration(*rel)


def solve_eckart(mol, positions):
    """Orient the body frame by the rotational Eckart condition.

    Finds the rotation R maximizing sum_mu M_mu R0_mu . (R^T R'_mu),
    whose stationarity condition is sum_mu M_mu R0_mu x (R^T R'_mu) = 0,
    via the 4x4 symmetric quaternion eigenproblem, solved for every
    frame in one stacked ``eigh``.  The orientation is the rotation
    vector of the top eigenvector itself.

    Parameters
    ----------
    mol : prepared Molecule.
    positions : (N, 3) or (T, N, 3) relative nuclear positions.

    Returns an ``EckartFrame``; ``degenerate`` is set when the top
    eigenvalue is (nearly) repeated, its gap below 1e-9 of the top
    eigenvalue, and the orientation is arbitrary within the degenerate
    subspace.  Raises ``EckartSolveError`` naming the first frame whose
    scale overflows or whose residual exceeds 1e-8 of its scale.
    """
    if not mol.prepared:
        raise ValueError("solve_eckart requires a prepared molecule")
    positions = np.asarray(positions, dtype=float)
    if positions.ndim not in (2, 3) or positions.shape[-2:] != (mol.n_nuclei, 3):
        raise ValueError(f"positions must have shape ({mol.n_nuclei}, 3) or "
                         f"(T, {mol.n_nuclei}, 3)")

    c = np.einsum("m,mi,...mj->...ij", mol.masses, mol.positions, positions)
    evals, evecs = np.linalg.eigh(quaternion_form(c))

    gap = relative(evals[..., 3] - evals[..., 2], np.abs(evals[..., 3]))
    quaternion = evecs[..., 3]
    rotation = quaternion_to_matrix(quaternion)

    body = positions @ rotation
    with np.errstate(over="ignore"):  # a scale past the float range fails below
        residual = component_length(cross_sum(mol.masses[:, None] * mol.positions, body))[()]
        scale = np.sum(mol.masses * component_length(mol.positions) * component_length(positions),
                       axis=-1)[()]
    overflow = ~np.isfinite(scale)
    if overflow.any():
        raise EckartSolveError(f"orientation solve failed at frame {first_failure(overflow)[0]}: "
                               "its scale sum M |R0| |R'| overflowed")
    frame = EckartFrame(rotation=rotation, orientation=quaternion_to_vector(quaternion),
                        residual=residual, scale=scale, degenerate=(gap < 1e-9)[()])
    rel = frame.relative_residual
    failed = ~(rel <= 1e-8)  # a residual that is not finite fails too
    if failed.any():
        i, (res, sc, r) = first_failure(failed, frame.residual, frame.scale, rel)
        raise EckartSolveError(
            f"orientation solve failed at frame {i}: residual {res:.3e} for scale {sc:.3e} "
            f"(relative {r:.3e} > 1e-8)"
        )
    return frame


def to_rest(frame, cfg):
    """Rotate a relative configuration into the body (rest) frame."""
    r = frame.rotation
    return Configuration(*(getattr(cfg, name) @ r for name in BLOCKS))


def a_matrix(mol):
    """Electron mixing matrix A = I + ((s - 1)/n) J, s = sqrt(M/Mtot).

    J is the all-ones matrix.  The inverse is closed-form with s
    replaced by 1/s, exact because the two coefficients a, b satisfy
    a + b + n a b = 0.  For n = 0 both matrices are empty.
    """
    n = mol.electron_count
    if n == 0:
        empty = np.zeros((0, 0))
        return AMatrix(a=empty, a_inv=empty)
    s = np.sqrt(mol.nuclear_mass / mol.total_mass)
    ones = np.ones((n, n))
    return AMatrix(
        a=np.eye(n) + (s - 1.0) / n * ones,
        a_inv=np.eye(n) + (1.0 / s - 1.0) / n * ones,
    )


def extract_internal(mol, basis, frame, rest):
    """Extract internal observables from a rest-frame configuration.

    Mode amplitudes pair displacements with the dual directions, mode
    momenta pair rest momenta with the basis directions; electron
    observables are unmixed with the inverse A-matrix; the angular
    velocity inverts the three-term split of the rest-frame angular
    momentum (rigid + mode-coupling + electronic) using the
    instantaneous inertia tensor of ``build_inertia(mol, basis)``.  The
    center-of-mass pair of the returned state is zero, as it is for a
    rest configuration.

    Raises ``SingularInertiaError``, naming the first such frame, when
    the instantaneous inertia is not finite, not positive-definite, or
    has a condition number above ``MAX_INERTIA_COND``.
    """
    _check_config(mol, rest)
    sqrt_m = np.sqrt(mol.masses)
    amp = np.einsum("m,mak,...mk->...a", sqrt_m, basis.x_dual,
                    rest.nuclei_positions - mol.positions)
    mom = np.einsum("m,mak,...mk->...a", 1.0 / sqrt_m, basis.x, rest.nuclei_momenta)

    inertia = inertia_at(build_inertia(mol, basis), amp)
    finite = np.isfinite(inertia).all(axis=(-2, -1))
    evals = np.full(inertia.shape[:-1], np.nan)
    evals[finite] = np.linalg.eigvalsh(inertia[finite])
    lost = ~(evals[..., 0] > 0.0) | (evals[..., -1] / MAX_INERTIA_COND > evals[..., 0])
    if lost.any():
        i, (ev, q_i) = first_failure(lost, evals, amp)
        raise SingularInertiaError(
            f"instantaneous inertia is singular at frame {i} (eigenvalues "
            f"{ev[0]:.3e} .. {ev[-1]:.3e}: not positive-definite "
            f"or cond > {MAX_INERTIA_COND:.0e}) for Q = {q_i}"
        )

    mix = a_matrix(mol)
    q = mix.a_inv @ rest.electron_positions
    p = mix.a_inv @ rest.electron_momenta

    total_l = relative_angmom(rest)
    internal_l = total_l - deformation_angmom(basis, amp, mom) - cross_sum(q, p)
    omega = np.linalg.solve(inertia, internal_l[..., None])[..., 0]

    zeros = np.zeros(total_l.shape)
    return InternalState(
        com_position=zeros,
        com_momentum=zeros,
        Q=amp,
        P=mom,
        q=q,
        p=p,
        angular_velocity=omega,
        angular_momentum=total_l,
        frame=frame,
    )


def reconstruct(mol, basis, state):
    """Rebuild the full lab configuration from an InternalState.

    Exact inverse of the analyze pipeline up to round-off: rest-frame
    blocks are assembled from the internal observables (including the
    light-particle back-reaction shifts), rotated out of the body frame,
    and the center-of-mass pair is added back.
    """
    sqrt_m = np.sqrt(mol.masses)[:, None]
    mix = a_matrix(mol)

    r_el = mix.a @ state.q
    p_el = mix.a @ state.p
    shift_q = r_el.sum(axis=-2, keepdims=True) * (mol.electron_mass / mol.nuclear_mass)
    shift_p = p_el.sum(axis=-2, keepdims=True) / mol.nuclear_mass

    rest_pos = mol.positions + mode_sum(state.Q, basis.x) / sqrt_m - shift_q
    rest_mom = (cross(state.angular_velocity[..., None, :], mol.masses[:, None] * mol.positions)
                + sqrt_m * mode_sum(state.P, basis.x_dual)
                - mol.masses[:, None] * shift_p)

    r_t = np.swapaxes(state.frame.rotation, -1, -2)
    com = state.com_position[..., None, :]
    mom = state.com_momentum[..., None, :]
    return Configuration(
        nuclei_positions=rest_pos @ r_t + com,
        nuclei_momenta=rest_mom @ r_t + (mol.masses / mol.total_mass)[:, None] * mom,
        electron_positions=r_el @ r_t + com,
        electron_momenta=p_el @ r_t + (mol.electron_mass / mol.total_mass) * mom,
    )


def analyze(mol, basis, cfg):
    """Full pipeline: split the COM, orient, extract internal observables.

    ``cfg`` is one frame or a (T, N, 3) stack; the returned state carries
    the center-of-mass pair that ``com_split`` took off.
    """
    com, mom, rel = com_split(mol, cfg)
    frame = solve_eckart(mol, rel.nuclei_positions)
    state = extract_internal(mol, basis, frame, to_rest(frame, rel))
    return replace(state, com_position=com, com_momentum=mom)


# --- trajectory I/O --------------------------------------------------------


def frames_per_block(n_total):
    """Whole frames of n_total particles in one block of ``BLOCK_ROWS`` rows, at least one."""
    return max(1, BLOCK_ROWS // n_total)


def _lines(fh):
    r"""The lines of a text file, without their line ends, read a chunk at a time.

    Each NUL is made ``\x01``: "e\0" and "e\0X" would read as "e", and
    ``\x01`` is no whitespace and no digit.  A line ends at ``\n`` (text
    mode reads ``\r\n`` and ``\r`` as it), never at ``\x0c`` and the
    like; the empty string after a final ``\n`` is no line.  ``fh`` reads
    a byte that is not UTF-8 as a lone surrogate (``surrogateescape``):
    the lines before it are yielded, then ``SchemaError`` names its line.
    """
    tail, number = "", 0  # lines yielded
    while chunk := fh.read(_CHUNK_CHARS):
        bad = None if chunk.isascii() else _UNDECODED.search(chunk)  # isascii is O(1)
        lines = (tail + chunk[:bad and bad.start()].replace("\0", "\x01")).split("\n")
        tail = lines.pop()
        number += len(lines)
        yield from lines
        if bad:
            raise SchemaError(f"line {number + 1}: not UTF-8 text (byte 0x{ord(bad[0]) & 0xFF:x})")
    if tail:
        yield tail


def _blocks(lines, n_total):
    """A trajectory's frames, ``frames_per_block(n_total)`` at a time, in file order.

    Yields ``(rows, first)``: the block's particle rows and the line
    number of each frame's first row.  The first scan error (a malformed
    count line, a frame cut short by the end of the file, a byte that
    ``_lines`` rejects) is raised once the whole frames before it are
    yielded, so that their row errors come first.
    """
    size = frames_per_block(n_total)
    rows, first = [], []
    number = 0  # lines read
    try:
        for line in lines:
            number += 1
            text = line.strip()
            if not text:
                continue
            if not (text.isascii() and text[text[0] in "+-":].isdigit()):  # [+-]?[0-9]+
                raise SchemaError(f"line {number}: expected a particle count")
            count = int(text)
            if count != n_total:
                raise SchemaError(f"line {number}: frame holds {count} particles, "
                                  f"molecule needs {n_total}")
            frame = list(itertools.islice(lines, count + 1))  # the comment line, then the rows
            if len(frame) <= count:
                raise SchemaError(f"line {number}: truncated frame")
            rows += frame[1:]
            first.append(number + 2)
            number += count + 1
            if len(first) == size:
                yield rows, first
                rows, first = [], []
    except SchemaError:
        if first:
            yield rows, first
        raise
    if first:
        yield rows, first


def _parse(rows):
    """Particle rows as numpy's text parser reads them, ``None`` if it rejects one.

    A row is rejected unless it has exactly 7 whitespace-separated fields
    and numpy reads the last six as floats.  Blank rows are skipped, so
    the result can be shorter than ``rows``.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            return np.loadtxt(rows, dtype=_ROW_DTYPE, comments=None, ndmin=1)
        except ValueError:
            return None


def _well_formed(parsed, n_frames, n_total, n_nuclei):
    """Whether parsed rows make n_frames whole frames of finite numbers,
    each its nuclei first and its electrons (species ``e``) last."""
    if parsed is None or len(parsed) != n_frames * n_total:
        return False
    electron = parsed["species"].reshape(n_frames, n_total) == "e"
    return bool(np.isfinite(parsed["values"]).all()
                and (electron == (np.arange(n_total) >= n_nuclei)).all())


def _row_error(rows, first, n_total, n_nuclei):
    """SchemaError for the first malformed row of a block, in file order.

    ``rows`` and ``first`` are a block's row texts and the line number of
    each frame's first row.  Rows are judged by the same parse as
    ``load_trajectory``'s.  Within a frame every row's field count and
    numbers are checked before any species label.
    """
    for k, start in enumerate(first):
        frame = rows[k * n_total:(k + 1) * n_total]
        if _well_formed(_parse(frame), 1, n_total, n_nuclei):
            continue
        species = []
        for line, row in enumerate(frame, start):
            parsed = _parse([row])
            if parsed is None or len(parsed) != 1:
                if len(row.split()) != 7:
                    return SchemaError(f"line {line}: expected 'species x y z px py pz' (7 fields)")
                return SchemaError(f"line {line}: non-numeric coordinate")
            if not np.isfinite(parsed["values"]).all():
                return SchemaError(f"line {line}: non-finite coordinate")
            species.append(parsed["species"][0])
        for j, label in enumerate(species):
            if j < n_nuclei and label == "e":
                return SchemaError(f"line {start + j}: electron row among the first {n_nuclei} "
                                   "(nuclei must come first)")
            if j >= n_nuclei and label != "e":
                return SchemaError(f"line {start + j}: expected electron row (species 'e')")
    raise AssertionError("load_trajectory rejected rows that _row_error accepts")


def load_trajectory(mol, path):
    r"""Read a whole extended-xyz style trajectory into one stacked Configuration.

    Each frame is ``count`` / comment / ``count`` particle lines of the
    form ``species x y z px py pz``.  Nuclei come first (any species
    label except ``e``), then the electrons (species ``e``).  The count
    must equal N + n of the molecule.  The UTF-8 file is opened once,
    read a chunk at a time and parsed a block of whole frames at a time
    (``BLOCK_ROWS`` particle rows, at least one frame) by one
    ``np.loadtxt`` call, so numbers follow numpy's grammar: ASCII digits,
    no ``_`` separators; ``nan`` and ``inf`` read but are rejected.  A
    line ends at ``\n``, ``\r\n`` or ``\r``, never at ``\x0c`` and the
    like.  Returns (T, N, 3) blocks, T >= 1.  Raises ``SchemaError``
    naming the line of the first problem, a byte that is not UTF-8 among
    them: frames in file order, and in a frame its count line, end or
    bad byte before its rows.  Reading stops at the problem's block.
    """
    n_nuclei = mol.n_nuclei
    n_total = n_nuclei + mol.electron_count
    values = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for rows, first in _blocks(_lines(fh), n_total):
            parsed = _parse(rows)
            if not _well_formed(parsed, len(first), n_total, n_nuclei):
                raise _row_error(rows, first, n_total, n_nuclei)
            values.append(parsed["values"])
    if not values:
        raise SchemaError("trajectory holds no frames")
    data = np.concatenate(values).reshape(-1, n_total, 6)
    return Configuration(
        nuclei_positions=data[:, :n_nuclei, :3],
        nuclei_momenta=data[:, :n_nuclei, 3:],
        electron_positions=data[:, n_nuclei:, :3],
        electron_momenta=data[:, n_nuclei:, 3:],
    )


def write_trajectory(mol, path, configs):
    """Write configurations in the format read by load_trajectory, with
    comment lines ``frame <i>``.

    ``configs`` is a Configuration (one frame or a stack) or a sequence
    of single-frame ones.
    """
    if not isinstance(configs, Configuration):
        configs = Configuration.stack(configs)
    _check_config(mol, configs)
    n_total = mol.n_nuclei + mol.electron_count
    nuclei = np.concatenate([configs.nuclei_positions, configs.nuclei_momenta], axis=-1)
    electrons = np.concatenate([configs.electron_positions, configs.electron_momenta], axis=-1)
    nuclei = nuclei.reshape((-1,) + nuclei.shape[-2:])
    electrons = electrons.reshape((len(nuclei),) + electrons.shape[-2:])
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (nuc, elec) in enumerate(zip(nuclei, electrons)):
            fh.write(f"{n_total}\nframe {idx}\n")
            for mu, row in enumerate(nuc):
                fh.write(f"X{mu} " + " ".join(repr(float(v)) for v in row) + "\n")
            for row in elec:
                fh.write("e " + " ".join(repr(float(v)) for v in row) + "\n")
