"""Command-line front end.

Subcommands take a molecule file (and for the trajectory-driven ones an
extended-xyz trajectory), run the corresponding pipeline, and emit a
machine-readable report:

  validate     mode-basis sum rules and equilibrium diagnostics
  modes        mode basis shape and frequencies
  frame        per-frame orientation solve and internal observables
  decompose    three-term angular momentum split per frame
  heisenberg   uncertainty-product reports for seeded state families
  commutators  canonical commutator residual table

Exit codes: 0 when every check passes its tolerance, 1 for input errors
(bad flags, unreadable or malformed files, an unwritable --output or
stdout), 2 when a check fails.
Reports are deterministic: the same input and --seed produce
byte-identical output (JSON keys sorted, shortest round-trip float
formatting).
"""

import argparse
import contextlib
import itertools
import json
import math
import os
import sys

from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .angmom import build_inertia, decompose_angmom
from .errors import (
    BoundaryMassError,
    EckartSolveError,
    EckartViolationError,
    GridError,
    OutputError,
    SingularInertiaError,
    positive_finite,
)
from .frames import (BLOCKS, Configuration, analyze, frames_per_block, load_trajectory,
                     reconstruct)
from .gates import (ANGVEL_TOL, BODY_TOL, CHART_TOL, LINE_CANONICAL_TOL, TOL_ECKART, TOL_QUAD,
                    TOL_ROUNDTRIP)
from .lie_so3 import component_length, relative
from .modes import build_modes, verify_eckart
from .molecule import equilibrium_inertia, load_molecule, prepare_equilibrium
from .quantum import (
    LineGrid,
    So3Grid,
    commutator_residuals,
    gaussian_line_state,
    heisenberg_suite,
    line_commutator_residual,
    random_line_state,
    random_so3_state,
    so3_gaussian_state,
)
from .quantum.grids import (MAX_DIRS, MAX_LINE_POINTS, MAX_SHELLS, MIN_DIRS, MIN_LINE_POINTS,
                            MIN_SHELLS)

__all__ = ["COLUMNS", "Column", "RunConfig", "Table", "parse_args", "run", "main"]

COMMANDS = ("validate", "modes", "frame", "decompose", "heisenberg", "commutators")

# fixed policy, no flags: the commutator ceilings and the reconstruction and
# decomposition gate (``gates.TOL_ROUNDTRIP``) are internal consistency
# checks, and the line grid always spans [-LINE_EXTENT, LINE_EXTENT]
LINE_EXTENT = 10.0


@dataclass
class RunConfig:
    """Everything one invocation needs; the defaults are the flags' defaults."""

    command: str
    input_path: str
    trajectory_path: str = None
    output_path: str = None
    format: str = "json"
    tol_eckart: float = TOL_ECKART
    tol_quad: float = TOL_QUAD
    grid_line: int = 16384
    grid_theta: int = 64
    grid_dirs: int = 128
    hbar: float = None
    seed: int = 0

    def validate(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.format not in ("json", "csv"):
            raise ValueError(f"--format must be json or csv, got {self.format!r}")
        for name in ("tol_eckart", "tol_quad", "hbar"):
            value = getattr(self, name)
            if value is not None and not positive_finite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be positive and finite")
        for name, least, most in (("grid_line", MIN_LINE_POINTS, MAX_LINE_POINTS),
                                  ("grid_theta", MIN_SHELLS, MAX_SHELLS),
                                  ("grid_dirs", MIN_DIRS, MAX_DIRS)):
            if getattr(self, name) < least:
                raise ValueError(f"--{name.replace('_', '-')} must be at least {least}")
            if getattr(self, name) > most:
                raise ValueError(f"--{name.replace('_', '-')} must be at most {most}")
        if self.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {self.seed}")
        if self.command in ("frame", "decompose") and not self.trajectory_path:
            raise ValueError(f"the {self.command} command needs --trajectory")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the exit contract
    # reserves 2 for check failures, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_args(argv=None):
    # flags left out stay out of the namespace: RunConfig holds the defaults
    parser = _Parser(
        prog="molrest",
        description="Eckart-frame internal observables and uncertainty checks.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", dest="input_path", required=True, help="molecule JSON file")
    parser.add_argument("--trajectory", dest="trajectory_path",
                        help="extended-xyz trajectory file")
    parser.add_argument("--output", dest="output_path", help="report file (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"))
    parser.add_argument("--tol-eckart", type=float,
                        help="ceiling on every relative Eckart residual: the mode sum rules, "
                             "the centre of mass and the frame orientation")
    parser.add_argument("--tol-quad", type=float,
                        help="uncertainty-product quadrature allowance (times hbar)")
    parser.add_argument("--grid-line", type=int,
                        help=f"line grid points ({MIN_LINE_POINTS} to {MAX_LINE_POINTS})")
    parser.add_argument("--grid-theta", type=int,
                        help=f"rotation-angle shells ({MIN_SHELLS} to {MAX_SHELLS})")
    parser.add_argument("--grid-dirs", type=int,
                        help=f"direction nodes per shell requested ({MIN_DIRS} to {MAX_DIRS}); "
                             "the grid rounds up to a Gauss-Legendre x even-azimuth product")
    parser.add_argument("--hbar", type=float, help="override the molecule's hbar")
    parser.add_argument("--seed", type=int, help="seed for randomized state families")
    return RunConfig(**vars(parser.parse_args(argv)))


# --- report plumbing -------------------------------------------------------


class Table(dict):
    """Named report columns with a leading row axis: entry t of each is row t."""


_SLOT = "\x01"  # a leaf in a probe row, the row number in a row template (not "\x00": np.full)
_BLOCK_ROWS = 256  # table rows formatted together and written as one piece


def _flatten(value, prefix=""):
    """(dotted key, leaf) pairs of nested dicts and lists, keys sorted."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _flatten(value[k], f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}.{i}")
    else:
        yield prefix, value


def _cell(value, fmt):
    """One leaf as json.dumps writes it, or as its CSV field, quoted by ``_quote``."""
    if isinstance(value, float) and (fmt == "csv" or math.isfinite(value)):
        return repr(value)
    if value is None:
        return "null" if fmt == "json" else "indeterminate"
    if isinstance(value, bool):
        return "true" if value else "false"
    return json.dumps(value) if fmt == "json" else _quote(str(value))


def _quote(text):
    """A CSV field in double quotes, inner ones doubled, when it holds a
    comma, a double quote, a ``\n`` or a ``\r``; otherwise as it is."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_text(block, fmt):
    """Every leaf of a column block as ``_cell`` writes it, in row-major order."""
    values = block.ravel().tolist()
    kind = block.dtype.kind
    if kind == "f" and (fmt == "csv" or np.isfinite(block).all()):
        return list(map(repr, values))
    if kind == "b":
        return list(map(("false", "true").__getitem__, values))
    if kind in "iu":
        return list(map(str, values))
    if kind == "U":  # the C encoder json.dumps calls, and the one CSV quoting rule
        return list(map(encode_basestring_ascii if fmt == "json" else _quote, values))
    return [_cell(v, fmt) for v in values]


def _probe(table):
    """One row of the table as nested lists, every leaf a slot."""
    return {name: np.full(np.shape(col)[1:], _SLOT, dtype=object).tolist()
            for name, col in table.items()}


def _filled(table, fmt, row, sep):
    """The table's rows as the template ``row`` lays one out, joined by ``sep``:
    a piece of text per block of ``_BLOCK_ROWS`` rows, led by ``sep`` after
    the first.  ``row`` holds a ``%s`` per leaf (columns sorted by name, each
    row-major), ``%%`` for a ``%`` and ``_SLOT`` for the row number."""
    columns = [np.asarray(table[name]) for name in sorted(table)]
    parts = row.split(_SLOT)
    n_rows = len(columns[0])
    for lo in range(0, n_rows, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_rows)
        leaves = []  # the texts of one leaf position per list, a row per entry
        for col in columns:
            text = _column_text(col[lo:hi], fmt)
            width = math.prod(col.shape[1:])
            leaves += [text[k::width] for k in range(width)]
        rows = sep.join([str(t).join(parts) for t in range(lo, hi)])
        yield (sep if lo else "") + rows % tuple(itertools.chain.from_iterable(zip(*leaves)))


def _json_pieces(scalars, tables):
    text = json.dumps(scalars, sort_keys=True, indent=2) + "\n"
    for key in sorted(tables):  # the order of their slots in the sorted dump
        head, text = text.split(json.dumps(_SLOT + key), 1)
        yield head + "[\n"
        row = json.dumps(_probe(tables[key]), sort_keys=True, indent=2).replace("%", "%%")
        row = "    " + row.replace("\n", "\n    ").replace(json.dumps(_SLOT), "%s")
        yield from _filled(tables[key], "json", row, ",\n")
        text = "\n  ]" + text
    yield text


def _csv_pieces(scalars, tables):
    if "rows" in tables:  # a header of column names, then one line per row
        table = tables["rows"]
        yield ",".join(map(_quote, sorted(table))) + "\n"
        row = ",".join("%s" for _ in _flatten(_probe(table))) + "\n"
        yield from _filled(table, "csv", row, "")
        del scalars["rows"]
    lines = []
    for key, value in _flatten(scalars):
        if key not in tables:
            lines.append(f"{_quote(key)},{_cell(value, 'csv')}\n")
            continue
        yield "".join(lines)
        lines = []
        # a "<key>.<t>.<path>,<leaf>" line per leaf, each key quoted once per table
        row = "".join(_quote(f"{key}.{_SLOT}.{path}").replace("%", "%%") + ",%s\n"
                      for path, _ in _flatten(_probe(tables[key])))
        yield from _filled(tables[key], "csv", row, "")
    yield "".join(lines)


def _render(report, fmt):
    """The report as pieces of text, laid out as README "Reports" describes.

    The only code that turns report values into text.  Every Table, JSON
    or CSV, is one row template with a slot per leaf, plus the row number
    in dotted CSV keys, which ``_filled`` fills a block of ``_BLOCK_ROWS``
    rows at a time; within a block every column is formatted at once by
    its dtype (``_column_text``).  Pieces are made as they are asked for,
    one per block and one per stretch of scalars, so the whole text is
    never held at once.
    """
    tables = {k: v for k, v in report.items() if isinstance(v, Table)}
    scalars = {**report, **{k: _SLOT + k for k in tables}}
    if fmt == "json":
        return _json_pieces(scalars, tables)
    return _csv_pieces(scalars, tables)


def _emit(report, config):
    """Write each piece of the report as it is made, to --output or stdout.

    Raises ``OutputError`` naming the target when it cannot be opened or
    written.  A stdout that fails is pointed at the null device, so the
    text left in its buffer is not written again at exit.
    """
    target = "--output" if config.output_path else "stdout"
    if not config.output_path and sys.stdout is None:  # started with stdout closed
        raise OutputError("stdout: closed")
    try:
        with (open(config.output_path, "w", encoding="utf-8") if config.output_path
              else contextlib.nullcontext(sys.stdout)) as fh:
            fh.writelines(_render(report, config.format))
            fh.flush()
    except OSError as exc:
        if not config.output_path:
            with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor
                fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
        raise OutputError(f"{target}: {exc}") from None


# --- commands --------------------------------------------------------------


def _load(config):
    mol = prepare_equilibrium(load_molecule(config.input_path))
    if config.hbar is not None:
        mol = replace(mol, hbar=config.hbar)
    return mol


def _cmd_modes(config, mol, rng):
    """The validate and modes report, which adds the frequencies: --tol-eckart gates the
    relative residuals of every Eckart condition, com_norm = |sum M R0| / sum M |R0|."""
    basis = build_modes(mol, rng=rng)
    res = verify_eckart(mol, basis)
    com = float(relative(component_length(mol.masses @ mol.positions),
                         mol.masses @ component_length(mol.positions)))
    inertia = equilibrium_inertia(mol)
    report = {
        "command": config.command,
        "n_modes": basis.n_modes,
        "residuals": {
            "translation": res.translation,
            "rotation": res.rotation,
            "duality": res.duality,
            "com_norm": com,
            "inertia_offdiagonal": float(np.abs(inertia - np.diag(np.diag(inertia))).max()),
        },
        "tolerance": config.tol_eckart,
        "passed": max(res.max, com) <= config.tol_eckart,
    }
    if config.command == "modes":
        report["frequencies"] = (None if basis.frequencies is None
                                 else [float(f) for f in basis.frequencies])
    return report


def _roundtrip_error(cfg, rebuilt):
    """Largest absolute difference over every block, per frame."""
    worst = 0.0
    for name in BLOCKS:
        diff = np.abs(getattr(cfg, name) - getattr(rebuilt, name))
        worst = np.maximum(worst, diff.max(axis=(-2, -1), initial=0.0))
    return worst


def _per_frame(mol, basis, traj, measure):
    """The columns ``measure(block, state)`` returns, one entry per frame of traj.

    ``analyze`` and ``measure`` run on the frame blocks of
    ``load_trajectory``, so only one block's intermediates are held at
    once; each block's values go into columns sized for the whole
    trajectory.  A check error is raised by one ``analyze`` of the whole
    stack, so it names the same frame, with the same precedence, as if
    the stack had run in one piece.
    """
    n_frames = len(traj.nuclei_positions)
    size = frames_per_block(mol.n_nuclei + mol.electron_count)
    columns = {}
    try:
        for lo in range(0, n_frames, size):
            block = Configuration(*(getattr(traj, name)[lo:lo + size] for name in BLOCKS))
            for key, value in measure(block, analyze(mol, basis, block)).items():
                if key not in columns:
                    columns[key] = np.empty((n_frames,) + value.shape[1:], value.dtype)
                columns[key][lo:lo + size] = value
    except (EckartSolveError, SingularInertiaError):
        analyze(mol, basis, traj)
        raise
    return columns


def _frames_report(command, columns, tolerance):
    """The report of a trajectory command: its per-frame columns, with the frame
    index, as one table, and its overall verdict, that every frame ``passed``."""
    passed = columns["passed"]
    return {
        "command": command,
        "n_frames": len(passed),
        "frames": Table(columns, index=np.arange(len(passed))),
        "tolerance": tolerance,
        "passed": bool(passed.all()),
    }


def _cmd_frame(config, mol, rng):
    basis = build_modes(mol, rng=rng)

    def measure(block, state):
        frame = state.frame
        rt = _roundtrip_error(block, reconstruct(mol, basis, state))
        return {
            "orientation": frame.orientation,
            "residual": frame.residual,
            "relative_residual": frame.relative_residual,
            "degenerate": frame.degenerate,
            "com_position": state.com_position,
            "com_momentum": state.com_momentum,
            "mode_amplitudes": state.Q,
            "mode_momenta": state.P,
            "electron_positions": state.q,
            "electron_momenta": state.p,
            "angular_velocity": state.angular_velocity,
            "angular_momentum": state.angular_momentum,
            "roundtrip_error": rt,
            "passed": ((frame.relative_residual <= config.tol_eckart) & (rt <= TOL_ROUNDTRIP)
                       & ~frame.degenerate),
        }

    traj = load_trajectory(mol, config.trajectory_path)
    return _frames_report("frame", _per_frame(mol, basis, traj, measure),
                          {"eckart": config.tol_eckart, "roundtrip": TOL_ROUNDTRIP})


def _cmd_decompose(config, mol, rng):
    basis = build_modes(mol, rng=rng)
    model = build_inertia(mol, basis)

    def measure(block, state):
        rotational, deformation, electronic = decompose_angmom(model, basis, state)
        total = rotational + deformation + electronic
        residual = np.abs(total - state.angular_momentum).max(axis=-1)
        return {
            "rotational": rotational,
            "deformation": deformation,
            "electronic": electronic,
            "total": total,
            "rest_angular_momentum": state.angular_momentum,
            "residual": residual,
            "passed": residual <= TOL_ROUNDTRIP,
        }

    traj = load_trajectory(mol, config.trajectory_path)
    return _frames_report("decompose", _per_frame(mol, basis, traj, measure), TOL_ROUNDTRIP)


def _cmd_heisenberg(config, mol, rng):
    hbar = mol.hbar
    tol = config.tol_quad * hbar
    if not positive_finite(tol):
        raise ValueError(f"--tol-quad times hbar must be positive and finite, got {tol!r}")
    line = LineGrid.make(-LINE_EXTENT, LINE_EXTENT, config.grid_line)
    ball = So3Grid.make(config.grid_theta, config.grid_dirs)
    basis = build_modes(mol, rng=rng)

    # generators: the suite draws each line state as it needs it, in this order
    vib = (random_line_state(line, rng, hbar=hbar) for _ in range(basis.n_modes))
    families = [heisenberg_suite(vib, "vibrational", hbar=hbar, tolerance=tol)]
    if mol.electron_count:
        elec = ((random_line_state(line, rng, hbar=hbar) for _ in range(3))
                for _ in range(mol.electron_count))
        families.append(heisenberg_suite(elec, "electronic", hbar=hbar, tolerance=tol))
    rot = [so3_gaussian_state(ball, sigma=0.1)]
    rot += [random_so3_state(ball, rng) for _ in range(2)]
    families.append(heisenberg_suite(rot, "rotational", hbar=hbar, tolerance=tol))
    rows = np.concatenate(families)

    return {
        "command": "heisenberg",
        "hbar": hbar,
        "tolerance": tol,
        "n_rows": len(rows),
        "rows": Table({name: rows[name] for name in rows.dtype.names}),
        "passed": False not in rows["satisfied"].tolist(),
    }


def _cmd_commutators(config, mol, rng):
    hbar = mol.hbar
    line = LineGrid.make(-LINE_EXTENT, LINE_EXTENT, config.grid_line)
    ball = So3Grid.make(config.grid_theta, config.grid_dirs)

    line_state = gaussian_line_state(line, center=0.2, sigma=1.0, momentum=0.5 * hbar,
                                     hbar=hbar)
    line_res = line_commutator_residual(line_state, hbar=hbar, order=2)

    psi = so3_gaussian_state(ball, center=(0.1, -0.1, 0.05), sigma=0.45,
                             wave=(0.8, -1.2, 0.4))
    chart, body, angvel = commutator_residuals(psi, equilibrium_inertia(mol), hbar=hbar)

    checks = {name: {"residual": res, "tolerance": tol, "passed": bool(res <= tol)}
              for name, res, tol in (("line_canonical", line_res, LINE_CANONICAL_TOL),
                                     ("chart_angmom", float(chart.max()), CHART_TOL),
                                     ("body_angmom", float(body.max()), BODY_TOL),
                                     ("angular_velocity", float(angvel.max()), ANGVEL_TOL))}
    return {
        "command": "commutators",
        "hbar": hbar,
        "boundary_mass": psi.boundary_mass(),
        "checks": checks,
        "passed": bool(all(c["passed"] for c in checks.values())),
    }


# --- report columns --------------------------------------------------------

# dimensions as exponents of (mass, length, time); mode coordinates carry a
# square root of mass, so halves occur
ONE = (0, 0, 0)
LENGTH = (0, 1, 0)
RATE = (0, 0, -1)
MOMENTUM = (1, 1, -1)
INERTIA = (1, 2, 0)
INVERSE_INERTIA = (-1, -2, 0)
ACTION = (1, 2, -1)
MODE_AMPLITUDE = (0.5, 1, 0)
MODE_MOMENTUM = (0.5, 1, -1)
NO_UNIT = None  # a maximum taken over quantities of different dimensions


@dataclass(frozen=True)
class Column:
    """One key path of a report.

    kind: the type of its leaves, "float", "int", "bool" or "str", with
    "|null" when a leaf may be None.  dim: their dimension, ``NO_UNIT``,
    or a dict of dimensions keyed by observable family (a label's leading
    letters).  A tolerance's dim is that of the quantity it bounds.
    gate: the ``gates.py`` entry or the flag that turns the column into a
    verdict or a check error, "" when none does.
    """

    kind: str
    dim: object
    meaning: str
    gate: str = ""


def _check(name, residual, dim, gate):
    """The residual, tolerance and passed columns of one ``commutators`` check."""
    return {f"checks.{name}.residual": Column("float", dim, residual, gate),
            f"checks.{name}.tolerance": Column("float", dim, f"the value of {gate}"),
            f"checks.{name}.passed": Column("bool", ONE, "residual <= tolerance")}


_REPORT = {
    "command": Column("str", ONE, "the command that wrote the report"),
    "passed": Column("bool", ONE, "the verdict, and the exit code: 0 when true, 2 when false"),
}
_FRAMES = {
    "n_frames": Column("int", ONE, "number of trajectory frames"),
    "frames.index": Column("int", ONE, "frame number t, from 0 in file order"),
}
_HBAR = Column("float", ACTION, "hbar of the molecule file, or --hbar")
_VALIDATE = {
    **_REPORT,
    "n_modes": Column("int", ONE, "number of internal modes, 3N - 6"),
    "residuals.translation": Column(
        "float", ONE, "translation sum rule |sum sqrt(M) X| / sum sqrt(M) |X|, worst mode",
        "--tol-eckart"),
    "residuals.rotation": Column(
        "float", ONE, "rotation sum rule |sum sqrt(M) R0 x X| / sum sqrt(M) |R0| |X|, worst mode",
        "--tol-eckart"),
    "residuals.duality": Column("float", ONE, "largest entry of |X . X_dual - 1|",
                                "--tol-eckart"),
    "residuals.com_norm": Column("float", ONE, "centre-of-mass condition |sum M R0| / sum M |R0|",
                                 "--tol-eckart"),
    "residuals.inertia_offdiagonal": Column(
        "float", INERTIA, "largest off-diagonal entry of the equilibrium inertia tensor"),
    "tolerance": Column("float", ONE, "the value of --tol-eckart"),
}

# every key path of every report: command -> key path -> Column; a table
# column is "<table>.<column>", a nested dict's key "<key>.<key>"
COLUMNS = {
    "validate": _VALIDATE,
    "modes": {
        **_VALIDATE,
        "frequencies": Column("float|null", RATE,
                              "harmonic frequency per mode; null when the file has no hessian"),
    },
    "frame": {
        **_REPORT, **_FRAMES,
        "frames.orientation": Column("float", ONE, "rotation vector of the Eckart orientation"),
        "frames.residual": Column("float", INERTIA, "Eckart residual |sum M R0 x R'|"),
        "frames.relative_residual": Column(
            "float", ONE, "|sum M R0 x R'| / sum M |R0| |R'|", "--tol-eckart"),
        "frames.degenerate": Column(
            "bool", ONE, "top quaternion eigen-gap too small to fix the orientation",
            "ECKART_GAP"),
        "frames.com_position": Column("float", LENGTH, "centre of mass"),
        "frames.com_momentum": Column("float", MOMENTUM, "total momentum"),
        "frames.mode_amplitudes": Column("float", MODE_AMPLITUDE, "mode amplitudes Q"),
        "frames.mode_momenta": Column("float", MODE_MOMENTUM, "mode momenta P"),
        "frames.electron_positions": Column("float", LENGTH, "rest-frame electron positions q"),
        "frames.electron_momenta": Column("float", MOMENTUM, "rest-frame electron momenta p"),
        "frames.angular_velocity": Column("float", RATE, "angular velocity of the frame"),
        "frames.angular_momentum": Column("float", ACTION, "rest-frame angular momentum"),
        "frames.roundtrip_error": Column(
            "float", NO_UNIT, "largest |input - reconstruction| over positions and momenta",
            "TOL_ROUNDTRIP"),
        "frames.passed": Column(
            "bool", ONE, "relative_residual and roundtrip_error within their gates, "
                         "not degenerate"),
        "tolerance.eckart": Column("float", ONE, "the value of --tol-eckart"),
        "tolerance.roundtrip": Column("float", NO_UNIT, "the value of TOL_ROUNDTRIP"),
    },
    "decompose": {
        **_REPORT, **_FRAMES,
        "frames.rotational": Column("float", ACTION, "rotational angular momentum term"),
        "frames.deformation": Column("float", ACTION, "deformation (vibrational) term"),
        "frames.electronic": Column("float", ACTION, "electronic term"),
        "frames.total": Column("float", ACTION, "sum of the three terms"),
        "frames.rest_angular_momentum": Column("float", ACTION, "rest-frame angular momentum"),
        "frames.residual": Column("float", ACTION, "largest |total - rest_angular_momentum|",
                                  "TOL_ROUNDTRIP"),
        "frames.passed": Column("bool", ONE, "residual within its gate"),
        "tolerance": Column("float", ACTION, "the value of TOL_ROUNDTRIP"),
    },
    "heisenberg": {
        **_REPORT,
        "hbar": _HBAR,
        "tolerance": Column("float", ACTION, "--tol-quad times hbar"),
        "n_rows": Column("int", ONE, "number of rows"),
        "rows.observable_a": Column("str", ONE, "momentum-like label: P_i, p_(nu)_j or n_(j).L"),
        "rows.observable_b": Column("str", ONE, "coordinate label: Q^i, q_(nu)^j or omega^k"),
        "rows.delta_a": Column("float", {"P": MODE_MOMENTUM, "p": MOMENTUM, "n": ACTION},
                               "dispersion of observable_a"),
        "rows.delta_b": Column("float", {"Q": MODE_AMPLITUDE, "q": LENGTH, "omega": ONE},
                               "dispersion of observable_b"),
        "rows.product": Column("float", ACTION, "delta_a * delta_b", "--tol-quad"),
        "rows.bound": Column("float", ACTION, "hbar / 2 for a conjugate pair, 0 otherwise"),
        "rows.satisfied": Column("bool|null", ONE,
                                 "bound - product <= tolerance; null at seam mass"),
        "rows.boundary_mass": Column("float", ONE, "probability on the ball's seam shells, "
                                     "0 for line states", "BOUNDARY_MASS_TOL"),
    },
    "commutators": {
        **_REPORT,
        "hbar": _HBAR,
        "boundary_mass": Column("float", ONE, "seam-shell probability of the orientation state",
                                "BOUNDARY_MASS_TOL"),
        **_check("line_canonical", "worst |[P, Q] psi + i hbar psi| / hbar max|psi|", ONE,
                 "LINE_CANONICAL_TOL"),
        **_check("chart_angmom",
                 "worst |[n_(j).L, w^k] psi + i hbar delta_jk psi| / hbar max|psi|", ONE,
                 "CHART_TOL"),
        **_check("body_angmom", "worst |[L_k, w^j] psi + i hbar m[j, k] psi| / hbar max|psi|",
                 ONE, "BODY_TOL"),
        **_check("angular_velocity",
                 "worst |[Omega^j, w^k] psi + i hbar (I0^-1 m)^j psi| / hbar max|psi|",
                 INVERSE_INERTIA, "ANGVEL_TOL"),
    },
}


_DISPATCH = {
    "validate": _cmd_modes,
    "modes": _cmd_modes,
    "frame": _cmd_frame,
    "decompose": _cmd_decompose,
    "heisenberg": _cmd_heisenberg,
    "commutators": _cmd_commutators,
}

_INPUT_ERRORS = (OSError, ValueError)
_CHECK_ERRORS = (EckartSolveError, EckartViolationError, SingularInertiaError,
                 BoundaryMassError, GridError)


def run(config):
    """Execute one command; returns the process exit status."""
    try:
        config.validate()
        mol = _load(config)
        report = _DISPATCH[config.command](config, mol, np.random.default_rng(config.seed))
        _emit(report, config)
    # check errors first, since most are ValueErrors; _emit's OutputError is an OSError
    except _CHECK_ERRORS as exc:
        print(f"molrest: check failed: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"molrest: error: {exc}", file=sys.stderr)
        return 1
    return 0 if report["passed"] else 2


def main(argv=None):
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
