"""Output oracle for the molrest benchmark, written without molrest.

Every expected value comes from the generator's truth arrays and plain
numpy: the centre of mass and total momentum, the rest angular momentum
``R_rep^T L_lab`` about the centre of mass, and the rest rotation
``R_rep = R_true V``, where ``V`` is the preparation rotation (principal
axes of the input geometry, largest planar moment first, first two axes
signed so their largest component is positive, third = first x second).

An operation is a trajectory frame, a commutator check or a Heisenberg
row.  A frame fails when it is missing or repeated, when the report
says it did not pass, or when any checked value differs from the oracle
by more than ``TOL`` relative (rotations: absolute, entry by entry).  A
quantum operation fails when its verdict is not an outright pass.  An
invocation that exits nonzero or leaves no readable report fails all of
its operations.  Nothing is dropped.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from gen import preparation_rotation

TOL = 1e-9
MAX_PROBLEMS = 5

COMMUTATOR_CHECKS = ("line_canonical", "chart_angmom", "body_angmom", "angular_velocity")


@dataclass
class Verdict:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int
    failed: int
    problems: list = field(default_factory=list)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        room = MAX_PROBLEMS - len(self.problems)
        self.problems.extend(other.problems[:max(room, 0)])


def rotation_from_vector(omega):
    """Rodrigues formula for a stack of rotation vectors (F, 3)."""
    theta = np.linalg.norm(omega, axis=-1)
    small = theta < 1e-4
    safe = np.where(small, 1.0, theta)
    t2 = theta * theta
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    k = np.zeros(omega.shape[:-1] + (3, 3))
    k[..., 0, 1], k[..., 0, 2] = -omega[..., 2], omega[..., 1]
    k[..., 1, 0], k[..., 1, 2] = omega[..., 2], -omega[..., 0]
    k[..., 2, 0], k[..., 2, 1] = -omega[..., 1], omega[..., 0]
    return np.eye(3) + a[..., None, None] * k + b[..., None, None] * (k @ k)


@dataclass(frozen=True)
class Expected:
    """Per-frame oracle values and the scales their errors are relative to."""

    rotation: np.ndarray       # (F, 3, 3) generating rotations
    prep: np.ndarray           # (3, 3) preparation rotation V
    com: np.ndarray            # (F, 3)
    momentum: np.ndarray       # (F, 3)
    rest_angmom: np.ndarray    # (F, 3)
    pos_scale: np.ndarray      # (F,) magnitudes summed into each value
    mom_scale: np.ndarray      # (F,)
    angmom_scale: np.ndarray   # (F,)

    @property
    def n_frames(self):
        return self.rotation.shape[0]


def expected_frames(truth):
    """Oracle values for every frame of a generated trajectory."""
    n_el = truth["electron_positions"].shape[1]
    weights = np.concatenate([truth["masses"], np.full(n_el, float(truth["electron_mass"]))])
    pos = np.concatenate([truth["nuclei_positions"], truth["electron_positions"]], axis=1)
    mom = np.concatenate([truth["nuclei_momenta"], truth["electron_momenta"]], axis=1)
    com = np.einsum("p,fpk->fk", weights, pos) / weights.sum()
    rel = pos - com[:, None, :]
    l_lab = np.cross(rel, mom).sum(axis=1)
    prep = preparation_rotation(truth["masses"], truth["x_in"])
    r_rep = truth["rotation"] @ prep
    return Expected(
        rotation=truth["rotation"],
        prep=prep,
        com=com,
        momentum=mom.sum(axis=1),
        rest_angmom=np.einsum("fji,fj->fi", r_rep, l_lab),
        pos_scale=np.abs(pos).max(axis=(1, 2)),
        mom_scale=np.linalg.norm(mom, axis=2).sum(axis=1),
        angmom_scale=(np.linalg.norm(rel, axis=2) * np.linalg.norm(mom, axis=2)).sum(axis=1),
    )


def _within(actual, expected, magnitude):
    """Per-frame: error within TOL of the expected vector's norm.

    The norm is floored at 1e-6 of the magnitudes summed into it, so a
    value that cancels to nearly zero is not held to an impossible
    round-off standard.  NaN (a missing value) never passes.
    """
    scale = np.maximum(np.linalg.norm(expected, axis=-1), 1e-6 * magnitude)
    return np.linalg.norm(actual - expected, axis=-1) <= TOL * scale


class _FrameTable:
    """Per-frame fields collected from a report, NaN where absent."""

    def __init__(self, n_frames, fields):
        self.n = n_frames
        self.seen = np.zeros(n_frames, dtype=int)
        self.passed = np.zeros(n_frames, dtype=bool)
        self.values = {name: np.full((n_frames, 3), np.nan) for name in fields}
        self.problems = []

    def index(self, raw):
        try:
            idx = int(raw)
        except (TypeError, ValueError):
            idx = -1
        if not 0 <= idx < self.n:
            self.problems.append(f"report frame index {raw!r} out of range")
            return None
        return idx

    def put(self, idx, name, vector):
        try:
            self.values[name][idx] = np.asarray(vector, dtype=float).reshape(3)
        except (TypeError, ValueError):
            pass

    def verdict(self, good):
        good = good & (self.seen == 1) & self.passed
        bad = np.flatnonzero(~good)
        problems = self.problems[:MAX_PROBLEMS]
        for idx in bad[:MAX_PROBLEMS - len(problems)]:
            why = ("missing" if self.seen[idx] == 0 else "repeated" if self.seen[idx] > 1
                   else "reported failed" if not self.passed[idx] else "value mismatch")
            problems.append(f"frame {idx}: {why}")
        return Verdict(self.n, int(bad.size), problems)


def check_frame_report(report, exp):
    """Check a ``frame --format json`` report against the oracle."""
    table = _FrameTable(exp.n_frames, ("orientation", "com_position", "com_momentum",
                                       "angular_momentum"))
    frames = report.get("frames") if isinstance(report, dict) else None
    for entry in frames if isinstance(frames, list) else []:
        idx = table.index(entry.get("index") if isinstance(entry, dict) else None)
        if idx is None:
            continue
        table.seen[idx] += 1
        table.passed[idx] = entry.get("passed") is True
        for name in table.values:
            table.put(idx, name, entry.get(name))
    v = table.values
    # R_true^T exp(orientation) must be the one preparation rotation V;
    # comparing matrices keeps the antipodal seam harmless
    rest_rotation = np.swapaxes(exp.rotation, 1, 2) @ rotation_from_vector(v["orientation"])
    orient_err = np.abs(rest_rotation - exp.prep).max(axis=(1, 2))
    good = (
        (orient_err <= TOL)
        & _within(v["com_position"], exp.com, exp.pos_scale)
        & _within(v["com_momentum"], exp.momentum, exp.mom_scale)
        & _within(v["angular_momentum"], exp.rest_angmom, exp.angmom_scale)
    )
    return table.verdict(good)


def check_decompose_csv(text, exp):
    """Check a ``decompose --format csv`` report against the oracle."""
    table = _FrameTable(exp.n_frames, ("rest_angular_momentum",))
    vec = table.values["rest_angular_momentum"]
    for row in csv.reader(io.StringIO(text)):
        if len(row) != 2 or not row[0].startswith("frames."):
            continue
        parts = row[0].split(".")
        idx = table.index(parts[1]) if len(parts) >= 3 else None
        if idx is None:
            continue
        if parts[2] == "index":
            table.seen[idx] += 1
        elif parts[2] == "passed":
            table.passed[idx] = row[1] == "true"
        elif parts[2] == "rest_angular_momentum" and len(parts) == 4 and parts[3] in ("0", "1", "2"):
            try:
                vec[idx, int(parts[3])] = float(row[1])
            except ValueError:
                pass
    good = _within(vec, exp.rest_angmom, exp.angmom_scale)
    return table.verdict(good)


def check_commutators(report):
    """Every commutator check present, passed, and within its tolerance."""
    checks = report.get("checks") if isinstance(report, dict) else None
    checks = checks if isinstance(checks, dict) else {}
    problems = []
    for name in COMMUTATOR_CHECKS:
        c = checks.get(name)
        ok = (isinstance(c, dict) and c.get("passed") is True
              and _finite(c.get("residual")) and _finite(c.get("tolerance"))
              and c["residual"] <= c["tolerance"])
        if not ok:
            problems.append(f"commutator check {name}: {c!r}")
    extra = sorted(set(checks) - set(COMMUTATOR_CHECKS))
    problems += [f"unexpected commutator check {name}" for name in extra]
    return Verdict(len(COMMUTATOR_CHECKS) + len(extra), len(problems), problems[:MAX_PROBLEMS])


def heisenberg_rows(n_nuclei, n_electrons):
    """K^2 vibrational + (3n)^2 electronic + 27 rotational rows."""
    k = 3 * n_nuclei - 6
    return k * k + (3 * n_electrons) ** 2 + 27


def check_heisenberg(report, n_nuclei, n_electrons):
    """Row count and an outright, self-consistent pass on every row."""
    expected = heisenberg_rows(n_nuclei, n_electrons)
    rows = report.get("rows") if isinstance(report, dict) else None
    rows = rows if isinstance(rows, list) else []
    tol = report.get("tolerance") if isinstance(report, dict) else None
    problems = []
    failed = max(expected - len(rows), 0)
    if failed:
        problems.append(f"{failed} of {expected} rows missing")
    for i, r in enumerate(rows):
        ok = (i < expected and isinstance(r, dict) and r.get("satisfied") is True
              and _finite(tol) and all(_finite(r.get(k)) for k in
                                       ("delta_a", "delta_b", "product", "bound")))
        if ok:
            product = r["delta_a"] * r["delta_b"]
            ok = (abs(product - r["product"]) <= 1e-12 * max(abs(product), 1e-300)
                  and r["bound"] - product <= tol)
        if not ok:
            failed += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"heisenberg row {i}: {r!r}")
    return Verdict(max(expected, len(rows)), failed, problems)


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_invocation(kind, exit_code, report_path, n_ops, **context):
    """Verdict for one CLI invocation; a crash fails all ``n_ops``."""
    if exit_code != 0:
        return Verdict(n_ops, n_ops, [f"{kind}: exit code {exit_code}"])
    try:
        with open(report_path, encoding="utf-8") as fh:
            text = fh.read()
        if kind == "decompose":
            return check_decompose_csv(text, context["expected"])
        report = json.loads(text)
    except (OSError, ValueError) as exc:
        return Verdict(n_ops, n_ops, [f"{kind}: unreadable report ({exc})"])
    if kind == "frame":
        return check_frame_report(report, context["expected"])
    if kind == "commutators":
        return check_commutators(report)
    if kind == "heisenberg":
        return check_heisenberg(report, context["n_nuclei"], context["n_electrons"])
    raise ValueError(f"no oracle for {kind!r}")
