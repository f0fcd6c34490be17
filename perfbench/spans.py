"""Span tracing of molrest's public functions, installed from outside.

``Tracer.install`` replaces each target function with a wrapper in every
loaded ``molrest`` module that binds it (so ``from .x import f`` copies
are caught too), and ``uninstall`` puts the originals back.  Nothing
under ``src/`` is edited.  A wrapper records one span: its duration and
the part of it covered by nested wrapped calls, which gives self time.
Spans are aggregated per name in memory.

A target that no longer exists is listed in ``absent`` instead of
raising, so a refactor that removes a public name shows up in the
report rather than as a crash.
"""

import hashlib
import importlib
import sys
import time
from dataclasses import replace

import numpy as np

# (module, attribute path, span name).  Several targets may share a
# span name; their spans are aggregated together.
TARGETS = (
    ("molrest.molecule", "load_molecule", "molecule.load_molecule"),
    ("molrest.molecule", "prepare_equilibrium", "molecule.prepare_equilibrium"),
    ("molrest.modes", "build_modes", "modes.build_modes"),
    ("molrest.frames", "load_trajectory", "frames.load_trajectory"),
    ("molrest.frames", "analyze", "frames.analyze"),
    ("molrest.frames", "com_split", "frames.com_split"),
    ("molrest.frames", "solve_eckart", "frames.solve_eckart"),
    ("molrest.frames", "to_rest", "frames.to_rest"),
    ("molrest.frames", "extract_internal", "frames.extract_internal"),
    ("molrest.frames", "reconstruct", "frames.reconstruct"),
    ("molrest.lie_so3", "log_map", "lie_so3.log_map"),
    ("molrest.angmom", "build_inertia", "angmom.build_inertia"),
    ("molrest.angmom", "inertia_at", "angmom.inertia_at"),
    ("molrest.angmom", "rest_angmom", "angmom.rest_angmom"),
    ("molrest.angmom", "decompose_angmom", "angmom.decompose_angmom"),
    ("molrest.quantum.grids", "LineGrid.make", "quantum.grids.make"),
    ("molrest.quantum.grids", "So3Grid.make", "quantum.grids.make"),
    ("molrest.quantum.grids", "wrap_to_ball", "quantum.grids.wrap_to_ball"),
    ("molrest.quantum.grids", "GridWavefunction.from_profile", None),
    ("molrest.quantum.states", "gaussian_line_state", "quantum.states.gaussian_line_state"),
    ("molrest.quantum.states", "oscillator_state", "quantum.states.oscillator_state"),
    ("molrest.quantum.states", "so3_gaussian_state", "quantum.states.so3_gaussian_state"),
    ("molrest.quantum.states", "random_line_state", "quantum.states.random_line_state"),
    ("molrest.quantum.states", "random_so3_state", "quantum.states.random_so3_state"),
    ("molrest.quantum.operators", "position_op", "quantum.operators.position_op"),
    ("molrest.quantum.operators", "momentum_op", "quantum.operators.momentum_op"),
    ("molrest.quantum.operators", "angmom_op", "quantum.operators.angmom_op"),
    ("molrest.quantum.operators", "body_angmom_op", "quantum.operators.body_angmom_op"),
    ("molrest.quantum.operators", "frame_fields", "quantum.operators.frame_fields"),
    ("molrest.quantum.operators", "line_commutator_residual",
     "quantum.operators.line_commutator_residual"),
    ("molrest.quantum.operators", "chart_commutator_residuals",
     "quantum.operators.chart_commutator_residuals"),
    ("molrest.quantum.operators", "body_commutator_residuals",
     "quantum.operators.body_commutator_residuals"),
    ("molrest.quantum.operators", "angvel_commutator_check",
     "quantum.operators.angvel_commutator_check"),
    ("molrest.quantum.heisenberg", "heisenberg_suite", "quantum.heisenberg.heisenberg_suite"),
    ("molrest.quantum.heisenberg", "dispersion", "quantum.heisenberg.dispersion"),
)

PROFILE_SPAN = "quantum.states.profile"
CLI_SPAN = "cli.main"


class SpanStats:
    """Calls, inclusive seconds and self seconds of one span name."""

    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.absent = []
        self._restore = []
        self.stats = {}
        self._stack = []
        self.profile_points = []  # per state: the point arrays evaluated
        self.inertia_inputs = set()

    def reset(self):
        """Drop the spans and counters of the previous invocation.

        Cleared in place: existing wrappers hold these containers.
        """
        self.stats.clear()
        self._stack.clear()
        self.profile_points.clear()
        self.inertia_inputs.clear()

    def span(self, name, fn):
        """Wrap ``fn`` so every call records a span called ``name``."""
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                s = stats.get(name)
                if s is None:
                    s = stats[name] = SpanStats()
                s.calls += 1
                s.total += elapsed
                s.self += elapsed - covered
                if stack:
                    stack[-1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    # -- special wrappers -------------------------------------------------

    def _wrap_build_inertia(self, fn):
        inner = self.span("angmom.build_inertia", fn)
        seen = self.inertia_inputs

        def build_inertia(mol, basis, *args, **kwargs):
            # content key, so an equal basis rebuilt as a new object
            # still counts as the same input
            h = hashlib.blake2b(digest_size=16)
            for arr in (mol.masses, mol.positions, basis.x):
                h.update(np.ascontiguousarray(arr).tobytes())
            seen.add(h.digest())
            return inner(mol, basis, *args, **kwargs)

        return build_inertia

    def _wrap_from_profile(self, fn):
        tracer = self

        def from_profile(cls, grid, profile):
            psi = fn(cls, grid, profile)
            if psi.profile is None:
                return psi
            points = []
            tracer.profile_points.append(points)
            inner = tracer.span(PROFILE_SPAN, psi.profile)

            def counted(pts, _inner=inner, _points=points):
                _points.append(pts)
                return _inner(pts)

            return replace(psi, profile=counted)

        return from_profile

    # -- install / uninstall ----------------------------------------------

    def install(self):
        """Wrap every target; names that no longer exist go to ``absent``."""
        self.absent = []
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                fn = raw.__func__
                if name is None:
                    wrapped = self._wrap_from_profile(fn)
                else:
                    wrapped = self.span(name, fn)
                setattr(owner, attr, classmethod(wrapped))
                self._restore.append((owner, attr, raw))
                continue
            if name == "angmom.build_inertia":
                wrapped = self._wrap_build_inertia(raw)
            else:
                wrapped = self.span(name, raw)
            self._rebind(raw, wrapped)

    def _rebind(self, original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "molrest" or mod_name.startswith("molrest.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- results ----------------------------------------------------------

    def distinct_point_share(self):
        """Share of evaluated profile points that are distinct per state."""
        total = distinct = 0
        for chunks in self.profile_points:
            if not chunks:
                continue
            width = np.shape(chunks[0])[-1] if np.ndim(chunks[0]) > 1 else 1
            pts = np.concatenate([np.reshape(c, (-1, width)) for c in chunks])
            total += pts.shape[0]
            # rows compared bitwise as opaque records: exact and far
            # faster than np.unique(axis=0)
            rows = np.ascontiguousarray(pts, dtype=float).view(np.dtype((np.void, 8 * width)))
            distinct += np.unique(rows.ravel()).size
        return distinct / total if total else 0.0, total
