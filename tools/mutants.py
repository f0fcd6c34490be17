"""Mutation run over the gate table: each gate moved, and the tests run on every move.

Usage: python tools/mutants.py

Every entry of ``src/molrest/gates.py`` (a ``NAME = <float>`` line) gives
two mutants, its value times 1e3 and divided by 1e3; ``SOURCE_MUTANTS``
adds the non-numeric ones.  The checkout is copied once, at the start,
into a temporary directory; each mutant is one text substitution, applied
to a fresh copy of that snapshot, where the tier-1 tests then run with
``-x``.  So every run sees one version of the code and tests, whatever
is saved in the checkout meanwhile.  The unmutated copy runs first and
must pass.

Prints one line per mutant: ``killed by <first failing test>``,
``equivalent: <evidence>`` for a survivor marked in ``EQUIVALENT``, or
``SURVIVED``.  Exits 1 if a mutant survives unmarked, if a marked one is
killed (its mark is stale), or if a run ends without a test verdict.
Takes about 15 minutes on a 2-CPU x86_64 VM.
"""

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GATES = "src/molrest/gates.py"
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-x", "-p", "no:cacheprovider"]
TIMEOUT_S = 900
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                     ".benchmarks", ".perfbench_work", ".perfbench_out",
                                     "*.egg-info")

# (label, file, text, replacement): the mutants that move no number
SOURCE_MUTANTS = (
    ("truncated frame <= to <", "src/molrest/frames.py",
     "if len(frame) <= count:", "if len(frame) < count:"),
    ("Haar drift sign", "src/molrest/quantum/operators.py",
     "d_psi += drift", "d_psi -= drift"),
    ("trapezoid end weights", "src/molrest/quantum/grids.py",
     "weights[0] = weights[-1] = 0.5 * step", "weights[0] = weights[-1] = step"),
)

# label -> the measurement that shows the mutant computes what the original does
EQUIVALENT = {
    "THETA_FLOOR x1e3": (
        "sin(theta/2)/theta is exactly 0.5, the value the floor fills in, for 800 002 theta "
        "in [1e-12, 1e-8] (400 001 linear, 400 001 geometric); the first theta where it is "
        "not is 4.3e-8"),
    "THETA_FLOOR /1e3": (
        "sin(theta/2)/theta is exactly 0.5 for 800 002 theta in [1e-15, 1e-12] (400 001 "
        "linear, 400 001 geometric), so the floor fills in the value the division gives"),
}


def gate_mutants(source):
    """(label, GATES, line, mutated line) for each entry of the gate table, x1e3 then /1e3.

    The mutated line is again ``NAME = <float>``, so the table keeps its form.
    """
    lines = source.splitlines()
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant) and type(node.value.value) is float):
            name, value = node.targets[0].id, node.value.value
            for tag, mutated in (("x1e3", value * 1e3), ("/1e3", value / 1e3)):
                yield f"{name} {tag}", GATES, lines[node.lineno - 1], f"{name} = {mutated!r}"


def run_tier1(tree):
    """(exit code, first failing test id or None, output tail) of tier-1 in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"a timeout after {TIMEOUT_S} s", ""
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    tail = "\n".join(done.stdout.splitlines()[-3:])
    return done.returncode, first[1] if first else None, tail


def run_copy(scratch, snapshot, substitutions):
    """Tier-1 on a fresh copy of ``snapshot`` with each (file, text, replacement) applied.

    Returns ``run_tier1``'s triple, or None when a text is not in its file exactly once.
    """
    tree = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copytree(snapshot, tree, dirs_exist_ok=True)
        for path, text, replacement in substitutions:
            source = (tree / path).read_text(encoding="utf-8")
            if source.count(text) != 1:
                return None
            (tree / path).write_text(source.replace(text, replacement), encoding="utf-8")
        return run_tier1(tree)
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def fate(label, result):
    """("killed" | "equivalent" | "bad", the line to print) for one mutant's tier-1 result."""
    mark = EQUIVALENT.get(label)
    if result is None:
        return "bad", "not applied: its text is not in its file exactly once"
    code, killer, tail = result
    if code == 0:
        return ("equivalent", "equivalent: " + mark) if mark else ("bad", "SURVIVED")
    if killer is None:
        return "bad", f"no test verdict (exit {code}): {tail}"
    if mark:
        return "bad", f"killed by {killer}, but marked equivalent: the mark is stale"
    return "killed", f"killed by {killer}"


def main():
    counts = {"killed": 0, "equivalent": 0, "bad": 0}
    with tempfile.TemporaryDirectory(prefix="molrest-mutants-") as scratch:
        snapshot = Path(scratch) / "snapshot"
        shutil.copytree(ROOT, snapshot, ignore=COPY_IGNORE)
        mutants = [*gate_mutants((snapshot / GATES).read_text(encoding="utf-8")),
                   *SOURCE_MUTANTS]
        code, killer, tail = run_copy(scratch, snapshot, [])
        if code != 0:
            print(f"mutants: tier-1 fails on the unmutated checkout ({killer}): {tail}")
            return 1
        for label, path, text, replacement in mutants:
            kind, line = fate(label, run_copy(scratch, snapshot, [(path, text, replacement)]))
            counts[kind] += 1
            print(f"{label:<26} {line}", flush=True)
    print(f"{len(mutants)} mutants: {counts['killed']} killed, {counts['equivalent']} marked "
          f"equivalent, {counts['bad']} survived unmarked or did not run")
    return 1 if counts["bad"] else 0


if __name__ == "__main__":
    sys.exit(main())
