"""Every float gate of the package is read by name from ``molrest.gates``."""

import ast
import importlib.util
from pathlib import Path

import molrest
from molrest import gates

PACKAGE = Path(molrest.__file__).parent
ROOT = Path(__file__).parent.parent
# formula constants that a comparison may hold: a sign test, a unit norm
FORMULA_CONSTANTS = {0.0, 1.0}


def _literal_gates(source):
    """(line, value) of each float literal in a comparison or an atol/rtol keyword."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            scope = node
        elif isinstance(node, ast.keyword) and node.arg in ("atol", "rtol"):
            scope = node.value
        else:
            continue
        for leaf in ast.walk(scope):
            if (isinstance(leaf, ast.Constant) and type(leaf.value) is float
                    and leaf.value not in FORMULA_CONSTANTS):
                yield leaf.lineno, leaf.value


def test_the_scan_finds_a_literal_gate():
    source = ("a = rel <= 1e-8\n"
              "b = np.isclose(x, y, rtol=0.0, atol=1e-8 * max(1.0, s))\n"
              "c = variance < -1e-12\n"
              "d = x > 0.0 and abs(n - 1.0) <= GATE\n")
    assert sorted(_literal_gates(source)) == [(1, 1e-8), (2, 1e-8), (3, 1e-12)]


def test_no_float_gate_outside_the_table():
    found = [f"{path.relative_to(PACKAGE)}:{line}: {value!r}"
             for path in sorted(PACKAGE.rglob("*.py")) if path != PACKAGE / "gates.py"
             for line, value in _literal_gates(path.read_text(encoding="utf-8"))]
    assert found == []


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_every_entry_gets_its_two_mutants():
    # tools/mutants.py reads the table as NAME = <float> lines; an entry
    # written any other way would go unmutated
    mutants = _mutants()
    source = (PACKAGE / "gates.py").read_text(encoding="utf-8")
    labels = [label for label, *_ in mutants.gate_mutants(source)]
    entries = sorted(name for name in vars(gates) if name.isupper())
    assert all(type(getattr(gates, name)) is float for name in entries)
    assert sorted(labels) == sorted(f"{name} {tag}" for name in entries for tag in ("x1e3", "/1e3"))


def test_every_source_mutant_applies():
    # tools/mutants.py substitutes a text that occurs exactly once in its file;
    # a text the source no longer holds would leave its mutant "not applied".
    # In a mutant's own copy the replacement stands in its place, and this
    # test must not be what kills it.
    counts = {}
    for label, path, text, replacement in _mutants().SOURCE_MUTANTS:
        source = (ROOT / path).read_text(encoding="utf-8")
        counts[label] = (source.count(text), source.count(replacement))
    assert all(count in ((1, 0), (0, 1)) for count in counts.values()), counts
