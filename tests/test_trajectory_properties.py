"""Fuzzed trajectory rows: ``load_trajectory`` reads a row or names its line.

Each example takes the valid ``tests/data/water_traj.xyz``, corrupts one
particle row in one of several ways, and compares ``load_trajectory``
with a reference reader built on ``str.split`` and ``float``.  Either
the arrays equal the reference parse, or a ``SchemaError`` names the
line of the first bad row; any other exception fails the test.
"""

import math
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from molrest.errors import SchemaError
from molrest.frames import load_trajectory
from molrest.molecule import load_molecule, prepare_equilibrium

DATA = Path(__file__).parent / "data"
LINES = (DATA / "water_traj.xyz").read_text().splitlines()
MOL = prepare_equilibrium(load_molecule(str(DATA / "water.json")))
N_TOTAL = MOL.n_nuclei + MOL.electron_count
N_FRAMES = len(LINES) // (N_TOTAL + 2)
# 0-based index of particle j of frame f: after the count and comment lines
ROW = [[f * (N_TOTAL + 2) + 2 + j for j in range(N_TOTAL)] for f in range(N_FRAMES)]

# every character except the line boundaries of str.splitlines, which
# would move rows between frames, and the surrogates UTF-8 cannot hold
TEXT = st.text(st.characters(exclude_categories=("Cs",),
                             exclude_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
               max_size=8)
TOKENS = st.sampled_from(["1_0", "\u0661", "0x10", ".", "1e", "+1.", "-.5e-3", "nan", "-inf",
                          "1e999", "e", "X"]) | TEXT


def reference_float(token):
    """``float`` within numpy's text grammar: ASCII only, no ``_`` separators."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return float(token)


def is_electron(label):
    return label == "e"


def reference(lines):
    """(T, N_TOTAL, 6) numbers of the rows, or the 1-based line of the first bad row.

    Within a frame every row's fields and numbers are judged before any
    species label, as ``load_trajectory`` documents.
    """
    frames = []
    for rows in ROW:
        numbers, labels = [], []
        for i in rows:
            fields = lines[i].split()
            try:
                values = [reference_float(t) for t in fields[1:]] if len(fields) == 7 else None
            except ValueError:
                values = None
            if values is None or not all(map(math.isfinite, values)):
                return i + 1
            numbers.append(values)
            labels.append(fields[0])
        for j, (i, label) in enumerate(zip(rows, labels)):
            if is_electron(label) != (j >= MOL.n_nuclei):
                return i + 1
        frames.append(numbers)
    return np.array(frames)


@st.composite
def corrupted(draw):
    """The trajectory's lines with one particle row corrupted."""
    lines = list(LINES)
    i = draw(st.sampled_from([i for rows in ROW for i in rows]))
    fields = lines[i].split()
    kind = draw(st.sampled_from(["token", "drop", "duplicate", "label", "blank", "nan"]))
    if kind == "token":
        fields[draw(st.integers(0, 6))] = draw(TOKENS)
    elif kind == "drop":
        del fields[draw(st.integers(0, 6))]
    elif kind == "duplicate":
        k = draw(st.integers(0, 6))
        fields.insert(k, fields[k])
    elif kind == "label":
        fields[0] = "X" if fields[0] == "e" else "e"
    elif kind == "nan":
        fields[draw(st.integers(1, 6))] = "nan"
    if kind == "blank":
        lines[i] = draw(st.sampled_from(["", " ", "\t", " \t  "]))
    else:
        lines[i] = draw(st.sampled_from([" ", "\t", "  "])).join(fields)
    return lines


@given(corrupted())
def test_corrupted_row_is_read_or_named(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzzed.xyz"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = reference(lines)
    if isinstance(expected, int):
        try:
            load_trajectory(MOL, path)
        except SchemaError as exc:
            assert str(exc).startswith(f"line {expected}: ")
        else:
            raise AssertionError(f"line {expected} was accepted")
        return
    cfg = load_trajectory(MOL, path)
    got = np.concatenate([
        np.concatenate([cfg.nuclei_positions, cfg.nuclei_momenta], axis=-1),
        np.concatenate([cfg.electron_positions, cfg.electron_momenta], axis=-1),
    ], axis=1)
    assert np.array_equal(got, expected)
