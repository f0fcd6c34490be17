"""Fuzzed molecule JSON: a bad input exits 1 naming its field, never a traceback.

Each example takes the valid ``tests/data/water.json`` and changes one
field of its schema: it deletes the field, gives it a value of another
JSON type, sets a number field to an extreme or negative number, or adds
an unknown key beside the field.  ``cli.main`` then runs ``validate`` or
``modes`` on the result in-process, with every warning raised as an
error.  The run must return 0 or 2, or 1 with stderr starting
``molrest: error:``; a value of the wrong type must be named by its path.
"""

import contextlib
import copy
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from molrest import cli

WATER = json.loads((Path(__file__).parent / "data" / "water.json").read_text())

# the schema's fields; "*" stands for any index of the list above it
FIELDS = [
    ("name",), ("hbar",),
    ("nuclei",), ("nuclei", "*"), ("nuclei", "*", "mass"), ("nuclei", "*", "position"),
    ("nuclei", "*", "position", "*"),
    ("electrons",), ("electrons", "count"), ("electrons", "mass"),
    ("hessian",), ("hessian", "*"),
]
NUMBER_FIELDS = [("hbar",), ("nuclei", "*", "mass"), ("nuclei", "*", "position", "*"),
                 ("electrons", "count"), ("electrons", "mass"), ("hessian", "*")]
OTHER_VALUES = [None, True, "text", 1.5, [1.0], {"k": 1}]
EXTREMES = [1e308, -1e308, 2**70, -1]
UNKNOWN_KEY = "unknown_key"


def json_type(value):
    """The JSON type of a parsed value."""
    return {type(None): "null", bool: "boolean", int: "number", float: "number",
            str: "string", list: "array", dict: "object"}[type(value)]


def path_text(path):
    """The path as load_molecule's messages write it, e.g. nuclei[1].position[0]."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else (f".{key}" if text else key)
    return text


@st.composite
def mutations(draw):
    """(document, path, kind) with one field of the water input changed."""
    doc = copy.deepcopy(WATER)
    kind = draw(st.sampled_from(["delete", "retype", "extreme", "unknown"]))
    fields = NUMBER_FIELDS if kind == "extreme" else FIELDS
    path, parent, node, holder = [], None, doc, doc
    for key in draw(st.sampled_from(fields)):
        if key == "*":
            key = draw(st.integers(0, len(node) - 1))
        path.append(key)
        parent, node = node, node[key]
        if isinstance(node, dict):
            holder = node  # the innermost object on the path
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "retype":
        parent[path[-1]] = draw(st.sampled_from(
            [v for v in OTHER_VALUES if json_type(v) != json_type(node)]))
    elif kind == "extreme":
        parent[path[-1]] = draw(st.sampled_from(EXTREMES))
    else:
        holder[UNKNOWN_KEY] = 1
    return doc, tuple(path), kind


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "molecule.json"


@given(mutation=mutations(), command=st.sampled_from(["validate", "modes"]))
def test_mutated_molecule_exits_cleanly(input_path, mutation, command):
    doc, path, kind = mutation
    input_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--input", str(input_path)])
    message = err.getvalue()
    assert code in (0, 1, 2), message
    if code == 1:
        assert message.startswith("molrest: error:"), message
    if kind == "retype":
        assert code == 1 and path_text(path) in message, message
    if kind == "unknown":
        assert code == 1 and f"unknown key '{UNKNOWN_KEY}'" in message, message

