"""The column renderer against the row-dict renderer it replaced.

``reference_render`` is the renderer that wrote every report before
reports became columns: each table expanded into one dict per row, then
``json.dumps`` or a recursive flatten into ``csv.writer``.  ``_render``
must write the same bytes from the columns.
"""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from molrest import cli
from molrest.cli import Table

DATA = Path(__file__).parent / "data"
ARGS = ["--input", str(DATA / "water.json"), "--trajectory", str(DATA / "water_traj.xyz"),
        "--grid-line", "4096", "--grid-theta", "24", "--grid-dirs", "48"]


def _flatten(value, prefix, rows):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(value[k], f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}.{i}", rows)
    else:
        rows.append((prefix, value))


def _csv_cell(value):
    if value is None:
        return "indeterminate"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_render(report, fmt):
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = report.get("rows")
    if isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows):
        header = sorted(rows[0])
        writer.writerow(header)
        for r in rows:
            writer.writerow([_csv_cell(r.get(h)) for h in header])
        scalars = {k: v for k, v in report.items() if k != "rows"}
    else:
        scalars = report
    flat = []
    _flatten(scalars, "", flat)
    for key, value in flat:
        writer.writerow([key, _csv_cell(value)])
    return buf.getvalue()


def expand(report):
    """The report with every Table turned into a list of row dicts."""
    out = {}
    for key, value in report.items():
        if isinstance(value, Table):
            names = list(value)
            lists = [np.asarray(value[name]).tolist() for name in names]
            value = [dict(zip(names, row)) for row in zip(*lists)]
        out[key] = value
    return out


def synthetic(n_rows, one_leaf_per_column):
    """A table of every leaf kind; vector columns only when allowed."""
    rng = np.random.default_rng(n_rows)
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 1.0 / 3.0, 1e-300, 2.5e17, 7.0])
    x = floats[:n_rows] if n_rows < len(floats) else rng.normal(size=n_rows)
    if n_rows > len(floats):  # finite blocks, and a last block that is not
        x[-len(floats):] = floats
    columns = {
        "x": x,
        "flag": np.array([None, True, False, None] * n_rows, dtype=object)[:n_rows],
        "passed": np.arange(n_rows) % 2 == 0,
        # texts the CSV writer quotes, and one JSON escapes; a lone "\r" is
        # in test_csv_quotes_a_lone_carriage_return
        "label": np.array(["plain", "a,b", 'say "hi"', "two\nlines", '"', '""',
                           "100%s %d", "é "] * n_rows)[:n_rows],
        "count": np.arange(n_rows) * 10**12 - 3,
        "share %d": np.linspace(0.0, 1.0, n_rows),  # a name that is no template slot
        'ratio, "a/b"': np.linspace(-1.0, 1.0, n_rows),  # a name the CSV writer quotes
    }
    if not one_leaf_per_column:
        columns["electrons"] = np.zeros((n_rows, 0, 3))
        columns["empty"] = np.zeros((n_rows, 0))
        scale = 10.0 ** rng.integers(-20, 20, (n_rows, 2, 3))
        columns["vec"] = rng.normal(size=(n_rows, 2, 3)) * scale
    return Table(columns)


def report_with(key, table, n_rows):
    return {
        "command": "synthetic",
        "n_rows": n_rows,
        key: table,
        "tolerance": {"eckart": 1e-10, "bound": float("inf"), "missing": None, 'odd, "key"': 2},
        "labels": ["x", "y,z"],
        "passed": False,
    }


BLOCK = cli._BLOCK_ROWS


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n_rows", [1, 4, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("key", ["frames", "rows"])
def test_synthetic_tables_match_reference(key, n_rows, fmt):
    # a CSV rows table is one line per row, so there each column holds one leaf
    table = synthetic(n_rows, one_leaf_per_column=key == "rows" and fmt == "csv")
    report = report_with(key, table, n_rows)
    before = {k: v for k, v in report.items()}
    assert "".join(cli._render(report, fmt)) == reference_render(expand(report), fmt)
    assert report == before and report[key] is table


def test_csv_quotes_a_lone_carriage_return():
    # csv.writer leaves it bare on Python 3.11 and quotes it on later
    # versions, so the expected text is written out here
    table = Table({"label": np.array(["\r", "a\rb", "plain"])})
    report = {"command": "synthetic", "rows": table, "note": "\r", "passed": True}
    assert "".join(cli._render(report, "csv")) == (
        'label\n"\r"\n"a\rb"\nplain\ncommand,synthetic\nnote,"\r"\npassed,true\n')


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("key", ["frames", "rows"])
def test_tables_stream_one_block_per_piece(key, fmt):
    def pieces(n_rows):
        table = Table({"x": np.full(n_rows, 0.25), "passed": np.ones(n_rows, dtype=bool)})
        return list(cli._render(report_with(key, table, n_rows), fmt))

    streamed = pieces(10 * BLOCK)
    # the text of the last block: the 9-block report differs only there
    block = len("".join(streamed)) - len("".join(pieces(9 * BLOCK)))
    assert 10 <= len(streamed) <= 15  # one piece a block, a few for the scalars
    assert max(map(len, streamed)) <= block


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", sorted(cli._DISPATCH))
def test_command_reports_match_reference(command, fmt, monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda report, config: reports.append(report))
    cli.main([command, *ARGS, "--format", fmt])
    assert len(reports) == 1
    assert "".join(cli._render(reports[0], fmt)) == reference_render(expand(reports[0]), fmt)
