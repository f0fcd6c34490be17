"""The README's library example runs as written, and its column table is ``cli.COLUMNS``.

Run as a script, this file prints the column table for README "Reports".
"""

import re
from pathlib import Path

from molrest.cli import COLUMNS, COMMANDS

ROOT = Path(__file__).parent.parent


def test_library_example_runs(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the example reads tests/data from the repo root
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "(3, 3) (3, 3)\n"  # three water frames, K = 3


def _unit(dim):
    """A dimension as M, L and T powers: (0.5, 1, -1) is M^1/2·L·T^-1, (0, 0, 0) is 1."""
    if dim is None:
        return "none (mixed)"
    if isinstance(dim, dict):
        return "; ".join(f"{family}: {_unit(d)}" for family, d in dim.items())
    powers = [symbol if e == 1 else f"{symbol}^{int(e) if e == int(e) else f'{int(2 * e)}/2'}"
              for symbol, e in zip("MLT", dim) if e]
    return "·".join(powers) or "1"


def columns_table():
    """``cli.COLUMNS`` as a markdown table, one row per key path and column, with
    the reports that share it ("every" when all do), in report order."""
    shared = {}  # (path, repr(column)) -> (column, its reports)
    for command in COMMANDS:
        for path, column in COLUMNS[command].items():
            shared.setdefault((path, repr(column)), (column, []))[1].append(command)
    lines = ["| report | key | kind | unit | gate | meaning |",
             "| ------ | --- | ---- | ---- | ---- | ------- |"]
    for (path, _), (column, commands) in shared.items():
        gate = column.gate and (f"`{column.gate}`" if column.gate.startswith("--")
                                else f"`gates.{column.gate}`")
        cells = ("every" if len(commands) == len(COMMANDS) else ", ".join(commands),
                 f"`{path}`", column.kind, _unit(column.dim), gate, column.meaning)
        lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |")
    return "\n".join(lines) + "\n"


def test_readme_column_table_is_the_dictionary():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Reports", 1)[1].split("\n## ", 1)[0]
    assert columns_table() in section


if __name__ == "__main__":
    print(columns_table(), end="")
