"""The README's library example runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_library_example_runs(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the example reads tests/data from the repo root
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "(3, 3) (3, 3)\n"  # three water frames, K = 3
