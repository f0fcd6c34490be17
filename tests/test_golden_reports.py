"""Guard the CLI reports against drift.

Two trajectory reports in ``tests/data``, ``water_frame_report.json``
and ``water_decompose_report.csv``, were generated by the per-frame
implementation that preceded the batched pipeline.  Today's bytes differ
from that implementation's, so these two are compared tolerantly:
non-numeric fields must match exactly and numbers within 1e-12
max(1, |v|).  ``relative_residual`` is exempt: it used to divide by a
scale built from lab-frame positions and now divides by the
translation-free scale of the Eckart solve; it is only required to stay
below the Eckart tolerance.

Every other report is pinned byte for byte.  ``compare_reports.GOLDEN``
names each file and the invocation that writes it, run here with
``tests/data`` as the working directory.  Why each file exists, and the
largest change from the generation before it where it was regenerated:

- ``water_heisenberg_report.json``: the heisenberg suite, from the kernel that measures each
  line state from |psi|^2 and one order-4 difference (line rows moved <= 8.8e-16 relative).
- ``water_heisenberg_report.csv``: the same suite in the CSV layout.
- ``water_commutators_report.json``: the commutators, from line states sampled at the grid's
  nodes (``line_canonical`` moved 3.5e-15 absolute, the one number that moved).
- ``water_heisenberg_report_hbar037.json``: hbar != 1, so an operator that loses its hbar
  factor cannot pass (1.0e-15 relative).
- ``water_commutators_report_hbar037.json``: the same for the commutators (3.7e-15 absolute).
- ``water_frame_report.csv``: the frame report in the format the tolerant reference does not
  cover; also the report of ``water_traj.xyz`` with ``\\r\\n`` or lone ``\\r`` line ends.
- ``water_decompose_report.json``: the decompose report in the format the tolerant reference
  does not cover.
- ``water_heisenberg_report_theta256.csv``: 256 shells x 32 directions, the one CLI ball where
  the ``ORIENTATION_STEP`` stencil of the 32 outer nodes passes pi and ``wrap_to_ball`` maps it.
- ``water_commutators_report_theta256.json``: the commutators on the same ball.
- ``water_commutators_report_theta48.json``: 3456 nodes, a partial last block of
  ``commutator_residuals`` at any power-of-two block of 256-2048.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from molrest.cli import main
from molrest.gates import TOL_ECKART
from test_compare_reports import compare_reports

DATA = Path(__file__).parent / "data"
MOLECULE = ["--input", str(DATA / "water.json")]
ARGS = [*MOLECULE, "--trajectory", str(DATA / "water_traj.xyz")]
EXEMPT = {"relative_residual"}


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare(new, old, path, problems):
    if isinstance(old, dict):
        if not isinstance(new, dict) or set(new) != set(old):
            problems.append(f"{path}: keys {sorted(new)} != {sorted(old)}")
            return
        for key in old:
            if key in EXEMPT:
                if not 0.0 <= new[key] <= TOL_ECKART:
                    problems.append(f"{path}.{key}: {new[key]!r} above the Eckart tolerance")
                continue
            _compare(new[key], old[key], f"{path}.{key}", problems)
    elif isinstance(old, list):
        if not isinstance(new, list) or len(new) != len(old):
            problems.append(f"{path}: length changed")
            return
        for i, (a, b) in enumerate(zip(new, old)):
            _compare(a, b, f"{path}.{i}", problems)
    elif _number(old) and _number(new) and type(new) is type(old):
        if abs(new - old) > 1e-12 * max(1.0, abs(old)):
            problems.append(f"{path}: {new!r} != {old!r}")
    elif new != old or type(new) is not type(old):
        problems.append(f"{path}: {new!r} != {old!r}")


def _run(tmp_path, command, fmt, args=ARGS):
    out = tmp_path / f"{command}.{fmt}"
    assert main([command, *args, "--format", fmt, "--output", str(out)]) == 0
    return out.read_text()


def _csv_cell(text):
    """A CSV cell as the renderer wrote it: a float, an int or a word."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _compare_json(text, reference):
    problems = []
    _compare(json.loads(text), json.loads((DATA / reference).read_text()), "report", problems)
    assert not problems, problems[:10]


def test_frame_json_matches_reference(tmp_path):
    _compare_json(_run(tmp_path, "frame", "json"), "water_frame_report.json")


@pytest.mark.parametrize("reference", compare_reports.GOLDEN)
def test_report_is_byte_identical_to_reference(reference, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    assert main(compare_reports.GOLDEN[reference]) == 0
    assert capsys.readouterr().out.encode() == (DATA / reference).read_bytes()


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_give_the_frame_csv_bytes(tmp_path, end):
    # text mode reads \r\n and a lone \r as \n, so the report is the reference
    trajectory = tmp_path / "traj.xyz"
    trajectory.write_bytes((DATA / "water_traj.xyz").read_bytes().replace(b"\n", end.encode()))
    report = _run(tmp_path, "frame", "csv", [*MOLECULE, "--trajectory", str(trajectory)])
    assert report.encode() == (DATA / "water_frame_report.csv").read_bytes()


def test_decompose_csv_matches_reference(tmp_path):
    new = list(csv.reader(io.StringIO(_run(tmp_path, "decompose", "csv"))))
    old = list(csv.reader(io.StringIO((DATA / "water_decompose_report.csv").read_text())))
    assert [row[0] for row in new] == [row[0] for row in old]
    problems = []
    for (key, a), (_, b) in zip(new, old):
        _compare(_csv_cell(a), _csv_cell(b), key, problems)
    assert not problems, problems[:10]
