"""Guard the CLI reports against drift.

Two trajectory reports in ``tests/data`` were generated by the per-frame
implementation that preceded the batched pipeline:

    molrest frame --input tests/data/water.json \
        --trajectory tests/data/water_traj.xyz --format json
    molrest decompose --input tests/data/water.json \
        --trajectory tests/data/water_traj.xyz --format csv

Today's bytes differ from that implementation's, so these two are
compared tolerantly: non-numeric fields must match exactly and numbers
within 1e-12 max(1, |v|).  ``relative_residual`` is exempt: it used to
divide by a scale built from lab-frame positions and now divides by the
translation-free scale of the Eckart solve; it is only required to stay
below the Eckart tolerance.

Every other report is pinned byte for byte.  The two commutators reports
were generated by the implementation that samples line states at their
grid's nodes, with each gaussian's plane wave taken from a coarse and a
fine table:

    molrest commutators --input tests/data/water.json --format json
    molrest commutators --input tests/data/water.json --hbar 0.37 --format json

Against the generation before, which took one complex exponential per
line point, they passed the tolerant comparison; the largest change was
3.5e-15 absolute (3.7e-15 at hbar = 0.37) in the ``line_canonical``
residual, the one number there that moved.  The three heisenberg reports
were generated by the implementation that measures each line state in
one kernel, from |psi|^2 and one order-4 central-difference numerator,
without forming P psi or Q psi:

    molrest heisenberg --input tests/data/water.json --seed 3 --format json
    molrest heisenberg --input tests/data/water.json --seed 3 --format csv
    molrest heisenberg --input tests/data/water.json --seed 3 --hbar 0.37 --format json

Against the generation before, which applied ``momentum_op`` and
``position_op`` to each state and took both dispersions through
``dispersion``'s sums, they passed the tolerant comparison; only the line
rows' delta and product fields moved, by at most 8.8e-16 relative
(1.0e-15 at hbar = 0.37), and every label, bound and verdict stayed.
The two at hbar != 1 pin the quantum reports so that an operator that
loses its hbar factor cannot pass.

The last two pin the trajectory reports in the formats the tolerant
references do not cover; they were generated by the implementation
whose ``analyze`` still took an inertia model:

    molrest frame --input tests/data/water.json \
        --trajectory tests/data/water_traj.xyz --format csv
    molrest decompose --input tests/data/water.json \
        --trajectory tests/data/water_traj.xyz --format json

The frame CSV is also the report of ``water_traj.xyz`` with ``\\r\\n`` or
lone ``\\r`` line ends.

The two ``theta256`` references pin the quantum reports on a ball of
256 shells x 32 directions.  It is the one CLI grid where the
``angmom_op`` stencil at ``ORIENTATION_STEP`` leaves the ball: the 32
nodes of its outer shell have stencil points past pi, which
``wrap_to_ball`` maps back.  They were generated by the implementation that passed every stencil point of
every node through ``wrap_to_ball``:

    molrest heisenberg --input tests/data/water.json --seed 3 \
        --grid-theta 256 --grid-dirs 32 --format csv
    molrest commutators --input tests/data/water.json \
        --grid-theta 256 --grid-dirs 32 --format json
"""

import csv
import io
import json
from pathlib import Path

import pytest

from molrest.cli import main
from molrest.gates import TOL_ECKART

DATA = Path(__file__).parent / "data"
MOLECULE = ["--input", str(DATA / "water.json")]
ARGS = [*MOLECULE, "--trajectory", str(DATA / "water_traj.xyz")]
EXEMPT = {"relative_residual"}
# the one CLI ball whose ORIENTATION_STEP stencil leaves the ball (its outer shell)
THETA256 = ["--grid-theta", "256", "--grid-dirs", "32"]
# 3456 nodes: a partial last block for commutator_residuals at any power-of-two block of 256-2048
THETA48 = ["--grid-theta", "48", "--grid-dirs", "64"]


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


@pytest.mark.parametrize("command, fmt, args, reference", [
    ("heisenberg", "json", [*MOLECULE, "--seed", "3"], "water_heisenberg_report.json"),
    ("heisenberg", "csv", [*MOLECULE, "--seed", "3"], "water_heisenberg_report.csv"),
    ("commutators", "json", MOLECULE, "water_commutators_report.json"),
    ("heisenberg", "json", [*MOLECULE, "--seed", "3", "--hbar", "0.37"],
     "water_heisenberg_report_hbar037.json"),
    ("commutators", "json", [*MOLECULE, "--hbar", "0.37"], "water_commutators_report_hbar037.json"),
    ("frame", "csv", ARGS, "water_frame_report.csv"),
    ("decompose", "json", ARGS, "water_decompose_report.json"),
    ("heisenberg", "csv", [*MOLECULE, "--seed", "3", *THETA256],
     "water_heisenberg_report_theta256.csv"),
    ("commutators", "json", [*MOLECULE, *THETA256], "water_commutators_report_theta256.json"),
    ("commutators", "json", [*MOLECULE, *THETA48], "water_commutators_report_theta48.json"),
], ids=["heisenberg-json", "heisenberg-csv", "commutators-json", "heisenberg-json-hbar0.37",
        "commutators-json-hbar0.37", "frame-csv", "decompose-json", "heisenberg-csv-theta256",
        "commutators-json-theta256", "commutators-json-theta48"])
def test_report_is_byte_identical_to_reference(tmp_path, command, fmt, args, reference):
    _run(tmp_path, command, fmt, args)
    reference = (DATA / reference).read_bytes()
    assert (tmp_path / f"{command}.{fmt}").read_bytes() == reference


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
