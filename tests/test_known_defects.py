"""Open defects, each a strict xfail that asserts the behaviour its ROADMAP item is done at.

A test here fails today, on its assertion.  The change that mends its
defect sees an XPASS, which ``strict=True`` turns into a failure, and
drops the mark.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from molrest import gates
from molrest.cli import COLUMNS, ONE, main
from molrest.quantum import So3Grid, heisenberg_suite, so3_gaussian_state
from test_cli import _child_env, _scaled_water

DATA = Path(__file__).parent / "data"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 5 and 18: the default ball under-resolves a narrow state away from the "
    "identity; the products read 1.18811627, 1.18811627 and 0.44855517, the third False"))
def test_narrow_orientation_state_off_the_identity():
    psi = so3_gaussian_state(So3Grid.make(64, 128), center=(0.0, 0.0, 0.8), sigma=0.1)
    rows = heisenberg_suite([psi], "rotational")
    diagonal = rows[rows.bound > 0.0]
    assert len(diagonal) == 3
    assert all(verdict is not False for verdict in diagonal.satisfied)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: the angular-velocity residual scales as 1/I0; water in metres reads "
    "1.2185e14 and exits 2"))
def test_commutators_on_water_in_metres(tmp_path):
    mol = json.loads((DATA / "water.json").read_text())
    for nucleus in mol["nuclei"]:
        nucleus["position"] = [1e-10 * v for v in nucleus["position"]]
    del mol["hessian"]
    path = tmp_path / "water_m.json"
    path.write_text(json.dumps(mol))
    assert main(["commutators", "--input", str(path)]) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 3 and 13: TOL_ROUNDTRIP is absolute, so water with masses x1e6 and lengths "
    "x1e3 fails its round-trip and decomposition gates and exits 2"))
@pytest.mark.parametrize("command", ["frame", "decompose"])
def test_trajectory_commands_on_water_in_other_units(command, tmp_path):
    mol, traj = _scaled_water(tmp_path, 1e6, 1e3)
    assert main([command, "--input", mol, "--trajectory", traj,
                 "--output", str(tmp_path / "report.json")]) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 13 and 16: masses x1e300 with lengths x1e100 overflow masses @ positions in "
    "prepare_equilibrium, print a numpy RuntimeWarning and exit 1 with 'Eigenvalues did not "
    "converge', which names no field"))
@pytest.mark.parametrize("command", ["validate", "frame", "decompose", "commutators"])
def test_extreme_units_exit_cleanly(command, tmp_path):
    # a child with Python's default warning filters, so the numpy warning is printed
    # as a user sees it rather than raised as an error here
    mol, traj = _scaled_water(tmp_path, 1e300, 1e100)
    env = {key: value for key, value in _child_env().items() if key != "PYTHONWARNINGS"}
    done = subprocess.run([sys.executable, "-m", "molrest.cli", command, "--input", mol,
                           "--trajectory", traj, "--output", str(tmp_path / "report.json")],
                          capture_output=True, text=True, env=env, timeout=60)
    if done.returncode != 0:
        assert done.returncode == 1
        # one line that names a flag, a field or a line of the trajectory
        assert re.fullmatch(r"molrest: error: (--[a-z-]+|line \d+|[a-z_]+[][.a-z_0-9]*): .+\n",
                            done.stderr), done.stderr


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: frame roundtrip_error (no single unit), decompose frames.residual "
    "(M L^2 / T) and commutators checks.angular_velocity.residual (1 / M L^2) are read by "
    "fixed gates"))
def test_fixed_gates_read_dimensionless_columns():
    # tests/test_cli.py checks each column's dimension against the reports, so only
    # a change to the reports can make these columns dimensionless
    gated = {f"{command} {path}": column.dim for command, table in COLUMNS.items()
             for path, column in table.items() if hasattr(gates, column.gate)}
    assert {key: dim for key, dim in gated.items() if dim != ONE} == {}
