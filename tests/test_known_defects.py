"""Open defects, each a strict xfail that asserts the behaviour its ROADMAP item is done at.

A test here fails today, on its assertion.  The change that mends its
defect sees an XPASS, which ``strict=True`` turns into a failure, and
drops the mark.
"""

import json
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from molrest import gates
from molrest.cli import COLUMNS, ONE, main
from molrest.frames import solve_eckart
from molrest.lie_so3 import quaternion_to_matrix
from molrest.molecule import Molecule, prepare_equilibrium
from molrest.quantum import So3Grid, heisenberg_suite, so3_gaussian_state
from test_cli import _child_env, _scaled_water
from test_compare_reports import compare_reports

DATA = Path(__file__).parent / "data"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 5 and 18: the default ball under-resolves a narrow state away from the "
    "identity; at (0, 0, 0.8) the products read 1.18811627, 1.18811627 and 0.44855517, the "
    "third False, and at (0.5, -1, 1.2) 0.437045, 0.198893 and 0.324513, all False"))
@pytest.mark.parametrize("center", [(0.0, 0.0, 0.8), (0.5, -1.0, 1.2)], ids=["z", "xyz"])
def test_narrow_orientation_state_off_the_identity(center):
    psi = so3_gaussian_state(So3Grid.make(64, 128), center=center, sigma=0.1)
    rows = heisenberg_suite([psi], "rotational")
    diagonal = rows[rows.bound > 0.0]
    assert len(diagonal) == 3
    assert all(verdict is not False for verdict in diagonal.satisfied)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: the angular-velocity residual scales as 1/I0; water in metres reads "
    "1.2185e14 and exits 2"))
def test_commutators_on_water_in_metres(tmp_path):
    mol, _ = compare_reports._scaled(*compare_reports._water(DATA), 1.0, 1e-10)
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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 15: at a relative quaternion gap of 1.2e-9 the near-symmetric top's frames "
    "read degenerate False, and their rotations are off by up to 1.2e-6"))
def test_near_symmetric_top_is_degenerate_or_exact():
    # masses 16, 1, 1 at the origin and (+-1, h, 0), the gap twice 0.6e-9 as in
    # test_frames.test_solve_eckart_degeneracy_gap_edge, turned undisplaced
    h = np.sqrt(9.0 * 0.6e-9 / 8.0)
    mol = prepare_equilibrium(Molecule(masses=np.array([16.0, 1.0, 1.0]),
                                       positions=np.array([[0.0, 0.0, 0.0], [1.0, h, 0.0],
                                                           [-1.0, h, 0.0]]),
                                       electron_count=0))
    q = np.random.default_rng(0).normal(size=(200, 4))
    turns = quaternion_to_matrix(q / np.linalg.norm(q, axis=1, keepdims=True))
    frame = solve_eckart(mol, mol.positions @ np.swapaxes(turns, -1, -2))
    error = np.abs(frame.rotation - turns).max(axis=(1, 2))
    assert np.all(frame.degenerate | (error <= 1e-8)), (error.max(), frame.degenerate.any())


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="X86_V2 names an x86-64 dispatch level")
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 19: the pinned quantum reports hold only on the SIMD path they were made on; "
    "at numpy's x86-64 baseline 166 floats of the water heisenberg report differ, by at most "
    "1.4e-15 relative"))
def test_golden_report_at_the_baseline_dispatch():
    reference = "water_heisenberg_report.json"
    done = subprocess.run([sys.executable, "-m", "molrest.cli", *compare_reports.GOLDEN[reference]],
                          cwd=DATA, capture_output=True, check=True, timeout=60,
                          env={**_child_env(), "NPY_ENABLE_CPU_FEATURES": "X86_V2"})
    assert done.stdout == (DATA / reference).read_bytes()
