"""Open defects, each a strict xfail that asserts the behaviour its ROADMAP item is done at.

A test here fails today, on its assertion.  The change that mends its
defect sees an XPASS, which ``strict=True`` turns into a failure, and
drops the mark.
"""

import json
from pathlib import Path

import pytest

from molrest.cli import main
from molrest.quantum import So3Grid, heisenberg_suite, so3_gaussian_state

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
