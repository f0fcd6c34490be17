"""The oracle accepts real molrest reports and counts each planted error.

Run with ``python3 -m pytest perfbench/test_oracle.py`` from the root of
a checkout.  The repository's own test run collects only ``tests/``.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
from molrest.cli import main  # noqa: E402

N_FRAMES = 40
SEED = 7
SMALL_GRIDS = ["--grid-line", "1024", "--grid-theta", "32", "--grid-dirs", "64"]


def _generate(tmp_path_factory, input_set):
    out = tmp_path_factory.mktemp(input_set)
    gen.generate(input_set, SEED, str(out), ROOT, n_frames=N_FRAMES)
    return out


def _run(args, report):
    assert main([*args, "--output", str(report)]) == 0
    return report.read_text()


def _expected(out):
    with np.load(out / "truth.npz") as npz:
        return oracle.expected_frames(dict(npz))


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    out = _generate(tmp_path_factory, "traj-cluster")
    text = _run(["frame", "--input", str(out / "molecule.json"), "--trajectory",
                 str(out / "traj.xyz"), "--seed", str(SEED)], out / "frame.json")
    return json.loads(text), _expected(out)


@pytest.fixture(scope="module")
def water(tmp_path_factory):
    out = _generate(tmp_path_factory, "traj-water")
    text = _run(["decompose", "--input", str(out / "molecule.json"), "--trajectory",
                 str(out / "traj.xyz"), "--format", "csv"], out / "decompose.csv")
    return text, _expected(out)


@pytest.fixture(scope="module")
def quantum(tmp_path_factory):
    out = _generate(tmp_path_factory, "cluster")
    mol = ["--input", str(out / "molecule.json")]
    heis = _run(["heisenberg", *mol, *SMALL_GRIDS, "--seed", str(SEED)], out / "h.json")
    comm = _run(["commutators", *mol], out / "c.json")
    return json.loads(heis), json.loads(comm)


def _copy(report):
    return json.loads(json.dumps(report))


def test_real_frame_report_passes(cluster):
    report, exp = cluster
    verdict = oracle.check_frame_report(report, exp)
    assert (verdict.attempted, verdict.failed) == (N_FRAMES, 0), verdict.problems


def test_trajectory_reaches_the_seam(cluster):
    report, _ = cluster
    norms = [np.linalg.norm(f["orientation"]) for f in report["frames"]]
    assert max(norms) > np.pi - 1e-3


def test_flipped_orientation_sign_fails_one_frame(cluster):
    report, exp = cluster
    bad = _copy(report)
    bad["frames"][3]["orientation"] = [-v for v in bad["frames"][3]["orientation"]]
    verdict = oracle.check_frame_report(bad, exp)
    assert verdict.failed == 1
    assert verdict.problems == ["frame 3: value mismatch"]


def test_dropped_frame_fails_one_frame(cluster):
    report, exp = cluster
    bad = _copy(report)
    del bad["frames"][5]
    verdict = oracle.check_frame_report(bad, exp)
    assert (verdict.attempted, verdict.failed) == (N_FRAMES, 1)
    assert verdict.problems == ["frame 5: missing"]


def test_perturbed_angular_momentum_fails_one_frame(cluster):
    report, exp = cluster
    bad = _copy(report)
    bad["frames"][7]["angular_momentum"][1] *= 1.0 + 1e-7
    assert oracle.check_frame_report(bad, exp).failed == 1


def test_real_decompose_report_passes(water):
    text, exp = water
    verdict = oracle.check_decompose_csv(text, exp)
    assert (verdict.attempted, verdict.failed) == (N_FRAMES, 0), verdict.problems


def test_decompose_errors_are_counted(water):
    text, exp = water
    lines = text.splitlines()
    dropped = "\n".join(l for l in lines if not l.startswith("frames.4."))
    assert oracle.check_decompose_csv(dropped, exp).failed == 1

    key = "frames.2.rest_angular_momentum.0,"
    perturbed = "\n".join(
        f"{key}{float(l[len(key):]) * (1.0 + 1e-7)!r}" if l.startswith(key) else l
        for l in lines)
    assert oracle.check_decompose_csv(perturbed, exp).failed == 1


def test_crashed_invocation_fails_every_operation(tmp_path):
    verdict = oracle.check_invocation("frame", 2, str(tmp_path / "none.json"), 123)
    assert (verdict.attempted, verdict.failed) == (123, 123)
    verdict = oracle.check_invocation("heisenberg", 0, str(tmp_path / "none.json"), 9,
                                      n_nuclei=3, n_electrons=0)
    assert (verdict.attempted, verdict.failed) == (9, 9)


def test_quantum_reports_pass_and_errors_are_counted(quantum):
    heis, comm = quantum
    n_nuclei, n_electrons = gen.CLUSTER_NUCLEI, gen.CLUSTER_ELECTRONS
    expected = oracle.heisenberg_rows(n_nuclei, n_electrons)
    assert expected == 54 * 54 + 18 * 18 + 27
    verdict = oracle.check_heisenberg(heis, n_nuclei, n_electrons)
    assert (verdict.attempted, verdict.failed) == (expected, 0), verdict.problems

    dropped = _copy(heis)
    del dropped["rows"][10]
    assert oracle.check_heisenberg(dropped, n_nuclei, n_electrons).failed == 1
    undecided = _copy(heis)
    undecided["rows"][-1]["satisfied"] = None
    assert oracle.check_heisenberg(undecided, n_nuclei, n_electrons).failed == 1

    assert oracle.check_commutators(comm).failed == 0
    failing = _copy(comm)
    failing["checks"]["body_angmom"]["passed"] = False
    assert oracle.check_commutators(failing).failed == 1
