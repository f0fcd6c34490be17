"""Compare the reports of two molrest checkouts byte for byte.

Usage: python tools/compare_reports.py PARENT CHANGE

Runs ``python -m molrest.cli`` against each checkout's ``src/`` on the
fixed set of invocations that ``invocations()`` lists, and compares the
sha256 of stdout, stderr and the exit code.  The invocations include
every entry of ``GOLDEN``, the table of reports that ``tests/data`` pins
byte for byte.  Both sides read the same inputs, built once in a
temporary directory from PARENT:

- ``tests/data/water.json`` and ``water_traj.xyz``;
- the output of ``perfbench/gen.py --seed 1`` for ``traj-cluster`` and
  ``traj-water`` (1000 frames each), run as it is, and the
  ``traj-cluster`` trajectory repeated 10 times (10^4 frames);
- waters derived from ``tests/data``: one without electrons, with its
  trajectory's electron rows dropped; one with masses x1e6 and lengths
  x1e3, with and without its Hessian; one with masses x1e300; and
  ``water_traj.xyz`` with its last row dropped, so its final frame is one
  row short.

Besides the reports, the invocations take each route of the CLI's error
handler: a missing input, ``frame`` without ``--trajectory``, a grid
flag out of range, an ``--output`` in a missing directory and the short
final frame.

Each checkout's own path in stderr (a numpy warning names its source
file) is written as ``src``, and the line number of a warning line,
``<file>.py:<n>: <Category>Warning: ...``, as ``<n>``, so a change that
only moves source lines does not read as a changed report; the file, the
category, the message and the source line printed under it still
compare.  Prints every invocation that differs and a summary line; exits
1 on any difference.
"""

import collections
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path


def _water(data):
    return json.loads((data / "water.json").read_text()), (data / "water_traj.xyz").read_text()


def _scaled(mol, traj, mass, length, time=1.0, hbar=1.0):
    """Water in other units: masses x mass, lengths x length, times x time,
    and hbar x hbar.

    Force constants scale with mass / time^2 and momenta with mass x
    length / time.  hbar is scaled only by its own factor, so that a
    caller can keep it representable: mass x length^2 / time gives water
    in consistent units.
    """
    mol = json.loads(json.dumps(mol))
    for nucleus in mol["nuclei"]:
        nucleus["mass"] *= mass
        nucleus["position"] = [length * v for v in nucleus["position"]]
    mol["electrons"]["mass"] *= mass
    mol["hessian"] = [mass / time**2 * v for v in mol["hessian"]]
    mol["hbar"] *= hbar
    lines = []
    for line in traj.splitlines():
        fields = line.split()
        if len(fields) == 7:
            values = [length * float(v) for v in fields[1:4]]
            values += [mass * length / time * float(v) for v in fields[4:]]
            line = " ".join([fields[0]] + [repr(v) for v in values])
        lines.append(line)
    return mol, "\n".join(lines) + "\n"


def _without_electrons(mol, traj):
    """Water with no electrons, and its trajectory without the electron rows."""
    mol = {**mol, "electrons": {**mol["electrons"], "count": 0}}
    n_nuclei = str(len(mol["nuclei"]))
    lines = [n_nuclei if line.strip().isdigit() else line
             for line in traj.splitlines() if not line.startswith("e ")]
    return mol, "\n".join(lines) + "\n"


def build_inputs(parent, out):
    """Write every input file into ``out``."""
    data = parent / "tests" / "data"
    for name in ("water.json", "water_traj.xyz"):
        (out / name).write_bytes((data / name).read_bytes())
    for input_set, folder in (("traj-cluster", "cluster"), ("traj-water", "bench-water")):
        (out / folder).mkdir()
        subprocess.run([sys.executable, str(parent / "perfbench" / "gen.py"), "--inputs", input_set,
                        "--seed", "1", "--out", str(out / folder), "--root", str(parent)],
                       check=True)
    (out / LONG_CLUSTER).write_text((out / "cluster" / "traj.xyz").read_text() * 10)
    mol, traj = _water(data)
    derived = {
        "free": _without_electrons(mol, traj),
        "scaled": _scaled(mol, traj, 1e6, 1e3),
        "heavy": _scaled(mol, traj, 1e300, 1.0),
    }
    bare = json.loads(json.dumps(derived["scaled"][0]))
    del bare["hessian"]
    derived["scaled-bare"] = bare, derived["scaled"][1]
    for name, (m, t) in derived.items():
        (out / f"{name}.json").write_text(json.dumps(m))
        (out / f"{name}.xyz").write_text(t)
    (out / "short.xyz").write_text("".join(traj.splitlines(keepends=True)[:-1]))


# Each report that tests/data pins byte for byte, and the invocation that writes it, relative
# to the inputs' directory as in invocations(); tests/data holds the same water.json and
# water_traj.xyz.  tests/test_golden_reports.py says why each file exists.
GOLDEN = {name: command.split() for name, command in {
    "water_heisenberg_report.json": "heisenberg --input water.json --seed 3 --format json",
    "water_heisenberg_report.csv": "heisenberg --input water.json --seed 3 --format csv",
    "water_commutators_report.json": "commutators --input water.json --format json",
    "water_heisenberg_report_hbar037.json":
        "heisenberg --input water.json --seed 3 --hbar 0.37 --format json",
    "water_commutators_report_hbar037.json":
        "commutators --input water.json --hbar 0.37 --format json",
    "water_frame_report.csv":
        "frame --input water.json --trajectory water_traj.xyz --format csv",
    "water_decompose_report.json":
        "decompose --input water.json --trajectory water_traj.xyz --format json",
    "water_heisenberg_report_theta256.csv":
        "heisenberg --input water.json --seed 3 --grid-theta 256 --grid-dirs 32 --format csv",
    "water_commutators_report_theta256.json":
        "commutators --input water.json --grid-theta 256 --grid-dirs 32 --format json",
    "water_commutators_report_theta48.json":
        "commutators --input water.json --grid-theta 48 --grid-dirs 64 --format json",
}.items()}

LONG_CLUSTER = "cluster/traj-1e4.xyz"  # the traj-cluster trajectory repeated 10 times


def invocations():
    """The distinct argument lists, relative to the inputs' directory."""
    runs = [*GOLDEN.values()]
    for mol, traj in (("water.json", "water_traj.xyz"),
                      ("cluster/molecule.json", "cluster/traj.xyz"),
                      ("bench-water/molecule.json", "bench-water/traj.xyz"),
                      ("free.json", "free.xyz")):
        for command in ("validate", "modes", "frame", "decompose"):
            extra = ["--trajectory", traj] if command in ("frame", "decompose") else []
            runs += [[command, "--input", mol, *extra, "--format", fmt] for fmt in ("json", "csv")]
    for mol, seed in (("water.json", "3"), ("cluster/molecule.json", "1")):
        runs += [[command, "--input", mol, "--seed", seed, "--format", fmt]
                 for command in ("heisenberg", "commutators") for fmt in ("json", "csv")]
    runs.append(["heisenberg", "--input", "free.json"])
    runs += [["heisenberg", "--input", "water.json", "--hbar", h]
             for h in ("1e150", "1e160", "1e-300", "1e-3")]
    runs.append(["commutators", "--input", "water.json", "--hbar", "1e-3"])
    runs += [[command, "--input", "water.json", "--format", "csv", "--grid-line", "1024",
              "--grid-theta", "32", "--grid-dirs", "64"]
             for command in ("heisenberg", "commutators")]
    runs += [["validate", "--input", "water.json", "--tol-eckart", "1e-30"],
             ["modes", "--input", "water.json", "--tol-eckart", "1e-30"],
             ["frame", "--input", "water.json", "--trajectory", "water_traj.xyz",
              "--tol-eckart", "1e-30"],
             ["commutators", "--input", "water.json", "--grid-line", "2048"]]
    runs += [[command, "--input", mol, "--format", fmt]
             for mol in ("scaled.json", "scaled-bare.json")
             for command in ("validate", "modes") for fmt in ("json", "csv")]
    runs += [["heisenberg", "--input", "water.json", "--tol-quad", "1e300", "--hbar", "1e10"],
             ["heisenberg", "--input", "water.json", "--tol-quad", "1e-300", "--hbar", "1e-300"],
             ["validate", "--input", "heavy.json"],
             ["frame", "--input", "heavy.json", "--trajectory", "heavy.xyz"]]
    runs += [["validate", "--input", "missing.json"],
             ["frame", "--input", "water.json"],
             ["heisenberg", "--input", "water.json", "--grid-line", "5"],
             ["validate", "--input", "water.json", "--output", "missing/x.json"],
             ["frame", "--input", "water.json", "--trajectory", "short.xyz"]]
    runs += [[command, "--input", "water.json", "--grid-line", n]
             for command in ("heisenberg", "commutators") for n in ("64", "65")]
    runs += [["frame", "--input", "cluster/molecule.json", "--trajectory", LONG_CLUSTER,
              "--format", fmt] for fmt in ("json", "csv")]
    return [list(argv) for argv in dict.fromkeys(map(tuple, runs))]


WARNING_LINE = re.compile(rb"^(.*\.py):\d+: (\w+Warning): ", re.M)


def masked(stderr):
    """``stderr`` with the line number of each warning line written as ``<n>``."""
    return WARNING_LINE.sub(rb"\1:<n>: \2: ", stderr)


def run(root, argv, cwd):
    """(sha256 of stdout, stderr, exit code) of one invocation against ``root/src``.

    A 10^4-frame report runs to 82 MB, so only its digest is kept.
    """
    src = str(root / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "molrest.cli", *argv], cwd=cwd, env=env,
                          capture_output=True)
    return hashlib.sha256(done.stdout).digest(), masked(done.stderr.replace(src.encode(), b"src")), done.returncode


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    for root in (parent, change):
        if not (root / "src" / "molrest" / "cli.py").is_file():
            print(f"compare_reports: {root} holds no src/molrest/cli.py", file=sys.stderr)
            return 2
    runs = invocations()
    differ, codes = 0, collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        build_inputs(parent, Path(tmp))
        for argv in runs:
            before, after = run(parent, argv, tmp), run(change, argv, tmp)
            codes[after[2]] += 1
            streams = [name for name, a, b in zip(("stdout", "stderr", "exit code"), before, after)
                       if a != b]
            if streams:
                differ += 1
                print(f"differ in {', '.join(streams)}: molrest {' '.join(argv)}")
    tally = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items()))
    print(f"{len(runs)} invocations ({tally} at CHANGE): {len(runs) - differ} identical, "
          f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
