"""Command-line contract: exit codes, determinism, report formats."""

import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import molrest
from molrest import cli, frames
from molrest.cli import RunConfig, main, parse_args
from molrest.errors import (BoundaryMassError, EckartSolveError, EckartViolationError, GridError,
                            OutputError, SchemaError, SingularInertiaError)
from molrest.gates import TOL_ROUNDTRIP
from molrest.molecule import MAX_ELECTRONS
from molrest.quantum import GridWavefunction
from test_compare_reports import compare_reports

DATA = Path(__file__).parent / "data"
MOLECULE = str(DATA / "water.json")
TRAJECTORY = str(DATA / "water_traj.xyz")


def invoke(*args):
    return main(list(args))


class TestParseArgs:
    def test_maps_flags_to_config(self):
        cfg = parse_args([
            "heisenberg", "--input", "m.json", "--trajectory", "t.xyz",
            "--output", "r.json", "--format", "csv", "--tol-eckart", "1e-9",
            "--tol-quad", "1e-5", "--grid-line", "4096", "--grid-theta", "32",
            "--grid-dirs", "64", "--hbar", "2.0", "--seed", "5",
        ])
        assert cfg.command == "heisenberg"
        assert cfg.input_path == "m.json"
        assert cfg.trajectory_path == "t.xyz"
        assert cfg.output_path == "r.json"
        assert cfg.format == "csv"
        assert cfg.tol_eckart == 1e-9
        assert cfg.tol_quad == 1e-5
        assert cfg.grid_line == 4096
        assert cfg.grid_theta == 32
        assert cfg.grid_dirs == 64
        assert cfg.hbar == 2.0
        assert cfg.seed == 5

    def test_defaults(self):
        cfg = parse_args(["validate", "--input", "m.json"])
        assert cfg.format == "json"
        assert cfg.tol_eckart == 1e-10
        assert cli.TOL_ROUNDTRIP == 1e-9
        assert cfg.tol_quad == 1e-6
        assert cfg.grid_line >= 64
        assert cli.LINE_EXTENT > 0
        assert cfg.seed == 0
        assert cfg.hbar is None

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["explode", "--input", "m.json"])
        assert exc.value.code == 1

    def test_missing_input_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["validate"])
        assert exc.value.code == 1


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("tol_eckart", 0.0),
        ("tol_quad", -1e-6),
        ("grid_line", 63),
        ("grid_theta", 15),
        ("grid_dirs", 31),
        ("grid_line", 2**20 + 1),
        ("grid_theta", 257),
        ("grid_dirs", 4097),
        ("format", "xml"),
        ("command", "explode"),
        ("hbar", -1.0),
        ("command", "frame"),  # without a trajectory
        # a bool, an int past the float range and a string are no positive float
        ("hbar", True),
        pytest.param("tol_eckart", 10**400, id="tol_eckart-10**400"),
        ("tol_quad", "1e-6"),
    ])
    def test_invalid_fields_rejected(self, field, value):
        cfg = RunConfig(command="validate", input_path="m.json")
        setattr(cfg, field, value)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_invalid_config_exit_code(self):
        assert invoke("validate", "--input", MOLECULE, "--grid-line", "10") == 1

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "-1"),
        ("--tol-eckart", "inf"),
        ("--tol-quad", "inf"),
        ("--tol-eckart", "nan"),
        ("--hbar", "inf"),
    ])
    def test_bad_flag_exits_one_naming_it(self, flag, value, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert invoke("validate", "--input", MOLECULE, flag, value, "--output", str(out)) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("commutators", "--grid-line", "10000000000000"),
        ("heisenberg", "--grid-theta", "100000000", "--grid-dirs", "100000000"),
    ], ids=["commutators-line", "heisenberg-ball"])
    def test_oversized_grid_exits_one_naming_the_flag(self, args, monkeypatch, capsys):
        # rejected before the molecule is loaded or a grid allocated
        def no_load(config):
            raise AssertionError("an oversized grid reached the command")

        monkeypatch.setattr(cli, "_load", no_load)
        assert invoke(args[0], "--input", MOLECULE, *args[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("molrest: error: --grid-")
        assert "must be at most" in lines[0]


class TestExitZero:
    @pytest.mark.parametrize("command", ["validate", "modes", "heisenberg", "commutators"])
    def test_molecule_commands(self, command, tmp_path):
        out = tmp_path / "report.json"
        assert invoke(command, "--input", MOLECULE, "--output", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["command"] == command
        assert report["passed"] is True

    @pytest.mark.parametrize("command", ["frame", "decompose"])
    def test_trajectory_commands(self, command, tmp_path):
        out = tmp_path / "report.json"
        assert invoke(command, "--input", MOLECULE, "--trajectory", TRAJECTORY,
                      "--output", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["n_frames"] == 3
        assert all(f["passed"] for f in report["frames"])

    @pytest.mark.parametrize("points", [1000, 64])
    def test_heisenberg_on_line_grid_edges(self, points, capsys):
        # a size that is not a square, and the smallest: the plane-wave tables' edges
        assert invoke("heisenberg", "--input", MOLECULE, "--seed", "3",
                      "--grid-line", str(points)) == 0
        assert capsys.readouterr().err == ""


def _scaled_water(tmp_path, mass, length, time=1.0, hbar=1.0):
    """Water and its trajectory in other units: masses x mass, lengths x length,
    times x time, and hbar x hbar.

    Force constants scale with mass / time^2 and momenta with mass x
    length / time.  hbar is scaled only by its own factor, so that a
    caller can keep it representable: mass x length^2 / time gives water
    in consistent units.  Returns the molecule and trajectory paths.
    """
    mol = json.loads(Path(MOLECULE).read_text())
    for nucleus in mol["nuclei"]:
        nucleus["mass"] *= mass
        nucleus["position"] = [length * v for v in nucleus["position"]]
    mol["electrons"]["mass"] *= mass
    mol["hessian"] = [mass / time**2 * v for v in mol["hessian"]]
    mol["hbar"] *= hbar
    rows = []
    for line in Path(TRAJECTORY).read_text().splitlines():
        fields = line.split()
        if len(fields) == 7:
            values = [length * float(v) for v in fields[1:4]]
            values += [mass * length / time * float(v) for v in fields[4:]]
            line = " ".join([fields[0]] + [repr(v) for v in values])
        rows.append(line)
    mol_path, traj_path = tmp_path / "scaled.json", tmp_path / "scaled.xyz"
    mol_path.write_text(json.dumps(mol))
    traj_path.write_text("\n".join(rows) + "\n")
    return str(mol_path), str(traj_path)


class TestUnits:
    @pytest.mark.parametrize("command", ["validate", "modes"])
    def test_verdict_does_not_depend_on_units(self, command, tmp_path):
        # every Eckart residual is relative: masses x1e6 and lengths x1e3 pass as the originals do
        scaled, _ = _scaled_water(tmp_path, 1e6, 1e3)
        out = tmp_path / "report.json"
        assert invoke(command, "--input", scaled, "--output", str(out)) == 0
        residuals = json.loads(out.read_text())["residuals"]
        for key in ("translation", "rotation", "duality", "com_norm"):
            assert residuals[key] <= 1e-14, key

    @pytest.mark.parametrize("mass, length", [(1e-26, 1.0), (1.0, 1e-10), (1e-26, 1e-10)])
    def test_gates_do_not_depend_on_units(self, mass, length, tmp_path):
        # the coincident-nuclei and degenerate-frame gates are relative: water in
        # kilograms (masses x1e-26) or metres (lengths x1e-10) passes as the original does
        mol, traj = _scaled_water(tmp_path, mass, length)
        out = tmp_path / "report.json"
        assert invoke("validate", "--input", mol, "--output", str(out)) == 0
        assert json.loads(out.read_text())["passed"] is True
        assert invoke("frame", "--input", mol, "--trajectory", traj, "--output", str(out)) == 0
        frames = json.loads(out.read_text())["frames"]
        assert len(frames) == 3
        assert not any(f["degenerate"] for f in frames)
        assert all(f["passed"] for f in frames)

    def test_coincident_nuclei_rejected_in_any_units(self, tmp_path, capsys):
        mol = json.loads(Path(MOLECULE).read_text())
        for nucleus in mol["nuclei"]:
            nucleus["position"] = [1e-10 * v for v in nucleus["position"]]
        mol["nuclei"][2]["position"] = mol["nuclei"][1]["position"]
        path = tmp_path / "coincident.json"
        path.write_text(json.dumps(mol))
        assert invoke("validate", "--input", str(path)) == 1
        assert "coincident nuclei" in capsys.readouterr().err


def _child_env():
    """The environment of a child interpreter that imports this molrest, and
    raises every warning as an error, as the tests in this process do."""
    src = str(Path(molrest.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"}


def _frame_from_a_file_and_a_pipe(tmp_path, data):
    """The exit code, stdout and stderr of ``frame`` in a child interpreter on the
    trajectory ``data``, read from a file, then from a pipe, which cannot be read twice."""
    path = tmp_path / "traj.xyz"
    path.write_bytes(data)
    runs = []
    for trajectory, stdin in ((str(path), None), ("/dev/stdin", data)):
        done = subprocess.run([sys.executable, "-m", "molrest.cli", "frame", "--input", MOLECULE,
                               "--trajectory", trajectory],
                              input=stdin, capture_output=True, env=_child_env(), timeout=10)
        runs.append((done.returncode, done.stdout, done.stderr.decode()))
    return runs


def test_commands_need_numpy_only(tmp_path):
    # the runtime dependency is numpy: no command may load a test-only package
    script = f"""
import json, sys
from molrest.cli import main
data = {str(DATA)!r}
runs = [["validate"], ["modes"], ["heisenberg"], ["commutators"],
        ["frame", "--trajectory", data + "/water_traj.xyz"],
        ["decompose", "--trajectory", data + "/water_traj.xyz"]]
codes = [main([cmd, "--input", data + "/water.json", *rest,
               "--output", {str(tmp_path)!r} + "/" + cmd]) for cmd, *rest in runs]
loaded = sorted({{name.split(".")[0] for name in sys.modules}} & {{"scipy", "hypothesis", "pytest"}})
print(json.dumps([codes, loaded]))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(), check=True)
    codes, loaded = json.loads(done.stdout)
    assert codes == [0] * 6
    assert loaded == []


def _key_paths(value, path=""):
    """(key path, its leaves) for every key path of a report before rendering.

    Dict keys are joined by dots.  A table column's leaves come through
    ``.tolist()``, as ``cli._render`` takes them, and the leaves of a
    list, nested or not, sit under the list's own key path, so an empty
    list still has its path.
    """
    if type(value) is cli.Table:
        assert len({len(col) for col in value.values()}) == 1, f"{path}: ragged"
        value = {name: col.tolist() for name, col in value.items()}
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, f"{path}: key {key!r}"
            yield from _key_paths(item, f"{path}.{key}" if path else key)
    else:
        yield path, _leaves(value)


def _leaves(value):
    return [leaf for item in value for leaf in _leaves(item)] if type(value) is list else [value]


def _water_inputs(tmp_path):
    """name -> (molecule, trajectory) for water, water without its Hessian, and
    water without electrons, its trajectory without the electron rows."""
    mol, traj = compare_reports._water(DATA)
    inputs = {"water": (MOLECULE, TRAJECTORY)}
    bare = {key: value for key, value in mol.items() if key != "hessian"}
    for name, (molecule, text) in (("bare", (bare, traj)),
                                   ("free", compare_reports._without_electrons(mol, traj))):
        (tmp_path / f"{name}.json").write_text(json.dumps(molecule))
        (tmp_path / f"{name}.xyz").write_text(text)
        inputs[name] = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.xyz")
    return inputs


def _report(command, mol, traj, monkeypatch):
    """The report ``command`` builds at small grids, as ``cli._render`` receives it."""
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda report, config: reports.append(report))
    invoke(command, "--input", mol, "--trajectory", traj,
           "--grid-line", "4096", "--grid-theta", "24", "--grid-dirs", "48")
    assert len(reports) == 1
    return reports[0]


KINDS = {"float": float, "int": int, "bool": bool, "str": str, "null": type(None)}


class TestColumns:
    """``cli.COLUMNS`` states every key path of every report, the kind of its
    leaves and their dimension."""

    @pytest.mark.parametrize("water", ["water", "bare", "free"])
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_key_paths_and_kinds(self, command, water, tmp_path, monkeypatch):
        # scalars are rendered as built and table columns through .tolist(),
        # so every leaf must be a plain Python value: exact types, since
        # np.float64 subclasses float and np.bool_ is not bool
        paths = dict(_key_paths(_report(command, *_water_inputs(tmp_path)[water], monkeypatch)))
        columns = cli.COLUMNS[command]
        assert sorted(paths) == sorted(columns)
        for path, leaves in paths.items():
            kinds = tuple(KINDS[kind] for kind in columns[path].kind.split("|"))
            assert all(type(leaf) in kinds for leaf in leaves), path
            if isinstance(columns[path].dim, dict):  # a dimension per observable family
                labels = paths[path.replace("delta", "observable")]
                families = {re.match("[a-zA-Z]+", label).group() for label in labels}
                assert families <= set(columns[path].dim), path

    @pytest.mark.parametrize("command", ["validate", "modes", "frame", "decompose",
                                         "commutators"])
    def test_float_leaves_scale_by_their_dimension(self, command, tmp_path, monkeypatch):
        # masses x4, lengths x2 and time x2 (so hbar x8, momenta x4 and the
        # Hessian as it is): every float leaf of dimension (m, l, t) is the
        # original times 2^(2m + l + t), bit for bit.  A tolerance is a gate's
        # value and stays as it is.  The heisenberg rows are left out: their
        # states are drawn per hbar on grids in their own coordinate.
        before = dict(_key_paths(_report(command, MOLECULE, TRAJECTORY, monkeypatch)))
        scaled = _scaled_water(tmp_path, 4.0, 2.0, time=2.0, hbar=8.0)
        after = dict(_key_paths(_report(command, *scaled, monkeypatch)))
        checked = 0
        for path, column in cli.COLUMNS[command].items():
            if column.kind.split("|")[0] != "float" or column.dim is cli.NO_UNIT:
                continue
            m, l, t = cli.ONE if "tolerance" in path.split(".") else column.dim
            want = [leaf if leaf is None else repr(math.ldexp(leaf, int(2 * m + l + t)))
                    for leaf in before[path]]
            assert [leaf if leaf is None else repr(leaf) for leaf in after[path]] == want, path
            checked += 1
        assert checked > 0


class TestInputErrors:
    def test_missing_file(self):
        assert invoke("validate", "--input", "/nonexistent/mol.json") == 1

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert invoke("validate", "--input", str(bad)) == 1

    def test_deeply_nested_json(self, tmp_path, capsys):
        # json.load recurses once per level: past the stack it is bad input, not a traceback
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        assert invoke("validate", "--input", str(deep)) == 1
        err = capsys.readouterr().err
        assert err.startswith("molrest: error: invalid JSON")
        assert err.count("\n") == 1

    def test_missing_mass_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "nuclei": [{"position": [0.0, 0.0, 0.0]}],
            "electrons": {"count": 0, "mass": 1.0},
        }))
        assert invoke("validate", "--input", str(bad)) == 1
        err = capsys.readouterr().err
        assert "mass" in err
        assert "nuclei[0]" in err

    def test_huge_integer_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "nuclei": [{"mass": 10**400, "position": [0.0, 0.0, 0.0]}],
            "electrons": {"count": 0, "mass": 1.0},
        }))
        assert invoke("validate", "--input", str(bad)) == 1
        err = capsys.readouterr().err
        assert "nuclei[0].mass" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("token", ["Infinity", "1e400"])
    def test_non_finite_mass_names_field(self, token, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(Path(MOLECULE).read_text().replace('"mass": 15.999', f'"mass": {token}'))
        assert invoke("validate", "--input", str(bad)) == 1
        assert capsys.readouterr().err == "molrest: error: nuclei[0].mass: must be finite\n"

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_trajectory_names_line(self, token, tmp_path, capsys):
        lines = Path(TRAJECTORY).read_text().splitlines()
        lines[9] = " ".join(lines[9].split()[:3] + [token] + lines[9].split()[4:])
        bad = tmp_path / "bad.xyz"
        bad.write_text("\n".join(lines) + "\n")
        assert invoke("frame", "--input", MOLECULE, "--trajectory", str(bad)) == 1
        assert "line 10: non-finite coordinate" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [10**30, MAX_ELECTRONS + 1])
    def test_electron_count_above_ceiling_names_field(self, count, tmp_path, capsys):
        # rejected on load, so heisenberg never builds 3 * count line states
        payload = json.loads(Path(MOLECULE).read_text())
        payload["electrons"]["count"] = count
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert invoke("validate", "--input", str(bad)) == 1
        assert "electrons.count" in capsys.readouterr().err

    @pytest.mark.parametrize("tol_quad, hbar", [("1e300", "1e10"), ("1e-300", "1e-300")])
    def test_quadrature_tolerance_outside_float_range(self, tol_quad, hbar, monkeypatch,
                                                       capsys):
        # each flag is valid, the product overflows or underflows: bad input, no state drawn
        def drawn(*args, **kwargs):
            raise AssertionError("a state was drawn")
        monkeypatch.setattr(cli, "random_line_state", drawn)
        assert invoke("heisenberg", "--input", MOLECULE,
                      "--tol-quad", tol_quad, "--hbar", hbar) == 1
        err = capsys.readouterr().err
        assert err.startswith("molrest: error: --tol-quad")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["frame", "decompose"])
    def test_missing_trajectory_named_before_loading(self, command, monkeypatch, capsys):
        def no_load(config):
            raise AssertionError("a trajectory command without --trajectory read its input")

        monkeypatch.setattr(cli, "_load", no_load)
        assert invoke(command, "--input", MOLECULE) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"molrest: error: the {command} command needs --trajectory\n"

    @pytest.mark.parametrize("name", ["not a directory", "too long"])
    @pytest.mark.parametrize("flag", ["--input", "--trajectory"])
    def test_unopenable_input_is_one_error_line(self, flag, name, tmp_path, capsys):
        # ENOTDIR and ENAMETOOLONG: every OSError on reading is bad input, not a traceback
        path = f"{MOLECULE}/x" if name == "not a directory" else str(tmp_path / ("x" * 5000))
        paths = {"--input": MOLECULE, "--trajectory": TRAJECTORY, flag: path}
        assert invoke("frame", "--input", paths["--input"],
                      "--trajectory", paths["--trajectory"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("molrest: error:")

    def test_missing_trajectory_file(self):
        assert invoke("decompose", "--input", MOLECULE,
                      "--trajectory", "/nonexistent/t.xyz") == 1

    def test_corrupt_trajectory_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.xyz"
        bad.write_text("5\nframe 0\nX0 0 0 0 0 0 0\n")
        assert invoke("frame", "--input", MOLECULE, "--trajectory", str(bad)) == 1
        assert "line" in capsys.readouterr().err

    def test_undecodable_byte_reads_the_same_from_a_pipe(self, tmp_path):
        # past the first 64K of the file
        data = bytearray((Path(TRAJECTORY).read_text() * 200).encode())
        data[70000] = 0xFF
        want = (1, b"", "molrest: error: line 775: not UTF-8 text (byte 0xff)\n")
        assert _frame_from_a_file_and_a_pipe(tmp_path, bytes(data)) == [want, want]

    def test_20_mb_line_reads_the_same_from_a_pipe(self, tmp_path):
        # 20 MB with no newline is one line, named well within the timeout
        want = (1, b"", "molrest: error: line 1: expected a particle count\n")
        assert _frame_from_a_file_and_a_pipe(tmp_path, b"1 " * 10485760) == [want, want]

    def test_undecodable_molecule_byte_is_invalid_json(self, tmp_path, capsys):
        data = bytearray(Path(MOLECULE).read_bytes())
        data[10] = 0xFF
        path = tmp_path / "bad.json"
        path.write_bytes(bytes(data))
        assert invoke("validate", "--input", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("molrest: error: invalid JSON: ")
        assert err.count("\n") == 1


    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_output_names_the_flag(self, where, tmp_path):
        out = tmp_path / "missing" / "report.json" if where == "missing directory" else tmp_path
        done = subprocess.run([sys.executable, "-m", "molrest.cli", "validate", "--input", MOLECULE,
                               "--output", str(out)],
                              capture_output=True, text=True, env=_child_env())
        assert done.returncode == 1
        assert done.stderr.startswith("molrest: error: --output: ")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("how", ["pipe", "closed", "head"])
    def test_closed_stdout_names_it(self, how, tmp_path):
        # a pipe whose read end is closed, as under `| head -1` once head
        # has exited, so every write fails; no stdout at all, as `>&-`; or a
        # reader that closes after the first line of a 3.8 MB report, as
        # `| head -n 1` while molrest is still writing
        trajectory = tmp_path / "traj.xyz"
        trajectory.write_text(Path(TRAJECTORY).read_text() * (700 if how == "head" else 1))
        args = [sys.executable, "-m", "molrest.cli", "frame", "--input", MOLECULE,
                "--trajectory", str(trajectory), "--format", "csv"]
        if how == "head":
            with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  env=_child_env()) as proc:
                assert proc.stdout.readline() == "command,frame\n"
                proc.stdout.close()
                stderr = proc.stderr.read()
            returncode = proc.returncode
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            close = (lambda: os.close(1)) if how == "closed" else None
            try:
                done = subprocess.run(args, stdout=write_end, stderr=subprocess.PIPE, text=True,
                                      env=_child_env(), preexec_fn=close)
            finally:
                os.close(write_end)
            returncode, stderr = done.returncode, done.stderr
        assert returncode == 1
        assert stderr.startswith("molrest: error: stdout: ")
        assert stderr.count("\n") == 1  # no traceback, no "Exception ignored" at exit

    def test_stdout_without_descriptor_names_it(self, monkeypatch, capsys):
        class Failing(io.StringIO):  # no fileno(), and every write fails
            def write(self, text):
                raise OSError("no room")

        monkeypatch.setattr(sys, "stdout", Failing())
        assert main(["frame", "--input", MOLECULE, "--trajectory", TRAJECTORY]) == 1
        assert capsys.readouterr().err == "molrest: error: stdout: no room\n"

    def test_no_stdout_object_names_it(self, monkeypatch, capsys):
        # sys.stdout is None when Python starts with descriptor 1 closed
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["validate", "--input", MOLECULE]) == 1
        assert capsys.readouterr().err == "molrest: error: stdout: closed\n"

    def test_hbar_past_the_phase_range_is_bad_input(self, capsys):
        # k x / hbar overflows in the line states' phase: exit 1 naming hbar, no numpy warning
        assert invoke("heisenberg", "--input", MOLECULE, "--hbar", "1e-308",
                      "--grid-line", "1024", "--grid-theta", "16", "--grid-dirs", "32") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("molrest: error: hbar takes the phase k x / hbar out of the "
                                "float range on the grid, got 1e-308\n")


def _replace_field(row, k, value):
    parts = row.split()
    parts[k] = value
    return " ".join(parts)


class TestTrajectoryGrammar:
    """Particle rows are read by numpy's text parser: what it accepts and rejects."""

    # 0-based line 11 is nucleus 2 of frame 1, reported as line 12
    @pytest.mark.parametrize("row, message", [
        (lambda r: _replace_field(r, 2, "1_0"), "non-numeric coordinate"),
        (lambda r: _replace_field(r, 2, "\u0661"), "non-numeric coordinate"),  # Arabic-Indic 1
        (lambda r: _replace_field(r, 3, "0x10"), "non-numeric coordinate"),
        (lambda r: _replace_field(r, 4, "."), "non-numeric coordinate"),
        (lambda r: _replace_field(r, 5, "1e"), "non-numeric coordinate"),
        (lambda r: r + " 1.0", "expected 'species x y z px py pz' (7 fields)"),
        (lambda r: r.rsplit(" ", 1)[0], "expected 'species x y z px py pz' (7 fields)"),
        (lambda r: r + " # tail", "expected 'species x y z px py pz' (7 fields)"),
        (lambda r: "", "expected 'species x y z px py pz' (7 fields)"),
        (lambda r: " \t ", "expected 'species x y z px py pz' (7 fields)"),
        (lambda r: _replace_field(r, 1, "nan"), "non-finite coordinate"),
        (lambda r: _replace_field(r, 6, "inf"), "non-finite coordinate"),
    ], ids=["underscore", "arabic-indic", "hex", "point", "bare-exponent", "8-fields",
            "6-fields", "comment-tail", "blank", "whitespace", "nan", "inf"])
    def test_rejected_rows_name_their_line(self, row, message, tmp_path, capsys):
        lines = Path(TRAJECTORY).read_text().splitlines()
        lines[11] = row(lines[11])
        bad = tmp_path / "bad.xyz"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert invoke("frame", "--input", MOLECULE, "--trajectory", str(bad)) == 1
        err = capsys.readouterr().err
        assert f"molrest: error: line 12: {message}" in err

    def test_count_line_after_good_frames_names_its_line(self, tmp_path, capsys):
        # frame 0 parses, frame 1's count line (line 8) is wrong
        lines = Path(TRAJECTORY).read_text().splitlines()
        lines[7] = "4"
        bad = tmp_path / "bad.xyz"
        bad.write_text("\n".join(lines) + "\n")
        assert invoke("frame", "--input", MOLECULE, "--trajectory", str(bad)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("molrest: error: line 8: frame holds 4 particles, "
                                "molecule needs 5\n")

    @pytest.mark.parametrize("ending", ["\n", ""], ids=["final-newline", "no-final-newline"])
    def test_last_frame_one_row_short_is_truncated(self, ending, tmp_path, capsys):
        # 13 lines: frame 0 whole, frame 1 (count on line 8) without its last row; the
        # empty string after a final newline is no line 14 to read that row from
        lines = Path(TRAJECTORY).read_text().splitlines()[:13]
        bad = tmp_path / "bad.xyz"
        bad.write_text("\n".join(lines) + ending)
        assert invoke("frame", "--input", MOLECULE, "--trajectory", str(bad)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "molrest: error: line 8: truncated frame\n"

    def test_blank_row_inserted_in_a_frame_names_its_line(self, tmp_path, capsys):
        lines = Path(TRAJECTORY).read_text().splitlines()
        bad = tmp_path / "bad.xyz"
        bad.write_text("\n".join(lines[:11] + [""] + lines[11:]) + "\n")
        assert invoke("frame", "--input", MOLECULE, "--trajectory", str(bad)) == 1
        assert "line 12: expected 'species x y z px py pz' (7 fields)" in capsys.readouterr().err

    def test_tabs_and_a_bare_sign_and_point_are_read(self, tmp_path):
        from molrest.frames import load_trajectory
        from molrest.molecule import load_molecule, prepare_equilibrium

        mol = prepare_equilibrium(load_molecule(MOLECULE))
        lines = Path(TRAJECTORY).read_text().splitlines()
        lines[11] = "\t".join(_replace_field(lines[11], 1, "+1.").split())
        path = tmp_path / "tabs.xyz"
        path.write_text("\n".join(lines) + "\n")
        expected = load_trajectory(mol, TRAJECTORY).nuclei_positions.copy()
        expected[1, 2, 0] = 1.0
        assert np.array_equal(load_trajectory(mol, path).nuclei_positions, expected)
        assert invoke("frame", "--input", MOLECULE, "--trajectory", str(path),
                      "--output", str(tmp_path / "report.json")) == 0


class TestCheckFailures:
    def test_injected_tolerance_violation(self, tmp_path):
        out = tmp_path / "report.json"
        code = invoke("validate", "--input", MOLECULE,
                      "--tol-eckart", "1e-20", "--output", str(out))
        assert code == 2
        report = json.loads(out.read_text())
        assert report["passed"] is False

    def test_coarse_line_grid_fails_commutator_check(self, tmp_path):
        out = tmp_path / "report.json"
        code = invoke("commutators", "--input", MOLECULE,
                      "--grid-line", "2048", "--output", str(out))
        assert code == 2
        report = json.loads(out.read_text())
        assert report["checks"]["line_canonical"]["passed"] is False
        # the orientation checks are step-based and stay green
        assert report["checks"]["chart_angmom"]["passed"] is True

    def test_huge_hbar_names_dispersion(self, tmp_path, capsys):
        # the dispersion variance leaves the float range: exit 2, not a traceback
        out = tmp_path / "report.json"
        assert invoke("heisenberg", "--input", MOLECULE, "--hbar", "1e160",
                      "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("molrest: check failed: dispersion")
        assert "Traceback" not in err

    def test_tiny_hbar_names_dispersion(self, tmp_path, capsys):
        # the momentum variance underflows: a check failure, not 18 "violated" rows
        out = tmp_path / "report.json"
        assert invoke("heisenberg", "--input", MOLECULE, "--hbar", "1e-300",
                      "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(
            "molrest: check failed: dispersion out of float range")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["frame", "decompose"])
    def test_overflowing_eckart_scale_fails_the_frame(self, command, capsys):
        # water_traj.xyz with every coordinate x1e155: the scale sum M |R0| |R'|
        # leaves the float range, and residual / scale would read a perfect 0
        assert invoke(command, "--input", MOLECULE,
                      "--trajectory", str(DATA / "water_traj_x1e155.xyz")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("molrest: check failed: orientation solve failed at frame 0: "
                                "its scale sum M |R0| |R'| overflowed\n")


class TestExitHandler:
    """The one handler in ``run``: every error a command raises maps to one exit code
    and one stderr line, the check errors ahead of the ValueErrors they are."""

    @pytest.mark.parametrize("error,code,prefix", [
        (EckartSolveError("boom"), 2, "molrest: check failed: "),
        (EckartViolationError("boom", residual=1.0), 2, "molrest: check failed: "),
        (SingularInertiaError("boom"), 2, "molrest: check failed: "),
        (BoundaryMassError("boom"), 2, "molrest: check failed: "),
        (GridError("boom"), 2, "molrest: check failed: "),
        (SchemaError("boom"), 1, "molrest: error: "),
        (ValueError("boom"), 1, "molrest: error: "),
        (OSError("boom"), 1, "molrest: error: "),
        (OutputError("boom"), 1, "molrest: error: "),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
    def test_command_error_maps_to_one_line(self, error, code, prefix, monkeypatch, capsys):
        def failing(config, mol, rng):
            raise error

        monkeypatch.setitem(cli._DISPATCH, "validate", failing)
        assert invoke("validate", "--input", MOLECULE) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{prefix}boom\n"


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert invoke("heisenberg", "--input", MOLECULE, "--seed", "7",
                          "--output", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_states(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        invoke("heisenberg", "--input", MOLECULE, "--seed", "1", "--output", str(a))
        invoke("heisenberg", "--input", MOLECULE, "--seed", "2", "--output", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_json_keys_sorted(self, tmp_path):
        out = tmp_path / "report.json"
        invoke("validate", "--input", MOLECULE, "--output", str(out))
        text = out.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestReports:
    def test_modes_report_frequencies(self, tmp_path):
        out = tmp_path / "report.json"
        invoke("modes", "--input", MOLECULE, "--output", str(out))
        report = json.loads(out.read_text())
        assert report["n_modes"] == 3
        assert np.allclose(report["frequencies"], [1.2, 2.1, 2.3])

    def test_frame_report_fields(self, tmp_path):
        out = tmp_path / "report.json"
        invoke("frame", "--input", MOLECULE, "--trajectory", TRAJECTORY,
               "--output", str(out))
        frame = json.loads(out.read_text())["frames"][0]
        assert len(frame["orientation"]) == 3
        assert frame["roundtrip_error"] <= TOL_ROUNDTRIP

    def test_decompose_terms_sum(self, tmp_path):
        out = tmp_path / "report.json"
        invoke("decompose", "--input", MOLECULE, "--trajectory", TRAJECTORY,
               "--output", str(out))
        for frame in json.loads(out.read_text())["frames"]:
            total = (np.array(frame["rotational"]) + np.array(frame["deformation"])
                     + np.array(frame["electronic"]))
            assert np.abs(total - np.array(frame["rest_angular_momentum"])).max() <= 1e-9

    def test_heisenberg_rows_structure(self, tmp_path):
        out = tmp_path / "report.json"
        invoke("heisenberg", "--input", MOLECULE, "--output", str(out))
        report = json.loads(out.read_text())
        rows = report["rows"]
        assert len(rows) == report["n_rows"]
        kinds = {r["observable_a"][0] for r in rows}
        assert kinds == {"P", "p", "n"}  # modes, electrons, orientation
        for r in rows:
            assert isinstance(r["delta_a"], float)
            assert r["satisfied"] is True
            assert abs(r["product"] - r["delta_a"] * r["delta_b"]) <= 1e-12

    def test_heisenberg_hbar_override_scales_bound(self, tmp_path):
        out = tmp_path / "report.json"
        invoke("heisenberg", "--input", MOLECULE, "--hbar", "2.0",
               "--output", str(out))
        rows = json.loads(out.read_text())["rows"]
        bounds = {r["bound"] for r in rows}
        assert bounds == {0.0, 1.0}

    def test_commutators_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert invoke("commutators", "--input", MOLECULE, "--output", str(out)) == 0
        checks = json.loads(out.read_text())["checks"]
        for c in checks.values():
            assert c["residual"] <= c["tolerance"]

    def test_commutators_sweep_orientation_state_once(self, tmp_path, monkeypatch):
        # the three orientation checks read one stencil sweep: 4 offsets x 3 directions
        seen = []
        make_state = cli.so3_gaussian_state

        def counted_state(*args, **kwargs):
            psi = make_state(*args, **kwargs)

            def profile(pts):
                seen.append(pts.shape)
                return psi.profile(pts)

            return GridWavefunction(grid=psi.grid, amplitudes=psi.amplitudes, profile=profile)

        monkeypatch.setattr(cli, "so3_gaussian_state", counted_state)
        assert invoke("commutators", "--input", MOLECULE, "--grid-theta", "24",
                      "--grid-dirs", "48", "--output", str(tmp_path / "report.json")) == 0
        assert len(seen) == 12

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        assert invoke("heisenberg", "--input", MOLECULE, "--format", "csv",
                      "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert "product" in header and "satisfied" in header
        first = dict(zip(header, lines[1].split(",")))
        assert first["satisfied"] in ("true", "false", "indeterminate")
        float(first["product"])  # dot-decimal, parseable

    def test_csv_scalar_reports(self, tmp_path):
        out = tmp_path / "report.csv"
        assert invoke("validate", "--input", MOLECULE, "--format", "csv",
                      "--output", str(out)) == 0
        rows = dict(line.split(",", 1) for line in out.read_text().splitlines())
        assert rows["passed"] == "true"
        assert float(rows["residuals.translation"]) <= 1e-10

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", ["frame", "heisenberg"])
    def test_output_file_matches_stdout(self, command, fmt, tmp_path, capsys):
        args = [command, "--input", MOLECULE, "--trajectory", TRAJECTORY, "--format", fmt,
                "--grid-line", "1024", "--grid-theta", "24", "--grid-dirs", "48"]
        out = tmp_path / "report"
        code = invoke(*args, "--output", str(out))
        capsys.readouterr()
        assert invoke(*args) == code
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_stdout_when_no_output_path(self, capsys):
        assert invoke("validate", "--input", MOLECULE) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True


def _singular_water():
    """The prepared water molecule and nuclear positions, displaced along one mode
    of the CLI's seed-0 basis, at which the instantaneous inertia turns singular."""
    from molrest.angmom import build_inertia, inertia_at, mode_sum
    from molrest.molecule import load_molecule, prepare_equilibrium
    from molrest.modes import build_modes

    mol = prepare_equilibrium(load_molecule(MOLECULE))
    basis = build_modes(mol, rng=np.random.default_rng(0))  # the CLI's seed-0 basis
    model = build_inertia(mol, basis)
    direction = np.zeros(basis.n_modes)
    direction[1] = 1.0

    def smallest(t):
        return np.linalg.eigvalsh(inertia_at(model, t * direction))[0]

    lo, hi = 0.0, 1.0
    while smallest(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if smallest(mid) > 0.0 else (lo, mid)
    return mol, mol.positions + mode_sum(lo * direction, basis.x) / np.sqrt(mol.masses)[:, None]


def _trajectory_report(tmp_path, trajectory, name="report.json"):
    out = tmp_path / name
    code = invoke("frame", "--input", MOLECULE, "--trajectory", str(trajectory),
                  "--output", str(out))
    return code, json.loads(out.read_text())


class TestTrajectoryFrames:
    def test_relative_residual_ignores_translation(self, tmp_path):
        from molrest.frames import Configuration, load_trajectory, write_trajectory
        from molrest.molecule import load_molecule, prepare_equilibrium

        mol = prepare_equilibrium(load_molecule(MOLECULE))
        traj = load_trajectory(mol, TRAJECTORY)
        moved = tmp_path / "moved.xyz"
        write_trajectory(mol, moved, Configuration(
            nuclei_positions=traj.nuclei_positions + 1e3,
            nuclei_momenta=traj.nuclei_momenta,
            electron_positions=traj.electron_positions + 1e3,
            electron_momenta=traj.electron_momenta,
        ))
        code, report = _trajectory_report(tmp_path, TRAJECTORY, "a.json")
        code_moved, report_moved = _trajectory_report(tmp_path, moved, "b.json")
        assert code == code_moved == 0
        checked = 0
        for a, b in zip(report["frames"], report_moved["frames"], strict=True):
            assert a["passed"] is b["passed"] is True
            assert abs(a["relative_residual"] - b["relative_residual"]) <= 1e-14
            # the scale the residual is divided by is the translation-free one
            if a["residual"] > 0.0 and b["residual"] > 0.0:
                scale = a["residual"] / a["relative_residual"]
                scale_moved = b["residual"] / b["relative_residual"]
                assert abs(scale_moved - scale) <= 1e-9 * scale
                checked += 1
        assert checked > 0

    def test_singular_inertia_names_frame(self, tmp_path, capsys):
        from molrest.frames import Configuration, write_trajectory

        mol, singular = _singular_water()
        rng = np.random.default_rng(1)
        frames = []
        for index in range(5):
            pos = singular if index == 3 else \
                mol.positions + rng.normal(scale=0.02, size=mol.positions.shape)
            frames.append(Configuration(pos, np.zeros_like(pos), np.zeros((2, 3)),
                                        np.zeros((2, 3))))
        path = tmp_path / "singular.xyz"
        write_trajectory(mol, path, frames)
        out = tmp_path / "report.json"
        for command in ("frame", "decompose"):
            assert invoke(command, "--input", MOLECULE, "--trajectory", str(path),
                          "--output", str(out)) == 2
            assert "frame 3" in capsys.readouterr().err
            assert not out.exists()


def _frame_lines(path, index=0):
    """The 7 lines (count, comment, 5 rows) of one frame of a water trajectory."""
    return Path(path).read_text().split("\n")[7 * index:7 * index + 7]


class TestBlocks:
    """``frame`` and ``decompose`` analyze a block of frames at a time: the report
    bytes do not depend on the block, and a failing frame is named by its place in
    the whole file, with the precedence of one whole-stack ``analyze``."""

    @pytest.mark.parametrize("size", [5, 7, 10, 1])  # rows: 1, 1, 2 and 1 frames
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", ["frame", "decompose"])
    def test_report_bytes(self, tmp_path, monkeypatch, capsys, command, fmt, size):
        path = tmp_path / "traj.xyz"
        path.write_text(Path(TRAJECTORY).read_text() * 4)  # 12 frames
        args = (command, "--input", MOLECULE, "--trajectory", str(path), "--format", fmt)
        assert invoke(*args) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(frames, "BLOCK_ROWS", size)
        calls = []
        analyze = cli.analyze
        monkeypatch.setattr(cli, "analyze", lambda *a: calls.append(a) or analyze(*a))
        assert invoke(*args) == 0
        assert capsys.readouterr().out == whole
        assert len(calls) == -(-12 // max(1, size // 5))

    @pytest.mark.parametrize("row, edit, err", [
        (None, None, ""),
        (2, lambda r: "e" + r[2:],
         "molrest: error: line 3: electron row among the first 3 (nuclei must come first)\n"),
        (-1, lambda r: r.rsplit(" ", 1)[0],
         "molrest: error: line 46200: expected 'species x y z px py pz' (7 fields)\n"),
    ], ids=["whole", "line-3", "last-row"])
    def test_past_four_blocks(self, tmp_path, capsys, row, edit, err):
        # water_traj.xyz x2200: 6600 frames, 33000 particle rows in blocks of frames.BLOCK_ROWS
        lines = (Path(TRAJECTORY).read_text() * 2200).splitlines()
        assert 5 * len(lines) // 7 > 4 * frames.BLOCK_ROWS
        if row is not None:
            lines[row] = edit(lines[row])
        path = tmp_path / "traj.xyz"
        path.write_text("\n".join(lines) + "\n")
        code = invoke("frame", "--input", MOLECULE, "--trajectory", str(path), "--format", "csv")
        assert (code, capsys.readouterr().err) == (1 if err else 0, err)

    @pytest.mark.parametrize("command", ["frame", "decompose"])
    @pytest.mark.parametrize("singular_at, eckart_at, message", [
        (None, 2, "orientation solve failed at frame 2: its scale sum M |R0| |R'| overflowed"),
        (1, 2, "orientation solve failed at frame 2: its scale sum M |R0| |R'| overflowed"),
        (4, None, "instantaneous inertia is singular at frame 4"),
    ], ids=["eckart", "eckart-after-singular", "singular"])
    def test_check_error_names_the_frame(self, tmp_path, monkeypatch, capsys, command,
                                         singular_at, eckart_at, message):
        from molrest.frames import Configuration, write_trajectory

        mol, singular = _singular_water()
        single = tmp_path / "singular.xyz"
        write_trajectory(mol, single, [Configuration(singular, np.zeros((3, 3)),
                                                     np.zeros((2, 3)), np.zeros((2, 3)))])
        chosen = [_frame_lines(TRAJECTORY, f % 3) for f in range(6)]
        if eckart_at is not None:  # every coordinate x1e155
            chosen[eckart_at] = _frame_lines(DATA / "water_traj_x1e155.xyz")
        if singular_at is not None:
            chosen[singular_at] = _frame_lines(single)
        path = tmp_path / "traj.xyz"
        path.write_text("\n".join(line for frame in chosen for line in frame) + "\n")
        args = (command, "--input", MOLECULE, "--trajectory", str(path))
        assert invoke(*args) == 2
        whole = capsys.readouterr()
        assert whole.out == ""
        assert whole.err.startswith(f"molrest: check failed: {message}")
        monkeypatch.setattr(frames, "BLOCK_ROWS", 5)  # one frame per block
        assert invoke(*args) == 2
        assert capsys.readouterr() == whole

    @pytest.mark.parametrize("command", ["frame", "decompose"])
    @pytest.mark.parametrize("place, n_frames", [(0, 1), (2, 6)], ids=["alone", "frame-2"])
    def test_overflowing_center_of_mass_names_the_frame(self, tmp_path, monkeypatch, capsys,
                                                        command, place, n_frames):
        # every number x5e307: finite and parseable, but the center of mass is not
        huge = _frame_lines(TRAJECTORY)
        for i, row in enumerate(huge[2:], 2):
            species, *values = row.split()
            huge[i] = " ".join([species] + [repr(5e307 * float(v)) for v in values])
        chosen = [_frame_lines(TRAJECTORY, f % 3) for f in range(n_frames)]
        chosen[place] = huge
        path = tmp_path / "traj.xyz"
        path.write_text("\n".join(line for frame in chosen for line in frame) + "\n")
        args = (command, "--input", MOLECULE, "--trajectory", str(path))
        want = (f"molrest: check failed: center-of-mass split failed at frame {place}: "
                "its center of mass, momentum or relative data are not finite\n")
        for size in (frames.BLOCK_ROWS, 5):  # one block, then one frame per block
            monkeypatch.setattr(frames, "BLOCK_ROWS", size)
            assert invoke(*args) == 2
            assert capsys.readouterr() == ("", want)
