"""molrest benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run generates its inputs from the
seed (one generator process), imports molrest and makes one warm-up
invocation in each of several fresh processes, and reports set-up time
as generation plus the median of those, then runs the workload's command through ``molrest.cli.main``
in one fresh worker process for ``--seconds`` seconds.  Every report is
checked by the oracle, which does not use molrest.  With ``--trace 0``
the end-to-end metrics are measured; with ``--trace 1`` the worker
alternates untraced and traced invocations and the per-layer metrics
are reported.  The last line of stdout is the JSON result; a detailed
record goes to ``.perfbench_out/BENCH_<workload>_seed<N>_trace<T>.json``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import os
import sys

# Thread pools are capped before numpy loads here or in any child.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_ROUNDS = 5
WARMUP_GRIDS = ["--grid-line", "1024", "--grid-theta", "32", "--grid-dirs", "64"]
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    inputs: str      # gen.py input set
    command: str     # molrest subcommand, also the oracle's kind
    ext: str         # report format

    def args(self, files, seed, short=False):
        args = [self.command, "--input", files["molecule"]]
        if self.inputs.startswith("traj-"):
            traj = files["short"] if short else files["traj"]
            args += ["--trajectory", traj, "--format", self.ext]
        elif short:
            args += WARMUP_GRIDS
        if self.command != "commutators":
            args += ["--seed", str(seed)]
        return args


WORKLOADS = {
    "traj-cluster": Workload("traj-cluster", "frame", "json"),
    "traj-water": Workload("traj-water", "decompose", "csv"),
    "quantum-commutators": Workload("cluster", "commutators", "json"),
    "quantum-heisenberg": Workload("cluster", "heisenberg", "json"),
}


def metric_unit(name):
    """Unit of a per-layer metric, read off its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "points", "report_bytes"):
        return "count"
    if last in ("useful_share", "distinct_point_share", "self_share", "overhead_frac"):
        return "ratio"
    return {"us_per_frame": "us", "ms": "ms", "MB_per_s": "MB/s"}.get(last, "s")


def high_percentile(samples):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(samples, p))
    return None, None


def _child(argv, what):
    """Run a child process to completion; stdout goes to our stderr."""
    try:
        subprocess.run([sys.executable, *argv], check=True, stdout=sys.stderr,
                       timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {what} exceeded {CHILD_TIMEOUT_S} s")
    except subprocess.CalledProcessError as exc:
        raise SystemExit(f"perfbench: {what} exited with status {exc.returncode}")


def _worker(spec, work, name):
    path = os.path.join(work, f"{name}.spec.json")
    spec = dict(spec, result=os.path.join(work, f"{name}.result.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    _child([os.path.join(HERE, "worker.py"), path], f"worker ({name})")
    if spec["mode"] == "setup":
        return {}
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh)


def _preflight(workload):
    need = [os.path.join(ROOT, "src", "molrest", "__init__.py")]
    if workload.inputs == "traj-water":
        need.append(os.path.join(ROOT, "tests", "data", "water.json"))
    missing = [p for p in need if not os.path.isfile(p)]
    if missing:
        raise SystemExit(f"perfbench: not a molrest checkout, missing {', '.join(missing)}")


def _oracle_context(workload, files):
    if workload.inputs.startswith("traj-"):
        with np.load(files["truth"]) as npz:
            expected = oracle.expected_frames(dict(npz))
        return expected.n_frames, {"expected": expected}
    with open(files["molecule"], encoding="utf-8") as fh:
        mol = json.load(fh)
    n_nuclei, n_electrons = len(mol["nuclei"]), mol["electrons"]["count"]
    if workload.command == "commutators":
        return len(oracle.COMMUTATOR_CHECKS), {}
    return (oracle.heisenberg_rows(n_nuclei, n_electrons),
            {"n_nuclei": n_nuclei, "n_electrons": n_electrons})


def _absent_spans(absent):
    """Span names whose wrapped target no longer exists."""
    span_of = {f"{m}.{p}": (n or spans.PROFILE_SPAN) for m, p, n in spans.TARGETS}
    return {span_of[a] for a in absent if a in span_of}


def measure(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    _preflight(workload)
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        return _measure(workload, name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, name, seed, seconds, trace, work):
    files = {k: os.path.join(work, f) for k, f in (
        ("molecule", "molecule.json"), ("traj", "traj.xyz"), ("short", "short.xyz"),
        ("truth", "truth.npz"))}
    spec = {
        "root": ROOT,
        "warmup": [workload.args(files, seed, short=True)
                   + ["--output", os.path.join(work, f"warmup.{workload.ext}")]],
        "command": workload.args(files, seed),
        "ext": workload.ext,
        "report_dir": work,
        "seconds": seconds,
    }

    # Generation is the benchmark's own deterministic code, so it runs
    # once; the part molrest can change (fresh-process import and the
    # warm-up invocation) is repeated and each round adds the one
    # generation time.
    t0 = time.perf_counter()
    _child([os.path.join(HERE, "gen.py"), "--inputs", workload.inputs, "--seed", str(seed),
            "--out", work, "--root", ROOT], "generator")
    gen_s = time.perf_counter() - t0
    setup = []
    for r in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        _worker(dict(spec, mode="setup"), work, f"setup{r}")
        setup.append(gen_s + time.perf_counter() - t0)

    traj = workload.inputs.startswith("traj-")
    spec["frames"] = gen.N_FRAMES if traj else 0
    spec["traj_bytes"] = os.path.getsize(files["traj"]) if traj else 0
    result = _worker(dict(spec, mode="trace" if trace else "measure"), work, "run")

    n_ops, context = _oracle_context(workload, files)
    verdict = oracle.Verdict(0, 0)
    for inv in result["invocations"]:
        verdict.add(oracle.check_invocation(workload.command, inv["exit_code"], inv["report"],
                                            n_ops, **context))
        if os.path.exists(inv["report"]):
            os.remove(inv["report"])

    plain = [inv for inv in result["invocations"] if not inv["traced"]]
    traced = [inv for inv in result["invocations"] if inv["traced"]]
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {"numpy": result["numpy"], "python": platform.python_version(),
                "cpu_count": os.cpu_count(), "nproc": NPROC,
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "generator_processes": 1},
        "ops_per_invocation": n_ops,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "fail_frac": verdict.failed / verdict.attempted if verdict.attempted else 1.0,
        "problems": verdict.problems,
        "generate_s": gen_s,
        "setup_samples_s": setup,
        "command_s": _timing_summary([inv["wall_s"] for inv in plain]),
        "reference_s": _timing_summary([inv["ref_s"] for inv in plain]),
        "ops_per_s": statistics.median(n_ops / inv["wall_s"] for inv in plain),
        "exit_codes": [inv["exit_code"] for inv in result["invocations"]],
        "absent": result["absent"],
    }
    if trace:
        # times are medians; counts repeat exactly, so the first is kept
        # as it was counted (a median of two would turn it into a float)
        gone = _absent_spans(result["absent"])
        layers = {}
        for key, first in traced[0]["layers"].items():
            if key.rsplit(".", 1)[0] in gone:
                continue
            layers[key] = first if metric_unit(key) == "count" else statistics.median(
                inv["layers"][key] for inv in traced)
        layers["trace.overhead_frac"] = _relative_time(traced) / _relative_time(plain) - 1.0
        counts = [{k: v for k, v in inv["layers"].items() if metric_unit(k) == "count"}
                  for inv in traced]
        detail["traced_command_s"] = _timing_summary([inv["wall_s"] for inv in traced])
        detail["counts_repeat"] = all(c == counts[0] for c in counts)
        metrics = {k: {"value": v, "unit": metric_unit(k)} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_ref_s": {"value": n_ops / _relative_time(plain), "unit": "ops/ref_s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    detail["metrics"] = metrics
    return {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }, detail


def _relative_time(invocations):
    """Median invocation time in reference-seconds (wall / reference)."""
    return statistics.median(inv["wall_s"] / inv["ref_s"] for inv in invocations)


def _timing_summary(samples):
    p, value = high_percentile(samples)
    return {"median": statistics.median(samples) if samples else None,
            "percentile": p, "percentile_value": value, "samples": len(samples),
            "all": samples}


def main(argv=None):
    parser = argparse.ArgumentParser(description="molrest benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    summary, detail = measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace))

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"BENCH_{ns.workload}_seed{ns.seed}_trace{ns.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    env = detail["env"]
    print(f"# {ns.workload} seed={ns.seed} trace={ns.trace} numpy={env['numpy']} "
          f"cpus={env['cpu_count']} nproc={env['nproc']} "
          f"attempted={detail['attempted']} failed={detail['failed']} "
          f"fail_frac={detail['fail_frac']:.6g}")
    cmd = detail["command_s"]
    ref = detail["reference_s"]
    print(f"# command_s median={cmd['median']:.6g} p{cmd['percentile']}={cmd['percentile_value']} "
          f"samples={cmd['samples']} reference_s median={ref['median']:.6g} "
          f"ops_per_s={detail['ops_per_s']:.6g}")
    for problem in detail["problems"]:
        print(f"# oracle: {problem}")
    for absent in detail["absent"]:
        print(f"# absent: {absent}")
    for key, m in summary["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
