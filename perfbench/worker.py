"""Fresh process that runs one workload's command through molrest.cli.main.

``python3 perfbench/worker.py SPEC.json`` imports molrest from the
checkout's ``src/``, makes one untimed warm-up invocation on a short
input, and then, depending on the spec's mode:

  setup    exits (the caller times the whole process);
  measure  repeats the command until ``seconds`` have passed, timing
           each invocation, and records the process's peak RSS;
  trace    alternates untraced and traced invocations (at least one
           of each) so the trace overhead is measured against the same
           process, and records per-layer metrics of each traced one.

The reference work of ``reference.py`` runs before the first and after
every invocation; each invocation records the mean of the two runs
around it.  Every invocation writes its report to its own file for the
oracle.  The results go to the spec's ``result`` path as JSON.
"""

import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import reference
import spans


def _import_cli(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import molrest.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"molrest imported from {cli.__file__}, not from {src}")
    return cli


def _invoke(main, args):
    """Exit status of one invocation; a traceback counts as a crash (-1)."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the harness must go on and count the failure
        traceback.print_exc()
        return -1


def layer_metrics(tracer, spec, wall, report_bytes):
    """Per-layer metrics of one traced invocation, keyed by metric name."""
    stats = tracer.stats
    frames = spec["frames"]

    def calls(name):
        return stats[name].calls if name in stats else 0

    def total(name):
        return stats[name].total if name in stats else 0.0

    def per_frame(name):
        return 1e6 * stats[name].self / frames if frames and name in stats else 0.0

    out = {}
    load_s = total("frames.load_trajectory")
    out["frames.load_trajectory.s"] = load_s
    out["frames.load_trajectory.MB_per_s"] = spec["traj_bytes"] / 1e6 / load_s if load_s else 0.0
    for fn in ("com_split", "solve_eckart", "to_rest", "extract_internal", "reconstruct"):
        out[f"frames.{fn}.us_per_frame"] = per_frame(f"frames.{fn}")
        out[f"frames.{fn}.calls"] = calls(f"frames.{fn}")
    out["lie_so3.log_map.us_per_frame"] = per_frame("lie_so3.log_map")
    out["lie_so3.log_map.calls"] = calls("lie_so3.log_map")
    builds = calls("angmom.build_inertia")
    out["angmom.build_inertia.calls"] = builds
    out["angmom.build_inertia.us_per_frame"] = per_frame("angmom.build_inertia")
    out["angmom.build_inertia.useful_share"] = (
        len(tracer.inertia_inputs) / builds if builds else 0.0)
    out["angmom.inertia_at.us_per_frame"] = per_frame("angmom.inertia_at")
    out["angmom.decompose_angmom.us_per_frame"] = per_frame("angmom.decompose_angmom")
    for name in ("molecule.load_molecule", "molecule.prepare_equilibrium",
                 "modes.build_modes", "quantum.grids.make"):
        out[f"{name}.ms"] = 1e3 * total(name)
    out["quantum.grids.wrap_to_ball.calls"] = calls("quantum.grids.wrap_to_ball")
    out["quantum.grids.wrap_to_ball.s"] = total("quantum.grids.wrap_to_ball")
    share, points = tracer.distinct_point_share()
    out["quantum.states.profile.calls"] = calls(spans.PROFILE_SPAN)
    out["quantum.states.profile.points"] = points
    out["quantum.states.profile.s"] = total(spans.PROFILE_SPAN)
    out["quantum.states.profile.distinct_point_share"] = share
    for fn in ("chart_commutator_residuals", "body_commutator_residuals",
               "angvel_commutator_check", "line_commutator_residual"):
        out[f"quantum.operators.{fn}.s"] = total(f"quantum.operators.{fn}")
    out["quantum.operators.frame_fields.calls"] = calls("quantum.operators.frame_fields")
    out["quantum.operators.self_s"] = sum(
        s.self for name, s in stats.items() if name.startswith("quantum.operators."))
    out["quantum.heisenberg.heisenberg_suite.s"] = total("quantum.heisenberg.heisenberg_suite")
    out["quantum.heisenberg.dispersion.calls"] = calls("quantum.heisenberg.dispersion")
    out["quantum.heisenberg.dispersion.s"] = total("quantum.heisenberg.dispersion")
    cli_self = stats[spans.CLI_SPAN].self if spans.CLI_SPAN in stats else 0.0
    out["cli.self_s"] = cli_self
    out["cli.self_share"] = cli_self / wall if wall else 0.0
    out["cli.report_bytes"] = report_bytes
    return out


def run(spec):
    cli = _import_cli(spec["root"])
    for args in spec["warmup"]:
        _invoke(cli.main, args)
    if spec["mode"] == "setup":
        return {}

    tracer = spans.Tracer()
    traced_main = tracer.span(spans.CLI_SPAN, cli.main)
    tracing = spec["mode"] == "trace"
    invocations = []
    start = time.perf_counter()
    ref_before = reference.reference_seconds()
    while True:
        traced = tracing and len(invocations) % 2 == 1
        report = os.path.join(spec["report_dir"], f"report-{len(invocations)}.{spec['ext']}")
        args = spec["command"] + ["--output", report]
        if traced:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            code = _invoke(traced_main if traced else cli.main, args)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        ref_after = reference.reference_seconds()
        record = {"wall_s": wall, "ref_s": 0.5 * (ref_before + ref_after),
                  "exit_code": code, "report": report, "traced": traced}
        ref_before = ref_after
        if traced:
            size = os.path.getsize(report) if os.path.exists(report) else 0
            record["layers"] = layer_metrics(tracer, spec, wall, size)
        invocations.append(record)
        done = time.perf_counter() - start >= spec["seconds"]
        if done and (not tracing or len(invocations) % 2 == 0):
            break
    return {
        "invocations": invocations,
        "absent": tracer.absent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
