"""Every span that feeds a benchmark per-layer metric still finds its function in molrest.

``perfbench/run.py`` drops a per-layer metric whose name, less its last
dotted part, is the span of a target that ``Tracer.install`` lists as
absent: a refactor that unbinds a traced name then gives a traced run
that exits 0 without that metric.  Reads ``perfbench/spans.py`` and
``BENCHMARK.json``, and edits neither.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).parent.parent


def _spans_module():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_metric_span_resolves_in_src():
    spans = _spans_module()
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    span_of = {f"{m}.{p}": (n or spans.PROFILE_SPAN) for m, p, n in spans.TARGETS}
    gone = {span_of[a] for a in tracer.absent}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    dropped = [m["name"] for m in metrics if m["name"].rsplit(".", 1)[0] in gone]
    assert dropped == [], f"absent targets {sorted(tracer.absent)} drop these metrics"
