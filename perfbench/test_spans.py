"""Span wrappers: self time, restore, and absent names.

Run with ``python3 -m pytest perfbench/test_spans.py`` from the root of
a checkout.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
import molrest.frames as frames  # noqa: E402
import molrest.lie_so3 as lie_so3  # noqa: E402


def test_missing_target_is_absent_not_a_crash(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("molrest.frames", "no_such_function", "frames.no_such_function"),
        ("molrest.no_such_module", "f", "x.f"),
    ))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["molrest.frames.no_such_function", "molrest.no_such_module.f"]
    finally:
        tracer.uninstall()


def test_every_binding_is_wrapped_and_restored():
    original = lie_so3.log_map
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert frames.log_map is not original
        assert lie_so3.log_map is frames.log_map
    finally:
        tracer.uninstall()
    assert frames.log_map is original and lie_so3.log_map is original


def test_self_time_excludes_wrapped_children():
    tracer = spans.Tracer()
    inner = tracer.span("inner", lambda: sum(range(200_000)))
    outer = tracer.span("outer", lambda: inner() + inner())
    outer()
    stats = tracer.stats
    assert (stats["outer"].calls, stats["inner"].calls) == (1, 2)
    assert abs(stats["outer"].self - (stats["outer"].total - stats["inner"].total)) < 1e-9
    tracer.reset()
    outer()
    assert tracer.stats["outer"].calls == 1
