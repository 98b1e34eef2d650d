"""Tracer spans, self time, and names that no longer exist."""
import types
import sys

import spans


def test_missing_name_leaves_span_absent(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = spans.Tracer("r1")
    tracer.install((
        ("fake_layer", "present", "fake.present", None),
        ("fake_layer", "removed", "fake.removed", None),
        ("no_such_module_here", "f", "gone.f", None),
    ))
    assert module.present(1) == 2
    assert [s[2] for s in tracer.spans] == ["fake.present"]
    assert tracer.missing == ["fake_layer.removed", "no_such_module_here.f"]


def test_self_time_subtracts_direct_children(tmp_path):
    tracer = spans.Tracer("r2")
    inner = tracer.wrap(lambda: None, "b.inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "a.outer")
    outer()
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    recorded = spans.read_spans(path)
    assert {s["run"] for s in recorded} == {"r2"}
    by_name = {s["name"]: s for s in recorded}
    assert all(s["parent"] == by_name["a.outer"]["id"] for s in recorded if s["name"] == "b.inner")
    own = spans.self_ns(recorded)
    layers = spans.layer_self_ns(recorded)
    outer_span = by_name["a.outer"]
    assert sum(own.values()) == outer_span["end"] - outer_span["start"]
    assert layers["a"] + layers["b"] == sum(own.values())


def test_counts_failure_keeps_span(tmp_path):
    tracer = spans.Tracer("r3")
    fn = tracer.wrap(lambda: 5, "x.f", counts=lambda args, result: {"n": len(result)})
    assert fn() == 5
    assert tracer.spans[0][2] == "x.f" and tracer.spans[0][5] is None
