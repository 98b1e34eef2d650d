"""Spans around the module-level names the CLI and the pipeline call through.

A wrapper is installed where the caller looks the name up: ``pipeline``
binds ``classify_session`` with ``from .spatial import ...``, so the span
for it wraps ``gazescore.pipeline.classify_session``, not the attribute of
``gazescore.spatial``. A name that no longer exists is skipped, so its
span is simply absent.

Spans are kept in memory as plain tuples and written once, at exit.
:func:`layer_self_ns` derives self time per layer from them; the layer of
a span is the part of its name before the first dot.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _session_counts(args, result) -> dict:
    session = args[0]
    return {"samples": len(session.samples), "placements": len(session.placements)}


def _load_counts(args, result) -> dict:
    return {
        "file": str(args[0]).rsplit("/", 1)[-1],
        "kept": len(result.samples),
        "dropped": result.dropped_samples,
        "placements": len(result.placements),
        "events": len(result.events),
    }


def _period_counts(args, result) -> dict:
    return {
        "samples": len(args[0]),
        "periods": len(result),
        "sustained": sum(1 for p in result if p.sustained),
    }


def _plot_counts(args, result) -> dict:
    return {"samples": sum(len(a.session.samples) for a in args[0])}


# (module, attribute, span name, counts(args, result) or None)
WRAPPED = (
    ("gazescore.cli", "main", "cli.main", None),
    ("gazescore.cli", "load_level_csv", "ingest.load_level_csv", _load_counts),
    ("gazescore.cli", "merge_levels", "ingest.merge_levels", None),
    ("gazescore.cli", "analyze_student", "pipeline.analyze_student", None),
    ("gazescore.cli", "build_report", "report.build_report", None),
    ("gazescore.cli", "write_report", "report.write_report", None),
    ("gazescore.cli", "emit_plot_data", "report.emit_plot_data", _plot_counts),
    ("gazescore.ingest", "load_level_csv", "ingest.load_level_csv", _load_counts),
    ("gazescore.ingest", "merge_levels", "ingest.merge_levels", None),
    ("gazescore.pipeline", "analyze_student", "pipeline.analyze_student", None),
    ("gazescore.pipeline", "analyze_session", "pipeline.analyze_session", _session_counts),
    ("gazescore.pipeline", "classify_session", "spatial.classify_session", _session_counts),
    ("gazescore.pipeline", "build_quadrant_matrix", "transitions.build_quadrant_matrix", None),
    ("gazescore.pipeline", "aggregate_transitions", "transitions.aggregate_transitions", None),
    ("gazescore.pipeline", "build_aoi_matrix", "transitions.build_aoi_matrix", None),
    ("gazescore.pipeline", "aoi_metrics", "transitions.aoi_metrics", None),
    ("gazescore.pipeline", "dwell_summary", "transitions.dwell_summary", None),
    ("gazescore.pipeline", "aoi_time_share_pct", "transitions.aoi_time_share_pct", None),
    ("gazescore.pipeline", "aoi_sample_share_pct", "transitions.aoi_sample_share_pct", None),
    ("gazescore.pipeline", "detect_engagement_periods", "engagement.detect_engagement_periods",
     _period_counts),
    ("gazescore.pipeline", "temporal_metrics", "engagement.temporal_metrics", None),
    ("gazescore.pipeline", "final_score", "scoring.final_score", None),
    ("gazescore.pipeline", "check_constraints", "scoring.check_constraints", None),
    ("gazescore.pipeline", "game_accuracy", "validation.game_accuracy", None),
    ("gazescore.pipeline", "validate_scores", "validation.validate_scores", None),
    ("gazescore.report", "build_report", "report.build_report", None),
)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []   # (id, parent, name, start_ns, end_ns, counts)
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, fn, name: str, counts=None):
        clock = time.perf_counter_ns
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end, None)
            if counts is not None:
                try:
                    spans[span_id] = (span_id, parent, name, start, end, counts(args, result))
                except (AttributeError, TypeError, IndexError):
                    pass
            return result

        return traced

    def install(self, wrapped=WRAPPED) -> None:
        """Wrap every listed name that exists; note the ones that do not."""
        for module_name, attr, name, counts in wrapped:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, counts))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, counts in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "start": start,
                    "end": end, "run": self.run_id, "counts": counts or {},
                }) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_ns(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_self_ns(spans: list[dict]) -> dict[str, int]:
    totals: dict[str, int] = defaultdict(int)
    own = self_ns(spans)
    for s in spans:
        totals[s["name"].split(".", 1)[0]] += own[s["id"]]
    return dict(totals)
