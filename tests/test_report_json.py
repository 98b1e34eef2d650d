"""The report encoder against ``json.dumps(report, indent=2)``, byte for byte."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazescore.ingest import merge_levels
from gazescore.pipeline import analyze_student
from gazescore.report import build_report, report_json, write_report
from gazescore.synth import SynthProfile, generate_session, generate_table_fixture

import oracles

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308,
               math.nan, math.inf, -math.inf)
EDGE_INTS = (0, -1, 2**63, -(2**63) - 1, 2**64 + 1, 10**40)
# Keys and strings with non-ASCII, control, quote and backslash characters.
TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12) | (
    st.sampled_from(["", "é", "\x00\x1f\x7f", '"\\/', " ", "😀", "S\tß\n"])
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(EDGE_INTS)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(EDGE_FLOATS)
    | TEXT
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=40,
)


TEMPLATE = build_report("S10", *analyze_student(generate_table_fixture(), "S10"))


@st.composite
def report_shaped(draw) -> dict:
    """The case-study report with every leaf redrawn and every list cut
    to a drawn length (possibly empty)."""

    def fill(node):
        if isinstance(node, dict):
            return {key: fill(value) for key, value in node.items()}
        if isinstance(node, list):
            return [fill(value) for value in node[: draw(st.integers(0, len(node)))]]
        return draw(SCALARS)

    doc = fill(TEMPLATE)
    doc["student_id"] = draw(TEXT)
    return doc


@settings(max_examples=100, deadline=None)
@given(report_shaped())
def test_report_shaped_documents(doc):
    assert report_json(doc) == oracles.report_json(doc)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_any_json_document(doc):
    assert report_json(doc) == oracles.report_json(doc)


@pytest.mark.parametrize(
    "doc",
    [None, True, False, -0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf, 2**63, -(2**70),
     {}, [], [[]], [[], [[1, 2], []], {}], {"a": {}, "b": [], "c": [[0.5], [None, True]]},
     {"\x01é ": "ü\x7f", "student_id": "Zoë \"x\"\t\\"}],
    ids=repr,
)
def test_edge_values(doc):
    assert report_json(doc) == oracles.report_json(doc)


def test_pipeline_reports(tmp_path):
    synth = generate_session(SynthProfile(seed=5, level=2, student_id="SYN"))
    analyses, validation = analyze_student(merge_levels([synth]), "SYN")
    for report in (TEMPLATE, build_report("SYN", analyses, validation)):
        path = write_report(report, tmp_path / "report.json")
        assert path.read_bytes() == (oracles.report_json(report) + "\n").encode()


@pytest.mark.parametrize(
    "doc",
    [(1, 2), {"levels": [(0.5,)]}, np.int64(3), {"n": np.int64(3)}, {1: "a"}, {None: 1},
     {"s": {1, 2}}, b"bytes"],
    ids=repr,
)
def test_unsupported_types_raise(doc):
    with pytest.raises(TypeError):
        report_json(doc)
