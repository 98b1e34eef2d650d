"""The single-pass loader against the record-based reference loader.

Arbitrary row text under the canonical header must give either equal
sessions (sample columns, drop count, events, placements) from both, or
the same SessionLoadError (message, line and field) from both. Any other
exception fails the test.
"""
from __future__ import annotations

import csv
import io

import numpy as np
from hypothesis import given, settings, strategies as st

from gazescore.ingest import CSV_HEADER, SessionLoadError, load_level_csv
from gazescore.spatial import ScreenGeometry

import oracles

GEOMETRIES = (ScreenGeometry(), ScreenGeometry(width_px=100.0, height_px=50.0))

# Numbers on and around the screen edges and midlines of both geometries.
NUMBERS = st.sampled_from(
    ["0", "-0", "0.0", "+0", "1", "5", ".5", "7.", "-1", "49.5", "50", "50.5", "99",
     "100", "100.25", "540", "960", "1079.5", "1080", "1080.5", "1919", "1920", "1921"]
)
TIMESTAMPS = st.one_of(
    st.integers(-3, 30).map(str),
    st.sampled_from(["", " ", "7.5", "10.49", " 12 ", "inf", "-inf", "nan", "1e19",
                     "-4.7e18", "abc", "\x1c3", "3\x1c", "1_0", "2e1"]),
)
GAZE = st.one_of(
    st.builds(lambda x, y: f"({x}, {y})", NUMBERS, NUMBERS),
    st.sampled_from(["", " ", "(0, 0)", "( -0 ,0.0 )", "(oops", "(1, 2, 3)", "(nan, 1)",
                     "(1e3, 5)", "(inf, 5)", "\x1c(5, 5)\x1c", "(5,5", "5, 5"]),
)
OBJECTS = st.sampled_from(["", "", "(480, 810)", "(50, 25)", " (1, 2) ", "(bad"])
SIZES = st.sampled_from(["200", "150", "20", " 20 ", "", "0", "-5", "nan", "inf", "abc"])
KINDS = st.sampled_from(["", "", "other", "answer", "mouse_click", " answer ", "Answer", "junk"])
FLAGS = st.sampled_from(["true", "false", " TRUE ", "1", "no", "", "maybe"])

GAZE_ROW = st.builds(lambda t, g: [t, g, "", "", "", "", ""], TIMESTAMPS, GAZE)
# Placement and event rows that always load, so a gaze difference cannot hide
# behind an error.
VALID_ROW = st.builds(
    lambda t, g, kind: [t, g, "(480, 810)", "200", "150", kind, "true"],
    st.integers(-3, 30).map(str),
    GAZE,
    st.sampled_from(["", "other", "answer", "mouse_click"]),
)
FULL_ROW = st.tuples(TIMESTAMPS, GAZE, OBJECTS, SIZES, SIZES, KINDS, FLAGS).map(list)
ODD_ROW = st.lists(st.sampled_from(["", " ", "1", '"(5, 5)"']), max_size=9)
RAW_LINE = st.text(alphabet='0123456789,()". \t-e\x1cnaif', max_size=30)


def _row_lines(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        if isinstance(row, str):
            buffer.write(row + "\n")
        else:
            writer.writerow(row)
    return buffer.getvalue()


def _outcome(load, path, geometry):
    try:
        return load(path, 2, "s", geometry)
    except SessionLoadError as exc:
        return ("error", str(exc), exc.line, exc.fieldname)


def _check_same(path, geometry):
    got = _outcome(load_level_csv, path, geometry)
    want = _outcome(oracles.load_level_csv, path, geometry)
    assert got == want
    if not isinstance(got, tuple):
        samples = got.samples
        assert samples.t_ms.dtype == np.int64
        assert samples.x_px.dtype == samples.y_px.dtype == np.float64


def _check_text(tmp_path_factory, rows, geometry, crlf):
    text = ",".join(CSV_HEADER) + "\n" + _row_lines(rows)
    if crlf:
        text = text.replace("\n", "\r\n")
    path = tmp_path_factory.mktemp("fuzz") / "s_level2.csv"
    path.write_bytes(text.encode("utf-8"))
    _check_same(path, geometry)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.one_of(GAZE_ROW, VALID_ROW), max_size=60),
    geometry=st.sampled_from(GEOMETRIES),
    crlf=st.booleans(),
)
def test_gaze_rows_match_reference(tmp_path_factory, rows, geometry, crlf):
    _check_text(tmp_path_factory, rows, geometry, crlf)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.one_of(GAZE_ROW, GAZE_ROW, FULL_ROW, ODD_ROW, RAW_LINE), max_size=30
    ),
    geometry=st.sampled_from(GEOMETRIES),
    crlf=st.booleans(),
)
def test_any_rows_match_reference(tmp_path_factory, rows, geometry, crlf):
    _check_text(tmp_path_factory, rows, geometry, crlf)


def test_many_ties_keep_file_order(tmp_path):
    """Large enough for an unstable sort to reorder equal timestamps."""
    rows = [[str(9 - i % 10), f"({i % 1900 + 1}, {i % 1000 + 1})", "", "", "", "", ""]
            for i in range(300)]
    path = tmp_path / "s_level2.csv"
    path.write_text(",".join(CSV_HEADER) + "\n" + _row_lines(rows), encoding="utf-8")
    _check_same(path, GEOMETRIES[0])
    # Timestamp 0 is on rows 9, 19, ..., 299, whose x is the row number + 1.
    x = load_level_csv(path, 2, "s").samples.x_px
    assert x[:30].tolist() == [float(10 * k) for k in range(1, 31)]
