"""The batch loader against the record-based reference loader.

Arbitrary row text under the canonical header must give either equal
sessions (sample columns, drop count, events, placements) from both, or
the same SessionLoadError (message, line and field) from both. Any other
exception fails the test. Each case draws the loader's batch size too
(1, 2, 7 rows or the default), so rows fall on batch edges.
"""
from __future__ import annotations

import csv
import io
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from gazescore import ingest
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
                     "(1e3, 5)", "(inf, 5)", "\x1c(5, 5)\x1c", "(5,5", "5, 5",
                     # Halves that would pair up if whitespace ran across cells.
                     "(5, 5", ")", " 5)", "(5,", ", 5)", "\x1c"]),
)
# Gaze cells with line breaks inside quotes; the csv writer would leave a
# lone "\r" unquoted, so these rows are written as raw lines.
BREAK_CELLS = st.sampled_from(
    ["(5,\n5)", "(5, 5)\n", "\r(5, 5)", "(5, 5)\r\n", "\n", "\r", "\r\n", "(5\r, 5)",
     " ( 5 ,\r\n 5 ) ", "(5, 5\n)", "(1\n0, 5)"]
)
BREAK_ROW = st.builds(lambda t, g: f'{t},"{g}",,,,,', TIMESTAMPS, BREAK_CELLS)
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


def _check_same(path, geometry, chunk=ingest._CHUNK_ROWS):
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
        got = _outcome(load_level_csv, path, geometry)
    want = _outcome(oracles.load_level_csv, path, geometry)
    assert got == want
    if not isinstance(got, tuple):
        samples = got.samples
        assert samples.t_ms.dtype == np.int64
        assert samples.x_px.dtype == samples.y_px.dtype == np.float64


def _check_text(tmp_path_factory, rows, geometry, crlf, chunk):
    text = ",".join(CSV_HEADER) + "\n" + _row_lines(rows)
    if crlf:
        text = text.replace("\n", "\r\n")
    path = tmp_path_factory.mktemp("fuzz") / "s_level2.csv"
    path.write_bytes(text.encode("utf-8"))
    _check_same(path, geometry, chunk)


CHUNKS = st.sampled_from([1, 2, 7, ingest._CHUNK_ROWS])


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.one_of(GAZE_ROW, GAZE_ROW, VALID_ROW, BREAK_ROW), max_size=60),
    geometry=st.sampled_from(GEOMETRIES),
    crlf=st.booleans(),
    chunk=CHUNKS,
)
def test_gaze_rows_match_reference(tmp_path_factory, rows, geometry, crlf, chunk):
    _check_text(tmp_path_factory, rows, geometry, crlf, chunk)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.one_of(GAZE_ROW, GAZE_ROW, FULL_ROW, ODD_ROW, RAW_LINE, BREAK_ROW), max_size=30
    ),
    geometry=st.sampled_from(GEOMETRIES),
    crlf=st.booleans(),
    chunk=CHUNKS,
)
def test_any_rows_match_reference(tmp_path_factory, rows, geometry, crlf, chunk):
    _check_text(tmp_path_factory, rows, geometry, crlf, chunk)


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


def test_pair_halves_in_adjacent_cells_stay_apart(tmp_path):
    """Whitespace must not run across a cell boundary, or "(5, 5" and ")"
    on consecutive rows would read as one pair."""
    gaze = ["(5, 5", ")", " ", "(6,", " 6)", "(7, 7)"]
    rows = [[str(i), cell, "", "", "", "", ""] for i, cell in enumerate(gaze)]
    path = tmp_path / "s_level2.csv"
    path.write_text(",".join(CSV_HEADER) + "\n" + _row_lines(rows), encoding="utf-8")
    for chunk in (1, 2, 7, ingest._CHUNK_ROWS):
        _check_same(path, GEOMETRIES[0], chunk)
    session = load_level_csv(path, 2, "s")
    assert session.dropped_samples == 4
    assert session.samples.x_px.tolist() == [7.0]
