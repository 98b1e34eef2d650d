"""The loader against the record-based reference loader.

Arbitrary row text under the canonical header must give either equal
sessions (sample columns, drop count, events, placements) from both, or
the same SessionLoadError (message, line and field) from both. Any other
exception fails the test. Errors come in file order; each names the line
where its record or bad byte starts, with lines ended as the CSV reader
ends them. Each case runs as loaded (plain blocks through the line parser,
the rest of the file from the first block that is not plain through the
CSV reader) and with the CSV route forced from data block k, k drawn or
looped from 0. Each case draws the batch size too (1, 2, 7 rows or the
default, and as many bytes per block), so rows fall on batch and block
edges.
"""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
from unittest import mock

import numpy as np
import pytest
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


def _csv_from_block(k):
    """Patch the plain route to decline data block k (counting from 0) and
    so hand that block and the rest of the file to the CSV reader."""
    plain_lines = ingest._plain_lines
    calls = itertools.count()
    return mock.patch.object(
        ingest, "_plain_lines", lambda text: None if next(calls) >= k else plain_lines(text)
    )


# The blocks the fixed cases force the CSV route from.
CSV_FROM = (0, 1, 2)


def _path_outcomes(path, geometry, chunk, csv_from=CSV_FROM):
    """The outcome as loaded and with the CSV route forced from each block
    in ``csv_from``; ``chunk`` sets the batch rows and the block bytes."""
    routes = [contextlib.nullcontext(), *map(_csv_from_block, csv_from)]
    for route in routes:
        with route, mock.patch.multiple(ingest, _CHUNK_ROWS=chunk, _SLICE_BYTES=chunk):
            yield _outcome(load_level_csv, path, geometry)


def _takes_csv_route(path):
    """Whether the loader sets a CSV reader on the rest of the file's blocks."""
    with mock.patch.object(ingest, "chain", wraps=itertools.chain) as spy:
        _outcome(load_level_csv, path, GEOMETRIES[0])
    return spy.from_iterable.called


def _check_same(path, geometry, chunk=ingest._CHUNK_ROWS, csv_from=CSV_FROM):
    want = _outcome(oracles.load_level_csv, path, geometry)
    for got in _path_outcomes(path, geometry, chunk, csv_from):
        assert got == want
        if not isinstance(got, tuple):
            samples = got.samples
            assert samples.t_ms.dtype == np.int64
            assert samples.x_px.dtype == samples.y_px.dtype == np.float64


def _check_text(tmp_path_factory, rows, geometry, crlf, chunk, csv_from):
    text = ",".join(CSV_HEADER) + "\n" + _row_lines(rows)
    if crlf:
        text = text.replace("\n", "\r\n")
    path = tmp_path_factory.mktemp("fuzz") / "s_level2.csv"
    path.write_bytes(text.encode("utf-8"))
    _check_same(path, geometry, chunk, (csv_from,))


CHUNKS = st.sampled_from([1, 2, 7, ingest._CHUNK_ROWS])
# The data block the CSV route is forced from.
BLOCKS = st.integers(0, 3)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.one_of(GAZE_ROW, GAZE_ROW, VALID_ROW, BREAK_ROW), max_size=60),
    geometry=st.sampled_from(GEOMETRIES),
    crlf=st.booleans(),
    chunk=CHUNKS,
    csv_from=BLOCKS,
)
def test_gaze_rows_match_reference(tmp_path_factory, rows, geometry, crlf, chunk, csv_from):
    _check_text(tmp_path_factory, rows, geometry, crlf, chunk, csv_from)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.one_of(GAZE_ROW, GAZE_ROW, FULL_ROW, ODD_ROW, RAW_LINE, BREAK_ROW), max_size=30
    ),
    geometry=st.sampled_from(GEOMETRIES),
    crlf=st.booleans(),
    chunk=CHUNKS,
    csv_from=BLOCKS,
)
def test_any_rows_match_reference(tmp_path_factory, rows, geometry, crlf, chunk, csv_from):
    _check_text(tmp_path_factory, rows, geometry, crlf, chunk, csv_from)


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


HEADER = ",".join(CSV_HEADER)
LIMIT = csv.field_size_limit()
# Characters that str.splitlines breaks on but csv and the plain route keep
# inside a cell.
SPLITLINES_ONLY = "\x0b\x0c\x1c\x85\u2028"

# Whole files, and whether the plain route takes all of them, never handing
# a block to the CSV reader.
PATH_CHOICE = [
    ("quote_in_timestamp", HEADER + '\n1"2,"(5, 5)",,,,,\n3,"(6, 6)",,,,,\n', False),
    ("quoted_timestamp", HEADER + '\n"1","(5, 5)",,,,,\n2,,"(480, 810)",200,150,,\n', True),
    ("lone_cr", HEADER + '\n1,"(5, 5)",,,,,\r2,"(6, 6)",,,,,\n3,,,,,junk,true\n', False),
    ("lone_cr_at_end", HEADER + '\n1,"(5, 5)",,,,,\n2,"(6, 6)",,,,,\r', False),
    *[
        (f"u{ord(c):04x}_in_cells",
         HEADER + f'\n{c}1,"(5, {c}5)",,,,,\n2{c},"(6, 6)",,,{c},,\n3,"(7, 7)",,,,answer{c},true\n',
         True)
        for c in SPLITLINES_ONLY
    ],
    ("quoted_two_lines", HEADER + '\n1,"(5,\n5)",,,,,\n2,"(6, 6)",,,,,\n3,,,,,junk,true\n', False),
    ("doubled_quote", HEADER + '\n1,"(5, ""5)",,,,,\n2,"(6, 6)",,,,,\n', False),
    ("cell_at_limit", HEADER + '\n1,"' + "5" * LIMIT + '",,,,,\n2,"(6, 6)",,,,,\n', False),
    ("blank_lines_no_final_newline",
     HEADER + '\n\n1,"(5, 5)",,,,,\n\n \n\r\n2,"(6, 6)",,,,,\n3,"(7, 7)",,,,,', True),
    ("crlf_header_lf_data", HEADER + '\r\n1,"(5, 5)",,,,,\n2,"(6, 6)",,,,,\n', True),
    ("quoted_header", HEADER.replace("gaze", '"gaze"') + '\n1,"(5, 5)",,,,,\n', False),
    ("quoted_header_faulty_row",
     HEADER.replace("gaze", '"gaze"') + '\n1,"(5, 5)",,,,,\n2,,,,,junk,true\n', False),
    ("header_only", HEADER + "\r\n", True),
    ("lone_cr_in_header", HEADER.replace(",gaze", ",gaze\r") + '\n1,"(5, 5)",,,,,\n', False),
    ("nul_in_timestamp", HEADER + '\n1\x00,"(5, 5)",,,,,\n2,"(6, 6)",,,,,\n', False),
    ("nul_in_gaze", HEADER + '\n1,"(5,\x00 5)",,,,,\n2,"(6, 6)",,,,,\n', False),
]


@pytest.mark.parametrize(
    "text,plain", [case[1:] for case in PATH_CHOICE], ids=[case[0] for case in PATH_CHOICE]
)
def test_path_choice(tmp_path, text, plain):
    path = tmp_path / "s_level2.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _takes_csv_route(path) != plain
    for chunk in (1, 7, ingest._CHUNK_ROWS):
        _check_same(path, GEOMETRIES[0], chunk)


@pytest.mark.parametrize(
    "later",
    [b"9,\xff,,,,,\n", b'9,"(5, 5)",,,,,\r10,"(6, 6)",,,,,\n', b'9,"(5,\n5)",,,,,\n'],
    ids=["bad_byte", "lone_cr", "quoted_two_lines"],
)
def test_faulty_row_before_a_declined_block(tmp_path, later):
    """A faulty row is reported as soon as it is met, whatever line 9 holds:
    the bad event kind on line 3 wins over a bad byte, a lone "\r" or a
    quoted cell on line 9, as documented. Every route and the reference
    loader give that error."""
    gaze = b"".join(b'%d,"(3, 4)",,,,,\n' % i for i in range(5))
    body = b'0,"(3, 4)",,,,,\n1,,,,,junk,true\n' + gaze + later + b"11,,,,,junk,true\n"
    path = tmp_path / "s_level2.csv"
    path.write_bytes(HEADER.encode() + b"\n" + body)
    outcomes = {
        got for chunk in (1, 7, ingest._CHUNK_ROWS)
        for got in _path_outcomes(path, GEOMETRIES[0], chunk)
    }
    assert [outcome[2] for outcome in outcomes] == [3]
    assert outcomes == {_outcome(oracles.load_level_csv, path, GEOMETRIES[0])}


@pytest.mark.parametrize(
    "body,message,line",
    [
        (b'0,"(3,\n4)",,,,,\n1,"(5, 5)",,,,,\n2,,,,,junk,true\n', "unknown event kind 'junk'", 5),
        (b'0,"(3, 4)",,,,,\n1,"(5,\n5)\n\xff",,,,,\n2,,,,,junk,true\n', "not UTF-8 text", 5),
    ],
    ids=["junk_after_two_line_cell", "bad_byte_in_open_record"],
)
def test_errors_in_file_order_by_line(tmp_path, body, message, line):
    """Each error names the line where its record or bad byte starts, on
    every route, with any batch and block size, as the reference loader.
    A bad byte drops the record its line leaves open: read as ended, that
    record would be two fields long and give an error on line 3."""
    path = tmp_path / "s_level2.csv"
    path.write_bytes(HEADER.encode() + b"\n" + body)
    want = _outcome(oracles.load_level_csv, path, GEOMETRIES[0])
    assert want[1].startswith(message) and want[2] == line
    for chunk in (1, 7, ingest._CHUNK_ROWS):
        _check_same(path, GEOMETRIES[0], chunk)


def test_cell_over_limit_on_both_paths(tmp_path):
    """Every route and the reference loader give the documented error."""
    path = tmp_path / "s_level2.csv"
    text = HEADER + '\n1,"(6, 6)",,,,,\n2,"' + "5" * (LIMIT + 1) + '",,,,,\n'
    path.write_bytes(text.encode("utf-8"))
    assert _takes_csv_route(path)
    message = f"unreadable CSV row: field larger than field limit ({LIMIT}) [{path}:3]"
    assert _outcome(oracles.load_level_csv, path, GEOMETRIES[0]) == ("error", message, 3, "")
    for chunk in (1, 7, ingest._CHUNK_ROWS):
        for got in _path_outcomes(path, GEOMETRIES[0], chunk):
            assert got == ("error", message, 3, "")


PLAIN_ROW = st.builds(lambda t, x, y: f'{t},"({x}, {y})",,,,,', TIMESTAMPS, NUMBERS, NUMBERS)
OTHER_ROW = st.sampled_from(
    ['4,,"(480, 810)",200,150,,', "5,,,,,answer,true", "6,,,,,other,", '7," (5, 5)",,,,,', ""]
)
INSERTS = st.sampled_from(
    ['"', '""', "\r", "\r\n", "\n", ",", " ", "\x00", *SPLITLINES_ONLY]
)
SPLICED_ROW = st.builds(
    lambda row, at, insert: row[: at % (len(row) + 1)] + insert + row[at % (len(row) + 1):],
    st.one_of(PLAIN_ROW, OTHER_ROW),
    st.integers(0, 40),
    INSERTS,
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.one_of(PLAIN_ROW, PLAIN_ROW, OTHER_ROW, SPLICED_ROW), max_size=30),
    geometry=st.sampled_from(GEOMETRIES),
    ending=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
    chunk=CHUNKS,
    csv_from=BLOCKS,
    bad_byte=st.one_of(st.none(), st.integers(0, 1000)),
    header=st.sampled_from([HEADER, HEADER.replace("gaze", '"gaze"')]),
)
def test_spliced_lines_match_reference(
    tmp_path_factory, rows, geometry, ending, final, chunk, csv_from, bad_byte, header
):
    """Plain lines and lines with one character spliced in, which may or
    may not keep the file one record per line, maybe a byte that is not
    UTF-8, under a plain header or one that sends the file to the CSV
    route from line 1."""
    data = (header + ending + ending.join(rows) + (ending if final else "")).encode("utf-8")
    if bad_byte is not None:
        at = bad_byte % (len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    path = tmp_path_factory.mktemp("splice") / "s_level2.csv"
    path.write_bytes(data)
    _check_same(path, geometry, chunk, (csv_from,))


# Between them, these seeds write every malformed cell of the model.
TRACKER_SEEDS = (15, 24)


def test_tracker_logs_match_reference(tmp_path, tracker):
    """CRLF, fractional epoch timestamps, blinks, out-of-bounds points,
    every malformed cell the model writes and rows without a timestamp."""
    seen = set()
    for seed in TRACKER_SEEDS:
        path = tmp_path / f"t{seed}_level2.csv"
        log = tracker.write_level_log(path, seed)
        text = path.read_text(encoding="utf-8")
        seen.update(
            cell for cell in tracker.MALFORMED_CELLS if f",{cell}," in text or f',"{cell}",' in text
        )
        seen.update("no timestamp" for line in text.splitlines() if line.startswith(","))
        assert not _takes_csv_route(path)
        _check_same(path, GEOMETRIES[0])
        session = load_level_csv(path, 2, "s")
        assert session.dropped_samples == log.dropped
        assert list(session.samples) == [ingest.GazeSample(*v) for v in log.valid]
    assert seen == {*tracker.MALFORMED_CELLS, "no timestamp"}
