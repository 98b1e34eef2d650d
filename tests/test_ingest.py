from __future__ import annotations

import logging
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from gazescore import ingest
from gazescore.ingest import (
    CSV_HEADER,
    CoordinateParseError,
    DuplicateSessionError,
    GameEvent,
    GazeSample,
    LevelSession,
    ObjectPlacement,
    SampleColumns,
    SessionLoadError,
    load_level_csv,
    merge_levels,
    parse_coordinate_string,
)
from gazescore.report import write_level_csv
from gazescore.spatial import ScreenGeometry

GEO = ScreenGeometry()


class TestParseCoordinateString:
    def test_plain_pair(self):
        assert parse_coordinate_string("(1250, 680)") == (1250.0, 680.0)

    def test_zero_pair_parses(self):
        assert parse_coordinate_string("(0, 0)") == (0.0, 0.0)

    def test_decimals_and_whitespace(self):
        assert parse_coordinate_string("  ( 12.5 ,680.25 ) ") == (12.5, 680.25)

    def test_negative_values(self):
        assert parse_coordinate_string("(-3, -4.5)") == (-3.0, -4.5)

    @pytest.mark.parametrize(
        "bad",
        ["(12.5,abc)", "12, 13", "(12)", "(1, 2, 3)", "", "()", "(nan, 1)"],
    )
    def test_malformed(self, bad):
        with pytest.raises(CoordinateParseError):
            parse_coordinate_string(bad)


# The package parser and the oracle's own grammar on the number and
# whitespace edges: each must give these results by itself.
PAIR_PARSERS = pytest.mark.parametrize(
    "parse", [parse_coordinate_string, oracles.parse_coordinate_string], ids=["package", "oracle"]
)


@PAIR_PARSERS
@pytest.mark.parametrize(
    "text,pair",
    [("(.5, 7.)", (0.5, 7.0)), ("(+4, -3)", (4.0, -3.0)), ("(-.25,+0.)", (-0.25, 0.0)),
     ("\t(\t1 ,\r2\r)\t", (1.0, 2.0)), ("\n(\n3,\n4\n)\r\n", (3.0, 4.0))],
)
def test_pair_grammar_accepts(parse, text, pair):
    assert parse(text) == pair


@PAIR_PARSERS
@pytest.mark.parametrize(
    "text",
    ["(1, 2", "1, 2)", "(1, 2, 3)", "(1e3, 2)", "(1, 2E1)", "(., 2)", "(+, 2)", "(+-1, 2)",
     "(- 1, 2)", "(1 .5, 2)", "(1.2.3, 4)", "(1,)", "((1, 2))", "(inf, 2)"],
)
def test_pair_grammar_rejects(parse, text):
    with pytest.raises(CoordinateParseError):
        parse(text)


def _write(path, rows):
    lines = [",".join(CSV_HEADER)] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _gaze_rows(rows):
    """Gaze-only CSV rows from (timestamp text, gaze text) pairs."""
    return [f'{t},"{gaze}",,,,,' for t, gaze in rows]


def _load(directory, rows):
    path = directory / "s1_level1.csv"
    _write(path, rows)
    session = load_level_csv(path, 1, "s1", GEO)
    return list(session.samples), session.dropped_samples


class TestCleanSamples:
    def test_drops_zero_coordinates(self, tmp_path):
        samples, dropped = _load(tmp_path, _gaze_rows([(5, "(0, 0)"), (10, "(100, 200)")]))
        assert samples == [GazeSample(0, 100.0, 200.0)]
        assert dropped == 1

    def test_empty_input(self, tmp_path):
        assert _load(tmp_path, []) == ([], 0)

    def test_out_of_bounds_dropped(self, tmp_path):
        rows = [(0, "(10, 10)"), (1, "(2000, 500)"), (2, "(500, 500)"), (3, "(960, 1080)")]
        samples, dropped = _load(tmp_path, _gaze_rows(rows))
        assert len(samples) == 3
        assert dropped == 1

    def test_missing_timestamp_dropped(self, tmp_path):
        assert _load(tmp_path, _gaze_rows([("", "(5, 5)")])) == ([], 1)

    def test_event_rows_not_counted(self, tmp_path):
        samples, dropped = _load(tmp_path, ["1,,,,,answer,true", '2,"(1, 1)",,,,,'])
        assert len(samples) + dropped == 1  # only the gaze-bearing row counts

    def test_sorted_with_stable_ties(self, tmp_path):
        samples, _ = _load(tmp_path, _gaze_rows([(7, "(1, 1)"), (3, "(2, 2)"), (7, "(3, 3)")]))
        assert [s.t_ms for s in samples] == [0, 4, 4]
        assert [s.x_px for s in samples] == [2.0, 1.0, 3.0]

    def test_idempotent(self, tmp_path):
        rows = [(5, "(0, 0)"), (1, "(bad"), (10, "(100, 200)"), (2, "(5000, 5)")]
        samples, _ = _load(tmp_path, _gaze_rows(rows))
        again = _gaze_rows((s.t_ms, f"({s.x_px}, {s.y_px})") for s in samples)
        resamples, dropped = _load(tmp_path, again)
        assert resamples == samples and dropped == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10_000),
                st.floats(-100, 2100, allow_nan=False),
                st.floats(-100, 1200, allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_count_invariant(self, tmp_path_factory, rows):
        samples, dropped = _load(
            tmp_path_factory.mktemp("count"), _gaze_rows((t, f"({x}, {y})") for t, x, y in rows)
        )
        assert len(samples) + dropped == len(rows)


class TestNormalizeTimestamps:
    def test_offset_subtraction(self, tmp_path):
        rows = [(1000, "(1, 1)"), (1016, "(2, 2)"), (1033, "(3, 3)")]
        samples, _ = _load(tmp_path, _gaze_rows(rows))
        assert [s.t_ms for s in samples] == [0, 16, 33]

    def test_identity(self, tmp_path):
        samples, _ = _load(tmp_path, _gaze_rows([(0, "(1, 1)")]))
        assert samples == [GazeSample(0, 1, 1)]

    def test_duplicates_preserved(self, tmp_path):
        samples, _ = _load(tmp_path, _gaze_rows([(500, "(1, 1)"), (500, "(2, 2)")]))
        assert [s.t_ms for s in samples] == [0, 0]

    def test_empty(self, tmp_path):
        samples, _ = _load(tmp_path, [])
        assert samples == []

    @given(st.lists(st.integers(0, 10**6), min_size=2, max_size=30))
    def test_gaps_preserved(self, tmp_path_factory, times):
        times.sort()
        out, _ = _load(tmp_path_factory.mktemp("gaps"), _gaze_rows((t, "(1, 1)") for t in times))
        for i in range(len(times) - 1):
            assert out[i + 1].t_ms - out[i].t_ms == times[i + 1] - times[i]


class TestLoadLevelCsv:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "s1_level1.csv"
        _write(
            path,
            [
                '100,"(10, 20)",,,,,',
                '116,"(11, 21)",,,,,',
                '132,"(12, 22)",,,,,',
            ],
        )
        session = load_level_csv(path, 1, "s1")
        assert len(session.samples) == 3
        assert session.samples[0].t_ms == 0  # normalized
        assert session.samples[-1].t_ms == 32

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s1_level1.csv"
        path.write_bytes(b"")
        with pytest.raises(SessionLoadError, match="empty file") as exc:
            load_level_csv(path, 1, "s1")
        assert exc.value.line == 1

    def test_header_only_warns(self, tmp_path, caplog):
        path = tmp_path / "s1_level1.csv"
        _write(path, [])
        with caplog.at_level(logging.WARNING):
            session = load_level_csv(path, 1, "s1")
        assert len(session.samples) == 0
        assert any("no valid gaze samples" in r.message for r in caplog.records)

    def test_all_zero_gaze(self, tmp_path):
        path = tmp_path / "s1_level1.csv"
        _write(path, ['1,"(0, 0)",,,,,', '2,"(0, 0)",,,,,'])
        session = load_level_csv(path, 1, "s1")
        assert len(session.samples) == 0 and session.dropped_samples == 2

    def test_events_and_placements(self, tmp_path):
        path = tmp_path / "s1_level2.csv"
        _write(
            path,
            [
                '0,"(10, 20)",,,,,',
                '5,,"(480, 810)",200,150,,',
                "10,,,,,mouse_click,true",
                "20,,,,,answer,false",
                "30,,,,,other,true",
            ],
        )
        session = load_level_csv(path, 2, "s1")
        assert session.placements == (
            ObjectPlacement(5, 480.0, 810.0, 200.0, 150.0),
        )
        assert session.events == (
            GameEvent(10, "mouse_click", True),
            GameEvent(20, "answer", False),
        )

    def test_fractional_timestamps_round_half_up(self, tmp_path):
        path = tmp_path / "s1_level1.csv"
        _write(path, ['10.5,"(1, 1)",,,,,', '12.4,"(2, 2)",,,,,'])
        session = load_level_csv(path, 1, "s1")
        # 10.5 -> 11, 12.4 -> 12; normalized to 0 and 1
        assert [s.t_ms for s in session.samples] == [0, 1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_level_csv(tmp_path / "nope.csv", 1, "s1")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(SessionLoadError, match="malformed header"):
            load_level_csv(path, 1, "s1")

    def test_bad_level(self, tmp_path):
        path = tmp_path / "s1_level1.csv"
        _write(path, [])
        with pytest.raises(SessionLoadError, match="level"):
            load_level_csv(path, 4, "s1")

    def test_bad_event_field_reports_context(self, tmp_path):
        path = tmp_path / "s1_level1.csv"
        _write(path, ["10,,,,,mouse_click,maybe"])
        with pytest.raises(SessionLoadError) as err:
            load_level_csv(path, 1, "s1")
        assert err.value.line == 2
        assert err.value.fieldname == "event_correct"
        assert str(path) in str(err.value)

    def test_bad_placement_dimensions(self, tmp_path):
        path = tmp_path / "s1_level1.csv"
        _write(path, ['10,,"(480, 810)",0,150,,'])
        with pytest.raises(SessionLoadError):
            load_level_csv(path, 1, "s1")

    @pytest.mark.parametrize("w,h", [("nan", "150"), ("200", "nan"), ("inf", "150")])
    def test_non_finite_placement_dimensions(self, tmp_path, w, h):
        path = tmp_path / "s1_level1.csv"
        _write(path, ['0,"(10, 20)",,,,,', f'10,,"(480, 810)",{w},{h},,'])
        with pytest.raises(SessionLoadError) as exc:
            load_level_csv(path, 1, "s1")
        assert exc.value.fieldname == "aoi_w"

    @pytest.mark.parametrize("size", [float("nan"), float("inf")])
    def test_non_finite_placement_rejected_at_construction(self, size):
        with pytest.raises(ValueError):
            ObjectPlacement(0, 400, 300, size, 150)
        with pytest.raises(ValueError):
            ObjectPlacement(0, 400, 300, 200, size)

    @pytest.mark.parametrize("stamp", ["inf", "-inf", "nan", "1e19", "-4.7e18"])
    def test_non_finite_gaze_timestamp_dropped(self, tmp_path, stamp):
        path = tmp_path / "s1_level1.csv"
        _write(path, ['0,"(10, 20)",,,,,', f'{stamp},"(11, 21)",,,,,', '32,"(12, 22)",,,,,'])
        session = load_level_csv(path, 1, "s1")
        assert [s.t_ms for s in session.samples] == [0, 32]
        assert session.dropped_samples == 1

    @pytest.mark.parametrize("stamp", ["inf", "-inf", "1e19"])
    @pytest.mark.parametrize("row", [',,"(480, 810)",200,150,,', ",,,,,answer,true"])
    def test_non_finite_placement_or_event_timestamp(self, tmp_path, stamp, row):
        path = tmp_path / "s1_level1.csv"
        _write(path, ['0,"(10, 20)",,,,,', stamp + row])
        with pytest.raises(SessionLoadError) as exc:
            load_level_csv(path, 1, "s1")
        assert exc.value.fieldname == "timestamp_ms"

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "s1_level1.csv"
        body = "\r\n".join(
            [",".join(CSV_HEADER), '0,"(10, 20)",,,,,', '16,"(11, 21)",,,,,', ""]
        )
        path.write_bytes(body.encode("utf-8"))
        session = load_level_csv(path, 1, "s1")
        assert len(session.samples) == 2


class TestUnreadableInput:
    """Bytes the CSV reader cannot take are data errors with file and line."""

    def _path(self, tmp_path, body: bytes):
        path = tmp_path / "s1_level1.csv"
        path.write_bytes(",".join(CSV_HEADER).encode() + b"\n" + body)
        return path

    def test_non_utf8_byte(self, tmp_path):
        path = self._path(tmp_path, b'0,"(3, 4)",,,,,\n16,"(3, \xff4)",,,,,\n')
        with pytest.raises(SessionLoadError, match="not UTF-8") as exc:
            load_level_csv(path, 1, "s1")
        assert exc.value.line == 3
        assert str(path) in str(exc.value)

    def test_non_utf8_byte_far_into_the_file(self, tmp_path):
        """The reader decodes ahead of the rows; the line is the byte's own."""
        rows = b"".join(b'%d,"(3, 4)",,,,,\n' % i for i in range(3000))
        path = self._path(tmp_path, rows + b"3000,\xe9,,,,,\n")
        with pytest.raises(SessionLoadError, match="not UTF-8") as exc:
            load_level_csv(path, 1, "s1")
        assert exc.value.line == 3002

    def test_non_utf8_header(self, tmp_path):
        path = tmp_path / "s1_level1.csv"
        path.write_bytes(b"timestamp_ms\xff,gaze\n")
        with pytest.raises(SessionLoadError, match="not UTF-8") as exc:
            load_level_csv(path, 1, "s1")
        assert exc.value.line == 1

    def test_oversized_field(self, tmp_path):
        path = self._path(tmp_path, b'0,"(3, 4)",,,,,\n1,"' + b"5" * 131_073 + b'",,,,,\n')
        with pytest.raises(SessionLoadError, match="field limit") as exc:
            load_level_csv(path, 1, "s1")
        assert exc.value.line == 3
        assert str(path) in str(exc.value)

    def test_earlier_row_error_wins_over_read_error(self, tmp_path):
        path = self._path(
            tmp_path, b'0,,"(bad",200,150,,\n1,"' + b"5" * 131_073 + b'",,,,,\n'
        )
        with pytest.raises(SessionLoadError) as exc:
            load_level_csv(path, 1, "s1")
        assert (exc.value.line, exc.value.fieldname) == (2, "object_pos")


class TestDocumentedErrorPositions:
    """The README "Input format" examples: errors come in file order, each
    on the line where its record or byte starts, lines ended as the CSV
    reader ends them."""

    def _path(self, tmp_path, body: bytes):
        path = tmp_path / "s1_level1.csv"
        path.write_bytes(",".join(CSV_HEADER).encode() + b"\n" + body)
        return path

    def test_quoted_two_line_cell_keeps_physical_lines(self, tmp_path):
        # The cell spans physical lines 2-3; the faulty row is on line 5.
        path = self._path(tmp_path, b'0,"(3,\n4)",,,,,\n1,"(5, 5)",,,,,\n2,,,,,junk,true\n')
        with pytest.raises(SessionLoadError, match="unknown event kind") as exc:
            load_level_csv(path, 1, "s1")
        assert (exc.value.line, exc.value.fieldname) == (5, "event_kind")

    def test_faulty_row_wins_over_later_bad_byte_in_its_block(self, tmp_path):
        gaze = b"".join(b'%d,"(3, 4)",,,,,\n' % i for i in range(5))
        path = self._path(tmp_path, b'0,"(3, 4)",,,,,\n1,,,,,junk,true\n' + gaze + b"9,\xff,,,,,\n")
        with pytest.raises(SessionLoadError, match="unknown event kind") as exc:
            load_level_csv(path, 1, "s1")
        assert (exc.value.line, exc.value.fieldname) == (3, "event_kind")

    def test_bad_byte_blocks_later_loses(self, tmp_path):
        gaze = b"".join(b'%d,"(3, 4)",,,,,\n' % i for i in range(2000))
        path = self._path(tmp_path, b'0,"(3, 4)",,,,,\n1,,,,,junk,true\n' + gaze + b"9,\xff,,,,,\n")
        with pytest.raises(SessionLoadError, match="unknown event kind") as exc:
            load_level_csv(path, 1, "s1")
        assert (exc.value.line, exc.value.fieldname) == (3, "event_kind")

    def test_lone_cr_ends_a_line(self, tmp_path):
        path = self._path(tmp_path, b'0,"(3, 4)",,,,,\r1,"(5, 5)",,,,,\r2,\xff,,,,,\n')
        with pytest.raises(SessionLoadError, match="not UTF-8") as exc:
            load_level_csv(path, 1, "s1")
        assert exc.value.line == 4


@pytest.mark.parametrize(
    "body", ['1\x00,"(5, 5)",,,,,\n2,"(6, 6)",,,,,\n', '1,"(5,\x00 5)",,,,,\n2,"(6, 6)",,,,,\n'],
    ids=["timestamp", "gaze"],
)
def test_nul_follows_the_csv_module(tmp_path, body):
    """Python 3.10's csv rejects a NUL; 3.11 and later read it as a character.
    The loader agrees with the reference loader on either."""
    path = tmp_path / "s1_level1.csv"
    path.write_text(",".join(CSV_HEADER) + "\n" + body, encoding="utf-8")
    if sys.version_info < (3, 11):
        with pytest.raises(SessionLoadError, match="NUL") as exc:
            load_level_csv(path, 1, "s1")
        with pytest.raises(SessionLoadError) as want:
            oracles.load_level_csv(path, 1, "s1")
        assert (str(exc.value), exc.value.line) == (str(want.value), want.value.line)
    else:
        session = load_level_csv(path, 1, "s1")
        assert session == oracles.load_level_csv(path, 1, "s1")
        assert (len(session.samples), session.dropped_samples) == (1, 1)


class TestBatchEdges:
    """Rows that meet at the edge of two parsing batches."""

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_first_faulty_row_reported(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk)
        path = tmp_path / "s1_level1.csv"
        _write(path, ['0,"(3, 4)",,,,,', '1,,"(bad",200,150,,', "1,2", "2,,,,,junk,true"])
        with pytest.raises(SessionLoadError) as exc:
            load_level_csv(path, 1, "s1")
        assert (exc.value.line, exc.value.fieldname) == (3, "object_pos")

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_length_error_before_later_placement_error(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk)
        path = tmp_path / "s1_level1.csv"
        _write(path, ['0,"(3, 4)",,,,,', ",,", "1,2", '1,,"(bad",200,150,,'])
        with pytest.raises(SessionLoadError, match="expected 7 fields, got 2") as exc:
            load_level_csv(path, 1, "s1")
        assert exc.value.line == 4

    @pytest.mark.parametrize("chunk", [1, 2, 5, 2048])
    def test_every_row_kept_once(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk)
        path = tmp_path / "s1_level1.csv"
        _write(path, [f'{i},"({i + 1}, 7)",,,,,' for i in range(11)])
        session = load_level_csv(path, 1, "s1")
        assert session.samples.x_px.tolist() == [float(i + 1) for i in range(11)]


class TestSampleColumns:
    def test_views_and_columns(self):
        columns = SampleColumns([0, 16, 40], [1, 2.5, 3], [4, 5, 6.25])
        assert len(columns) == 3
        assert columns[0] == GazeSample(0, 1.0, 4.0)
        assert columns[-1] == GazeSample(40, 3.0, 6.25)
        assert list(columns) == [columns[0], columns[1], columns[2]]
        assert columns.t_ms.dtype == np.int64
        assert columns.x_px.dtype == columns.y_px.dtype == np.float64

    def test_columns_read_only(self):
        columns = SampleColumns([0], [1.0], [2.0])
        with pytest.raises(ValueError):
            columns.t_ms[0] = 5

    def test_constructor_copies_and_adopt_does_not(self):
        t, x, y = np.array([0, 16]), np.array([1.0, 2.0]), np.array([3.0, 4.0])
        copied = SampleColumns(t, x, y)
        assert not any(np.shares_memory(a, b) for a, b in zip((t, x, y), (
            copied.t_ms, copied.x_px, copied.y_px)))
        adopted = SampleColumns._adopt(t, x, y)
        assert adopted.t_ms.base is t and adopted.x_px.base is x and adopted.y_px.base is y
        assert adopted == copied
        with pytest.raises(ValueError):
            adopted.t_ms.flags.writeable = True

    def test_equality_by_columns(self):
        a = SampleColumns([0, 1], [1.0, 2.0], [3.0, 4.0])
        assert a == SampleColumns(np.array([0, 1]), [1, 2], [3, 4])
        assert a != SampleColumns([0, 2], [1.0, 2.0], [3.0, 4.0])
        assert a != [GazeSample(0, 1.0, 3.0), GazeSample(1, 2.0, 4.0)]

    def test_session_converts_gaze_samples(self):
        samples = (GazeSample(0, 1, 2), GazeSample(5, 3, 4))
        session = LevelSession("s", 1, samples, (), ())
        assert isinstance(session.samples, SampleColumns)
        assert tuple(session.samples) == samples
        assert session == LevelSession("s", 1, list(samples), (), ())
        assert len(LevelSession("s", 1, (), (), ()).samples) == 0

    def test_session_level_checked(self):
        with pytest.raises(ValueError, match="level must be in"):
            LevelSession("s", 4, (), (), ())

    def test_event_kind_checked(self):
        with pytest.raises(ValueError, match="event kind must be one of"):
            GameEvent(0, "jump", True)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            SampleColumns([0, 1], [1.0], [2.0, 3.0])

    def test_slices_rejected(self):
        with pytest.raises(TypeError):
            SampleColumns([0, 1], [1.0, 2.0], [3.0, 4.0])[0:1]


class TestRoundTrip:
    def test_fixture_round_trip(self, tmp_path):
        from gazescore.synth import SynthProfile, generate_session

        session = generate_session(SynthProfile(seed=3, duration_ms=40000))
        path = tmp_path / "rt_level1.csv"
        write_level_csv(session, path)
        reloaded = load_level_csv(path, session.level, session.student_id)
        assert reloaded.samples == session.samples
        assert reloaded.events == session.events
        assert reloaded.placements == session.placements

    @given(
        gaze_rows=st.lists(
            st.tuples(st.integers(0, 5000), st.floats(1, 1900), st.floats(1, 1000)),
            min_size=1,
            max_size=25,
        ),
        event_rows=st.lists(st.tuples(st.integers(0, 5000), st.booleans()), max_size=8),
    )
    def test_random_round_trip(self, tmp_path_factory, gaze_rows, event_rows):
        gaze_rows.sort(key=lambda r: r[0])
        offset = gaze_rows[0][0]
        samples = tuple(
            GazeSample(t - offset, float(x), float(y)) for t, x, y in gaze_rows
        )
        events = tuple(
            GameEvent(t - offset, "answer", ok) for t, ok in sorted(event_rows)
        )
        session = LevelSession(
            student_id="rt", level=2, samples=samples, events=events, placements=()
        )
        path = tmp_path_factory.mktemp("rt") / "rt_level2.csv"
        write_level_csv(session, path)
        reloaded = load_level_csv(path, 2, "rt")
        assert reloaded.samples == session.samples
        assert reloaded.events == session.events


class TestMergeLevels:
    def _session(self, student, level):
        return LevelSession(
            student_id=student,
            level=level,
            samples=(GazeSample(0, 1, 1),),
            events=(),
            placements=(),
        )

    def test_full_set(self):
        merged = merge_levels([self._session("a", lv) for lv in (1, 2, 3)])
        assert len(merged) == 3
        assert merged.students() == ["a"]

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateSessionError):
            merge_levels([self._session("a", 1), self._session("a", 1)])

    def test_partial_set_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            merged = merge_levels([self._session("a", 2)])
        assert len(merged) == 1
        assert any("expected" in r.message for r in caplog.records)
