from __future__ import annotations

import logging

import pytest
from hypothesis import given, strategies as st

from gazescore.ingest import (
    CSV_HEADER,
    CoordinateParseError,
    DuplicateSessionError,
    GameEvent,
    GazeSample,
    LevelSession,
    ObjectPlacement,
    RawRecord,
    SessionLoadError,
    clean_samples,
    load_level_csv,
    merge_levels,
    normalize_timestamps,
    parse_coordinate_string,
    write_level_csv,
)
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


class TestCleanSamples:
    def test_drops_zero_coordinates(self):
        records = [
            RawRecord(timestamp_ms=5, gaze_text="(0, 0)"),
            RawRecord(timestamp_ms=10, gaze_text="(100, 200)"),
        ]
        samples, dropped = clean_samples(records, GEO)
        assert samples == [GazeSample(10, 100.0, 200.0)]
        assert dropped == 1

    def test_empty_input(self):
        assert clean_samples([], GEO) == ([], 0)

    def test_out_of_bounds_dropped(self):
        records = [
            RawRecord(timestamp_ms=0, gaze_text="(10, 10)"),
            RawRecord(timestamp_ms=1, gaze_text="(2000, 500)"),
            RawRecord(timestamp_ms=2, gaze_text="(500, 500)"),
            RawRecord(timestamp_ms=3, gaze_text="(960, 1080)"),
        ]
        samples, dropped = clean_samples(records, GEO)
        assert len(samples) == 3
        assert dropped == 1

    def test_out_of_bounds_kept_when_disabled(self):
        records = [RawRecord(timestamp_ms=1, gaze_text="(2000, 500)")]
        samples, dropped = clean_samples(records, GEO, drop_out_of_bounds=False)
        assert len(samples) == 1 and dropped == 0

    def test_missing_timestamp_dropped(self):
        records = [RawRecord(timestamp_ms=None, gaze_text="(5, 5)")]
        assert clean_samples(records, GEO) == ([], 1)

    def test_event_rows_not_counted(self):
        records = [
            RawRecord(timestamp_ms=1, event_kind="answer", event_correct=True),
            RawRecord(timestamp_ms=2, gaze_text="(1, 1)"),
        ]
        samples, dropped = clean_samples(records, GEO)
        assert len(samples) + dropped == 1  # only the gaze-bearing record counts

    def test_sorted_with_stable_ties(self):
        records = [
            RawRecord(timestamp_ms=7, gaze_text="(1, 1)"),
            RawRecord(timestamp_ms=3, gaze_text="(2, 2)"),
            RawRecord(timestamp_ms=7, gaze_text="(3, 3)"),
        ]
        samples, _ = clean_samples(records, GEO)
        assert [s.t_ms for s in samples] == [3, 7, 7]
        assert [s.x_px for s in samples] == [2.0, 1.0, 3.0]

    def test_idempotent(self):
        records = [
            RawRecord(timestamp_ms=5, gaze_text="(0, 0)"),
            RawRecord(timestamp_ms=1, gaze_text="(bad"),
            RawRecord(timestamp_ms=10, gaze_text="(100, 200)"),
            RawRecord(timestamp_ms=2, gaze_text="(5000, 5)"),
        ]
        samples, _ = clean_samples(records, GEO)
        again = [
            RawRecord(timestamp_ms=s.t_ms, gaze_text=f"({s.x_px}, {s.y_px})")
            for s in samples
        ]
        resamples, dropped = clean_samples(again, GEO)
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
    def test_count_invariant(self, rows):
        records = [
            RawRecord(timestamp_ms=t, gaze_text=f"({x}, {y})") for t, x, y in rows
        ]
        samples, dropped = clean_samples(records, GEO)
        assert len(samples) + dropped == len(records)


class TestNormalizeTimestamps:
    def test_offset_subtraction(self):
        samples = [GazeSample(1000, 1, 1), GazeSample(1016, 2, 2), GazeSample(1033, 3, 3)]
        assert [s.t_ms for s in normalize_timestamps(samples)] == [0, 16, 33]

    def test_identity(self):
        samples = [GazeSample(0, 1, 1)]
        assert normalize_timestamps(samples) == samples

    def test_duplicates_preserved(self):
        samples = [GazeSample(500, 1, 1), GazeSample(500, 2, 2)]
        assert [s.t_ms for s in normalize_timestamps(samples)] == [0, 0]

    def test_empty(self):
        assert normalize_timestamps([]) == []

    @given(st.lists(st.integers(0, 10**6), min_size=2, max_size=30))
    def test_gaps_preserved(self, times):
        times.sort()
        samples = [GazeSample(t, 1, 1) for t in times]
        out = normalize_timestamps(samples)
        for i in range(len(times) - 1):
            assert out[i + 1].t_ms - out[i].t_ms == times[i + 1] - times[i]


def _write(path, rows):
    lines = [",".join(CSV_HEADER)] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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

    def test_header_only_warns(self, tmp_path, caplog):
        path = tmp_path / "s1_level1.csv"
        _write(path, [])
        with caplog.at_level(logging.WARNING):
            session = load_level_csv(path, 1, "s1")
        assert session.samples == ()
        assert any("no valid gaze samples" in r.message for r in caplog.records)

    def test_all_zero_gaze(self, tmp_path):
        path = tmp_path / "s1_level1.csv"
        _write(path, ['1,"(0, 0)",,,,,', '2,"(0, 0)",,,,,'])
        session = load_level_csv(path, 1, "s1")
        assert session.samples == () and session.dropped_samples == 2

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
