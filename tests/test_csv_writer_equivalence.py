"""The merging session-CSV writer against the row-sorting ``csv.writer`` one.

Random sessions must give byte-identical files from both writers. The
sessions have unsorted samples, placements and events, several of each
at one timestamp, integer-valued, negative-zero and non-finite
coordinates, and may be empty.
"""
from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from gazescore.ingest import (
    EVENT_KINDS_SCORED,
    GameEvent,
    LevelSession,
    ObjectPlacement,
    SampleColumns,
)
from gazescore.report import write_level_csv

import oracles

# Few distinct times, so placements, samples and events share timestamps.
TIMES = st.one_of(st.integers(-3, 12), st.sampled_from([2**62, -(2**62), 10**15]))
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -7.0, 480.0, 1e16, 1e300, 0.1, 5e-324, 1919.9999999999998,
                     math.nan, math.inf, -math.inf]),
    st.floats(),
)
SIZES = st.one_of(st.sampled_from([200.0, 150.0, 0.5, 1e300]), st.floats(1e-300, 1e300))
PLACEMENTS = st.lists(st.builds(ObjectPlacement, TIMES, FLOATS, FLOATS, SIZES, SIZES),
                      max_size=6).map(tuple)
EVENTS = st.lists(
    st.builds(GameEvent, TIMES, st.sampled_from(EVENT_KINDS_SCORED), st.booleans()),
    max_size=6,
).map(tuple)
SAMPLES = st.lists(st.tuples(TIMES, FLOATS, FLOATS), max_size=30).map(
    lambda rows: SampleColumns(*zip(*rows)) if rows else SampleColumns([], [], [])
)


@settings(max_examples=300, deadline=None)
@given(samples=SAMPLES, placements=PLACEMENTS, events=EVENTS)
def test_session_csv_matches_reference(tmp_path_factory, samples, placements, events):
    session = LevelSession("s", 1, samples, events, placements)
    directory = tmp_path_factory.mktemp("csv")
    write_level_csv(session, directory / "got.csv")
    oracles.write_level_csv(session, directory / "want.csv")
    assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()


def test_rows_at_one_time_are_placement_sample_event(tmp_path):
    """Rows run by time; at one time, placements, then samples, then events,
    each kind in session order."""
    session = LevelSession(
        "s",
        1,
        SampleColumns([5, 0, 5], [1.5, 2.0, -0.0], [3.0, 4.0, math.inf]),
        (GameEvent(5, "answer", False), GameEvent(0, "mouse_click", True)),
        (ObjectPlacement(5, 480.0, 810.0, 200.0, 150.0), ObjectPlacement(5, 1.25, 2.0, 3.0, 4.0)),
    )
    write_level_csv(session, tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_text().splitlines() == [
        "timestamp_ms,gaze,object_pos,aoi_w,aoi_h,event_kind,event_correct",
        '0,"(2, 4)",,,,,',
        "0,,,,,mouse_click,true",
        '5,,"(480, 810)",200,150,,',
        '5,,"(1.25, 2)",3,4,,',
        '5,"(1.5, 3)",,,,,',
        '5,"(0, inf)",,,,,',
        "5,,,,,answer,false",
    ]
