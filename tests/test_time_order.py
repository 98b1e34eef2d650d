"""``LevelSession`` keeps its samples, placements and events in time order.

The stages (placement lookup, transitions, dwell, AoI runs, plot rows)
read a session in stored order, so a session built out of order must give
the numbers of the same session built in order.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazescore.ingest import (
    GameEvent,
    GazeSample,
    LevelSession,
    ObjectPlacement,
    SampleColumns,
    load_level_csv,
)
from gazescore.pipeline import analyze_session
from gazescore.report import build_report, emit_plot_data, report_json
from gazescore.spatial import AOI_ORDER, AoiLabel, classify_session

LEFT = ObjectPlacement(0, 480.0, 810.0, 200.0, 150.0)
RIGHT = ObjectPlacement(100, 1440.0, 810.0, 200.0, 150.0)
Q1, Q3 = (100.0, 200.0), (100.0, 800.0)


def _report(session: LevelSession) -> str:
    return report_json(build_report(session.student_id, [analyze_session(session)], None))


def test_placements_out_of_order_label_by_time():
    """The right object placed at 100 ms ends the left AoI whatever order
    the placements are given in: 10 samples left, then 10 outside."""
    samples = [GazeSample(t, 480.0, 810.0) for t in range(0, 200, 10)]
    given_order = LevelSession("s", 1, samples, (), (RIGHT, LEFT))
    in_order = LevelSession("s", 1, samples, (), (LEFT, RIGHT))
    _, aois = classify_session(given_order)
    assert [AOI_ORDER[c] for c in aois] == [AoiLabel.LEFT] * 10 + [AoiLabel.OUTSIDE] * 10
    assert np.array_equal(aois, classify_session(in_order)[1])
    assert given_order == in_order


def test_samples_out_of_order_score_by_time():
    """Q3, Q1, Q3, Q1 by time: 50 % stimulus focus and 3 cross-quadrant
    transitions, not the 25 % and 1 of the order given."""
    given_order = LevelSession(
        "s", 1, [GazeSample(t, *p) for t, p in ((0, Q3), (30, Q3), (10, Q1), (40, Q1))], (), ()
    )
    in_order = LevelSession(
        "s", 1, [GazeSample(t, *p) for t, p in ((0, Q3), (10, Q1), (30, Q3), (40, Q1))], (), ()
    )
    analysis = analyze_session(given_order)
    assert analysis.features.sf_pct == 50.0
    assert analysis.aggregates.total == 3
    assert round(analysis.breakdown.final_score, 1) == 15.6
    assert given_order == in_order
    assert _report(given_order) == _report(in_order)


def test_ties_keep_their_given_order():
    session = LevelSession(
        "s",
        1,
        SampleColumns([5, 0, 5], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
        [GameEvent(9, "answer", True), GameEvent(1, "answer", False),
         GameEvent(9, "mouse_click", False)],
        [ObjectPlacement(3, 1.0, 1.0, 2.0, 2.0), ObjectPlacement(3, 9.0, 9.0, 2.0, 2.0)],
    )
    assert session.samples.t_ms.tolist() == [0, 5, 5]
    assert session.samples.x_px.tolist() == [2.0, 1.0, 3.0]
    assert [(e.t_ms, e.kind) for e in session.events] == [
        (1, "answer"), (9, "answer"), (9, "mouse_click")
    ]
    assert [p.obj_x_px for p in session.placements] == [1.0, 9.0]
    assert not session.samples.t_ms.flags.writeable


def test_events_and_placements_given_as_lists_are_stored_as_tuples():
    session = LevelSession("s", 1, [], [GameEvent(0, "answer", True)], [LEFT])
    assert session.events == (GameEvent(0, "answer", True),)
    assert session.placements == (LEFT,)


@pytest.fixture(scope="module")
def tracker_sessions(tmp_path_factory, tracker):
    """Short tracker-model levels, loaded once: CRLF, fractional epoch
    timestamps, blinks, out-of-bounds points and frequent placements."""
    directory = tmp_path_factory.mktemp("tracker")
    sessions = []
    for seed, level in ((1, 1), (2, 2), (3, 3)):
        path = directory / f"t{seed}_level{level}.csv"
        tracker.write_level_log(path, seed, duration_s=20.0)
        sessions.append(load_level_csv(path, level, f"t{seed}"))
    return sessions


def _tie_keeping_shuffle(times, rng: np.random.Generator) -> np.ndarray:
    """A random order of indices in which equal times keep their order."""
    times = np.asarray(times, dtype=np.int64)
    order = rng.permutation(len(times))
    keys = times[order]
    # Positions of each tie group, in position order, get the group's
    # indices in index order.
    order[np.argsort(keys, kind="stable")] = order[np.lexsort((order, keys))]
    return order


@settings(max_examples=30, deadline=None)
@given(which=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_shuffled_tracker_session_rebuilds_identically(
    tmp_path_factory, tracker_sessions, which, seed
):
    loaded = tracker_sessions[which]
    rng = np.random.default_rng(seed)
    samples = loaded.samples
    order = _tie_keeping_shuffle(samples.t_ms, rng)
    events = _tie_keeping_shuffle([e.t_ms for e in loaded.events], rng)
    placements = _tie_keeping_shuffle([p.t_ms for p in loaded.placements], rng)
    shuffled = LevelSession(
        loaded.student_id,
        loaded.level,
        SampleColumns(samples.t_ms[order], samples.x_px[order], samples.y_px[order]),
        [loaded.events[i] for i in events],
        [loaded.placements[i] for i in placements],
        loaded.geometry,
        loaded.dropped_samples,
    )
    assert shuffled == loaded
    assert _report(shuffled) == _report(loaded)
    out = tmp_path_factory.mktemp("plots")
    written = {
        name: [p.read_bytes() for p in emit_plot_data([analyze_session(s)], out / name)]
        for name, s in (("shuffled", shuffled), ("loaded", loaded))
    }
    assert written["shuffled"] == written["loaded"]
