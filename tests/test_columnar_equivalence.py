"""The columnar stage kernels against the per-sample oracles in ``oracles``.

Random sessions cover both vertical conventions, equal timestamps,
placements tied with each other and with samples, and samples exactly on
the screen midlines and on AoI edges.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from gazescore.engagement import aoi_runs, detect_engagement_periods, select_periods
from gazescore.ingest import GazeSample, LevelSession, ObjectPlacement
from gazescore.spatial import (
    AOI_ORDER, LEFT_CODE, QUADRANT_ORDER, RIGHT_CODE, AoiLabel, ScreenGeometry, classify_session,
)
from gazescore.transitions import (
    aoi_sample_share_pct,
    aoi_time_share_pct,
    build_aoi_matrix,
    build_quadrant_matrix,
    dwell_summary,
)


def gap_lists(size: int):
    """Inter-sample gaps: arbitrary, or round and often zero, so that spans
    land exactly on round tolerances and thresholds."""
    return st.one_of(
        st.lists(st.integers(0, 250), min_size=size, max_size=size),
        st.lists(st.sampled_from([0, 50, 100]), min_size=size, max_size=size),
    )


TOLERANCES = st.one_of(st.just(0), st.sampled_from([50, 100, 150, 200]), st.integers(1, 700))
MIN_DURATIONS = st.one_of(st.sampled_from([100, 200, 300, 400]), st.integers(1, 600))

GEOMETRIES = (
    ScreenGeometry(),
    ScreenGeometry(y_up=True),
    ScreenGeometry(1280.0, 721.0),
    ScreenGeometry(1280.0, 721.0, y_up=True),
)


@st.composite
def sessions(draw) -> LevelSession:
    geometry = draw(st.sampled_from(GEOMETRIES))
    w, h = geometry.width_px, geometry.height_px
    n = draw(st.integers(0, 60))
    gaps = draw(gap_lists(n))
    times = np.cumsum(gaps, dtype=np.int64).tolist()
    last = times[-1] if times else 0

    placements = []
    for _ in range(draw(st.integers(0, 5))):
        if times and draw(st.booleans()):
            t_ms = draw(st.sampled_from(times))
        else:
            t_ms = draw(st.integers(-50, last + 50))
        placements.append(
            ObjectPlacement(
                t_ms=t_ms,
                obj_x_px=draw(st.one_of(st.just(w / 2), st.floats(0, w))),
                obj_y_px=draw(st.one_of(st.just(h / 2), st.floats(0, h))),
                aoi_w_px=draw(st.one_of(st.integers(1, 400).map(float), st.floats(1, 400))),
                aoi_h_px=draw(st.one_of(st.integers(1, 400).map(float), st.floats(1, 400))),
            )
        )
    placements.sort(key=lambda p: p.t_ms)

    edge_x = [0.0, w / 2, w]
    edge_y = [0.0, h / 2, h]
    for p in placements:
        edge_x += [p.obj_x_px - p.aoi_w_px / 2, p.obj_x_px + p.aoi_w_px / 2]
        edge_y += [p.obj_y_px - p.aoi_h_px / 2, p.obj_y_px + p.aoi_h_px / 2]
    samples = tuple(
        GazeSample(
            t,
            draw(st.one_of(st.sampled_from(edge_x), st.floats(0, w))),
            draw(st.one_of(st.sampled_from(edge_y), st.floats(0, h))),
        )
        for t in times
    )
    return LevelSession("s", 1, samples, (), tuple(placements), geometry)


def _times(session: LevelSession) -> np.ndarray:
    return np.array([s.t_ms for s in session.samples], dtype=np.int64)


def _check_labels(quadrants, aois, enum_quadrants, enum_aois):
    assert quadrants.dtype == aois.dtype == np.int8
    assert [QUADRANT_ORDER[c] for c in quadrants] == enum_quadrants
    assert [AOI_ORDER[c] for c in aois] == enum_aois


def _check_matrices(quadrants, aois, enum_quadrants, enum_aois):
    for labels in (quadrants, enum_quadrants):
        counts = build_quadrant_matrix(labels).counts
        assert counts.dtype == np.int64
        assert np.array_equal(counts, oracles.quadrant_counts(enum_quadrants))
    for labels in (aois, enum_aois):
        counts = build_aoi_matrix(labels).counts
        assert counts.dtype == np.int64
        assert np.array_equal(counts, oracles.aoi_counts(enum_aois))


def _check_dwell_and_shares(session, quadrants, aois, enum_quadrants, enum_aois):
    samples, t = session.samples, _times(session)
    want = oracles.dwell_summary(samples, enum_quadrants)
    for got in (dwell_summary(t, quadrants), dwell_summary(samples, enum_quadrants)):
        assert got == want
        assert all(type(v) is int for v in got.time_in_quadrant.values())
        assert type(got.session_duration_ms) is int

    want_time = oracles.aoi_time_share_pct(samples, enum_aois)
    assert aoi_time_share_pct(t, aois) == want_time
    assert aoi_time_share_pct(samples, enum_aois) == want_time
    want_share = oracles.aoi_sample_share_pct(enum_aois)
    assert aoi_sample_share_pct(aois) == want_share
    assert aoi_sample_share_pct(enum_aois) == want_share


def _check_periods(times, labels, tolerance, min_ms, sustained_ms):
    labeled = list(zip(times, labels))
    want = oracles.detect_engagement_periods(labeled, min_ms, sustained_ms, tolerance)
    codes = np.array([AOI_ORDER.index(label) for label in labels], dtype=np.int8)
    thresholds = dict(min_duration_ms=min_ms, sustained_ms=sustained_ms,
                      gap_tolerance_ms=tolerance)
    # The pairs input, and the runs path the pipeline takes.
    for got in (
        detect_engagement_periods(labeled, **thresholds),
        select_periods(aoi_runs(np.array(times, dtype=np.int64), codes), **thresholds),
    ):
        assert got == want
        for p in got:
            assert type(p.t_start_ms) is int and type(p.t_end_ms) is int
            assert type(p.sustained) is bool


@given(
    session=sessions(),
    tolerance=TOLERANCES,
    min_ms=MIN_DURATIONS,
)
@settings(max_examples=150, deadline=None)
def test_session_stages_match_oracle(session, tolerance, min_ms):
    quadrants, aois = classify_session(session)
    enum_quadrants, enum_aois = oracles.classify_session(session)
    _check_labels(quadrants, aois, enum_quadrants, enum_aois)
    _check_matrices(quadrants, aois, enum_quadrants, enum_aois)
    _check_dwell_and_shares(session, quadrants, aois, enum_quadrants, enum_aois)
    _check_periods(_times(session).tolist(), enum_aois, tolerance, min_ms, 2500)


@given(
    runs=st.lists(st.tuples(st.sampled_from(list(AoiLabel)), st.integers(1, 12)), max_size=16),
    gaps=gap_lists(192),
    tolerance=TOLERANCES,
    min_ms=MIN_DURATIONS,
    sustained_ms=st.one_of(st.sampled_from([600, 800, 1000]), st.integers(600, 3000)),
)
@settings(max_examples=400, deadline=None)
def test_periods_match_oracle(runs, gaps, tolerance, min_ms, sustained_ms):
    labels = [label for label, count in runs for _ in range(count)]
    times = np.cumsum(gaps[: len(labels)], dtype=np.int64).tolist()
    _check_periods(times, labels, tolerance, min_ms, sustained_ms)


def test_zero_tolerance_never_bridges_equal_timestamps():
    left, out = AoiLabel.LEFT, AoiLabel.OUTSIDE
    times = [0, 400, 400, 400, 800]
    labels = [left, left, out, left, left]
    _check_periods(times, labels, 0, 400, 2500)
    assert len(detect_engagement_periods(list(zip(times, labels)))) == 2


def test_equal_timestamps_across_one_outside_sample_join_only_above_zero_tolerance():
    left, out = AoiLabel.LEFT, AoiLabel.OUTSIDE
    times = [0, 400, 400, 400, 800]
    labels = [left, left, out, left, left]
    codes = np.array([AOI_ORDER.index(label) for label in labels], dtype=np.int8)
    runs = aoi_runs(np.array(times, dtype=np.int64), codes)
    for tolerance, spans in ((0, [(0, 400), (400, 800)]), (1, [(0, 800)])):
        _check_periods(times, labels, tolerance, 400, 2500)
        periods = select_periods(runs, gap_tolerance_ms=tolerance)
        assert [(p.t_start_ms, p.t_end_ms) for p in periods] == spans


def test_runs_keep_in_aoi_runs_with_their_bridge_gaps():
    left, right, out = LEFT_CODE, RIGHT_CODE, AOI_ORDER.index(AoiLabel.OUTSIDE)
    codes = np.array([out, left, left, out, out, left, right, out, right, out, left],
                     dtype=np.int8)
    times = np.arange(0, 1100, 100, dtype=np.int64)
    # Only the left run after two outside samples, and the right run after
    # one, follow an outside run that has the same side before it.
    assert aoi_runs(times, codes) == (
        (100, 200, left, None),
        (500, 500, left, 300),
        (600, 600, right, None),
        (800, 800, right, 200),
        (1000, 1000, left, None),
    )
    assert aoi_runs(times[:0], codes[:0]) == ()
