"""Per-session facts: computed once, shared by every analysis, read-only.

``analyze_session`` keeps the config-independent part of a session's
analysis (labels, matrices, aggregates, dwell, AoI shares, AoI runs and
the game tally) on the session object, and the periods, temporal metrics
and features per period setting, and runs only the rest on every call. A
session analysed under many configs must give exactly what a fresh copy
of it gives under each one.
"""
from __future__ import annotations

import bisect
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazescore import pipeline
from gazescore.ingest import (
    EVENT_KINDS_SCORED, GameEvent, GazeSample, LevelSession, ObjectPlacement,
)
from gazescore.pipeline import SessionAnalysis, analyze_session
from gazescore.report import build_report
from gazescore.scoring import ETA_SOURCES, LevelFeatures, ScoringConfig
from gazescore.spatial import OUTSIDE_CODE, Quadrant
from gazescore.synth import generate_table_fixture
from gazescore.transitions import DwellSummary, TransitionMatrix
import oracles
from test_columnar_equivalence import MIN_DURATIONS, TOLERANCES, gap_lists, sessions

# The 16 paper configs of the rescore benchmark.
GRID = [
    ScoringConfig(tau_min_ms=tau_min, tau_sustained_ms=tau_sustained, alpha1=a1, alpha2=a2)
    for tau_min in (400, 300)
    for tau_sustained in (2500, 1500)
    for a1 in (3.0, 2.0)
    for a2 in (1.5, 1.0)
]


@st.composite
def run_sessions(draw) -> LevelSession:
    """Gaze that stays on the active object, or off it, for runs of samples,
    with the object moving between the two sides: many engagement periods,
    and outside runs that a gap tolerance may bridge."""
    segments = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 15)), max_size=12))
    n = sum(length for _, length in segments)
    times = np.cumsum(draw(gap_lists(n)), dtype=np.int64).tolist()
    moves = sorted(draw(st.lists(st.integers(1, times[-1] + 1 if times else 1), max_size=3)))
    placements = tuple(
        ObjectPlacement(t_ms, 480.0 if i % 2 == 0 else 1440.0, 810.0, 300.0, 300.0)
        for i, t_ms in enumerate([0, *moves])
    )
    move_times = [p.t_ms for p in placements]
    on_object = [on for on, length in segments for _ in range(length)]
    samples = []
    for t_ms, on in zip(times, on_object):
        active = placements[bisect.bisect_right(move_times, t_ms) - 1]
        x, y = (active.obj_x_px, 810.0) if on else (960.0, 100.0)
        samples.append(GazeSample(t_ms, x, y))
    return LevelSession("s", 1, tuple(samples), (), placements)


@st.composite
def scored_sessions(draw):
    """A random session at a random level, with game events."""
    session = draw(st.one_of(sessions(), run_sessions()))
    events = sorted(
        draw(st.lists(
            st.builds(GameEvent, st.integers(0, 3000), st.sampled_from(EVENT_KINDS_SCORED),
                      st.booleans()),
            max_size=6,
        )),
        key=lambda e: e.t_ms,
    )
    return dataclasses.replace(
        session, level=draw(st.sampled_from((1, 2, 3))), events=tuple(events)
    )


@st.composite
def period_settings(draw) -> tuple[int, int, int]:
    """(tau_min_ms, tau_sustained_ms, gap_tolerance_ms): a period key."""
    tau_min = draw(MIN_DURATIONS)
    return tau_min, tau_min + draw(st.one_of(st.just(0), st.integers(0, 3000))), draw(TOLERANCES)


@st.composite
def configs(draw, settings=period_settings()) -> ScoringConfig:
    tau_min, tau_sustained, tolerance = draw(settings)
    return ScoringConfig(
        tau_min_ms=tau_min,
        tau_sustained_ms=tau_sustained,
        gap_tolerance_ms=tolerance,
        alpha1=draw(st.floats(0, 6)),
        alpha2=draw(st.floats(0, 6)),
        aoi_total_changes_only=draw(st.booleans()),
        eta_source=draw(st.sampled_from(ETA_SOURCES)),
    )


def _assert_same_analysis(got: SessionAnalysis, want: SessionAnalysis) -> None:
    for f in dataclasses.fields(SessionAnalysis):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        elif isinstance(a, TransitionMatrix):
            assert np.array_equal(a.counts, b.counts), f.name
        else:
            assert a == b, f.name


def _report_bytes(analysis: SessionAnalysis, config: ScoringConfig) -> bytes:
    return json.dumps(build_report("s", [analysis], None, config), indent=2).encode()


@st.composite
def repeating_configs(draw) -> list[ScoringConfig]:
    """Configs over 1-3 period settings, so that period keys repeat, with
    their other fields drawn; the first setting comes under both AoI switch
    values."""
    keys = draw(st.lists(period_settings(), min_size=1, max_size=3))
    config_list = draw(st.lists(configs(st.sampled_from(keys)), min_size=2, max_size=6))
    first = config_list[0]
    flipped = dataclasses.replace(first, aoi_total_changes_only=not first.aoi_total_changes_only)
    return draw(st.permutations([*config_list, flipped]))


def _period_key(config: ScoringConfig) -> tuple[int, int, int]:
    return config.tau_min_ms, config.tau_sustained_ms, config.gap_tolerance_ms


@settings(max_examples=200, deadline=None)
@given(scored_sessions(), repeating_configs())
def test_warm_session_analyses_like_a_fresh_one(session, config_list):
    """A session that has kept the periods of a setting analyses like a
    fresh copy, under any config with that setting."""
    periods = {}
    for config in config_list:
        warm = analyze_session(session, config)
        cold = analyze_session(dataclasses.replace(session), config)
        _assert_same_analysis(warm, cold)
        assert _report_bytes(warm, config) == _report_bytes(cold, config)
        assert warm.periods is periods.setdefault(_period_key(config), warm.periods)


@st.composite
def covering_configs(draw) -> list[ScoringConfig]:
    """Configs with both AoI switch values and both eta sources, and a few
    drawn freely, in a drawn order."""
    covering = [
        dataclasses.replace(draw(configs()), aoi_total_changes_only=switch, eta_source=source)
        for switch in (False, True)
        for source in ETA_SOURCES
    ]
    return draw(st.permutations(covering + draw(st.lists(configs(), max_size=2))))


@settings(max_examples=100, deadline=None)
@given(scored_sessions(), covering_configs())
def test_warm_reports_equal_the_oracle(session, config_list):
    """The per-session report leaves give, in any order of configs, the
    document the per-call oracle builds from the same analysis."""
    warm = config_list[-1]
    build_report("s", [analyze_session(session, warm)], None, warm)  # facts and leaves exist
    for config in config_list:
        analysis = analyze_session(session, config)
        want = {"student_id": "s", "levels": [oracles.level_block(analysis, config)],
                "validation": None}
        got = build_report("s", [analysis], None, config)
        assert json.dumps(got, indent=2) == json.dumps(want, indent=2)


@pytest.fixture(scope="module")
def fixture_session():
    return generate_table_fixture().sessions["S10", 2]


@pytest.fixture
def session(fixture_session):
    """A fresh instance, with no facts yet."""
    return dataclasses.replace(fixture_session)


def test_facts_computed_once_for_sixteen_configs(session, monkeypatch):
    calls = []
    classify = pipeline.classify_session
    monkeypatch.setattr(pipeline, "classify_session", lambda s: calls.append(s) or classify(s))
    analyses = [analyze_session(session, config) for config in GRID]
    assert len(GRID) == 16 and calls == [session]
    assert all(a.aoi_matrix is analyses[0].aoi_matrix for a in analyses)
    # The config-dependent part still follows the config.
    assert len({a.breakdown.base_score for a in analyses}) == 4


def test_periods_computed_once_per_period_setting(session, monkeypatch):
    """The 16 configs hold 4 period settings: each setting's periods and
    temporal metrics are computed once and shared, with its features."""
    calls = []
    for name in ("select_periods", "temporal_metrics"):
        stage = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *args, _stage=stage, _name=name, **kwargs:
                            calls.append(_name) or _stage(*args, **kwargs))
    first = {}
    for config in GRID:
        analysis = analyze_session(session, config)
        seen = first.setdefault(_period_key(config), analysis)
        for name in ("periods", "temporal", "features"):
            assert getattr(analysis, name) is getattr(seen, name), name
    assert len(first) == 4
    assert sorted(calls) == ["select_periods"] * 4 + ["temporal_metrics"] * 4


def test_aoi_metrics_computed_with_the_facts(session, monkeypatch):
    calls = []
    metrics = pipeline.aoi_metrics

    def counted(matrix, changes_only):
        calls.append(changes_only)
        return metrics(matrix, changes_only)

    monkeypatch.setattr(pipeline, "aoi_metrics", counted)
    for changes_only in (False, True, False, True):
        analysis = analyze_session(session, ScoringConfig(aoi_total_changes_only=changes_only))
        assert analysis.aoi == metrics(analysis.aoi_matrix, changes_only=changes_only)
    assert sorted(calls) == [False, True]


def test_analyses_hold_the_shared_facts(session):
    """Every fact of an analysis is the very object the session's facts hold,
    and an analysis holds its fields and nothing else, also once the
    session's report leaves exist."""
    facts = pipeline.session_facts(session)
    names = {f.name for f in dataclasses.fields(SessionAnalysis)}
    for config in (ScoringConfig(), ScoringConfig(aoi_total_changes_only=True, tau_min_ms=300)):
        analysis = analyze_session(session, config)
        for f in dataclasses.fields(pipeline.SessionFacts):
            assert getattr(analysis, f.name) is getattr(facts, f.name), f.name
        assert vars(analysis).keys() == names
        build_report("s", [analysis], None, config)


def test_per_call_records_equal_checked_ones(session):
    """Records built without ``__init__`` equal, and print as, the ones the
    public constructors build from the same fields."""
    analysis = analyze_session(session, ScoringConfig(tau_min_ms=300))
    for record in (analysis.features, analysis.breakdown, analysis.temporal):
        checked = type(record)(**vars(record))
        assert record == checked and repr(record) == repr(checked)
        assert hash(record) == hash(checked)


def test_feature_checks_run_once_per_session(session, monkeypatch):
    """``LevelFeatures`` checks only config-independent fields: once per AoI
    switch value when the facts are made, not on every re-score."""
    checked = []
    check = LevelFeatures.__post_init__
    monkeypatch.setattr(LevelFeatures, "__post_init__",
                        lambda self: checked.append(self.aoi_transitions) or check(self))
    for config in [*GRID, ScoringConfig(aoi_total_changes_only=True)]:
        analyze_session(session, config)
    facts = pipeline.session_facts(session)
    assert checked == [facts.aoi_pairs.aoi_total, facts.aoi_changes.aoi_total]


def test_replace_gets_fresh_facts(session):
    """A replaced session keeps nothing, so it computes its own facts and
    periods; analyses of one session under one period key share one
    ``periods`` tuple."""
    placed = analyze_session(session)
    assert np.any(placed.aoi_labels != OUTSIDE_CODE) and placed.periods
    assert analyze_session(session, ScoringConfig(alpha1=2.0)).periods is placed.periods
    assert "_memo" not in vars(dataclasses.replace(session))
    twin = analyze_session(dataclasses.replace(session))
    assert twin.periods == placed.periods and twin.periods is not placed.periods
    bare = analyze_session(dataclasses.replace(session, placements=()))
    assert np.all(bare.aoi_labels == OUTSIDE_CODE)
    assert bare.periods == () and bare.aoi_matrix.counts[:2].sum() == 0
    assert np.array_equal(bare.quadrant_labels, placed.quadrant_labels)


def test_analysis_leaves_equality_and_repr_alone(session):
    twin = dataclasses.replace(session)
    before = repr(session)
    analyze_session(session)
    assert session == twin and twin == session
    assert repr(session) == repr(twin) == before


def test_analyses_compare_by_identity(session):
    """Field-wise == over label arrays raised ValueError; identity cannot."""
    analysis = analyze_session(session)
    twin = analyze_session(dataclasses.replace(session))
    assert analysis == analysis and analysis != twin
    assert analysis != analyze_session(session)
    assert len({analysis, twin, analysis}) == 2


def test_array_holding_results_compare_by_identity(session):
    """Matrices and facts hold arrays, so they compare by identity too."""
    twin = dataclasses.replace(session)
    analysis, other = analyze_session(session), analyze_session(twin)
    facts, other_facts = pipeline.session_facts(session), pipeline.session_facts(twin)
    pairs = [
        (analysis.quadrant_matrix, other.quadrant_matrix),
        (analysis.aoi_matrix, other.aoi_matrix),
        (facts, other_facts),
    ]
    for value, equal_twin in pairs:
        assert value == value and value != equal_twin
    assert np.array_equal(analysis.quadrant_matrix.counts, other.quadrant_matrix.counts)


def test_shared_results_are_read_only(session):
    analysis = analyze_session(session)
    with pytest.raises(ValueError):
        analysis.quadrant_matrix.counts[0, 0] = 7
    with pytest.raises(ValueError):
        analysis.aoi_matrix.counts[0, 0] = 7
    with pytest.raises(TypeError):
        analysis.dwell.time_in_quadrant[Quadrant.Q1] = 7
    with pytest.raises(ValueError):
        analysis.quadrant_labels[0] = 0
    assert analyze_session(session).quadrant_matrix.counts[0, 0] != 7


def test_read_only_arrays_cannot_be_made_writeable(session):
    """Clearing the flag alone would let a caller set it back and write."""
    analysis = analyze_session(session)
    for array in (
        analysis.quadrant_labels, analysis.aoi_labels, analysis.quadrant_matrix.counts,
        analysis.aoi_matrix.counts,
        session.samples.t_ms, session.samples.x_px, session.samples.y_px,
    ):
        with pytest.raises(ValueError):
            array.flags.writeable = True


def test_read_only_results_copy_their_inputs():
    counts = np.zeros((4, 4), dtype=np.int64)
    time_in = dict.fromkeys(Quadrant, 0)
    matrix = TransitionMatrix(counts)
    dwell = DwellSummary(time_in_quadrant=time_in, session_duration_ms=0, stimuli_focus_pct=0.0)
    counts[0, 0] = 1
    time_in[Quadrant.Q1] = 1
    assert matrix.counts[0, 0] == 0 and dwell.time_in_quadrant[Quadrant.Q1] == 0
