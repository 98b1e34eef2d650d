from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazescore.engagement import (
    EngagementPeriod,
    detect_engagement_periods,
    temporal_metrics,
)
from gazescore.spatial import AoiLabel

L, R, OUT = AoiLabel.LEFT, AoiLabel.RIGHT, AoiLabel.OUTSIDE


def brute_force_periods(labeled, min_ms=400, sustained_ms=2500):
    """Oracle: enumerate maximal constant-label runs, filter by span."""
    periods = []
    for label, group in itertools.groupby(labeled, key=lambda s: s[1]):
        run = list(group)
        if label is OUT:
            continue
        span = run[-1][0] - run[0][0]
        if span >= min_ms:
            periods.append(
                EngagementPeriod(run[0][0], run[-1][0], label, span >= sustained_ms)
            )
    return periods


def ramp(start, count, step, label):
    return [(start + i * step, label) for i in range(count)]


class TestDetect:
    def test_short_left_run_kept(self):
        labeled = ramp(0, 10, 50, L)  # spans 0..450
        periods = detect_engagement_periods(labeled)
        assert periods == [EngagementPeriod(0, 450, L, False)]

    def test_below_minimum_dropped(self):
        labeled = ramp(0, 8, 50, R)  # spans 0..350
        assert detect_engagement_periods(labeled) == []

    def test_sustained_and_trailing_glance(self):
        labeled = ramp(0, 27, 100, L) + ramp(2700, 4, 100, R)  # L 0..2600, R 2700..3000
        periods = detect_engagement_periods(labeled)
        assert periods == [EngagementPeriod(0, 2600, L, True)]

    def test_outside_terminates_run(self):
        labeled = ramp(0, 5, 100, L) + [(500, OUT)] + ramp(600, 5, 100, L)
        periods = detect_engagement_periods(labeled)
        assert periods == [
            EngagementPeriod(0, 400, L, False),
            EngagementPeriod(600, 1000, L, False),
        ]

    def test_side_switch_terminates_run(self):
        labeled = ramp(0, 5, 100, L) + ramp(500, 5, 100, R)
        periods = detect_engagement_periods(labeled)
        assert periods == [
            EngagementPeriod(0, 400, L, False),
            EngagementPeriod(500, 900, R, False),
        ]

    def test_gap_tolerance_bridges_dropout(self):
        labeled = ramp(0, 5, 100, L) + [(450, OUT)] + ramp(500, 5, 100, L)
        bridged = detect_engagement_periods(labeled, gap_tolerance_ms=120)
        assert bridged == [EngagementPeriod(0, 900, L, False)]
        strict = detect_engagement_periods(labeled)
        assert len(strict) == 2

    def test_gap_tolerance_never_bridges_sides(self):
        labeled = ramp(0, 5, 100, L) + ramp(450, 5, 100, R)
        periods = detect_engagement_periods(labeled, gap_tolerance_ms=10_000)
        assert [p.aoi for p in periods] == [L, R]

    def test_threshold_ordering_validated(self):
        with pytest.raises(ValueError):
            detect_engagement_periods([], min_duration_ms=3000, sustained_ms=2500)

    def test_empty(self):
        assert detect_engagement_periods([]) == []


class TestOracleEquivalence:
    @given(
        labels=st.lists(st.sampled_from([L, R, OUT]), max_size=80),
        gaps=st.lists(st.integers(1, 300), min_size=80, max_size=80),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, labels, gaps):
        times = np.cumsum(gaps).tolist()
        labeled = list(zip(times, labels))
        assert detect_engagement_periods(labeled) == brute_force_periods(labeled)

    def test_thousand_random_sequences(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(0, 120))
            labels = [(L, R, OUT)[i] for i in rng.integers(0, 3, n)]
            times = np.cumsum(rng.integers(1, 200, n)).tolist()
            labeled = list(zip(times, labels))
            assert detect_engagement_periods(labeled) == brute_force_periods(labeled)


class TestProperties:
    @given(
        labels=st.lists(st.sampled_from([L, R, OUT]), max_size=60),
        gaps=st.lists(st.integers(1, 300), min_size=60, max_size=60),
    )
    def test_periods_disjoint_and_ordered(self, labels, gaps):
        times = np.cumsum(gaps).tolist()
        periods = detect_engagement_periods(list(zip(times, labels)))
        for a, b in zip(periods, periods[1:]):
            assert a.t_end_ms < b.t_start_ms
        for p in periods:
            assert p.aoi is not OUT
            assert p.duration_ms >= 400

    @given(
        labels=st.lists(st.sampled_from([L, R, OUT]), max_size=60),
        gaps=st.lists(st.integers(1, 300), min_size=60, max_size=60),
        threshold=st.integers(1, 400),
    )
    def test_lower_threshold_monotone(self, labels, gaps, threshold):
        times = np.cumsum(gaps).tolist()
        labeled = list(zip(times, labels))
        base = detect_engagement_periods(labeled, min_duration_ms=400)
        lowered = detect_engagement_periods(labeled, min_duration_ms=threshold)
        assert len(lowered) >= len(base)


class TestClassifySustained:
    """The sustained flag compares a period's span with the threshold by >=."""

    def test_threshold_is_inclusive(self):
        periods = detect_engagement_periods([(0, L), (2500, L)])
        assert periods == [EngagementPeriod(0, 2500, L, True)]

    def test_just_below(self):
        periods = detect_engagement_periods([(0, L), (2499, L)])
        assert periods == [EngagementPeriod(0, 2499, L, False)]


class TestTemporalMetrics:
    def test_single_sustained_period(self):
        periods = [EngagementPeriod(0, 2600, L, True)]
        m = temporal_metrics(periods, 10_000)
        assert m.eta_temporal == pytest.approx(0.26)
        assert m.mu_engagement_ms == pytest.approx(2600)
        assert m.sigma_sustained == 1.0

    def test_engagement_share_near_published_level_one(self):
        # 79.4 s of engagement in a session sized so the share reads 40.5%.
        periods = [EngagementPeriod(0, 79_400, L, True)]
        m = temporal_metrics(periods, 196_049)
        assert round(100 * m.eta_temporal, 1) == 40.5

    def test_no_periods_guard(self):
        m = temporal_metrics([], 5000)
        assert (m.eta_temporal, m.mu_engagement_ms, m.sigma_sustained) == (0.0, 0.0, 0.0)

    def test_zero_duration_guard(self):
        m = temporal_metrics([EngagementPeriod(0, 500, L, False)], 0)
        assert m.eta_temporal == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            temporal_metrics([], -1)

    @given(
        spans=st.lists(st.integers(400, 5000), max_size=12),
        slack=st.integers(0, 10_000),
    )
    def test_ratio_bounds(self, spans, slack):
        periods = []
        t = 0
        for span in spans:
            periods.append(EngagementPeriod(t, t + span, L, span >= 2500))
            t += span + 100
        duration = t + slack
        m = temporal_metrics(periods, duration)
        assert 0 <= m.sigma_sustained <= 1
        assert 0 <= m.eta_temporal <= 1
