from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gazescore.ingest import GazeSample
from gazescore.spatial import (
    LEFT_CODE, OUTSIDE_CODE, RIGHT_CODE, AoiLabel, Quadrant, classify_session,
)
from gazescore.synth import generate_table_fixture
from gazescore.transitions import (
    aggregate_transitions,
    aoi_metrics,
    aoi_sample_share_pct,
    aoi_time_share_pct,
    build_aoi_matrix,
    build_quadrant_matrix,
    dwell_summary,
)

Q1, Q2, Q3, Q4 = Quadrant.Q1, Quadrant.Q2, Quadrant.Q3, Quadrant.Q4   # counts index 0..3
L, R, OUT = AoiLabel.LEFT, AoiLabel.RIGHT, AoiLabel.OUTSIDE

quadrant_lists = st.lists(st.sampled_from(list(Quadrant)), max_size=120)
aoi_lists = st.lists(st.sampled_from(list(AoiLabel)), max_size=120)


class TestQuadrantMatrix:
    def test_hand_enumerated_pairs(self):
        m = build_quadrant_matrix([Q1, Q3, Q3, Q4, Q2])
        assert m.counts[0, 2] == 1
        assert m.counts[2, 2] == 1
        assert m.counts[2, 3] == 1
        assert m.counts[3, 1] == 1
        assert m.counts.sum() == 4

    def test_singleton_is_zero(self):
        assert build_quadrant_matrix([Q2]).counts.sum() == 0

    def test_diagonal_only(self):
        m = build_quadrant_matrix([Q1, Q1, Q1])
        assert m.counts[0, 0] == 2
        assert m.counts.sum() == 2

    @given(labels=quadrant_lists)
    def test_mass_is_n_minus_one(self, labels):
        m = build_quadrant_matrix(labels)
        assert m.counts.sum() == max(0, len(labels) - 1)

    @given(labels=quadrant_lists)
    def test_reversal_transposes(self, labels):
        m = build_quadrant_matrix(labels)
        m_rev = build_quadrant_matrix(labels[::-1])
        assert np.array_equal(m_rev.counts, m.counts.T)


class TestAggregates:
    def test_hand_enumeration(self):
        agg = aggregate_transitions(build_quadrant_matrix([Q1, Q3, Q3, Q4, Q2]))
        assert agg.nsq_to_sq == 1
        assert agg.sq_to_sq == 1
        assert agg.sq_to_nsq == 1
        assert agg.nsq_to_nsq == 0
        assert agg.total == 3

    def test_zero_matrix(self):
        agg = aggregate_transitions(build_quadrant_matrix([]))
        assert (agg.nsq_to_sq, agg.sq_to_nsq, agg.nsq_to_nsq, agg.sq_to_sq, agg.total) == (
            0, 0, 0, 0, 0,
        )

    @given(labels=quadrant_lists)
    def test_total_matches_pair_enumeration_oracle(self, labels):
        agg = aggregate_transitions(build_quadrant_matrix(labels))
        cross = sum(1 for a, b in zip(labels, labels[1:]) if a is not b)
        assert agg.total == cross
        assert agg.total == agg.nsq_to_sq + agg.sq_to_nsq + agg.nsq_to_nsq + agg.sq_to_sq

    @given(labels=quadrant_lists)
    def test_group_counts_against_oracle(self, labels):
        agg = aggregate_transitions(build_quadrant_matrix(labels))
        nsq = (Q1, Q2)
        pairs = list(zip(labels, labels[1:]))
        assert agg.nsq_to_sq == sum(1 for a, b in pairs if a in nsq and b not in nsq)
        assert agg.sq_to_nsq == sum(1 for a, b in pairs if a not in nsq and b in nsq)
        assert agg.nsq_to_nsq == sum(
            1 for a, b in pairs if a in nsq and b in nsq and a is not b
        )


class TestAoiMatrix:
    def test_hand_enumeration(self):
        m = build_aoi_matrix([L, L, R, OUT])
        assert m.counts[LEFT_CODE, LEFT_CODE] == 1
        assert m.counts[LEFT_CODE, RIGHT_CODE] == 1
        assert m.counts[RIGHT_CODE, OUTSIDE_CODE] == 1

    def test_constant_outside(self):
        m = build_aoi_matrix([OUT] * 7)
        assert m.counts[OUTSIDE_CODE, OUTSIDE_CODE] == 6 and m.counts.sum() == 6

    def test_empty(self):
        assert build_aoi_matrix([]).counts.sum() == 0


class TestAoiMetrics:
    def test_asymmetric_switches(self):
        m = build_aoi_matrix([L, R, L, R])
        stats = aoi_metrics(m)
        assert stats.left_right_transitions == 3
        assert stats.fixations_left == 2
        assert stats.fixations_right == 1
        assert stats.balance == pytest.approx(1 / 3)
        assert stats.efficiency == pytest.approx(1.0)

    def test_zero_matrix_guards(self):
        stats = aoi_metrics(build_aoi_matrix([]))
        assert stats.left_right_transitions == 0
        assert stats.balance == 0
        assert stats.efficiency == 0

    def test_symmetric_with_outside_dwell(self):
        labels = [L, R] * 5 + [R] + [OUT] * 11
        m = build_aoi_matrix(labels)
        assert m.counts[LEFT_CODE, RIGHT_CODE] == 5 and m.counts[RIGHT_CODE, LEFT_CODE] == 4
        stats = aoi_metrics(m)
        assert stats.left_right_transitions == 9

    def test_changes_only_denominator(self):
        labels = [L, L, L, R, OUT, OUT]
        full = aoi_metrics(build_aoi_matrix(labels))
        changed = aoi_metrics(build_aoi_matrix(labels), changes_only=True)
        assert full.aoi_total == 5
        assert changed.aoi_total == 2  # L->R and R->OUT
        assert changed.efficiency == pytest.approx(1 / 2)

    @given(labels=aoi_lists)
    def test_bounds(self, labels):
        stats = aoi_metrics(build_aoi_matrix(labels))
        assert 0 <= stats.balance <= 1
        assert 0 <= stats.efficiency <= 1


def _samples(times):
    return [GazeSample(t, 1.0, 1.0) for t in times]


class TestDwellSummary:
    def test_published_stage_one_dwells(self):
        # Dwell blocks of 28586/29096/49690/89547 ms in Q1..Q4.
        times = [0, 28586, 57682, 107372, 196919]
        labels = [Q1, Q2, Q3, Q4, Q1]
        dwell = dwell_summary(_samples(times), labels)
        assert dwell.time_in_quadrant[Q1] == 28586
        assert dwell.time_in_quadrant[Q4] == 89547
        assert dwell.session_duration_ms == 196919
        assert dwell.stimuli_focus_pct == pytest.approx(70.7, abs=0.05)

    def test_all_stimulus(self):
        dwell = dwell_summary(_samples([0, 10, 20]), [Q3, Q3, Q3])
        assert dwell.stimuli_focus_pct == 100.0

    def test_equal_split(self):
        dwell = dwell_summary(_samples([0, 10, 20, 30, 40]), [Q1, Q2, Q3, Q4, Q1])
        assert dwell.stimuli_focus_pct == 50.0

    def test_fewer_than_two_samples(self):
        dwell = dwell_summary(_samples([5]), [Q1])
        assert dwell.session_duration_ms == 0
        assert dwell.stimuli_focus_pct == 0.0
        assert all(v == 0 for v in dwell.time_in_quadrant.values())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dwell_summary(_samples([0, 1]), [Q1])

    @given(
        gaps=st.lists(st.integers(0, 500), min_size=1, max_size=60),
        seed=st.integers(0, 2**31),
    )
    def test_conservation_exact(self, gaps, seed):
        rng = np.random.default_rng(seed)
        times = np.cumsum([0] + gaps).tolist()
        labels = [Quadrant(f"Q{rng.integers(1, 5)}") for _ in times]
        dwell = dwell_summary(_samples(times), labels)
        assert sum(dwell.time_in_quadrant.values()) == dwell.session_duration_ms


class TestShares:
    def test_sample_share(self):
        assert aoi_sample_share_pct([L, OUT, R, OUT]) == 50.0
        assert aoi_sample_share_pct([]) == 0.0

    def test_time_share_attribution(self):
        samples = _samples([0, 100, 300, 600])
        labels = [L, OUT, R, OUT]
        # gaps: 100 (L), 200 (OUT), 300 (R) -> 400/600 inside
        assert aoi_time_share_pct(samples, labels) == pytest.approx(100 * 400 / 600)

    def test_time_share_guards(self):
        assert aoi_time_share_pct(_samples([5]), [L]) == 0.0


def test_sample_columns_build_no_gaze_sample(monkeypatch):
    """A session's ``SampleColumns`` is read through its ``t_ms`` column."""
    session = generate_table_fixture().for_student("S10")[2]
    quadrants, aois = classify_session(session)
    t = session.samples.t_ms
    want = dwell_summary(t, quadrants), aoi_time_share_pct(t, aois)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a GazeSample was built")

    monkeypatch.setattr(GazeSample, "__init__", refuse)
    got = dwell_summary(session.samples, quadrants), aoi_time_share_pct(session.samples, aois)
    assert got == want
