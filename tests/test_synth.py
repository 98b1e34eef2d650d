from __future__ import annotations

import numpy as np
import pytest

from gazescore.ingest import GazeSample, SessionSet
from gazescore.pipeline import analyze_session
from gazescore.spatial import AOI_ORDER, OUTSIDE_CODE, QUADRANT_ORDER, AoiLabel, Quadrant
from gazescore.synth import (
    _FIXTURE_PLANS,
    MAX_PROFILE_ITEMS,
    N_OBJECTS,
    ProfileError,
    SynthProfile,
    _fixture_runs,
    check_student_id,
    generate_session,
    generate_table_fixture,
    write_session_set,
)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate_session(SynthProfile(seed=7, duration_ms=40_000))
        b = generate_session(SynthProfile(seed=7, duration_ms=40_000))
        assert a == b

    def test_different_seed_differs(self):
        a = generate_session(SynthProfile(seed=7, duration_ms=40_000))
        b = generate_session(SynthProfile(seed=8, duration_ms=40_000))
        assert a.samples != b.samples

    def test_fixture_deterministic(self):
        assert generate_table_fixture() == generate_table_fixture()


class TestGenerateSession:
    def test_single_embedded_sustained_period(self):
        profile = SynthProfile(
            seed=2,
            duration_ms=30_000,
            engagement_period_lengths_ms=(2600,),
            target_aoi_dwell_share=0.12,
        )
        analysis = analyze_session(generate_session(profile))
        assert analysis.temporal.period_count == 1
        assert analysis.temporal.sustained_count == 1
        assert analysis.periods[0].duration_ms == 2600

    def test_non_grid_period_length_survives_exactly(self):
        profile = SynthProfile(
            seed=3,
            duration_ms=30_000,
            engagement_period_lengths_ms=(2601, 455),
            target_aoi_dwell_share=0.15,
        )
        analysis = analyze_session(generate_session(profile))
        assert sorted(p.duration_ms for p in analysis.periods) == [455, 2601]

    def test_sf_and_share_tolerances(self):
        profile = SynthProfile(seed=4, duration_ms=90_000, target_sf_pct=55.0,
                               target_aoi_dwell_share=0.3)
        analysis = analyze_session(generate_session(profile))
        assert analysis.features.sf_pct == pytest.approx(55.0, abs=3.0)
        assert analysis.features.aoi_time_share_pct == pytest.approx(30.0, abs=3.0)

    def test_event_tallies(self):
        profile = SynthProfile(seed=5, duration_ms=40_000, n_clicks=10, n_answers=20,
                               answer_accuracy=0.95)
        session = generate_session(profile)
        clicks = [e for e in session.events if e.kind == "mouse_click"]
        answers = [e for e in session.events if e.kind == "answer"]
        assert len(clicks) == 10 and sum(e.correct for e in clicks) == 8
        assert len(answers) == 20 and sum(e.correct for e in answers) == 19

    def test_placement_floor(self):
        """The default profile's runs place 2 objects, and the top-up adds
        2 more, one 16 ms step apart, just before the last sample."""
        session = generate_session(SynthProfile())
        assert len(session.placements) == N_OBJECTS == 4
        last = int(session.samples.t_ms[-1])
        assert [p.t_ms for p in session.placements[2:]] == [last - 31, last - 15]

    def test_closure_across_seeds(self):
        for seed in range(100):
            profile = SynthProfile(
                seed=seed,
                duration_ms=30_000,
                target_sf_pct=50 + (seed % 30),
                target_aoi_dwell_share=0.15 + (seed % 5) / 50,
                engagement_period_lengths_ms=(2600, 900, 455),
            )
            analysis = analyze_session(generate_session(profile))
            assert analysis.features.sf_pct == pytest.approx(profile.target_sf_pct, abs=3.0)
            assert analysis.features.aoi_time_share_pct == pytest.approx(
                100 * profile.target_aoi_dwell_share, abs=3.0
            )
            assert sorted(p.duration_ms for p in analysis.periods) == [455, 900, 2600]
            assert analysis.temporal.sustained_count == 1


def test_synth_builds_no_gaze_sample(monkeypatch):
    """The fixture and a profile session are built as columns."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a GazeSample was built")

    monkeypatch.setattr(GazeSample, "__init__", refuse)
    assert len(generate_table_fixture()) == 3
    assert len(generate_session(SynthProfile()).samples) == 3751


class TestProfileErrors:
    def test_period_exceeding_duration(self):
        with pytest.raises(ProfileError):
            generate_session(
                SynthProfile(seed=0, duration_ms=5000,
                             engagement_period_lengths_ms=(6000,),
                             target_aoi_dwell_share=1.0)
            )

    def test_periods_beyond_aoi_share(self):
        with pytest.raises(ProfileError, match="AoI dwell"):
            generate_session(
                SynthProfile(seed=0, duration_ms=60_000,
                             engagement_period_lengths_ms=(20_000, 20_000),
                             target_aoi_dwell_share=0.1)
            )

    def test_sub_threshold_period(self):
        with pytest.raises(ProfileError, match="400"):
            generate_session(SynthProfile(engagement_period_lengths_ms=(399,)))

    def test_work_at_the_limits_is_accepted(self):
        SynthProfile(duration_ms=MAX_PROFILE_ITEMS * 16, n_clicks=MAX_PROFILE_ITEMS, n_answers=0)

    def test_bad_probability(self):
        with pytest.raises(ProfileError):
            SynthProfile(click_accuracy=1.5)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"target_sf_pct": 101.0}, "target_sf_pct"),
            ({"target_aoi_dwell_share": 1.5}, "target_aoi_dwell_share"),
            ({"answer_accuracy": 1.5}, "event accuracy"),
            ({"engagement_period_lengths_ms": (3000, 0)}, "period lengths must be positive"),
            ({"duration_ms": 10**30}, "at most"),
            ({"duration_ms": 10**30, "sample_interval_ms": 10**28}, "at most"),
            ({"duration_ms": (MAX_PROFILE_ITEMS + 1) * 16}, "at most"),
            ({"n_clicks": 10**9}, "at most"),
            ({"n_clicks": MAX_PROFILE_ITEMS, "n_answers": 1}, "at most"),
        ],
    )
    def test_out_of_range_fields(self, kwargs, match):
        with pytest.raises(ProfileError, match=match):
            SynthProfile(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"duration_ms": 300}, "session too short"),
            ({"target_sf_pct": 5.0}, "stimulus block too small"),
        ],
    )
    def test_infeasible_layout(self, kwargs, match):
        with pytest.raises(ProfileError, match=match):
            generate_session(SynthProfile(**kwargs))

    def test_bad_level(self):
        with pytest.raises(ProfileError):
            SynthProfile(level=4)

    def test_negative_duration(self):
        with pytest.raises(ProfileError):
            SynthProfile(duration_ms=-1)


@pytest.fixture(scope="module")
def analyses():
    fixture = generate_table_fixture()
    return {
        session.level: analyze_session(session)
        for session in fixture.for_student("S10")
    }


class TestTableFixture:
    def test_transition_totals(self, analyses):
        assert analyses[1].aggregates.total == 105
        assert analyses[2].aggregates.total == 107
        assert analyses[3].aggregates.total == 92

    def test_aoi_focus_shares(self, analyses):
        assert analyses[1].features.focus_aoi_pct == pytest.approx(40.9, abs=0.2)
        assert analyses[2].features.focus_aoi_pct == pytest.approx(29.6, abs=0.2)
        assert analyses[3].features.focus_aoi_pct == pytest.approx(16.0, abs=0.2)

    def test_event_accuracies(self, analyses):
        assert analyses[1].game.accuracy_pct == pytest.approx(94.4, abs=0.05)
        assert analyses[2].game.accuracy_pct == pytest.approx(97.8, abs=0.05)
        assert analyses[3].game.accuracy_pct == pytest.approx(87.2, abs=0.05)

    def test_level_three_temporal_impact(self, analyses):
        assert analyses[3].breakdown.temporal_impact == pytest.approx(-1.1, abs=1e-9)

    def test_final_scores_near_published(self, analyses):
        published = {1: 99.7, 2: 99.0, 3: 98.9}
        for level, expected in published.items():
            assert analyses[level].breakdown.final_score == pytest.approx(expected, abs=5.0)

    def test_score_ranks_match_published_order(self, analyses):
        scores = [analyses[level].breakdown.final_score for level in (1, 2, 3)]
        assert scores[0] < scores[2] < scores[1]

    def test_no_constraint_violations(self, analyses):
        for analysis in analyses.values():
            assert analysis.violations == ()


@pytest.mark.parametrize("plan", _FIXTURE_PLANS, ids=lambda plan: f"level{plan.level}")
def test_fixture_plan_closes(plan):
    """The planned runs fit the plan's visit budgets and, as per-sample int8
    codes, give exactly its sample, stimulus-gap, transition, AoI-switch and
    AoI-sample counts."""
    runs = _fixture_runs(plan)  # a stimulus visit over budget raises ProfileError
    # The first non-stimulus visit opens with the Q1 block that takes up its
    # spare samples. A plan over budget leaves it below one sample.
    first_q1 = next(run for run in runs if run.where is Quadrant.Q1)
    assert first_q1.n >= 1, f"fixture level {plan.level}: non-stimulus visit over budget"
    # Filler lies in its quadrant; the left object in Q3, the right one in Q4.
    home = {AoiLabel.LEFT: Quadrant.Q3, AoiLabel.RIGHT: Quadrant.Q4}
    labels = [
        (QUADRANT_ORDER.index(run.where), AOI_ORDER.index(AoiLabel.OUTSIDE))
        if isinstance(run.where, Quadrant)
        else (QUADRANT_ORDER.index(home[run.where]), AOI_ORDER.index(run.where))
        for run in runs
    ]
    counts = [run.sample_count(plan.dt) for run in runs]
    quadrants, sides = np.repeat(np.array(labels, dtype=np.int8).reshape(-1, 2), counts, axis=0).T
    n = len(quadrants)
    assert n == plan.pairs + 1, (
        f"fixture level {plan.level}: {n} samples, wanted {plan.pairs + 1}"
    )
    stimulus = np.array([q in (Quadrant.Q3, Quadrant.Q4) for q in QUADRANT_ORDER])
    sq = int(np.count_nonzero(stimulus[quadrants[:-1]]))
    assert sq == plan.sq_gaps, (
        f"fixture level {plan.level}: {sq} stimulus gaps, wanted {plan.sq_gaps}"
    )
    cross = int(np.count_nonzero(quadrants[1:] != quadrants[:-1]))
    expected = 2 * plan.group_switches + plan.nn + plan.ss
    assert cross == expected, (
        f"fixture level {plan.level}: {cross} transitions, wanted {expected}"
    )
    inside = sides != OUTSIDE_CODE
    switches = int(np.count_nonzero(inside[1:] & inside[:-1] & (sides[1:] != sides[:-1])))
    assert switches == plan.n_pairs, (
        f"fixture level {plan.level}: {switches} AoI switches, wanted {plan.n_pairs}"
    )
    aoi = int(np.count_nonzero(inside))
    expected_aoi = sum((*plan.periods, *plan.singles)) + 2 * plan.n_pairs
    assert aoi == expected_aoi, (
        f"fixture level {plan.level}: {aoi} AoI samples, wanted {expected_aoi}"
    )


@pytest.mark.parametrize("student", ["../x", "a/b", "..", ".", "", "a\x00b"])
def test_write_session_set_refuses_an_id_outside_its_directory(tmp_path, student):
    session = generate_session(SynthProfile(student_id=student))
    with pytest.raises(ValueError, match="student id must name a file"):
        write_session_set(SessionSet({(student, session.level): session}), tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("student", ["S10", "x..y", ".x", "a b"])
def test_check_student_id_takes_a_file_name(student):
    assert check_student_id(student) == student
