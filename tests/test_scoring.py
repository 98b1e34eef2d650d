from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, strategies as st

from gazescore.engagement import TemporalMetrics
from gazescore.scoring import (
    ConfigError,
    LevelFeatures,
    ScoreBreakdown,
    ScoringConfig,
    base_score,
    bonus_aoi,
    bonus_duration,
    bonus_sustained,
    check_constraints,
    final_score,
    level_bonus,
    penalty_excess,
    psi_focus,
    temporal_impact,
    temporal_multiplier,
)

TOL = 1e-9


def metrics(
    eta=0.0, mu_ms=0.0, sigma=0.0, periods=0, sustained=0, duration=100_000
) -> TemporalMetrics:
    return TemporalMetrics(
        eta_temporal=eta,
        mu_engagement_ms=mu_ms,
        sigma_sustained=sigma,
        period_count=periods,
        sustained_count=sustained,
        session_duration_ms=duration,
    )


def features(
    level=1,
    nsq_to_sq=0,
    sq_to_nsq=0,
    focus_aoi_pct=0.0,
    interactions=0,
    aoi_transitions=0,
    aoi_switches=0,
    aoi_efficiency=0.0,
    sf_pct=0.0,
    temporal=None,
    aoi_time_share_pct=None,
) -> LevelFeatures:
    return LevelFeatures(
        level=level,
        nsq_to_sq=nsq_to_sq,
        sq_to_nsq=sq_to_nsq,
        focus_aoi_pct=focus_aoi_pct,
        interactions=interactions,
        aoi_transitions=aoi_transitions,
        aoi_switches=aoi_switches,
        aoi_efficiency=aoi_efficiency,
        sf_pct=sf_pct,
        temporal=temporal or metrics(),
        aoi_time_share_pct=aoi_time_share_pct,
    )


class TestConfig:
    def test_defaults_valid(self):
        config = ScoringConfig()
        assert config.alpha1 == 3.0 and config.alpha2 == 1.5
        assert config.max_impact[2] == 15.0

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ConfigError):
            ScoringConfig(tau_min_ms=3000, tau_sustained_ms=2500)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ScoringConfig.from_dict({"alpha_one": 2})

    def test_scalar_max_impact_broadcast(self):
        config = ScoringConfig.from_dict({"max_impact": 12})
        assert config.max_impact == {1: 12.0, 2: 12.0, 3: 12.0}

    def test_per_level_max_impact(self):
        config = ScoringConfig.from_dict({"max_impact": {"1": 5, "2": 10, "3": 20}})
        assert config.max_impact[3] == 20.0

    @pytest.mark.parametrize(
        "key", ["01", " 2", "3 ", "4", "+1", "1.0", 0, 4, 1.0, True, None], ids=repr
    )
    def test_max_impact_key_must_name_a_level(self, key):
        """Only 1, 2 and 3 or exactly "1", "2" and "3" name a level: no other
        key may set a level's cap or be kept."""
        given = {"1": 15, "2": 15, "3": 15, key: 3}
        with pytest.raises(ConfigError, match=re.escape(f"max_impact key {key!r} must name level")):
            ScoringConfig.from_dict({"max_impact": given})

    def test_max_impact_names_each_level_once(self):
        with pytest.raises(ConfigError, match="max_impact key '1' must name level 1, 2 or 3 once"):
            ScoringConfig(max_impact={1: 15.0, 2: 15.0, 3: 15.0, "1": 3.0})
        config = ScoringConfig(max_impact={1: 5, "2": 10, 3: 20})
        assert config.max_impact == {1: 5.0, 2: 10.0, 3: 20.0}

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"gamma": 5.0, "eta_source": "aoi_dwell"}))
        config = ScoringConfig.from_file(path)
        assert config.gamma == 5.0 and config.eta_source == "aoi_dwell"

    @pytest.mark.parametrize(
        "content",
        [b'{"gamma": 1', b"[1, 2]", b'{"tau_min_ms": "abc"}', b'{"max_impact": "x"}',
         b"\xff\xfe"],
    )
    def test_from_file_malformed_is_config_error(self, tmp_path, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError):
            ScoringConfig.from_file(path)

    def test_from_file_missing_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ScoringConfig.from_file(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"tau_min_ms": 0}, "tau_min_ms must be positive"),
            ({"gap_tolerance_ms": -1}, "gap_tolerance_ms must be >= 0"),
            ({"excess_period_threshold": -1}, "excess_period_threshold must be >= 0"),
            ({"calibration_good": 20.0}, "calibration thresholds must increase"),
            ({"developing_min": 85.0}, "performance thresholds"),
            ({"max_impact": {1: 15.0, 2: 15.0}}, r"max_impact missing levels \[3\]"),
        ],
    )
    def test_out_of_range_values_rejected(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            ScoringConfig(**kwargs)

    def test_bad_eta_source(self):
        with pytest.raises(ConfigError):
            ScoringConfig(eta_source="nope")

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            ScoringConfig(alpha1=-1)

    @pytest.mark.parametrize(
        "name",
        ["alpha1", "alpha2", "gamma", "delta", "tau_min_ms", "tau_sustained_ms",
         "gap_tolerance_ms", "excess_period_threshold", "max_impact",
         "calibration_excellent", "calibration_good", "calibration_fair",
         "mastery_min", "developing_min"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            ScoringConfig.from_dict({name: value})

    def test_non_finite_per_level_max_impact_rejected(self):
        with pytest.raises(ConfigError, match="max_impact"):
            ScoringConfig.from_dict({"max_impact": {"1": 5, "2": float("inf"), "3": 20}})

    @pytest.mark.parametrize(
        "name", ["tau_min_ms", "tau_sustained_ms", "gap_tolerance_ms", "excess_period_threshold"]
    )
    def test_fractional_integer_fields_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            ScoringConfig.from_dict({name: 400.5})

    def test_whole_float_integer_fields_accepted(self):
        config = ScoringConfig.from_dict({"tau_min_ms": 300.0, "gap_tolerance_ms": 120.0})
        assert config.tau_min_ms == 300 and config.gap_tolerance_ms == 120

    @pytest.mark.parametrize(
        "name",
        ["alpha1", "alpha2", "gamma", "delta", "tau_min_ms", "tau_sustained_ms",
         "gap_tolerance_ms", "excess_period_threshold", "max_impact",
         "calibration_excellent", "calibration_good", "calibration_fair",
         "mastery_min", "developing_min"],
    )
    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_rejected_for_numbers(self, name, value):
        with pytest.raises(ConfigError, match=name):
            ScoringConfig.from_dict({name: value})

    def test_boolean_per_level_max_impact_rejected(self):
        with pytest.raises(ConfigError, match="max_impact"):
            ScoringConfig.from_dict({"max_impact": {"1": 5, "2": True, "3": 20}})

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_switch_accepts_only_booleans(self, value):
        with pytest.raises(ConfigError, match="aoi_total_changes_only"):
            ScoringConfig.from_dict({"aoi_total_changes_only": value})

    def test_from_file_rejects_booleans(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"tau_min_ms": true, "alpha1": false}')
        with pytest.raises(ConfigError, match="boolean"):
            ScoringConfig.from_file(path)

    @pytest.mark.parametrize(
        "text",
        ['{"max_impact": Infinity}', '{"excess_period_threshold": NaN}',
         '{"tau_min_ms": 400.5}', '{"gap_tolerance_ms": 1e400}'],
    )
    def test_from_file_rejects_non_finite_and_fractional(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            ScoringConfig.from_file(path)


class TestLevelBonus:
    def test_level_one_worked_example(self):
        f = features(level=1, focus_aoi_pct=40.9, interactions=111)
        assert level_bonus(f) == pytest.approx(63.68, abs=TOL)

    def test_level_three_zero(self):
        assert level_bonus(features(level=3)) == 0.0

    def test_level_two_worked_example(self):
        f = features(level=2, focus_aoi_pct=20, aoi_transitions=10)
        assert level_bonus(f) == pytest.approx(23.0, abs=TOL)


class TestPsiFocus:
    def test_level_one_threshold_boundary(self):
        assert psi_focus(25.0, 1) == 0.0

    def test_level_two_band_bonus(self):
        assert psi_focus(60.0, 2) == pytest.approx(19.5, abs=TOL)

    def test_level_three_high_bonus(self):
        assert psi_focus(70.0, 3) == pytest.approx(25.0, abs=TOL)

    def test_band_edges_are_strict(self):
        assert psi_focus(50.0, 2) == pytest.approx((50 - 40) * 0.6, abs=TOL)
        assert psi_focus(75.0, 2) == pytest.approx((75 - 40) * 0.6, abs=TOL)
        assert psi_focus(65.0, 3) == pytest.approx((65 - 50) * 0.75, abs=TOL)

    def test_level_two_jump_size(self):
        eps = 1e-9
        jump = psi_focus(50 + eps, 2) - psi_focus(50 - eps, 2)
        assert jump == pytest.approx(7.5, abs=1e-6)

    def test_level_three_jump_size(self):
        eps = 1e-9
        jump = psi_focus(65 + eps, 3) - psi_focus(65 - eps, 3)
        assert jump == pytest.approx(10.0, abs=1e-6)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            psi_focus(50, 4)

    @given(
        lo=st.floats(0, 100, allow_nan=False),
        hi=st.floats(0, 100, allow_nan=False),
        level=st.sampled_from([1, 2, 3]),
    )
    def test_monotone_within_continuous_segments(self, lo, hi, level):
        if lo > hi:
            lo, hi = hi, lo
        breaks = {2: (50, 75), 3: (65,)}.get(level, ())
        if any(lo < b <= hi or lo <= b < hi for b in breaks):
            return
        assert psi_focus(hi, level) >= psi_focus(lo, level) - TOL


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"level": 4}, "level must be in"),
        ({"aoi_switches": -1}, "aoi_switches must be >= 0"),
        ({"focus_aoi_pct": 101.0}, r"focus_aoi_pct must lie in \[0, 100\]"),
    ],
)
def test_level_features_reject_bad_fields(kwargs, match):
    with pytest.raises(ValueError, match=match):
        features(**kwargs)


class TestBaseScore:
    def test_worked_composition(self):
        f = features(
            level=1,
            nsq_to_sq=10,
            sq_to_nsq=4,
            focus_aoi_pct=40.9,
            interactions=111,
            aoi_efficiency=0.2,
            sf_pct=70.7,
        )
        assert base_score(f) == pytest.approx(107.96, abs=TOL)

    def test_all_zero(self):
        assert base_score(features()) == 0.0

    def test_linearity_in_transitions(self):
        f = features(level=2, nsq_to_sq=5, sq_to_nsq=3, sf_pct=45)
        up = features(level=2, nsq_to_sq=6, sq_to_nsq=3, sf_pct=45)
        away = features(level=2, nsq_to_sq=5, sq_to_nsq=4, sf_pct=45)
        assert base_score(up) - base_score(f) == pytest.approx(3.0, abs=TOL)
        assert base_score(away) - base_score(f) == pytest.approx(-1.5, abs=TOL)


class TestBonuses:
    def test_engagement_bonus_cases(self):
        assert bonus_aoi(0.5) == pytest.approx(3.0, abs=TOL)
        assert bonus_aoi(0.05) == pytest.approx(-1.0, abs=TOL)
        assert bonus_aoi(0.2) == 0.0

    def test_engagement_bonus_edges_and_caps(self):
        assert bonus_aoi(0.3) == 0.0
        assert bonus_aoi(0.1) == 0.0
        assert bonus_aoi(1.0) == 6.0
        assert bonus_aoi(0.0) == -2.0

    def test_sustained_bonus(self):
        assert bonus_sustained(0) == 0.0
        assert bonus_sustained(2) == pytest.approx(3.0, abs=TOL)
        assert bonus_sustained(5) == 4.0

    def test_duration_bonus(self):
        assert bonus_duration(10.0) == pytest.approx(0.4, abs=TOL)
        assert bonus_duration(1.0) == pytest.approx(-1.6, abs=TOL)
        assert bonus_duration(5.0) == 0.0

    def test_duration_bonus_caps(self):
        assert bonus_duration(100.0) == 3.0
        assert bonus_duration(0.0) == pytest.approx(-2.4, abs=TOL)
        assert bonus_duration(-5.0) == -3.0

    def test_excess_penalty(self):
        assert penalty_excess(8) == 0.0
        assert penalty_excess(10) == pytest.approx(1.2, abs=TOL)
        assert penalty_excess(20) == 4.0


class TestTemporalImpact:
    def test_all_dead_zones(self):
        f = features(
            level=1,
            sf_pct=20,
            temporal=metrics(eta=0.2, mu_ms=5000, periods=4, sustained=0),
        )
        assert temporal_impact(f) == 0.0

    def test_clamped_to_cap(self):
        f = features(
            level=3,
            sf_pct=70,
            temporal=metrics(eta=0.5, mu_ms=10_000, periods=6, sustained=3),
        )
        # 3 + 25 + 4 + 0.4 - 0 = 32.4 before the cap
        assert temporal_impact(f) == 15.0

    def test_negative_impact_composition(self):
        f = features(
            level=3,
            sf_pct=54.0,
            temporal=metrics(eta=0.13125, mu_ms=875, periods=12, sustained=0),
        )
        assert temporal_impact(f) == pytest.approx(-1.1, abs=TOL)

    def test_eta_source_switch(self):
        f = features(
            level=1,
            sf_pct=0,
            temporal=metrics(eta=0.05, mu_ms=5000),
            aoi_time_share_pct=50.0,
        )
        default = temporal_impact(f)
        dwell = temporal_impact(f, ScoringConfig(eta_source="aoi_dwell"))
        assert default == pytest.approx(-1.0, abs=TOL)   # eta 0.05 deduction
        assert dwell == pytest.approx(3.0, abs=TOL)      # share 0.5 reward

    def test_eta_source_requires_share(self):
        f = features(level=1, temporal=metrics(eta=0.2))
        with pytest.raises(ValueError):
            temporal_impact(f, ScoringConfig(eta_source="aoi_dwell"))


class TestMultiplier:
    @pytest.mark.parametrize(
        "s_base,expected",
        [(40, 1.0), (49.999, 1.0), (50, 0.9), (69.999, 0.9), (70, 0.7),
         (84.999, 0.7), (85, 0.4), (200, 0.4), (-10, 1.0)],
    )
    def test_branch_table(self, s_base, expected):
        assert temporal_multiplier(s_base) == expected

    @given(a=st.floats(-50, 200, allow_nan=False), b=st.floats(-50, 200, allow_nan=False))
    def test_non_increasing(self, a, b):
        if a > b:
            a, b = b, a
        assert temporal_multiplier(a) >= temporal_multiplier(b)


class TestFinalScore:
    def test_upper_clamp_composition(self):
        f = features(
            level=1,
            nsq_to_sq=10,
            sq_to_nsq=4,
            focus_aoi_pct=40.9,
            interactions=111,
            aoi_efficiency=0.2,
            sf_pct=70.7,
            temporal=metrics(eta=0.5, mu_ms=10_000, periods=6, sustained=3),
        )
        breakdown = final_score(f)
        assert breakdown.base_score == pytest.approx(107.96, abs=TOL)
        assert breakdown.temporal_impact == 15.0
        assert breakdown.multiplier == 0.4
        assert breakdown.final_score == 100.0

    def test_lower_clamp(self):
        f = features(level=1, sq_to_nsq=20, sf_pct=20, temporal=metrics(eta=0.2, mu_ms=5000))
        breakdown = final_score(f)
        assert breakdown.base_score == -30.0
        assert breakdown.temporal_impact == 0.0
        assert breakdown.final_score == 0.0

    def test_pure_function(self):
        f = features(level=2, nsq_to_sq=7, sf_pct=55, temporal=metrics(eta=0.25, periods=3))
        assert final_score(f) == final_score(f)


feature_strategy = st.builds(
    features,
    level=st.sampled_from([1, 2, 3]),
    nsq_to_sq=st.integers(0, 200),
    sq_to_nsq=st.integers(0, 200),
    focus_aoi_pct=st.floats(0, 100, allow_nan=False),
    interactions=st.integers(0, 300),
    aoi_transitions=st.integers(0, 20_000),
    aoi_switches=st.integers(0, 500),
    aoi_efficiency=st.floats(0, 1, allow_nan=False),
    sf_pct=st.floats(0, 100, allow_nan=False),
    temporal=st.builds(
        metrics,
        eta=st.floats(0, 1, allow_nan=False),
        mu_ms=st.floats(0, 60_000, allow_nan=False),
        periods=st.integers(0, 60),
        sustained=st.integers(0, 30),
    ),
)


class TestProperties:
    @given(f=feature_strategy)
    def test_final_score_bounded(self, f):
        breakdown = final_score(f)
        assert 0.0 <= breakdown.final_score <= 100.0
        assert abs(breakdown.temporal_impact) <= 15.0 + TOL

    @given(f=feature_strategy)
    def test_bonus_caps(self, f):
        b = final_score(f)
        assert b.engagement_bonus <= 6.0 + TOL
        assert -4.0 - TOL <= b.engagement_bonus
        assert 0.0 <= b.sustained_bonus <= 4.0 + TOL
        assert -3.0 - TOL <= b.duration_bonus <= 3.0 + TOL
        assert 0.0 <= b.excess_penalty <= 4.0 + TOL

    @given(f=feature_strategy)
    def test_constraints_hold_for_produced_breakdowns(self, f):
        assert check_constraints(final_score(f)) == []


class TestCheckConstraints:
    def test_hand_built_violation(self):
        bad = ScoreBreakdown(
            level=1,
            base_score=120,
            level_bonus=0,
            focus_score=0,
            engagement_bonus=0,
            sustained_bonus=0,
            duration_bonus=0,
            excess_penalty=0,
            temporal_impact=0,
            multiplier=0.4,
            final_score=120,
        )
        violations = check_constraints(bad)
        assert len(violations) == 1 and "final score" in violations[0]

    def test_dwell_share_sum_violation(self):
        breakdown = final_score(features())
        assert check_constraints(breakdown, 1.0) == check_constraints(breakdown, None) == []
        violations = check_constraints(breakdown, 0.5)
        assert violations == ["quadrant dwell shares sum to 0.5, expected 1"]

    def test_impact_cap_violation(self):
        bad = ScoreBreakdown(
            level=2,
            base_score=50,
            level_bonus=0,
            focus_score=0,
            engagement_bonus=0,
            sustained_bonus=0,
            duration_bonus=0,
            excess_penalty=0,
            temporal_impact=22,
            multiplier=0.9,
            final_score=69.8,
        )
        assert any("temporal impact" in v for v in check_constraints(bad))
