"""Level-adaptive performance scoring.

The final score combines a transition-weighted base score with a bounded
temporal impact term scaled by a multiplier that shrinks as the base
score grows, then clamps to [0, 100].

All fixed constants of the model live in this module so the mapping from
formula to number stays auditable in one place:

    transition weights        alpha1 = 3 (toward stimuli), alpha2 = 1.5 (away)
    level bonus weights       level 1: 0.2 * focus_aoi + 0.5 * interactions
                              level 2: 0.25 * focus_aoi + 1.8 * aoi_transitions
                              level 3: 0.3 * focus_aoi + 2.5 * aoi_switches
    focus thresholds/weights  level 1: 25% / 0.4x
                              level 2: 40% / 0.6x, +7.5 inside (50%, 75%)
                              level 3: 50% / 0.75x, +10 above 65%
    engagement bonus          +0.15/pp above 30% (cap 6), -0.2/pp below 10% (cap 4)
    sustained bonus           1.5 per sustained period, cap 4
    duration bonus            +0.2/s above 8 s (cap 3), -0.8/s below 3 s (cap 3)
    excess penalty            0.6 per period beyond 8, cap 4
    multiplier breakpoints    1.0 / 0.9 / 0.7 / 0.4 at base 50 / 70 / 85
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .engagement import MIN_DURATION_MS, SUSTAINED_MS, TemporalMetrics
from .ingest import VALID_LEVELS
from .spatial import _adopt

FOCUS_THRESHOLD = {1: 25.0, 2: 40.0, 3: 50.0}
FOCUS_WEIGHT = {1: 0.4, 2: 0.6, 3: 0.75}
FOCUS_RANGE_BONUS = 7.5   # level 2, stimulus focus strictly inside (50, 75)
FOCUS_HIGH_BONUS = 10.0   # level 3, stimulus focus strictly above 65

LEVEL_FOCUS_WEIGHT = {1: 0.2, 2: 0.25, 3: 0.3}
LEVEL_FEATURE = {1: "interactions", 2: "aoi_transitions", 3: "aoi_switches"}
LEVEL_FEATURE_WEIGHT = {1: 0.5, 2: 1.8, 3: 2.5}

ETA_SOURCES = ("temporal", "aoi_dwell")
# The max_impact keys that name a level: the int or exactly its text ("01" names none).
_LEVEL_KEYS = {key: level for level in VALID_LEVELS for key in (level, str(level))}
EXCESS_PERIOD_THRESHOLD = 8   # engagement periods before the excess penalty starts


class ConfigError(ValueError):
    """Invalid scoring configuration."""


def _as_max_impact(value) -> Mapping[int, float]:
    given = value if isinstance(value, Mapping) else dict.fromkeys(VALID_LEVELS, value)
    # bool is an int subclass, but true/false is no bound.
    if any(isinstance(bound, bool) for bound in given.values()):
        raise ConfigError(f"max_impact must hold numbers, not booleans: {value!r}")
    mapping = {}
    for key, bound in given.items():
        level = _LEVEL_KEYS.get(key) if type(key) in (int, str) else None
        if level is None or level in mapping:
            raise ConfigError(f"max_impact key {key!r} must name level 1, 2 or 3 once")
        mapping[level] = float(bound)
    missing = [level for level in VALID_LEVELS if level not in mapping]
    if missing:
        raise ConfigError(f"max_impact missing levels {missing}")
    return MappingProxyType(mapping)


@dataclass(frozen=True)
class ScoringConfig:
    alpha1: float = 3.0
    alpha2: float = 1.5
    gamma: float = 10.0
    delta: float = 1.0
    tau_min_ms: int = MIN_DURATION_MS
    tau_sustained_ms: int = SUSTAINED_MS
    gap_tolerance_ms: int = 0
    excess_period_threshold: int = EXCESS_PERIOD_THRESHOLD
    max_impact: Mapping[int, float] = field(
        default_factory=lambda: _as_max_impact(15.0)
    )
    eta_source: str = "temporal"
    aoi_total_changes_only: bool = False
    calibration_excellent: float = 2.5
    calibration_good: float = 7.5
    calibration_fair: float = 15.0
    mastery_min: float = 85.0
    developing_min: float = 60.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_impact", _as_max_impact(self.max_impact))
        # Before any comparison: NaN passes every one of them.
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass: true/false must not pass as 1/0, nor
            # a string such as "false" as a switch.
            if f.type == "bool" and not isinstance(value, bool):
                raise ConfigError(f"{f.name} must be true or false, got {value!r}")
            if f.type != "bool" and isinstance(value, bool):
                raise ConfigError(f"{f.name} must not be a boolean, got {value}")
            if f.type in ("int", "float") and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if f.type == "int" and value != int(value):
                raise ConfigError(f"{f.name} must be a whole number, got {value}")
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ConfigError("transition weights must be >= 0")
        if self.tau_min_ms > self.tau_sustained_ms:
            raise ConfigError(
                f"tau_min_ms ({self.tau_min_ms}) must not exceed "
                f"tau_sustained_ms ({self.tau_sustained_ms})"
            )
        if self.tau_min_ms <= 0:
            raise ConfigError("tau_min_ms must be positive")
        if self.gap_tolerance_ms < 0:
            raise ConfigError("gap_tolerance_ms must be >= 0")
        if not all(0 < v < math.inf for v in self.max_impact.values()):
            raise ConfigError("max_impact values must be positive and finite")
        if self.excess_period_threshold < 0:
            raise ConfigError("excess_period_threshold must be >= 0")
        if self.eta_source not in ETA_SOURCES:
            raise ConfigError(f"eta_source must be one of {ETA_SOURCES}")
        if not (0 < self.calibration_excellent < self.calibration_good < self.calibration_fair):
            raise ConfigError("calibration thresholds must increase: excellent < good < fair")
        if not (0 <= self.developing_min < self.mastery_min):
            raise ConfigError("performance thresholds must satisfy 0 <= developing < mastery")

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScoringConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        try:
            return cls(**data)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "ScoringConfig":
        return cls.from_dict(read_config_json(path))


def read_config_json(path: str | Path) -> dict:
    """The JSON object in a config file; any failure is a ConfigError."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


@dataclass(frozen=True)
class LevelFeatures:
    """Per-level inputs to the scorer, extracted from one analyzed session."""

    level: int
    nsq_to_sq: int
    sq_to_nsq: int
    focus_aoi_pct: float
    interactions: int
    aoi_transitions: int
    aoi_switches: int
    aoi_efficiency: float
    sf_pct: float
    temporal: TemporalMetrics
    aoi_time_share_pct: float | None = None

    def __post_init__(self) -> None:
        if self.level not in VALID_LEVELS:
            raise ValueError(f"level must be in {VALID_LEVELS}, got {self.level}")
        for name in ("nsq_to_sq", "sq_to_nsq", "interactions", "aoi_transitions", "aoi_switches"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("focus_aoi_pct", "sf_pct"):
            value = getattr(self, name)
            if not 0 <= value <= 100:
                raise ValueError(f"{name} must lie in [0, 100], got {value}")


@dataclass(frozen=True)
class ScoreBreakdown:
    """Every intermediate term of the final score, for audit and reporting."""

    level: int
    base_score: float
    level_bonus: float
    focus_score: float
    engagement_bonus: float
    sustained_bonus: float
    duration_bonus: float
    excess_penalty: float
    temporal_impact: float
    multiplier: float
    final_score: float


def level_bonus(features: LevelFeatures) -> float:
    """Level-specific bonus mixing AoI focus with the level's own feature.

    Level 1 rewards raw interaction volume, level 2 AoI transition
    activity, level 3 direct left/right switching.
    """
    level = features.level
    extra = getattr(features, LEVEL_FEATURE[level])
    return LEVEL_FOCUS_WEIGHT[level] * features.focus_aoi_pct + LEVEL_FEATURE_WEIGHT[level] * extra


def psi_focus(sf_pct: float, level: int) -> float:
    """Stimulus-focus term: weighted excess over the level threshold.

    Levels 2 and 3 add flat bonuses for landing in their target focus
    bands (strict inequalities on both band edges).
    """
    if level not in VALID_LEVELS:
        raise ValueError(f"level must be in {VALID_LEVELS}, got {level}")
    base = max(0.0, sf_pct - FOCUS_THRESHOLD[level]) * FOCUS_WEIGHT[level]
    if level == 2 and 50.0 < sf_pct < 75.0:
        base += FOCUS_RANGE_BONUS
    elif level == 3 and sf_pct > 65.0:
        base += FOCUS_HIGH_BONUS
    return base


def base_score(features: LevelFeatures, config: ScoringConfig = ScoringConfig()) -> float:
    """Transition-weighted base score before temporal adjustment.

    May be negative; clamping happens only on the final score.
    """
    return final_score(features, config).base_score


def bonus_aoi(eta: float) -> float:
    """Engagement-share bonus: reward above 30%, deduct below 10%."""
    if eta > 0.3:
        return min(6.0, (eta * 100 - 30) * 0.15)
    if eta < 0.1:
        return -min(4.0, (10 - eta * 100) * 0.2)
    return 0.0


def bonus_sustained(n: int) -> float:
    """1.5 points per sustained period, capped at 4."""
    return min(4.0, 1.5 * n)


def bonus_duration(mu_seconds: float) -> float:
    """Mean-period-duration bonus; mu is in seconds.

    Long average dwells (above 8 s) earn up to 3 points, very short ones
    (below 3 s) lose up to 3.
    """
    if mu_seconds > 8:
        return min(3.0, (mu_seconds - 8) * 0.2)
    if mu_seconds < 3:
        return -min(3.0, (3 - mu_seconds) * 0.8)
    return 0.0


def penalty_excess(n_periods: int, threshold: int = EXCESS_PERIOD_THRESHOLD) -> float:
    """0.6 per period beyond the threshold, capped at 4."""
    if n_periods > threshold:
        return min(4.0, (n_periods - threshold) * 0.6)
    return 0.0


def _eta_for(features: LevelFeatures, config: ScoringConfig) -> float:
    if config.eta_source == "aoi_dwell":
        if features.aoi_time_share_pct is None:
            raise ValueError("eta_source='aoi_dwell' needs aoi_time_share_pct on the features")
        return features.aoi_time_share_pct / 100.0
    return features.temporal.eta_temporal


def temporal_impact(features: LevelFeatures, config: ScoringConfig = ScoringConfig()) -> float:
    """Bounded sum of engagement bonuses and penalties.

    The raw sum is clamped to +/- the configured per-level cap.
    """
    return final_score(features, config).temporal_impact


def temporal_multiplier(s_base: float) -> float:
    """Impact multiplier shrinking in steps as the base score rises."""
    if s_base < 50:
        return 1.0
    if s_base < 70:
        return 0.9
    if s_base < 85:
        return 0.7
    return 0.4


def final_score(
    features: LevelFeatures, config: ScoringConfig = ScoringConfig()
) -> ScoreBreakdown:
    """Full score computation with every intermediate term recorded.

    The multiplier is evaluated on the unclamped base score; only the
    combined result is clamped to [0, 100]. Each term is computed once.
    """
    bonus = level_bonus(features)
    focus = psi_focus(features.sf_pct, features.level)
    temporal = features.temporal
    engagement = bonus_aoi(_eta_for(features, config))
    sustained = bonus_sustained(temporal.sustained_count)
    duration = bonus_duration(temporal.mu_engagement_ms / 1000.0)
    excess = penalty_excess(temporal.period_count, config.excess_period_threshold)
    s_base = (
        config.alpha1 * features.nsq_to_sq
        - config.alpha2 * features.sq_to_nsq
        + bonus
        + config.gamma * features.aoi_efficiency
        + config.delta * focus
    )
    cap = config.max_impact[features.level]
    impact = max(-cap, min(cap, engagement + focus + sustained + duration - excess))
    multiplier = temporal_multiplier(s_base)
    final = max(0.0, min(100.0, s_base + multiplier * impact))
    return _adopt(ScoreBreakdown, dict(
        level=features.level,
        base_score=s_base,
        level_bonus=bonus,
        focus_score=focus,
        engagement_bonus=engagement,
        sustained_bonus=sustained,
        duration_bonus=duration,
        excess_penalty=excess,
        temporal_impact=impact,
        multiplier=multiplier,
        final_score=final,
    ))


def check_constraints(
    breakdown: ScoreBreakdown,
    dwell_share_sum: float | None = None,
    config: ScoringConfig = ScoringConfig(),
) -> list[str]:
    """Model bound checks; violations come back as data, not exceptions.

    ``dwell_share_sum`` is the sum of the quadrant dwell times over the
    session duration (None when the session has no duration, or to skip
    the check).
    """
    violations: list[str] = []
    if not 0 <= breakdown.final_score <= 100:
        violations.append(f"final score {breakdown.final_score} outside [0, 100]")
    cap = config.max_impact[breakdown.level]
    if abs(breakdown.temporal_impact) > cap + 1e-9:
        violations.append(
            f"temporal impact {breakdown.temporal_impact} exceeds level cap {cap}"
        )
    if dwell_share_sum is not None and abs(dwell_share_sum - 1.0) > 1e-9:
        violations.append(f"quadrant dwell shares sum to {dwell_share_sum}, expected 1")
    return violations
