"""End-to-end analysis of sessions: classify, aggregate, score, validate."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engagement import (
    EngagementPeriod,
    TemporalMetrics,
    detect_engagement_periods,
    temporal_metrics,
)
from .ingest import LevelSession, SessionSet
from .scoring import (
    LevelFeatures,
    ScoreBreakdown,
    ScoringConfig,
    check_constraints,
    final_score,
)
from .spatial import classify_session
from .transitions import (
    AoITransitionMatrix,
    AoiMetrics,
    DwellSummary,
    QuadrantTransitionMatrix,
    TransitionAggregates,
    aggregate_transitions,
    aoi_metrics,
    aoi_sample_share_pct,
    aoi_time_share_pct,
    build_aoi_matrix,
    build_quadrant_matrix,
    dwell_summary,
)
from .validation import GamePerformance, ValidationReport, game_accuracy, validate_scores


@dataclass(frozen=True)
class SessionAnalysis:
    """Everything derived from one level session.

    The labels are read-only int8 code arrays, one code per sample, in
    ``QUADRANT_ORDER`` and ``AOI_ORDER`` index order.
    """

    session: LevelSession
    quadrant_labels: np.ndarray
    aoi_labels: np.ndarray
    quadrant_matrix: QuadrantTransitionMatrix
    aggregates: TransitionAggregates
    aoi_matrix: AoITransitionMatrix
    aoi: AoiMetrics
    dwell: DwellSummary
    periods: tuple[EngagementPeriod, ...]
    temporal: TemporalMetrics
    features: LevelFeatures
    breakdown: ScoreBreakdown
    violations: tuple[str, ...]
    game: GamePerformance


def analyze_session(
    session: LevelSession, config: ScoringConfig = ScoringConfig()
) -> SessionAnalysis:
    """Run the full pipeline on one session and return every artifact."""
    t = session.samples.t_ms
    quadrants, aois = classify_session(session)
    quadrant_matrix = build_quadrant_matrix(quadrants)
    aggregates = aggregate_transitions(quadrant_matrix)
    aoi_matrix = build_aoi_matrix(aois)
    aoi_stats = aoi_metrics(aoi_matrix, changes_only=config.aoi_total_changes_only)
    dwell = dwell_summary(t, quadrants)
    periods = detect_engagement_periods(
        np.column_stack((t, aois)),
        min_duration_ms=config.tau_min_ms,
        sustained_ms=config.tau_sustained_ms,
        gap_tolerance_ms=config.gap_tolerance_ms,
    )
    temporal = temporal_metrics(periods, dwell.session_duration_ms)

    features = LevelFeatures(
        level=session.level,
        nsq_to_sq=aggregates.nsq_to_sq,
        sq_to_nsq=aggregates.sq_to_nsq,
        focus_aoi_pct=aoi_sample_share_pct(aois),
        interactions=len(session.events),
        aoi_transitions=aoi_stats.aoi_total,
        aoi_switches=aoi_stats.left_right_transitions,
        aoi_efficiency=aoi_stats.efficiency,
        sf_pct=dwell.stimuli_focus_pct,
        temporal=temporal,
        aoi_time_share_pct=aoi_time_share_pct(t, aois),
    )
    breakdown = final_score(features, config)
    violations = check_constraints(breakdown, dwell, config)
    game = game_accuracy(session.events)

    return SessionAnalysis(
        session=session,
        quadrant_labels=quadrants,
        aoi_labels=aois,
        quadrant_matrix=quadrant_matrix,
        aggregates=aggregates,
        aoi_matrix=aoi_matrix,
        aoi=aoi_stats,
        dwell=dwell,
        periods=tuple(periods),
        temporal=temporal,
        features=features,
        breakdown=breakdown,
        violations=tuple(violations),
        game=game,
    )


def analyze_student(
    session_set: SessionSet,
    student_id: str,
    config: ScoringConfig = ScoringConfig(),
) -> tuple[list[SessionAnalysis], ValidationReport | None]:
    """Analyze all levels of one student, level-sorted, plus validation.

    Validation pairs each level's model score with its game accuracy;
    levels without events contribute no pair. The report is None when
    fewer than two pairs exist.
    """
    analyses = [
        analyze_session(session, config) for session in session_set.for_student(student_id)
    ]
    model = [
        a.breakdown.final_score for a in analyses if a.game.accuracy_pct is not None
    ]
    truth = [
        a.game.accuracy_pct for a in analyses if a.game.accuracy_pct is not None
    ]
    validation = validate_scores(model, truth) if len(model) >= 2 else None
    return analyses, validation
