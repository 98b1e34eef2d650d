"""End-to-end analysis of sessions: classify, aggregate, score, validate."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engagement import (
    AoiRuns,
    EngagementPeriod,
    TemporalMetrics,
    aoi_runs,
    select_periods,
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
class SessionFacts:
    """The part of a session's analysis that no ``ScoringConfig`` field
    changes: labels, matrices, aggregates, dwell, AoI shares, AoI runs and
    the game tally. Every array in it is read-only."""

    quadrant_labels: np.ndarray
    aoi_labels: np.ndarray
    quadrant_matrix: QuadrantTransitionMatrix
    aggregates: TransitionAggregates
    aoi_matrix: AoITransitionMatrix
    dwell: DwellSummary
    focus_aoi_pct: float
    aoi_time_share_pct: float
    runs: AoiRuns
    game: GamePerformance


# Attribute of a LevelSession instance that holds its SessionFacts. It is
# not a dataclass field, so ==, repr and dataclasses.replace ignore it and
# a replaced session starts without facts.
_FACTS_ATTR = "_facts"


def session_facts(session: LevelSession) -> SessionFacts:
    """The session's config-independent analysis, computed on first use.

    The result is kept on the session instance, so later calls (under any
    config) return the same object. A session's fields cannot change, so
    the facts never go stale.
    """
    memo = vars(session)
    facts = memo.get(_FACTS_ATTR)
    if facts is None:
        t = session.samples.t_ms
        quadrants, aois = classify_session(session)
        quadrant_matrix = build_quadrant_matrix(quadrants)
        facts = SessionFacts(
            quadrant_labels=quadrants,
            aoi_labels=aois,
            quadrant_matrix=quadrant_matrix,
            aggregates=aggregate_transitions(quadrant_matrix),
            aoi_matrix=build_aoi_matrix(aois),
            dwell=dwell_summary(t, quadrants),
            focus_aoi_pct=aoi_sample_share_pct(aois),
            aoi_time_share_pct=aoi_time_share_pct(t, aois),
            runs=aoi_runs(t, aois),
            game=game_accuracy(session.events),
        )
        # Write once: a concurrent first call keeps the facts stored first.
        facts = memo.setdefault(_FACTS_ATTR, facts)
    return facts


@dataclass(frozen=True, eq=False)
class SessionAnalysis:
    """Everything derived from one level session.

    The labels are read-only int8 code arrays, one code per sample, in
    ``QUADRANT_ORDER`` and ``AOI_ORDER`` index order. Labels, matrices,
    aggregates, dwell and game tally are shared with every other analysis
    of the same session object (see ``session_facts``), and all of them
    are read-only.

    Analyses compare and hash by identity: field-wise equality over the
    label arrays has no truth value. Compare fields (or report bytes)
    to compare results.
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
    """Run the full pipeline on one session and return every artifact.

    The config-independent stages run once per session object
    (``session_facts``); each call runs only the config-dependent ones.
    """
    facts = session_facts(session)
    aoi_stats = aoi_metrics(facts.aoi_matrix, changes_only=config.aoi_total_changes_only)
    periods = select_periods(
        facts.runs,
        min_duration_ms=config.tau_min_ms,
        sustained_ms=config.tau_sustained_ms,
        gap_tolerance_ms=config.gap_tolerance_ms,
    )
    temporal = temporal_metrics(periods, facts.dwell.session_duration_ms)

    features = LevelFeatures(
        level=session.level,
        nsq_to_sq=facts.aggregates.nsq_to_sq,
        sq_to_nsq=facts.aggregates.sq_to_nsq,
        focus_aoi_pct=facts.focus_aoi_pct,
        interactions=len(session.events),
        aoi_transitions=aoi_stats.aoi_total,
        aoi_switches=aoi_stats.left_right_transitions,
        aoi_efficiency=aoi_stats.efficiency,
        sf_pct=facts.dwell.stimuli_focus_pct,
        temporal=temporal,
        aoi_time_share_pct=facts.aoi_time_share_pct,
    )
    breakdown = final_score(features, config)
    violations = check_constraints(breakdown, facts.dwell, config)

    return SessionAnalysis(
        session=session,
        quadrant_labels=facts.quadrant_labels,
        aoi_labels=facts.aoi_labels,
        quadrant_matrix=facts.quadrant_matrix,
        aggregates=facts.aggregates,
        aoi_matrix=facts.aoi_matrix,
        aoi=aoi_stats,
        dwell=facts.dwell,
        periods=tuple(periods),
        temporal=temporal,
        features=features,
        breakdown=breakdown,
        violations=tuple(violations),
        game=facts.game,
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
