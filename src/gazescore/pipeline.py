"""End-to-end analysis of sessions: classify, aggregate, score, validate."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engagement import (
    AoiRun,
    EngagementPeriod,
    TemporalMetrics,
    aoi_runs,
    select_periods,
    temporal_metrics,
)
from .ingest import LevelSession, SessionSet, _memo
from .scoring import (
    LevelFeatures,
    ScoreBreakdown,
    ScoringConfig,
    _score_terms,
    check_constraints,
    final_score,
)
from .spatial import _adopt, classify_session
from .transitions import (
    AoiMetrics,
    DwellSummary,
    TransitionAggregates,
    TransitionMatrix,
    aggregate_transitions,
    aoi_metrics,
    aoi_sample_share_pct,
    aoi_time_share_pct,
    build_aoi_matrix,
    build_quadrant_matrix,
    dwell_summary,
)
from .validation import GamePerformance, ValidationReport, game_accuracy, validate_scores


@dataclass(frozen=True, eq=False)
class SessionFacts:
    """The part of a session's analysis that no ``ScoringConfig`` field
    changes: labels, matrices, aggregates, dwell and the sum of its shares,
    AoI shares, AoI runs and the game tally. The labels are int8 code
    arrays, one code per sample, in ``QUADRANT_ORDER`` and ``AOI_ORDER``
    index order. ``aoi_pairs`` and ``aoi_changes`` are the AoI metrics
    with ``aoi_total_changes_only`` off and on. Every array in it is
    read-only, and facts compare by identity, as ``SessionAnalysis``
    does."""

    quadrant_labels: np.ndarray
    aoi_labels: np.ndarray
    quadrant_matrix: TransitionMatrix
    aggregates: TransitionAggregates
    aoi_matrix: TransitionMatrix
    aoi_pairs: AoiMetrics
    aoi_changes: AoiMetrics
    dwell: DwellSummary
    dwell_share_sum: float | None
    focus_aoi_pct: float
    aoi_time_share_pct: float
    runs: tuple[AoiRun, ...]
    game: GamePerformance


def _feature_fields(session, facts, aoi_stats, temporal) -> dict:
    """The ``LevelFeatures`` fields of a session under one AoI switch value."""
    return dict(
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


def session_facts(session: LevelSession) -> SessionFacts:
    """The session's config-independent analysis, computed on first use.

    The result is kept on the session instance (``ingest._memo``), so later
    calls (under any config) return the same object.
    """
    return _memo(session, "facts", lambda: _facts(session))


def _facts(session: LevelSession) -> SessionFacts:
    t = session.samples.t_ms
    quadrants, aois = classify_session(session)
    quadrant_matrix = build_quadrant_matrix(quadrants)
    aoi_matrix = build_aoi_matrix(aois)
    dwell = dwell_summary(t, quadrants)
    duration = dwell.session_duration_ms
    facts = SessionFacts(
        quadrant_labels=quadrants,
        aoi_labels=aois,
        quadrant_matrix=quadrant_matrix,
        aggregates=aggregate_transitions(quadrant_matrix),
        aoi_matrix=aoi_matrix,
        aoi_pairs=aoi_metrics(aoi_matrix, changes_only=False),
        aoi_changes=aoi_metrics(aoi_matrix, changes_only=True),
        dwell=dwell,
        dwell_share_sum=(
            sum(dwell.time_in_quadrant.values()) / duration if duration > 0 else None
        ),
        focus_aoi_pct=aoi_sample_share_pct(aois),
        aoi_time_share_pct=aoi_time_share_pct(t, aois),
        runs=aoi_runs(t, aois),
        game=game_accuracy(session.events),
    )
    for aoi_stats in (facts.aoi_pairs, facts.aoi_changes):  # LevelFeatures checks, once
        LevelFeatures(**_feature_fields(session, facts, aoi_stats, None))
    return facts


@dataclass(frozen=True, eq=False)
class SessionAnalysis(SessionFacts):
    """Everything derived from one level session: its ``SessionFacts``,
    shared as the same objects with every other analysis of the same
    session object (see ``session_facts``), plus the fields that depend on
    the ``ScoringConfig``. ``aoi`` is ``aoi_changes`` when
    ``aoi_total_changes_only`` is on and ``aoi_pairs`` when it is off.

    Analyses compare and hash by identity: field-wise equality over the
    label arrays has no truth value. Compare fields (or report bytes)
    to compare results.
    """

    session: LevelSession
    aoi: AoiMetrics
    periods: tuple[EngagementPeriod, ...]
    temporal: TemporalMetrics
    features: LevelFeatures
    breakdown: ScoreBreakdown
    violations: tuple[str, ...]


def _terms_key(config: ScoringConfig, level: int) -> tuple:
    """The setting of every field a level session's periods, temporal
    metrics, features and weight-free score terms read: ``tau_min_ms``,
    ``tau_sustained_ms``, ``gap_tolerance_ms``, ``aoi_total_changes_only``,
    ``eta_source``, ``excess_period_threshold`` and the level's
    ``max_impact``."""
    return (
        config.tau_min_ms, config.tau_sustained_ms, config.gap_tolerance_ms,
        config.aoi_total_changes_only, config.eta_source,
        config.excess_period_threshold, config.max_impact[level],
    )


def _setting(session, facts, aoi_stats, config) -> tuple:
    """The periods, temporal metrics, features and weight-free score terms
    of a session under the setting ``_terms_key`` gives for ``config``."""
    periods = tuple(select_periods(
        facts.runs,
        min_duration_ms=config.tau_min_ms,
        sustained_ms=config.tau_sustained_ms,
        gap_tolerance_ms=config.gap_tolerance_ms,
    ))
    temporal = temporal_metrics(periods, facts.dwell.session_duration_ms)
    features = _adopt(LevelFeatures, _feature_fields(session, facts, aoi_stats, temporal))
    return periods, temporal, features, _score_terms(features, config)


def analyze_session(
    session: LevelSession, config: ScoringConfig = ScoringConfig()
) -> SessionAnalysis:
    """Run the full pipeline on one session and return every artifact.

    The config-independent stages run once per session object
    (``session_facts``). The periods, temporal metrics, features and
    weight-free score terms are kept on the session as one entry per
    setting of the fields they read (``_terms_key``), so a call whose
    setting the session has seen runs only the weighted step of
    ``final_score`` and ``check_constraints``.
    """
    facts = session_facts(session)
    aoi_stats = facts.aoi_changes if config.aoi_total_changes_only else facts.aoi_pairs
    periods, temporal, features, terms = _memo(
        session, _terms_key(config, session.level),
        lambda: _setting(session, facts, aoi_stats, config),
    )
    breakdown = final_score(features, config, terms)
    violations = check_constraints(breakdown, facts.dwell_share_sum, config)

    return _adopt(SessionAnalysis, dict(
        vars(facts),
        session=session,
        aoi=aoi_stats,
        periods=periods,
        temporal=temporal,
        features=features,
        breakdown=breakdown,
        violations=tuple(violations),
    ))


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
