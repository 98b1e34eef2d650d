"""Attention scoring for serious-game eye-tracking sessions.

Pipeline: raw CSV -> cleaned session -> quadrant/AoI classification ->
transition and dwell statistics -> engagement periods -> level-adaptive
score -> validation against game accuracy.
"""
from .engagement import (
    EngagementPeriod,
    TemporalMetrics,
    classify_sustained,
    detect_engagement_periods,
    temporal_metrics,
)
from .ingest import (
    GameEvent,
    GazeSample,
    LevelSession,
    ObjectPlacement,
    SampleColumns,
    SessionSet,
    load_level_csv,
    merge_levels,
    parse_coordinate_string,
    write_level_csv,
)
from .pipeline import SessionAnalysis, analyze_session, analyze_student
from .report import build_report, emit_plot_data, write_report
from .scoring import (
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
from .spatial import (
    AoiLabel,
    AoiRect,
    Quadrant,
    ScreenGeometry,
    aoi_bounds,
    classify_session,
)
from .synth import SynthProfile, generate_session, generate_table_fixture, write_session_set
from .transitions import (
    AoiMetrics,
    AoITransitionMatrix,
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
from .validation import (
    CalibrationLabel,
    GamePerformance,
    PerformanceCategory,
    ValidationReport,
    classify_assessment,
    game_accuracy,
    mae,
    pearson,
    rmse,
    spearman,
    validate_scores,
)

__version__ = "0.1.0"
