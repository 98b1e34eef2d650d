"""Attention scoring for serious-game eye-tracking sessions.

Pipeline: raw CSV -> cleaned session -> quadrant/AoI classification ->
transition and dwell statistics -> engagement periods -> level-adaptive
score -> validation against game accuracy.
The root re-exports the quick-start names; the rest live in the stage modules.
"""
from .engagement import TemporalMetrics, detect_engagement_periods
from .ingest import GazeSample, LevelSession, load_level_csv, merge_levels
from .pipeline import SessionAnalysis, analyze_session, analyze_student
from .report import build_report, emit_plot_data, write_report
from .scoring import (
    LevelFeatures,
    ScoringConfig,
    base_score,
    bonus_aoi,
    bonus_duration,
    bonus_sustained,
    final_score,
    level_bonus,
    penalty_excess,
    psi_focus,
    temporal_impact,
    temporal_multiplier,
)
from .synth import generate_table_fixture, write_session_set
from .transitions import aggregate_transitions, build_quadrant_matrix
from .validation import game_accuracy, mae, pearson, rmse, spearman

__version__ = "0.1.0"
