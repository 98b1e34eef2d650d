"""``import gazescore`` exposes the names of the quick start and the
acceptance suite; everything else is imported from its stage module."""
from __future__ import annotations

import types

import gazescore

ROOT_NAMES = {
    # tests/test_acceptance.py
    "GazeSample", "LevelFeatures", "TemporalMetrics", "aggregate_transitions",
    "analyze_student", "base_score", "bonus_aoi", "bonus_duration", "bonus_sustained",
    "build_quadrant_matrix", "build_report", "detect_engagement_periods", "emit_plot_data",
    "final_score", "game_accuracy", "generate_table_fixture", "level_bonus", "load_level_csv",
    "mae", "merge_levels", "pearson", "penalty_excess", "psi_focus", "rmse", "spearman",
    "temporal_impact", "temporal_multiplier", "write_session_set",
    # the README quick start and the types it names
    "analyze_session", "ScoringConfig", "write_report", "LevelSession", "SessionAnalysis",
}


def test_root_exposes_exactly_the_documented_names():
    exposed = {
        name for name, value in vars(gazescore).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(ROOT_NAMES) == 33
    assert exposed == ROOT_NAMES
