"""Deterministic JSON reports and plot-data CSV emission.

Key order is fixed by construction and floats are rounded to fixed
precision (1 decimal for percentages, 3 for correlations and score
terms, 4 for unit-interval ratios), so identical inputs produce
byte-identical files.
"""
from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .pipeline import SessionAnalysis
from .validation import ValidationReport, classify_assessment
from .scoring import ScoringConfig
from .spatial import AOI_ORDER, QUADRANT_ORDER

VALIDATION_NOTE = (
    "Correlations are computed from the per-level (model score, game accuracy) "
    "pairs only; correlations computed on richer per-session data may differ."
)


def _pct(value: float | None) -> float | None:
    return None if value is None else round(float(value), 1)


def _score(value: float | None) -> float | None:
    return None if value is None else round(float(value), 3)


def _ratio(value: float | None) -> float | None:
    return None if value is None else round(float(value), 4)


def _level_block(analysis: SessionAnalysis, config: ScoringConfig) -> dict:
    b = analysis.breakdown
    game = analysis.game
    diff = (
        abs(b.final_score - game.accuracy_pct) if game.accuracy_pct is not None else None
    )
    category, calibration = classify_assessment(b.final_score, diff, config)
    return {
        "level": analysis.session.level,
        "score": {
            "base_score": _score(b.base_score),
            "level_bonus": _score(b.level_bonus),
            "focus_score": _score(b.focus_score),
            "engagement_bonus": _score(b.engagement_bonus),
            "sustained_bonus": _score(b.sustained_bonus),
            "duration_bonus": _score(b.duration_bonus),
            "excess_penalty": _score(b.excess_penalty),
            "temporal_impact": _score(b.temporal_impact),
            "multiplier": b.multiplier,
            "final_score": _score(b.final_score),
        },
        "transitions": {
            "quadrant_order": [q.value for q in QUADRANT_ORDER],
            "quadrant_counts": analysis.quadrant_matrix.counts.tolist(),
            "aoi_order": [a.value for a in AOI_ORDER],
            "aoi_counts": analysis.aoi_matrix.counts.tolist(),
            "nsq_to_sq": analysis.aggregates.nsq_to_sq,
            "sq_to_nsq": analysis.aggregates.sq_to_nsq,
            "nsq_to_nsq": analysis.aggregates.nsq_to_nsq,
            "sq_to_sq": analysis.aggregates.sq_to_sq,
            "total": analysis.aggregates.total,
            "aoi_switches": analysis.aoi.left_right_transitions,
            "aoi_balance": _ratio(analysis.aoi.balance),
            "aoi_efficiency": _ratio(analysis.aoi.efficiency),
            "fixations_left": analysis.aoi.fixations_left,
            "fixations_right": analysis.aoi.fixations_right,
            "dwell_ms": {
                q.value: analysis.dwell.time_in_quadrant[q] for q in QUADRANT_ORDER
            },
            "session_duration_ms": analysis.dwell.session_duration_ms,
            "stimuli_focus_pct": _pct(analysis.dwell.stimuli_focus_pct),
            "focus_aoi_pct": _pct(analysis.features.focus_aoi_pct),
            "aoi_time_share_pct": _pct(analysis.features.aoi_time_share_pct),
        },
        "temporal": {
            "eta_temporal": _ratio(analysis.temporal.eta_temporal),
            "mu_engagement_ms": _score(analysis.temporal.mu_engagement_ms),
            "sigma_sustained": _ratio(analysis.temporal.sigma_sustained),
            "period_count": analysis.temporal.period_count,
            "sustained_count": analysis.temporal.sustained_count,
        },
        "game": (
            None
            if game.total_events == 0
            else {
                "correct_clicks": game.correct_clicks,
                "total_clicks": game.total_clicks,
                "correct_answers": game.correct_answers,
                "total_answers": game.total_answers,
                "total_events": game.total_events,
                "accuracy_pct": _pct(game.accuracy_pct),
            }
        ),
        "assessment": {
            "performance": category.value,
            "calibration": calibration.value if calibration is not None else None,
            "difference": _score(diff),
        },
        "constraint_violations": list(analysis.violations),
    }


def build_report(
    student_id: str,
    analyses: Sequence[SessionAnalysis],
    validation: ValidationReport | None,
    config: ScoringConfig = ScoringConfig(),
) -> dict:
    """Report document for one student; validation is None below 2 pairs."""
    doc = {
        "student_id": student_id,
        "levels": [
            _level_block(a, config)
            for a in sorted(analyses, key=lambda a: a.session.level)
        ],
        "validation": None,
    }
    if validation is not None:
        doc["validation"] = {
            "mae": _score(validation.mae_pct),
            "rmse": _score(validation.rmse_pct),
            "pearson": _score(validation.pearson_r),
            "spearman": _score(validation.spearman_rho),
            "n": validation.n,
            "note": VALIDATION_NOTE,
        }
    return doc


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def write_report(report: dict, path: str | Path) -> Path:
    """Write the report JSON atomically (staged then renamed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(path, json.dumps(report, indent=2) + "\n")
    return path


def _write_csv_atomic(path: Path, header: list[str], rows: Iterable) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def _sample_rows(analysis: SessionAnalysis) -> Iterator[tuple]:
    """(t, x, y, quadrant, aoi_label) rows, made 8192 samples at a time so a
    long session never holds one Python row per sample."""
    s = analysis.session.samples
    quadrant_values = [q.value for q in QUADRANT_ORDER]
    aoi_values = [a.value for a in AOI_ORDER]
    for lo in range(0, len(s), 8192):
        part = slice(lo, lo + 8192)
        yield from zip(
            s.t_ms[part].tolist(),
            s.x_px[part].tolist(),
            s.y_px[part].tolist(),
            map(quadrant_values.__getitem__, analysis.quadrant_labels[part].tolist()),
            map(aoi_values.__getitem__, analysis.aoi_labels[part].tolist()),
        )


def emit_plot_data(
    analyses: Sequence[SessionAnalysis], out_dir: str | Path
) -> list[Path]:
    """Write plot-source CSVs (UTF-8, LF, fixed column order).

    Per level: a per-sample file (t, x, y, quadrant, aoi_label) for AoI
    detection scatter plots and a per-period file for engagement bars;
    plus one summary file across levels for the temporal panels.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    ordered = sorted(analyses, key=lambda a: a.session.level)

    for analysis in ordered:
        level = analysis.session.level
        sample_path = out_dir / f"samples_level{level}.csv"
        _write_csv_atomic(
            sample_path,
            ["t_ms", "x_px", "y_px", "quadrant", "aoi_label"],
            _sample_rows(analysis),
        )
        written.append(sample_path)

        period_rows = [
            [i, p.t_start_ms, p.t_end_ms, p.duration_ms, p.aoi.value, str(p.sustained).lower()]
            for i, p in enumerate(analysis.periods)
        ]
        period_path = out_dir / f"periods_level{level}.csv"
        _write_csv_atomic(
            period_path,
            ["index", "t_start_ms", "t_end_ms", "duration_ms", "aoi", "sustained"],
            period_rows,
        )
        written.append(period_path)

    summary_rows = [
        [
            a.session.level,
            a.temporal.period_count,
            a.temporal.sustained_count,
            sum(p.duration_ms for p in a.periods),
            _ratio(a.temporal.eta_temporal),
            _score(a.temporal.mu_engagement_ms),
            _ratio(a.temporal.sigma_sustained),
            _score(a.breakdown.temporal_impact),
        ]
        for a in ordered
    ]
    summary_path = out_dir / "temporal_summary.csv"
    _write_csv_atomic(
        summary_path,
        [
            "level",
            "period_count",
            "sustained_count",
            "engagement_ms",
            "eta_temporal",
            "mu_engagement_ms",
            "sigma_sustained",
            "temporal_impact",
        ],
        summary_rows,
    )
    written.append(summary_path)
    return written
