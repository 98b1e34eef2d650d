"""Deterministic JSON reports and plot-data CSV emission.

Key order is fixed by construction and floats are rounded to fixed
precision (1 decimal for percentages, 3 for correlations and score
terms, 4 for unit-interval ratios), so identical inputs produce
byte-identical files.
"""
from __future__ import annotations

import os
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

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


def _atomic_write(path: Path, texts: Iterable[str]) -> None:
    """Write the texts to a staged file, then rename it over ``path``.

    The rename goes over the existing file on purpose. Readers never see
    the path missing, and ext4 (``auto_da_alloc``) starts writing out the
    data of a file renamed over another, so a crash is unlikely to leave
    an empty file where the old one was. The cost, probed on ext4 with a
    20 KB staged file (min / median): 111 / 344 us onto an existing name,
    46 / 119 us onto a new name, 16 / 21 us to create, write and unlink.
    Unlinking first would be faster but gives both up.
    """
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(texts)
    os.replace(tmp, path)


# float repr of the non-finite values -> the names ``json`` writes.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(value, out: list[str], newline: str) -> None:
    """Append the indent-2 JSON text of ``value`` to ``out``.

    ``newline`` is a line break plus the indent of the enclosing level.
    Byte-equal to ``json.dumps(value, indent=2)`` for dicts with ``str``
    keys, lists, str, int, float, bool and None; any other type raises
    TypeError. Strings go through the C ``encode_basestring_ascii``, so
    this skips only the pure-Python ``json`` encoder that ``indent``
    selects.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, opener = newline + "  ", "{"
        for key, item in value.items():
            out.extend((opener, inner, _quote(key), ": "))  # TypeError unless str
            _encode(item, out, inner)
            opener = ","
        out.extend((newline, "}"))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner, opener = newline + "  ", "["
        for item in value:
            out.extend((opener, inner))
            _encode(item, out, inner)
            opener = ","
        out.extend((newline, "]"))
    else:
        raise TypeError(f"cannot encode {type(value).__name__} in a report")


def report_json(report: dict) -> str:
    """The report as ``json.dumps(report, indent=2)`` writes it."""
    out: list[str] = []
    _encode(report, out, "\n")
    return "".join(out)


def write_report(report: dict, path: str | Path) -> Path:
    """Write the report JSON atomically (staged then renamed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, [report_json(report), "\n"])
    return path


def _csv_line(values: Iterable) -> str:
    """One CSV line as ``csv.writer`` writes cells that need no quoting:
    ``str`` of each value (``repr`` for floats), None as an empty cell."""
    return ",".join("" if v is None else str(v) for v in values) + "\n"


def _write_csv_atomic(path: Path, header: list[str], lines: Iterable[str]) -> None:
    _atomic_write(path, chain([_csv_line(header)], lines))


# ",<quadrant>,<aoi label>\n" at index quadrant code * len(AOI_ORDER) + AoI code.
_SAMPLE_TAILS = tuple(f",{q.value},{a.value}\n" for q in QUADRANT_ORDER for a in AOI_ORDER)

# Samples formatted per join: bounds the Python strings and numbers one
# chunk holds (about 250 B per sample) on long levels.
_CHUNK_SAMPLES = 2048


def _sample_lines(analysis: SessionAnalysis) -> Iterator[str]:
    """(t, x, y, quadrant, aoi_label) lines, joined one chunk of samples at
    a time so a long session never holds one Python line per sample."""
    s = analysis.session.samples
    tails = analysis.quadrant_labels.astype(np.intp) * len(AOI_ORDER) + analysis.aoi_labels
    for lo in range(0, len(s), _CHUNK_SAMPLES):
        part = slice(lo, lo + _CHUNK_SAMPLES)
        yield "".join(
            [
                f"{t},{x!r},{y!r}{tail}"
                for t, x, y, tail in zip(
                    s.t_ms[part].tolist(),
                    s.x_px[part].tolist(),
                    s.y_px[part].tolist(),
                    map(_SAMPLE_TAILS.__getitem__, tails[part].tolist()),
                )
            ]
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
            _sample_lines(analysis),
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
            map(_csv_line, period_rows),
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
        map(_csv_line, summary_rows),
    )
    written.append(summary_path)
    return written
