"""Ground-truth game accuracy and model-score validation metrics.

Correlations are reported as None ("undefined") rather than 0 whenever
they are not meaningful: fewer than two pairs or a constant series.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .ingest import GameEvent
from .scoring import ScoringConfig


class PerformanceCategory(Enum):
    MASTERY = "Mastery"
    DEVELOPING = "Developing"
    STRUGGLING = "Struggling"


class CalibrationLabel(Enum):
    EXCELLENT = "Excellent"
    GOOD = "Good"
    FAIR = "Fair"
    POOR = "Poor"


@dataclass(frozen=True)
class GamePerformance:
    correct_clicks: int
    total_clicks: int
    correct_answers: int
    total_answers: int
    total_events: int
    accuracy_pct: float | None

    def __post_init__(self) -> None:
        if self.correct_clicks > self.total_clicks or self.correct_answers > self.total_answers:
            raise ValueError("correct counts cannot exceed totals")


@dataclass(frozen=True)
class ValidationReport:
    mae_pct: float
    rmse_pct: float
    pearson_r: float | None
    spearman_rho: float | None
    n: int


def game_accuracy(events: Sequence[GameEvent]) -> GamePerformance:
    """Tally correct/total per event kind; accuracy is their joint ratio.

    With zero events the accuracy is undefined and reported as None.
    """
    correct_clicks = sum(1 for e in events if e.kind == "mouse_click" and e.correct)
    total_clicks = sum(1 for e in events if e.kind == "mouse_click")
    correct_answers = sum(1 for e in events if e.kind == "answer" and e.correct)
    total_answers = sum(1 for e in events if e.kind == "answer")
    total = total_clicks + total_answers
    accuracy = (
        100.0 * (correct_clicks + correct_answers) / total if total > 0 else None
    )
    return GamePerformance(
        correct_clicks=correct_clicks,
        total_clicks=total_clicks,
        correct_answers=correct_answers,
        total_answers=total_answers,
        total_events=total,
        accuracy_pct=accuracy,
    )


def _paired(model: Sequence[float], truth: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    if len(model) != len(truth):
        raise ValueError(f"length mismatch: {len(model)} vs {len(truth)}")
    if len(model) == 0:
        raise ValueError("need at least one pair")
    return np.asarray(model, dtype=float), np.asarray(truth, dtype=float)


def mae(model: Sequence[float], truth: Sequence[float]) -> float:
    m, t = _paired(model, truth)
    return float(np.mean(np.abs(m - t)))


def rmse(model: Sequence[float], truth: Sequence[float]) -> float:
    m, t = _paired(model, truth)
    return float(np.sqrt(np.mean((m - t) ** 2)))


def _deviations(values: np.ndarray) -> np.ndarray:
    """Deviations from the mean of a non-constant series, scaled to peak 1.

    The exact power-of-two prescale lifts subnormal values, whose mean
    is not representable ([0, 5e-324] has no midpoint). The second
    centering removes the first mean's rounding error, which dominates
    when the spread is tiny next to the values; the final scaling keeps
    squares clear of underflow. None of these changes the correlation.
    """
    values = np.ldexp(values, -np.frexp(np.abs(values).max())[1])
    d = values - values.sum() / len(values)
    d -= d.sum() / len(d)
    return d / np.abs(d).max()


def pearson(model: Sequence[float], truth: Sequence[float]) -> float | None:
    """Product-moment correlation in [-1, 1]; None when either series is constant."""
    m, t = _paired(model, truth)
    if len(m) < 2:
        raise ValueError("need at least two pairs")
    # Constancy is tested on the values: the rounded mean of a constant
    # series leaves tiny non-zero deviations.
    if (m == m[0]).all() or (t == t[0]).all():
        return None
    dm = _deviations(m)
    dt = _deviations(t)
    r = float((dm * dt).sum() / (np.sqrt((dm * dm).sum()) * np.sqrt((dt * dt).sum())))
    # Rounding can carry r a few ulps past +/-1.
    return min(1.0, max(-1.0, r))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties receiving the average of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman(model: Sequence[float], truth: Sequence[float]) -> float | None:
    """Rank correlation with average ranks under ties.

    Tie-free input uses the closed-form 1 - 6*sum(d^2)/(n(n^2-1));
    otherwise the product-moment formula is applied to the rank vectors.
    Constant series make the coefficient undefined (None).
    """
    m, t = _paired(model, truth)
    n = len(m)
    if n < 2:
        raise ValueError("need at least two pairs")
    if np.all(m == m[0]) or np.all(t == t[0]):
        return None
    rm = _average_ranks(m)
    rt = _average_ranks(t)
    tie_free = len(np.unique(m)) == n and len(np.unique(t)) == n
    if tie_free:
        d = rm - rt
        return float(1 - 6 * np.sum(d**2) / (n * (n**2 - 1)))
    return pearson(rm, rt)


def validate_scores(
    model: Sequence[float], truth: Sequence[float]
) -> ValidationReport:
    """Error metrics plus correlations, with undefined values left as None."""
    m, t = _paired(model, truth)
    n = len(m)
    pear: float | None = None
    spear: float | None = None
    if n >= 2:
        pear = pearson(m, t)
        spear = spearman(m, t)
    return ValidationReport(
        mae_pct=mae(m, t),
        rmse_pct=rmse(m, t),
        pearson_r=pear,
        spearman_rho=spear,
        n=n,
    )


def classify_assessment(
    final_score: float,
    calibration_diff: float | None,
    config: ScoringConfig = ScoringConfig(),
) -> tuple[PerformanceCategory, CalibrationLabel | None]:
    """Performance category from the score, calibration label from the
    absolute model-vs-accuracy difference (None when no ground truth)."""
    if final_score >= config.mastery_min:
        category = PerformanceCategory.MASTERY
    elif final_score >= config.developing_min:
        category = PerformanceCategory.DEVELOPING
    else:
        category = PerformanceCategory.STRUGGLING

    if calibration_diff is None:
        return category, None
    diff = abs(calibration_diff)
    if diff < config.calibration_excellent:
        label = CalibrationLabel.EXCELLENT
    elif diff < config.calibration_good:
        label = CalibrationLabel.GOOD
    elif diff < config.calibration_fair:
        label = CalibrationLabel.FAIR
    else:
        label = CalibrationLabel.POOR
    return category, label
