"""Ground-truth game accuracy and model-score validation metrics.

Correlations are reported as None ("undefined") rather than 0 whenever
they are not meaningful: fewer than two pairs or a constant series. The
metrics are computed in plain Python floats: the pipeline passes one
pair per level, and NumPy's per-call overhead would dominate so few
values. Non-finite input raises ValueError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .ingest import GameEvent
from .scoring import ScoringConfig


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


def _paired(model: Sequence[float], truth: Sequence[float]) -> tuple[list[float], list[float]]:
    if len(model) != len(truth):
        raise ValueError(f"length mismatch: {len(model)} vs {len(truth)}")
    if len(model) == 0:
        raise ValueError("need at least one pair")
    m = [float(v) for v in model]
    t = [float(v) for v in truth]
    for i, (a, b) in enumerate(zip(m, t)):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"non-finite value in pair {i}: model {a}, truth {b}")
    return m, t


# Every sum below runs left to right from 0.0, as NumPy sums fewer than 8
# values. NumPy sums 8 or more pairwise, so results may differ from a
# NumPy implementation in the last bits there.
def _mean(values: list[float]) -> float:
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _dot(a: list[float], b: list[float]) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _mae(m: list[float], t: list[float]) -> float:
    return _mean([abs(a - b) for a, b in zip(m, t)])


def _rmse(m: list[float], t: list[float]) -> float:
    d = [a - b for a, b in zip(m, t)]
    return math.sqrt(_dot(d, d) / len(d))


def mae(model: Sequence[float], truth: Sequence[float]) -> float:
    return _mae(*_paired(model, truth))


def rmse(model: Sequence[float], truth: Sequence[float]) -> float:
    return _rmse(*_paired(model, truth))


def _constant(values: list[float]) -> bool:
    return values.count(values[0]) == len(values)


def _deviations(values: list[float]) -> list[float]:
    """Deviations from the mean of a non-constant series, scaled to peak 1.

    The exact power-of-two prescale lifts subnormal values, whose mean
    is not representable ([0, 5e-324] has no midpoint). The second
    centering removes the first mean's rounding error, which dominates
    when the spread is tiny next to the values; the final scaling keeps
    squares clear of underflow. None of these changes the correlation.
    """
    shift = -math.frexp(max(map(abs, values)))[1]
    values = [math.ldexp(v, shift) for v in values]
    center = _mean(values)
    d = [v - center for v in values]
    center = _mean(d)
    d = [v - center for v in d]
    peak = max(map(abs, d))
    return [v / peak for v in d]


def _r(dm: Sequence[float], dt: Sequence[float]) -> float:
    """The product-moment correlation of two ``_deviations`` series."""
    r = _dot(dm, dt) / (math.sqrt(_dot(dm, dm)) * math.sqrt(_dot(dt, dt)))
    # Rounding can carry r a few ulps past +/-1.
    return min(1.0, max(-1.0, r))


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties receiving the average of their positions."""
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in order[i : j + 1]:
            ranks[k] = rank
        i = j + 1
    return ranks


@lru_cache(maxsize=64)
def _truth_half(t: tuple[float, ...]) -> tuple[tuple, tuple, tuple, bool] | None:
    """What the correlations use of the second series alone, None for a
    constant one: its deviations, its ranks, their deviations, and whether
    its values are distinct.

    Re-scoring pairs many model series with one truth series, so this is
    kept per series. 0.0 and -0.0 share a key, and the correlations cannot
    tell them apart: ranks treat them as equal, and a zero deviation of
    either sign adds nothing to a product sum.
    """
    values = list(t)
    # Constancy is tested on the values: the rounded mean of a constant
    # series leaves tiny non-zero deviations.
    if _constant(values):
        return None
    ranks = _average_ranks(values)
    distinct = len(set(values)) == len(values)
    return tuple(_deviations(values)), tuple(ranks), tuple(_deviations(ranks)), distinct


def _correlations(m: list[float], t: list[float]) -> tuple[float | None, float | None]:
    """Pearson's r and Spearman's rho (see ``spearman``) of two or more
    pairs, each None when either series is constant."""
    truth = _truth_half(tuple(t))
    if truth is None or _constant(m):
        return None, None
    dt, rt, drt, t_distinct = truth
    n = len(m)
    rm = _average_ranks(m)
    if t_distinct and len(set(m)) == n:
        d = [a - b for a, b in zip(rm, rt)]
        rho = 1 - 6 * _dot(d, d) / (n * (n * n - 1))
    else:
        rho = _r(_deviations(rm), drt)
    return _r(_deviations(m), dt), rho


def _two_or_more(
    model: Sequence[float], truth: Sequence[float]
) -> tuple[list[float], list[float]]:
    m, t = _paired(model, truth)
    if len(m) < 2:
        raise ValueError("need at least two pairs")
    return m, t


def pearson(model: Sequence[float], truth: Sequence[float]) -> float | None:
    """Product-moment correlation in [-1, 1]; None when either series is constant."""
    return _correlations(*_two_or_more(model, truth))[0]


def spearman(model: Sequence[float], truth: Sequence[float]) -> float | None:
    """Rank correlation with average ranks under ties.

    Tie-free input uses the closed-form 1 - 6*sum(d^2)/(n(n^2-1));
    otherwise the product-moment formula is applied to the rank vectors.
    Constant series make the coefficient undefined (None).
    """
    return _correlations(*_two_or_more(model, truth))[1]


def validate_scores(
    model: Sequence[float], truth: Sequence[float]
) -> ValidationReport:
    """Error metrics plus correlations, with undefined values left as None."""
    m, t = _paired(model, truth)
    n = len(m)
    pearson_r, spearman_rho = _correlations(m, t) if n >= 2 else (None, None)
    return ValidationReport(
        mae_pct=_mae(m, t),
        rmse_pct=_rmse(m, t),
        pearson_r=pearson_r,
        spearman_rho=spearman_rho,
        n=n,
    )


def classify_assessment(
    final_score: float,
    calibration_diff: float | None,
    config: ScoringConfig = ScoringConfig(),
) -> tuple[str, str | None]:
    """Performance category from the score, calibration label from the
    absolute model-vs-accuracy difference (None when no ground truth)."""
    if final_score >= config.mastery_min:
        category = "Mastery"
    elif final_score >= config.developing_min:
        category = "Developing"
    else:
        category = "Struggling"

    if calibration_diff is None:
        return category, None
    diff = abs(calibration_diff)
    if diff < config.calibration_excellent:
        label = "Excellent"
    elif diff < config.calibration_good:
        label = "Good"
    elif diff < config.calibration_fair:
        label = "Fair"
    else:
        label = "Poor"
    return category, label
