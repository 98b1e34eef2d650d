"""Transition matrices, dwell times and focus shares for a labeled session.

Both matrices count consecutive label pairs including repeats (diagonal
cells), so total matrix mass is n-1 for n samples. Cross-quadrant
aggregates exclude the diagonal.

Every stage takes labels as Enum sequences or as int8 code arrays in
``QUADRANT_ORDER`` / ``AOI_ORDER`` index order, and samples as
``GazeSample`` sequences, as ``SampleColumns`` or as an int64 timestamp
array.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .ingest import GazeSample, SampleColumns
from .spatial import (
    AOI_ORDER, LEFT_CODE, OUTSIDE_CODE, QUADRANT_ORDER, RIGHT_CODE, AoiLabel, Quadrant,
    label_codes, read_only, sample_times,
)

Labels = Sequence[Quadrant] | Sequence[AoiLabel] | np.ndarray
Samples = Sequence[GazeSample] | SampleColumns | np.ndarray


# Matrices compare by identity (== over arrays has no truth value).
@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Counts indexed (from, to) in label-order index order: 4x4 over
    quadrants, 3x3 over AoIs. Stored as a read-only int64 copy."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", read_only(np.array(self.counts, dtype=np.int64)))


@dataclass(frozen=True)
class TransitionAggregates:
    nsq_to_sq: int
    sq_to_nsq: int
    nsq_to_nsq: int
    sq_to_sq: int
    total: int


@dataclass(frozen=True)
class AoiMetrics:
    left_right_transitions: int
    balance: float
    efficiency: float
    fixations_left: int
    fixations_right: int
    aoi_total: int


@dataclass(frozen=True)
class DwellSummary:
    """``time_in_quadrant`` is stored as a read-only mapping in
    ``QUADRANT_ORDER``; it must hold every quadrant."""

    time_in_quadrant: Mapping[Quadrant, int]
    session_duration_ms: int
    stimuli_focus_pct: float

    def __post_init__(self) -> None:
        time_in = self.time_in_quadrant
        object.__setattr__(
            self, "time_in_quadrant", MappingProxyType({q: time_in[q] for q in QUADRANT_ORDER})
        )


def _pair_matrix(labels: Labels, order: tuple) -> np.ndarray:
    k = len(order)
    codes = label_codes(labels, order)
    return np.bincount(codes[:-1] * k + codes[1:], minlength=k * k).reshape(k, k)


def build_quadrant_matrix(labels: Labels) -> TransitionMatrix:
    """Count consecutive quadrant pairs; empty/singleton input gives zeros."""
    return TransitionMatrix(_pair_matrix(labels, QUADRANT_ORDER))


def build_aoi_matrix(labels: Labels) -> TransitionMatrix:
    return TransitionMatrix(_pair_matrix(labels, AOI_ORDER))


def aggregate_transitions(matrix: TransitionMatrix) -> TransitionAggregates:
    """Group the cross-quadrant cells; diagonal cells count nowhere.

    nsq_to_sq sums the four {Q1,Q2} -> {Q3,Q4} cells, sq_to_nsq the
    reverse four, nsq_to_nsq the Q1<->Q2 pair, sq_to_sq the Q3<->Q4
    pair; the total is the sum of all four groups.
    """
    c = matrix.counts
    nsq_to_sq = int(c[:2, 2:].sum())
    sq_to_nsq = int(c[2:, :2].sum())
    nsq_to_nsq = int(c[0, 1] + c[1, 0])
    sq_to_sq = int(c[2, 3] + c[3, 2])
    return TransitionAggregates(
        nsq_to_sq=nsq_to_sq,
        sq_to_nsq=sq_to_nsq,
        nsq_to_nsq=nsq_to_nsq,
        sq_to_sq=sq_to_sq,
        total=nsq_to_sq + sq_to_nsq + nsq_to_nsq + sq_to_sq,
    )


def aoi_metrics(matrix: TransitionMatrix, changes_only: bool = False) -> AoiMetrics:
    """Left/right switching metrics from the AoI matrix.

    ``changes_only`` narrows the total-mass denominator to label-change
    cells (off-diagonal) instead of all consecutive pairs.
    """
    c = matrix.counts
    switches = int(c[LEFT_CODE, RIGHT_CODE] + c[RIGHT_CODE, LEFT_CODE])
    fixations_left = int(c[LEFT_CODE, :].sum())
    fixations_right = int(c[RIGHT_CODE, :].sum())
    total = int(c.sum() - np.trace(c)) if changes_only else int(c.sum())
    balance = abs(fixations_left - fixations_right) / max(fixations_left + fixations_right, 1)
    efficiency = switches / total if total > 0 else 0.0
    return AoiMetrics(
        left_right_transitions=switches,
        balance=balance,
        efficiency=efficiency,
        fixations_left=fixations_left,
        fixations_right=fixations_right,
        aoi_total=total,
    )


def _time_by_code(samples: Samples, labels: Labels, order: tuple) -> tuple[list[int], int]:
    """Integer ms per label code, each gap charged to the earlier sample,
    plus the session duration. Fewer than two samples means no elapsed
    time."""
    t = sample_times(samples)
    codes = label_codes(labels, order)
    if len(t) != len(codes):
        raise ValueError(f"{len(t)} samples vs {len(codes)} labels")
    if len(t) < 2:
        return [0] * len(order), 0
    per_code = np.zeros(len(order), dtype=np.int64)
    np.add.at(per_code, codes[:-1], np.diff(t))
    return per_code.tolist(), int(t[-1] - t[0])


def dwell_summary(samples: Samples, labels: Labels) -> DwellSummary:
    """Per-quadrant dwell times with each gap charged to the earlier sample.

    Integer arithmetic throughout, so the per-quadrant times sum to the
    session duration exactly. Fewer than two samples means no elapsed
    time: all durations zero and a zero focus share.
    """
    per_code, duration = _time_by_code(samples, labels, QUADRANT_ORDER)
    time_in = dict(zip(QUADRANT_ORDER, per_code))
    stimulus_ms = time_in[Quadrant.Q3] + time_in[Quadrant.Q4]
    focus = 100.0 * stimulus_ms / duration if duration > 0 else 0.0
    return DwellSummary(
        time_in_quadrant=time_in, session_duration_ms=duration, stimuli_focus_pct=focus
    )


def aoi_sample_share_pct(labels: Labels) -> float:
    """Share of samples inside either AoI, in percent."""
    codes = label_codes(labels, AOI_ORDER)
    if len(codes) == 0:
        return 0.0
    inside = int(np.count_nonzero(codes != OUTSIDE_CODE))
    return 100.0 * inside / len(codes)


def aoi_time_share_pct(samples: Samples, labels: Labels) -> float:
    """Share of session time spent inside either AoI, in percent.

    Uses the same earlier-sample gap attribution as dwell_summary. This
    is the dwell-based counterpart of the engagement-period ratio and is
    reported separately from it.
    """
    per_code, duration = _time_by_code(samples, labels, AOI_ORDER)
    inside_ms = per_code[LEFT_CODE] + per_code[RIGHT_CODE]
    return 100.0 * inside_ms / duration if duration > 0 else 0.0
