"""Engagement period detection and temporal efficiency metrics.

An engagement period is a maximal run of consecutive samples sharing the
same non-outside AoI label whose span (last timestamp minus first) reaches
the minimum duration. Periods at or above the sustained threshold are
flagged as sustained attention.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spatial import AOI_ORDER, OUTSIDE_CODE, AoiLabel, label_codes, read_only

MIN_DURATION_MS = 400
SUSTAINED_MS = 2500


@dataclass(frozen=True)
class EngagementPeriod:
    t_start_ms: int
    t_end_ms: int
    aoi: AoiLabel
    sustained: bool

    @property
    def duration_ms(self) -> int:
        return self.t_end_ms - self.t_start_ms


@dataclass(frozen=True)
class TemporalMetrics:
    eta_temporal: float
    mu_engagement_ms: float
    sigma_sustained: float
    period_count: int
    sustained_count: int
    session_duration_ms: int


@dataclass(frozen=True, eq=False)
class AoiRuns:
    """Run-length encoding of a session's AoI codes.

    Run r covers consecutive samples sharing code ``codes[r]``, from
    time ``t_first_ms[r]`` to ``t_last_ms[r]``. All three arrays are
    read-only; neighbouring runs have different codes. Runs compare by
    identity (array fields have no truth value).
    """

    t_first_ms: np.ndarray
    t_last_ms: np.ndarray
    codes: np.ndarray


def aoi_runs(t_ms: np.ndarray, codes: np.ndarray) -> AoiRuns:
    """Maximal same-code runs of time-sorted samples (int64 times, AoI codes)."""
    if len(t_ms) == 0:
        first = last = np.zeros(0, dtype=np.intp)
    else:
        first = np.concatenate(([0], np.flatnonzero(codes[1:] != codes[:-1]) + 1))
        last = np.concatenate((first[1:] - 1, [len(t_ms) - 1]))
    return AoiRuns(
        t_first_ms=read_only(t_ms[first]),
        t_last_ms=read_only(t_ms[last]),
        codes=read_only(codes[first]),
    )


def select_periods(
    runs: AoiRuns,
    min_duration_ms: int = MIN_DURATION_MS,
    sustained_ms: int = SUSTAINED_MS,
    gap_tolerance_ms: int = 0,
) -> list[EngagementPeriod]:
    """Engagement periods from AoI runs; see ``detect_engagement_periods``."""
    if min_duration_ms > sustained_ms:
        raise ValueError(
            f"minimum duration {min_duration_ms} exceeds sustained threshold {sustained_ms}"
        )
    t_first, t_last, run_codes = runs.t_first_ms, runs.t_last_ms, runs.codes
    inside = np.flatnonzero(run_codes != OUTSIDE_CODE)
    if len(inside) == 0:
        return []
    # joined[r]: in-AoI run r extends the period of run r - 2 across the
    # outside run between them.
    joined = np.zeros(len(run_codes), dtype=bool)
    if gap_tolerance_ms > 0:
        joined[2:] = (
            (run_codes[1:-1] == OUTSIDE_CODE)
            & (run_codes[2:] == run_codes[:-2])
            & (t_first[2:] - t_last[:-2] <= gap_tolerance_ms)
        )
    opens = ~joined[inside]
    start_run = inside[opens]
    end_run = inside[np.concatenate((opens[1:], [True]))]
    t_start = t_first[start_run]
    t_end = t_last[end_run]
    keep = t_end - t_start >= min_duration_ms
    return [
        EngagementPeriod(
            t_start_ms=start,
            t_end_ms=end,
            aoi=AOI_ORDER[code],
            sustained=end - start >= sustained_ms,
        )
        for start, end, code in zip(
            t_start[keep].tolist(), t_end[keep].tolist(), run_codes[start_run[keep]].tolist()
        )
    ]


def detect_engagement_periods(
    labeled_samples: Sequence[tuple[int, AoiLabel]],
    min_duration_ms: int = MIN_DURATION_MS,
    sustained_ms: int = SUSTAINED_MS,
    gap_tolerance_ms: int = 0,
) -> list[EngagementPeriod]:
    """Maximal same-AoI runs with span >= min_duration_ms, time ordered.

    ``labeled_samples`` holds time-sorted ``(t_ms, AoiLabel)`` pairs. Any
    sample with a different label ends the run. With a positive
    ``gap_tolerance_ms``, an outside-labeled interruption is bridged
    (for data with tracker dropouts) when the same side resumes no later
    than the tolerance after the last in-AoI sample; a switch to the
    other AoI always terminates. Default tolerance is 0, the strict
    reading. This is ``select_periods`` applied to ``aoi_runs``.
    """
    t = np.array([t_ms for t_ms, _ in labeled_samples], dtype=np.int64)
    codes = label_codes([label for _, label in labeled_samples], AOI_ORDER)
    return select_periods(
        aoi_runs(t, codes),
        min_duration_ms=min_duration_ms,
        sustained_ms=sustained_ms,
        gap_tolerance_ms=gap_tolerance_ms,
    )


def temporal_metrics(
    periods: Sequence[EngagementPeriod], session_duration_ms: int
) -> TemporalMetrics:
    """Engagement share, mean period duration and sustained proportion.

    All three ratios fall back to 0 when their denominator is 0.
    """
    if session_duration_ms < 0:
        raise ValueError(f"session duration must be >= 0, got {session_duration_ms}")
    total = sum(p.duration_ms for p in periods)
    count = len(periods)
    sustained = sum(1 for p in periods if p.sustained)
    return TemporalMetrics(
        eta_temporal=total / session_duration_ms if session_duration_ms > 0 else 0.0,
        mu_engagement_ms=total / count if count else 0.0,
        sigma_sustained=sustained / count if count else 0.0,
        period_count=count,
        sustained_count=sustained,
        session_duration_ms=session_duration_ms,
    )
