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

from .spatial import AOI_ORDER, OUTSIDE_CODE, AoiLabel, _adopt, label_codes

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


# (t_first_ms, t_last_ms, code, bridge_gap_ms) of one in-AoI run; see aoi_runs.
AoiRun = tuple[int, int, int, int | None]


def aoi_runs(t_ms: np.ndarray, codes: np.ndarray) -> tuple[AoiRun, ...]:
    """The in-AoI runs of time-sorted samples (int64 times, AoI codes).

    A run covers consecutive samples sharing one AoI code. Each run that
    is not outside gives ``(t_first_ms, t_last_ms, code, bridge_gap_ms)``,
    in time order. ``bridge_gap_ms`` is the time from the end of the
    previous in-AoI run to the start of this one when a single outside run
    separates two runs of the same code, and None otherwise.
    """
    if len(t_ms) == 0:
        return ()
    first = np.concatenate(([0], np.flatnonzero(codes[1:] != codes[:-1]) + 1))
    last = np.concatenate((first[1:] - 1, [len(t_ms) - 1]))
    t_first, t_last, run_codes = t_ms[first], t_ms[last], codes[first]
    # Run r may extend the period of run r - 2 across the outside run r - 1.
    # Neighbouring runs differ, so run r is then in-AoI and run r - 2 is the
    # in-AoI run before it.
    bridged = np.zeros(len(first), dtype=bool)
    bridged[2:] = (run_codes[1:-1] == OUTSIDE_CODE) & (run_codes[2:] == run_codes[:-2])
    gaps = np.zeros(len(first), dtype=np.int64)
    gaps[2:] = t_first[2:] - t_last[:-2]
    inside = np.flatnonzero(run_codes != OUTSIDE_CODE)
    return tuple(zip(
        t_first[inside].tolist(),
        t_last[inside].tolist(),
        run_codes[inside].tolist(),
        [gap if bridge else None
         for gap, bridge in zip(gaps[inside].tolist(), bridged[inside].tolist())],
    ))


def select_periods(
    runs: Sequence[AoiRun],
    min_duration_ms: int = MIN_DURATION_MS,
    sustained_ms: int = SUSTAINED_MS,
    gap_tolerance_ms: int = 0,
) -> list[EngagementPeriod]:
    """Engagement periods from AoI runs; see ``detect_engagement_periods``."""
    if min_duration_ms > sustained_ms:
        raise ValueError(
            f"minimum duration {min_duration_ms} exceeds sustained threshold {sustained_ms}"
        )
    # At tolerance 0 nothing is bridged, not even a gap of 0 ms.
    bridging = gap_tolerance_ms > 0
    spans: list[list[int]] = []  # [start, end, code] of each candidate period
    for t_first, t_last, code, gap in runs:
        if bridging and gap is not None and gap <= gap_tolerance_ms:
            spans[-1][1] = t_last
        else:
            spans.append([t_first, t_last, code])
    return [
        EngagementPeriod(start, end, AOI_ORDER[code], end - start >= sustained_ms)
        for start, end, code in spans
        if end - start >= min_duration_ms
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
    return _adopt(TemporalMetrics, dict(
        eta_temporal=total / session_duration_ms if session_duration_ms > 0 else 0.0,
        mu_engagement_ms=total / count if count else 0.0,
        sigma_sustained=sustained / count if count else 0.0,
        period_count=count,
        sustained_count=sustained,
        session_duration_ms=session_duration_ms,
    ))
