"""Per-sample reference implementations of the analysis stages.

These are the straightforward Python loops the columnar kernels in
``gazescore`` replaced. They walk one ``GazeSample`` and one Enum label
at a time and serve as oracles in the equivalence property tests.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from gazescore.engagement import EngagementPeriod
from gazescore.ingest import GazeSample, LevelSession, ObjectPlacement
from gazescore.spatial import AoiLabel, Quadrant, ScreenGeometry, aoi_bounds
from gazescore.transitions import DwellSummary

_QUADRANT_INDEX = {q: i for i, q in enumerate(Quadrant)}
_AOI_INDEX = {a: i for i, a in enumerate(AoiLabel)}


def quadrant_of(x: float, y: float, geometry: ScreenGeometry) -> Quadrant:
    w, h = geometry.width_px, geometry.height_px
    if not geometry.y_up:
        y = h - y
    if x < w / 2:
        return Quadrant.Q1 if y > h / 2 else Quadrant.Q3
    return Quadrant.Q2 if y > h / 2 else Quadrant.Q4


def classify_aoi(
    x: float, y: float, placement: ObjectPlacement | None, geometry: ScreenGeometry
) -> AoiLabel:
    if placement is None:
        return AoiLabel.OUTSIDE
    rect = aoi_bounds(placement)
    if not (rect.x_min <= x <= rect.x_max and rect.y_min <= y <= rect.y_max):
        return AoiLabel.OUTSIDE
    if placement.obj_x_px < geometry.width_px / 2:
        return AoiLabel.LEFT
    return AoiLabel.RIGHT


def active_placement(
    placements: Sequence[ObjectPlacement], t_ms: int
) -> ObjectPlacement | None:
    """Most recent placement with t_ms <= the query time (sorted input)."""
    times = [p.t_ms for p in placements]
    idx = bisect_right(times, t_ms)
    return placements[idx - 1] if idx else None


def classify_session(session: LevelSession) -> tuple[list[Quadrant], list[AoiLabel]]:
    """Forward walk over time-sorted samples and placements."""
    quadrants: list[Quadrant] = []
    aois: list[AoiLabel] = []
    placements = session.placements
    pi = 0
    current: ObjectPlacement | None = None
    for sample in session.samples:
        while pi < len(placements) and placements[pi].t_ms <= sample.t_ms:
            current = placements[pi]
            pi += 1
        quadrants.append(quadrant_of(sample.x_px, sample.y_px, session.geometry))
        aois.append(classify_aoi(sample.x_px, sample.y_px, current, session.geometry))
    return quadrants, aois


def _pair_counts(indices: Sequence[int], size: int) -> np.ndarray:
    counts = np.zeros((size, size), dtype=np.int64)
    for a, b in zip(indices, indices[1:]):
        counts[a, b] += 1
    return counts


def quadrant_counts(labels: Sequence[Quadrant]) -> np.ndarray:
    return _pair_counts([_QUADRANT_INDEX[q] for q in labels], 4)


def aoi_counts(labels: Sequence[AoiLabel]) -> np.ndarray:
    return _pair_counts([_AOI_INDEX[a] for a in labels], 3)


def dwell_summary(samples: Sequence[GazeSample], labels: Sequence[Quadrant]) -> DwellSummary:
    time_in = {q: 0 for q in Quadrant}
    if len(samples) < 2:
        return DwellSummary(time_in_quadrant=time_in, session_duration_ms=0, stimuli_focus_pct=0.0)
    for i in range(len(samples) - 1):
        time_in[labels[i]] += samples[i + 1].t_ms - samples[i].t_ms
    duration = samples[-1].t_ms - samples[0].t_ms
    stimulus_ms = time_in[Quadrant.Q3] + time_in[Quadrant.Q4]
    focus = 100.0 * stimulus_ms / duration if duration > 0 else 0.0
    return DwellSummary(
        time_in_quadrant=time_in, session_duration_ms=duration, stimuli_focus_pct=focus
    )


def aoi_sample_share_pct(labels: Sequence[AoiLabel]) -> float:
    if not labels:
        return 0.0
    inside = sum(1 for label in labels if label is not AoiLabel.OUTSIDE)
    return 100.0 * inside / len(labels)


def aoi_time_share_pct(samples: Sequence[GazeSample], labels: Sequence[AoiLabel]) -> float:
    if len(samples) < 2:
        return 0.0
    inside_ms = 0
    for i in range(len(samples) - 1):
        if labels[i] is not AoiLabel.OUTSIDE:
            inside_ms += samples[i + 1].t_ms - samples[i].t_ms
    duration = samples[-1].t_ms - samples[0].t_ms
    return 100.0 * inside_ms / duration if duration > 0 else 0.0


def detect_engagement_periods(
    labeled_samples: Sequence[tuple[int, AoiLabel]],
    min_duration_ms: int = 400,
    sustained_ms: int = 2500,
    gap_tolerance_ms: int = 0,
) -> list[EngagementPeriod]:
    """State machine over (t, label) pairs with look-ahead dropout bridging."""
    periods: list[EngagementPeriod] = []
    side: AoiLabel | None = None
    run_start = 0
    run_last = 0

    def close_run() -> None:
        if side is not None and run_last - run_start >= min_duration_ms:
            periods.append(
                EngagementPeriod(
                    t_start_ms=run_start,
                    t_end_ms=run_last,
                    aoi=side,
                    sustained=(run_last - run_start) >= sustained_ms,
                )
            )

    i = 0
    n = len(labeled_samples)
    while i < n:
        t, label = labeled_samples[i]
        if label is AoiLabel.OUTSIDE:
            if side is not None and gap_tolerance_ms > 0:
                j = i
                while (
                    j < n
                    and labeled_samples[j][1] is AoiLabel.OUTSIDE
                    and labeled_samples[j][0] - run_last <= gap_tolerance_ms
                ):
                    j += 1
                if (
                    j < n
                    and labeled_samples[j][1] is side
                    and labeled_samples[j][0] - run_last <= gap_tolerance_ms
                ):
                    i = j
                    continue
            close_run()
            side = None
        elif label is side:
            run_last = t
        else:
            close_run()
            side = label
            run_start = t
            run_last = t
        i += 1
    close_run()
    return periods
