"""Spatial classification of gaze samples.

Maps screen coordinates to one of four quadrants (the lower screen half
holds the game stimuli, the upper half holds menu/interface elements) and
to an object-centered area of interest (AoI) when a placement is active.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .ingest import GazeSample, LevelSession, SampleColumns


class Quadrant(Enum):
    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"
    Q4 = "Q4"


class AoiLabel(Enum):
    LEFT = "left"
    RIGHT = "right"
    OUTSIDE = "outside"


# Labels travel as int8 codes: the index of the label in these tuples.
QUADRANT_ORDER = tuple(Quadrant)
AOI_ORDER = tuple(AoiLabel)
LEFT_CODE = AOI_ORDER.index(AoiLabel.LEFT)
RIGHT_CODE = AOI_ORDER.index(AoiLabel.RIGHT)
OUTSIDE_CODE = AOI_ORDER.index(AoiLabel.OUTSIDE)


@dataclass(frozen=True)
class ScreenGeometry:
    """Screen dimensions plus the vertical axis convention.

    ``y_up=False`` (the default) means input coordinates are screen
    coordinates with y growing downward; they are mirrored to the y-up
    frame before the quadrant case analysis, so the stimulus quadrants
    are the visually lower half of the display. ``y_up=True`` applies
    the case analysis to the input coordinates verbatim.
    """

    width_px: float = 1920.0
    height_px: float = 1080.0
    y_up: bool = False

    def __post_init__(self) -> None:
        # NaN fails every comparison, so it is rejected too.
        if not (0 < self.width_px < math.inf and 0 < self.height_px < math.inf):
            raise ValueError(
                "screen dimensions must be positive and finite, "
                f"got {self.width_px}x{self.height_px}"
            )


def read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` that cannot be made writeable again.

    Clearing the flag on the array itself is not enough: an array that
    owns its data lets ``flags.writeable = True`` undo it. A view of a
    read-only base refuses that. Nothing else may hold ``array``.
    """
    array.flags.writeable = False
    return array.view()


def _adopt(cls, fields: dict):
    """A ``cls`` record holding ``fields``, made without ``__init__`` or its checks."""
    record = object.__new__(cls)
    object.__setattr__(record, "__dict__", fields)
    return record


def label_codes(labels: Sequence[Enum] | np.ndarray, order: tuple[Enum, ...]) -> np.ndarray:
    """Label codes (index into ``order``) from Enum labels; arrays pass through."""
    if isinstance(labels, np.ndarray):
        return labels
    index = {label: code for code, label in enumerate(order)}
    return np.fromiter(map(index.__getitem__, labels), dtype=np.int8, count=len(labels))


def sample_times(samples: Sequence[GazeSample] | SampleColumns | np.ndarray) -> np.ndarray:
    """int64 timestamps of the samples; an array is taken as the timestamps
    and ``SampleColumns`` gives its ``t_ms`` column."""
    times = getattr(samples, "t_ms", samples)
    if isinstance(times, np.ndarray):
        return times.astype(np.int64, copy=False)
    return np.array([s.t_ms for s in samples], dtype=np.int64)


def classify_session(session: LevelSession) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample quadrant and AoI codes (int8, read-only) for a session.

    Quadrants split the screen at its center (y above H/2 in the y-up frame is
    the upper menu half). A sample's AoI is judged against the most recent
    placement with t_ms <= its time (step function over the placements,
    time-sorted by ``LevelSession``): a rectangle centred on the object with
    half extents w/2 and h/2, closed on all edges and not clipped to the
    screen. The side comes from the object's horizontal position, not the gaze
    point's. With no active placement a sample is outside.
    """
    samples = session.samples
    t, x, y = samples.t_ms, samples.x_px, samples.y_px
    geometry = session.geometry
    w, h = geometry.width_px, geometry.height_px
    up = y if geometry.y_up else h - y
    quadrants = (np.where(x < w / 2, 0, 1) + np.where(up > h / 2, 0, 2)).astype(np.int8)

    placements = session.placements
    if placements:
        times = np.array([p.t_ms for p in placements], dtype=np.int64)
        obj_x, obj_y, aoi_w, aoi_h = np.array(
            [(p.obj_x_px, p.obj_y_px, p.aoi_w_px, p.aoi_h_px) for p in placements],
            dtype=np.float64,
        ).T
        x_min, x_max = obj_x - aoi_w / 2, obj_x + aoi_w / 2
        y_min, y_max = obj_y - aoi_h / 2, obj_y + aoi_h / 2
        sides = np.where(obj_x < w / 2, LEFT_CODE, RIGHT_CODE).astype(np.int8)
        active = np.searchsorted(times, t, side="right") - 1
        inside = (
            (active >= 0)
            & (x_min[active] <= x) & (x <= x_max[active])
            & (y_min[active] <= y) & (y <= y_max[active])
        )
        aois = np.where(inside, sides[active], OUTSIDE_CODE).astype(np.int8)
    else:
        aois = np.full(len(t), OUTSIDE_CODE, dtype=np.int8)
    return read_only(quadrants), read_only(aois)
