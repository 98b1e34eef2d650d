"""Loading, parsing, cleaning and merging of raw gaze session CSV files.

The canonical CSV schema is::

    timestamp_ms,gaze,object_pos,aoi_w,aoi_h,event_kind,event_correct

One row may carry any combination of a gaze reading (``gaze``), an object
placement (``object_pos`` + ``aoi_w`` + ``aoi_h``) and a game event
(``event_kind`` + ``event_correct``); each facet is extracted
independently. Coordinate pairs are stored as text like ``"(1250, 680)"``.
"""
from __future__ import annotations

import csv
import logging
import math
import operator
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .spatial import ScreenGeometry

log = logging.getLogger(__name__)

CSV_HEADER = [
    "timestamp_ms",
    "gaze",
    "object_pos",
    "aoi_w",
    "aoi_h",
    "event_kind",
    "event_correct",
]

VALID_LEVELS = (1, 2, 3)

MAX_ABS_TIMESTAMP_MS = 2**62

EVENT_KINDS_SCORED = ("mouse_click", "answer")

_COORD_RE = re.compile(
    r"^\s*\(\s*([+-]?(?:\d+\.?\d*|\.\d+))\s*,\s*([+-]?(?:\d+\.?\d*|\.\d+))\s*\)\s*$"
)

_TRUE_VALUES = {"true", "1", "yes"}
_FALSE_VALUES = {"false", "0", "no"}


class CoordinateParseError(ValueError):
    """Raised when a coordinate string does not match "(x, y)"."""


class SessionLoadError(ValueError):
    """A structural problem in a session CSV, with file/line/field context."""

    def __init__(self, message: str, path: str | Path = "", line: int = 0, fieldname: str = ""):
        self.path = str(path)
        self.line = line
        self.fieldname = fieldname
        context = ""
        if self.path:
            context = f" [{self.path}"
            if line:
                context += f":{line}"
            if fieldname:
                context += f" field={fieldname}"
            context += "]"
        super().__init__(message + context)


class DuplicateSessionError(ValueError):
    """Two sessions for the same (student, level) pair."""


@dataclass(frozen=True)
class GazeSample:
    t_ms: int
    x_px: float
    y_px: float


class SampleColumns:
    """The gaze samples of a session as read-only columns.

    ``t_ms`` is int64, ``x_px`` and ``y_px`` are float64. ``len``, int
    indexing and iteration give ``GazeSample`` views; two containers are
    equal when their columns are.
    """

    __slots__ = ("t_ms", "x_px", "y_px")

    def __init__(self, t_ms, x_px, y_px) -> None:
        columns = (
            np.array(t_ms, dtype=np.int64),
            np.array(x_px, dtype=np.float64),
            np.array(y_px, dtype=np.float64),
        )
        if any(c.shape != (len(columns[0]),) for c in columns):
            raise ValueError("sample columns must be 1-d and of equal length")
        for name, column in zip(self.__slots__, columns):
            column.flags.writeable = False
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.t_ms)

    def __getitem__(self, index: int) -> GazeSample:
        i = operator.index(index)
        return GazeSample(int(self.t_ms[i]), float(self.x_px[i]), float(self.y_px[i]))

    def __iter__(self) -> Iterator[GazeSample]:
        return map(GazeSample, self.t_ms.tolist(), self.x_px.tolist(), self.y_px.tolist())

    def __eq__(self, other):
        if not isinstance(other, SampleColumns):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.__slots__
        )

    def __repr__(self) -> str:
        return f"SampleColumns(n={len(self)})"


@dataclass(frozen=True)
class GameEvent:
    t_ms: int
    kind: str
    correct: bool

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS_SCORED:
            raise ValueError(f"event kind must be one of {EVENT_KINDS_SCORED}, got {self.kind!r}")


@dataclass(frozen=True)
class ObjectPlacement:
    t_ms: int
    obj_x_px: float
    obj_y_px: float
    aoi_w_px: float
    aoi_h_px: float

    def __post_init__(self) -> None:
        if not (0 < self.aoi_w_px < math.inf and 0 < self.aoi_h_px < math.inf):
            raise ValueError(
                f"AoI dimensions must be positive and finite, got {self.aoi_w_px}x{self.aoi_h_px}"
            )


@dataclass(frozen=True)
class LevelSession:
    """Cleaned samples, events and placements for one student at one level.

    ``samples`` may be given as a ``GazeSample`` sequence; it is stored
    as ``SampleColumns``.
    """

    student_id: str
    level: int
    samples: SampleColumns
    events: tuple[GameEvent, ...]
    placements: tuple[ObjectPlacement, ...]
    geometry: ScreenGeometry = ScreenGeometry()
    dropped_samples: int = 0

    def __post_init__(self) -> None:
        if self.level not in VALID_LEVELS:
            raise ValueError(f"level must be in {VALID_LEVELS}, got {self.level}")
        if not isinstance(self.samples, SampleColumns):
            samples = tuple(self.samples)
            columns = SampleColumns(
                [s.t_ms for s in samples], [s.x_px for s in samples], [s.y_px for s in samples]
            )
            object.__setattr__(self, "samples", columns)


@dataclass
class SessionSet:
    """Sessions grouped by (student_id, level)."""

    sessions: dict[tuple[str, int], LevelSession] = field(default_factory=dict)

    def add(self, session: LevelSession) -> None:
        key = (session.student_id, session.level)
        if key in self.sessions:
            raise DuplicateSessionError(
                f"duplicate session for student {key[0]!r} level {key[1]}"
            )
        self.sessions[key] = session

    def students(self) -> list[str]:
        return sorted({sid for sid, _ in self.sessions})

    def for_student(self, student_id: str) -> list[LevelSession]:
        return [
            self.sessions[(student_id, level)]
            for level in sorted(lv for sid, lv in self.sessions if sid == student_id)
        ]

    def __len__(self) -> int:
        return len(self.sessions)


def parse_coordinate_string(text: str) -> tuple[float, float]:
    """Parse "(x, y)" into a pair of floats.

    Accepts integers or decimals with optional sign and whitespace.
    Raises CoordinateParseError for anything else (missing parentheses,
    non-numeric fields, wrong arity).
    """
    match = _COORD_RE.match(text)
    if match is None:
        raise CoordinateParseError(f"not a coordinate pair: {text!r}")
    return float(match.group(1)), float(match.group(2))


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def _parse_timestamp(text: str) -> int | None:
    """Integer ms, or None for a blank, unparsable, non-finite or
    out-of-range value. The range keeps every normalized time and time
    difference inside the int64 columns of the analysis."""
    text = text.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return _round_half_up(value) if abs(value) < MAX_ABS_TIMESTAMP_MS else None


def _parse_bool(text: str) -> bool | None:
    lowered = text.strip().lower()
    if lowered in _TRUE_VALUES:
        return True
    if lowered in _FALSE_VALUES:
        return False
    return None


def load_level_csv(
    path: str | Path,
    level: int,
    student_id: str,
    geometry: ScreenGeometry = ScreenGeometry(),
) -> LevelSession:
    """Load one level file into a cleaned, normalized LevelSession.

    A gaze reading is dropped and counted when it is (0, 0) (tracking
    loss), fails to parse, falls outside [0, W] x [0, H] or its row has
    no usable timestamp; rows without a gaze reading are not samples.
    Samples are sorted by timestamp (stable for ties) and shifted so the
    first sits at 0; events and placements shift by the same offset.
    Malformed event or placement fields are structural errors and raise
    SessionLoadError with file, line and field context.
    """
    path = Path(path)
    if level not in VALID_LEVELS:
        raise SessionLoadError(f"level must be in {VALID_LEVELS}, got {level}", path)
    if not path.exists():
        raise FileNotFoundError(f"no such session file: {path}")

    width, height = geometry.width_px, geometry.height_px
    ts: list[int] = []
    xs: list[float] = []
    ys: list[float] = []
    dropped = 0
    events: list[GameEvent] = []
    placements: list[ObjectPlacement] = []

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SessionLoadError("empty file, expected canonical header", path, 1)
        if [h.strip() for h in header] != CSV_HEADER:
            raise SessionLoadError(
                f"malformed header {header!r}, expected {CSV_HEADER!r}", path, 1
            )
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                if any(cell.strip() for cell in row):
                    raise SessionLoadError(
                        f"expected {len(CSV_HEADER)} fields, got {len(row)}", path, line_no
                    )
                continue
            ts_text, gaze, object_pos, aoi_w, aoi_h, event_kind, event_correct = row
            t_ms = _parse_timestamp(ts_text)

            gaze = gaze.strip()
            if gaze:
                match = None if t_ms is None else _COORD_RE.match(gaze)
                if match is None:
                    dropped += 1
                else:
                    x, y = float(match[1]), float(match[2])
                    if (x == 0 and y == 0) or not (0 <= x <= width and 0 <= y <= height):
                        dropped += 1
                    else:
                        ts.append(t_ms)
                        xs.append(x)
                        ys.append(y)

            object_pos = object_pos.strip()
            if object_pos:
                if t_ms is None:
                    raise SessionLoadError(
                        "placement row without timestamp", path, line_no, "timestamp_ms"
                    )
                try:
                    ox, oy = parse_coordinate_string(object_pos)
                except CoordinateParseError as exc:
                    raise SessionLoadError(str(exc), path, line_no, "object_pos") from exc
                aoi_w, aoi_h = aoi_w.strip(), aoi_h.strip()
                try:
                    w = float(aoi_w)
                    h = float(aoi_h)
                except ValueError as exc:
                    raise SessionLoadError(
                        f"bad AoI dimensions {aoi_w!r}x{aoi_h!r}", path, line_no, "aoi_w"
                    ) from exc
                try:
                    placements.append(ObjectPlacement(t_ms, ox, oy, w, h))
                except ValueError as exc:
                    raise SessionLoadError(str(exc), path, line_no, "aoi_w") from exc

            event_kind = event_kind.strip()
            if event_kind and event_kind != "other":
                if event_kind not in EVENT_KINDS_SCORED:
                    raise SessionLoadError(
                        f"unknown event kind {event_kind!r}", path, line_no, "event_kind"
                    )
                if t_ms is None:
                    raise SessionLoadError(
                        "event row without timestamp", path, line_no, "timestamp_ms"
                    )
                correct = _parse_bool(event_correct)
                if correct is None:
                    raise SessionLoadError(
                        f"bad event_correct value {event_correct.strip()!r}",
                        path,
                        line_no,
                        "event_correct",
                    )
                events.append(GameEvent(t_ms, event_kind, correct))

    if not ts:
        log.warning("%s: no valid gaze samples (dropped=%d)", path, dropped)
    t = np.array(ts, dtype=np.int64)
    order = np.argsort(t, kind="stable")
    offset = int(t[order[0]]) if len(t) else 0
    samples = SampleColumns(t[order] - offset, np.array(xs)[order], np.array(ys)[order])

    def shifted(items):
        ordered = sorted(items, key=operator.attrgetter("t_ms"))
        return tuple(replace(item, t_ms=item.t_ms - offset) for item in ordered)

    return LevelSession(
        student_id=student_id,
        level=level,
        samples=samples,
        events=shifted(events),
        placements=shifted(placements),
        geometry=geometry,
        dropped_samples=dropped,
    )


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_coord(x: float, y: float) -> str:
    return f"({_format_number(x)}, {_format_number(y)})"


def write_level_csv(session: LevelSession, path: str | Path) -> Path:
    """Serialize a session back to the canonical CSV (LF line endings).

    Reloading the written file yields an identical session, provided the
    session is normalized (first sample at t=0) as load_level_csv output
    always is.
    """
    path = Path(path)
    rows: list[tuple[int, int, list[str]]] = []
    for placement in session.placements:
        rows.append(
            (
                placement.t_ms,
                0,
                [
                    str(placement.t_ms),
                    "",
                    _format_coord(placement.obj_x_px, placement.obj_y_px),
                    _format_number(placement.aoi_w_px),
                    _format_number(placement.aoi_h_px),
                    "",
                    "",
                ],
            )
        )
    samples = session.samples
    for t, x, y in zip(samples.t_ms.tolist(), samples.x_px.tolist(), samples.y_px.tolist()):
        rows.append((t, 1, [str(t), _format_coord(x, y), "", "", "", "", ""]))
    for event in session.events:
        rows.append(
            (
                event.t_ms,
                2,
                [
                    str(event.t_ms),
                    "",
                    "",
                    "",
                    "",
                    event.kind,
                    "true" if event.correct else "false",
                ],
            )
        )
    rows.sort(key=lambda item: (item[0], item[1]))
    with path.open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for _, _, row in rows:
            writer.writerow(row)
    return path


def merge_levels(sessions: Iterable[LevelSession]) -> SessionSet:
    """Group sessions by (student, level); duplicates are an error.

    Partial sets (fewer than three levels for a student) are accepted
    with a warning; analysis runs per available level.
    """
    merged = SessionSet()
    for session in sessions:
        merged.add(session)
    for student in merged.students():
        levels = sorted(s.level for s in merged.for_student(student))
        if len(levels) < len(VALID_LEVELS):
            log.warning(
                "student %s has levels %s only (expected %s)", student, levels, list(VALID_LEVELS)
            )
    return merged
