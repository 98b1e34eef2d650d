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
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

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
class RawRecord:
    """One CSV row before cleaning. Optional facets may be absent."""

    timestamp_ms: int | None
    gaze_text: str | None = None
    object_text: str | None = None
    aoi_width_px: float | None = None
    aoi_height_px: float | None = None
    event_kind: str | None = None
    event_correct: bool | None = None


@dataclass(frozen=True)
class GazeSample:
    t_ms: int
    x_px: float
    y_px: float


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
    """Cleaned samples, events and placements for one student at one level."""

    student_id: str
    level: int
    samples: tuple[GazeSample, ...]
    events: tuple[GameEvent, ...]
    placements: tuple[ObjectPlacement, ...]
    geometry: ScreenGeometry = ScreenGeometry()
    dropped_samples: int = 0

    def __post_init__(self) -> None:
        if self.level not in VALID_LEVELS:
            raise ValueError(f"level must be in {VALID_LEVELS}, got {self.level}")


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


def clean_samples(
    records: Iterable[RawRecord],
    geometry: ScreenGeometry,
    drop_out_of_bounds: bool = True,
) -> tuple[list[GazeSample], int]:
    """Extract valid gaze samples from raw records.

    Drops records whose gaze field is (0, 0) (tracking loss), fails to
    parse, falls outside [0, W] x [0, H] (unless ``drop_out_of_bounds``
    is off), or carries no timestamp. Records without a gaze field are
    not samples at all and are neither kept nor counted as dropped.

    Returns the samples sorted by timestamp (stable for ties) together
    with the number of dropped gaze records.
    """
    samples: list[GazeSample] = []
    dropped = 0
    for record in records:
        if record.gaze_text is None or record.gaze_text == "":
            continue
        if record.timestamp_ms is None:
            dropped += 1
            continue
        try:
            x, y = parse_coordinate_string(record.gaze_text)
        except CoordinateParseError:
            dropped += 1
            continue
        if x == 0 and y == 0:
            dropped += 1
            continue
        if drop_out_of_bounds and not (
            0 <= x <= geometry.width_px and 0 <= y <= geometry.height_px
        ):
            dropped += 1
            continue
        samples.append(GazeSample(t_ms=record.timestamp_ms, x_px=x, y_px=y))
    samples.sort(key=lambda s: s.t_ms)
    return samples, dropped


def normalize_timestamps(samples: Sequence[GazeSample]) -> list[GazeSample]:
    """Shift timestamps so the first sample sits at 0; gaps are preserved."""
    if not samples:
        return []
    offset = samples[0].t_ms
    if offset == 0:
        return list(samples)
    return [replace(s, t_ms=s.t_ms - offset) for s in samples]


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
    drop_out_of_bounds: bool = True,
) -> LevelSession:
    """Load one level file into a cleaned, normalized LevelSession.

    Gaze problems are handled by cleaning (dropped and counted); malformed
    event or placement fields are structural errors and raise
    SessionLoadError with file, line and field context.
    """
    path = Path(path)
    if level not in VALID_LEVELS:
        raise SessionLoadError(f"level must be in {VALID_LEVELS}, got {level}", path)
    if not path.exists():
        raise FileNotFoundError(f"no such session file: {path}")

    records: list[RawRecord] = []
    events: list[tuple[int, GameEvent]] = []
    placements: list[tuple[int, ObjectPlacement]] = []

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
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(CSV_HEADER):
                raise SessionLoadError(
                    f"expected {len(CSV_HEADER)} fields, got {len(row)}", path, line_no
                )
            ts_text, gaze, object_pos, aoi_w, aoi_h, event_kind, event_correct = (
                cell.strip() for cell in row
            )
            t_ms = _parse_timestamp(ts_text)

            if gaze:
                records.append(RawRecord(timestamp_ms=t_ms, gaze_text=gaze))

            if object_pos:
                if t_ms is None:
                    raise SessionLoadError(
                        "placement row without timestamp", path, line_no, "timestamp_ms"
                    )
                try:
                    ox, oy = parse_coordinate_string(object_pos)
                except CoordinateParseError as exc:
                    raise SessionLoadError(str(exc), path, line_no, "object_pos") from exc
                try:
                    w = float(aoi_w)
                    h = float(aoi_h)
                except ValueError as exc:
                    raise SessionLoadError(
                        f"bad AoI dimensions {aoi_w!r}x{aoi_h!r}", path, line_no, "aoi_w"
                    ) from exc
                try:
                    placement = ObjectPlacement(
                        t_ms=t_ms, obj_x_px=ox, obj_y_px=oy, aoi_w_px=w, aoi_h_px=h
                    )
                except ValueError as exc:
                    raise SessionLoadError(str(exc), path, line_no, "aoi_w") from exc
                placements.append((t_ms, placement))

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
                        f"bad event_correct value {event_correct!r}",
                        path,
                        line_no,
                        "event_correct",
                    )
                events.append((t_ms, GameEvent(t_ms=t_ms, kind=event_kind, correct=correct)))

    samples, dropped = clean_samples(records, geometry, drop_out_of_bounds)
    if not samples:
        log.warning("%s: no valid gaze samples (dropped=%d)", path, dropped)

    offset = samples[0].t_ms if samples else 0
    samples = normalize_timestamps(samples)
    events.sort(key=lambda pair: pair[0])
    placements.sort(key=lambda pair: pair[0])
    shifted_events = tuple(
        replace(ev, t_ms=ev.t_ms - offset) for _, ev in events
    )
    shifted_placements = tuple(
        replace(pl, t_ms=pl.t_ms - offset) for _, pl in placements
    )

    return LevelSession(
        student_id=student_id,
        level=level,
        samples=tuple(samples),
        events=shifted_events,
        placements=shifted_placements,
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
    for sample in session.samples:
        rows.append(
            (
                sample.t_ms,
                1,
                [str(sample.t_ms), _format_coord(sample.x_px, sample.y_px), "", "", "", "", ""],
            )
        )
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
