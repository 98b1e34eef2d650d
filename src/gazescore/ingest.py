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
from itertools import compress, islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .spatial import ScreenGeometry, read_only

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

_NUMBER = r"([+-]?(?:\d+\.?\d*|\.\d+))"
_COORD_RE = re.compile(rf"^\s*\(\s*{_NUMBER}\s*,\s*{_NUMBER}\s*\)\s*$")
# The same pair on each line of "\n".join(cells): whitespace stops at the
# line break, and a line that holds no pair leaves its text in group 3.
_LINE_WS = r"[^\S\n]"
_GAZE_LINES_RE = re.compile(
    rf"^{_LINE_WS}*(?:\({_LINE_WS}*{_NUMBER}{_LINE_WS}*,{_LINE_WS}*{_NUMBER}{_LINE_WS}*\)"
    rf"{_LINE_WS}*$|(.*))",
    re.MULTILINE,
)

# Data rows parsed per batch: a load holds at most this many rows as Python
# lists, whatever the length of the level. A batch's row lists and match
# tuples live together, so larger batches set off garbage collections that
# rescan them (1 024 rows cost a full collection on a 37k-row job) and raise
# peak memory on long levels; smaller ones pay the fixed NumPy cost per batch
# (about 40 us) more often.
_CHUNK_ROWS = 512

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
        self._hold(
            np.array(t_ms, dtype=np.int64),
            np.array(x_px, dtype=np.float64),
            np.array(y_px, dtype=np.float64),
        )

    @classmethod
    def _adopt(cls, t_ms: np.ndarray, x_px: np.ndarray, y_px: np.ndarray) -> SampleColumns:
        """Columns that take over fresh arrays nothing else holds, without
        the copy the constructor makes (a cast still copies)."""
        columns = cls.__new__(cls)
        columns._hold(
            np.asarray(t_ms, dtype=np.int64),
            np.asarray(x_px, dtype=np.float64),
            np.asarray(y_px, dtype=np.float64),
        )
        return columns

    def _hold(self, *columns: np.ndarray) -> None:
        if any(c.shape != (len(columns[0]),) for c in columns):
            raise ValueError("sample columns must be 1-d and of equal length")
        for name, column in zip(self.__slots__, columns):
            setattr(self, name, read_only(column))

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
    as ``SampleColumns``. ``pipeline.analyze_session`` keeps the
    session's config-independent analysis on the instance, outside the
    fields; ``dataclasses.replace`` gives a new instance without it.
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


def _parse_timestamp(text: str) -> float:
    """The float value of a timestamp cell, NaN for a blank or unparsable one."""
    text = text.strip()
    try:
        return float(text) if text else math.nan
    except ValueError:
        return math.nan


def _timestamp_values(cells: tuple[str, ...]) -> list[float]:
    """``float`` of every cell in one C-level pass; only the cells it rejects
    go through ``_parse_timestamp``. ``float`` itself ignores surrounding
    ASCII whitespace, so a cell it accepts has the same value stripped."""
    values: list[float] = []
    rest = iter(cells)
    while True:
        try:
            values.extend(map(float, rest))  # keeps the values before a failure
            return values
        except ValueError:
            values.append(_parse_timestamp(cells[len(values)]))


def _cell_fields(cell: str) -> tuple[str, str, str]:
    cell = cell.strip()
    match = _COORD_RE.match(cell)
    return (match[1], match[2], "") if match else ("", "", cell)


def _gaze_fields(cells: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """x text, y text and leftover text per gaze cell: x and y are set for a
    coordinate pair, the leftover for anything else, none for a blank cell.

    One ``findall`` over the joined column does the work; a column with a
    line break inside a cell goes cell by cell instead.
    """
    joined = "\n".join(cells)
    if joined.count("\n") == len(cells) - 1:
        found = _GAZE_LINES_RE.findall(joined)
    else:
        found = list(map(_cell_fields, cells))
    return tuple(zip(*found)) or ((), (), ())


def _parse_bool(text: str) -> bool | None:
    lowered = text.strip().lower()
    if lowered in _TRUE_VALUES:
        return True
    if lowered in _FALSE_VALUES:
        return False
    return None


def _add_facets(
    row: list[str],
    t_ms: int | None,
    path: Path,
    line_no: int,
    placements: list[ObjectPlacement],
    events: list[GameEvent],
) -> None:
    """Append the placement and the scored event one row carries, if any."""
    _, _, object_pos, aoi_w, aoi_h, event_kind, event_correct = row
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


def _parse_rows(
    rows: list[list[str]],
    first_line: int,
    path: Path,
    geometry: ScreenGeometry,
    placements: list[ObjectPlacement],
    events: list[GameEvent],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Kept t, x and y columns (file order) and the drop count of a batch of
    data rows, the first of them on line ``first_line``.

    Timestamps, gaze cells and the drop rules run on whole columns. Only
    rows with a placement or event cell and rows of the wrong length are
    visited one by one, in file order, so the first error is the first
    faulty row's.
    """
    width = len(CSV_HEADER)
    lengths = list(map(len, rows))
    if lengths.count(width) == len(rows):
        good, where, visits = rows, range(len(rows)), {}
    else:
        where = [i for i, n in enumerate(lengths) if n == width]
        good = [rows[i] for i in where]
        visits = {i: None for i, n in enumerate(lengths) if n != width}
    ts_cells, gaze_cells, object_cells, _, _, kind_cells, _ = (
        tuple(zip(*good)) or ((),) * width
    )

    t = np.array(_timestamp_values(ts_cells), dtype=np.float64)
    # False for NaN and infinities. The range keeps every normalized time and
    # time difference inside the int64 columns of the analysis.
    usable = np.abs(t) < MAX_ABS_TIMESTAMP_MS
    t_ms = np.floor(np.where(usable, t, 0.0) + 0.5).astype(np.int64)

    indices = range(len(good))
    facet_rows = set(compress(indices, object_cells)).union(compress(indices, kind_cells))
    visits.update((where[j], j) for j in facet_rows)
    for i in sorted(visits):
        j = visits[i]
        if j is None:
            if any(cell.strip() for cell in rows[i]):
                raise SessionLoadError(
                    f"expected {width} fields, got {len(rows[i])}", path, first_line + i
                )
            continue
        t_row = int(t_ms[j]) if usable[j] else None
        _add_facets(good[j], t_row, path, first_line + i, placements, events)

    xs, ys, rest = _gaze_fields(gaze_cells)
    parsed = np.fromiter(map(bool, xs), dtype=bool, count=len(xs))
    x = np.zeros(len(xs))
    y = np.zeros(len(ys))
    x[parsed] = list(map(float, filter(None, xs)))
    y[parsed] = list(map(float, filter(None, ys)))
    keep = (
        parsed
        & usable
        & ((x != 0) | (y != 0))
        & (0 <= x) & (x <= geometry.width_px)
        & (0 <= y) & (y <= geometry.height_px)
    )
    given = parsed | np.fromiter(map(bool, rest), dtype=bool, count=len(rest))
    dropped = int(np.count_nonzero(given)) - int(np.count_nonzero(keep))
    return t_ms[keep], x[keep], y[keep], dropped


def _read_rows(reader, size: int) -> tuple[list[list[str]], Exception | None]:
    """Up to ``size`` rows, and the read error that cut them short, if any."""
    rows: list[list[str]] = []
    try:
        rows.extend(islice(reader, size))  # keeps the rows before a failure
    except (csv.Error, UnicodeDecodeError) as exc:
        return rows, exc
    return rows, None


def _read_error(exc: Exception, path: Path, line_no: int) -> SessionLoadError:
    if isinstance(exc, UnicodeDecodeError):
        # The reader decodes ahead of the rows, so find the byte in the file.
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            return SessionLoadError(
                f"not UTF-8 text: {whole.reason} at byte {whole.start}",
                path,
                data.count(b"\n", 0, whole.start) + 1,
            )
    return SessionLoadError(f"unreadable CSV row: {exc}", path, line_no)


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
    SessionLoadError with file, line and field context, as do bytes that
    are not UTF-8 and rows the CSV reader rejects (a field over its size
    limit).
    """
    path = Path(path)
    if level not in VALID_LEVELS:
        raise SessionLoadError(f"level must be in {VALID_LEVELS}, got {level}", path)
    if not path.exists():
        raise FileNotFoundError(f"no such session file: {path}")

    kept: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    dropped = 0
    events: list[GameEvent] = []
    placements: list[ObjectPlacement] = []

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header, error = _read_rows(reader, 1)
        if error is not None:
            raise _read_error(error, path, 1)
        if not header:
            raise SessionLoadError("empty file, expected canonical header", path, 1)
        if [h.strip() for h in header[0]] != CSV_HEADER:
            raise SessionLoadError(
                f"malformed header {header[0]!r}, expected {CSV_HEADER!r}", path, 1
            )
        line_no = 2
        while True:
            rows, error = _read_rows(reader, _CHUNK_ROWS)
            t, x, y, n_dropped = _parse_rows(rows, line_no, path, geometry, placements, events)
            kept.append((t, x, y))
            dropped += n_dropped
            if error is not None:
                raise _read_error(error, path, line_no + len(rows))
            if len(rows) < _CHUNK_ROWS:
                break
            line_no += len(rows)

    t, x, y = (np.concatenate(column) for column in zip(*kept))
    if not len(t):
        log.warning("%s: no valid gaze samples (dropped=%d)", path, dropped)
    order = np.argsort(t, kind="stable")
    offset = int(t[order[0]]) if len(t) else 0
    samples = SampleColumns._adopt(t[order] - offset, x[order], y[order])

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
