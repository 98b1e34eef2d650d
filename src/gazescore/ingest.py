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
import io
import logging
import math
import operator
import re
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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

# Every whole number of ms below it is exact in float64 (and in int64).
MAX_ABS_TIMESTAMP_MS = 2**53

EVENT_KINDS_SCORED = ("mouse_click", "answer")

_NUMBER = r"([+-]?(?:\d+\.?\d*|\.\d+))"
# A coordinate pair on each line of "\n".join(cells): whitespace stops at
# the line break, and a line that holds no pair leaves its text in group 3.
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

# The reader reads, decodes and parses the file in blocks of about this many
# bytes, each cut after a line break, for the same reason.
_SLICE_BYTES = 24 * 1024

# One match per line: the timestamp, x and y text of a plain gaze line,
# ``ts,"(x, y)",,,,,`` with an optional "\r", or the whole of any other line
# (the groups that do not take part are None).
_PLAIN_LINES_RE = re.compile(
    rf'^(?:(\d*\.?\d*),"\({_NUMBER}, {_NUMBER}\)",,,,,\r?$|(.*))', re.MULTILINE | re.ASCII
)
# A quoted cell that opens and closes on one line.
_QUOTED_CELL_RE = re.compile(r'(?<![^,\n])"[^"\r\n]*"(?![^,\r\n])')

_BLANK_ROW = ("",) * len(CSV_HEADER)

# Kept t, x and y columns and the drop count of one batch of rows.
_Batch = tuple[np.ndarray, np.ndarray, np.ndarray, int]
# The fields of a placement or an event as read, the time before the
# level's offset is taken off.
_Facet = tuple

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
        _check_aoi_size(self.aoi_w_px, self.aoi_h_px)


def _check_aoi_size(w: float, h: float) -> None:
    if not (0 < w < math.inf and 0 < h < math.inf):
        raise ValueError(f"AoI dimensions must be positive and finite, got {w}x{h}")


@dataclass(frozen=True)
class LevelSession:
    """Cleaned samples, events and placements for one student at one level.

    ``samples`` may be given as a ``GazeSample`` sequence; it is stored
    as ``SampleColumns``. Samples (stable for ties), events and placements
    are stored in time order, the latter two as tuples, whatever order they
    come in; every stage relies on it. Analyses and reports keep what they
    compute on the instance, outside the fields (``_memo``), under three
    kinds of key: ``"facts"`` (``pipeline.session_facts``), one
    ``pipeline._terms_key`` per scoring setting and one report key per set
    of source objects (``report._level_block``). ``dataclasses.replace``
    gives a new instance with nothing kept.
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
        samples = self.samples
        if not isinstance(samples, SampleColumns):
            columns = list(zip(*((s.t_ms, s.x_px, s.y_px) for s in samples))) or [(), (), ()]
            samples = SampleColumns(*columns)
        t = samples.t_ms
        if (t[1:] < t[:-1]).any():
            order = np.argsort(t, kind="stable")
            samples = SampleColumns._adopt(t[order], samples.x_px[order], samples.y_px[order])
        by_time = operator.attrgetter("t_ms")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "events", tuple(sorted(self.events, key=by_time)))
        object.__setattr__(self, "placements", tuple(sorted(self.placements, key=by_time)))


def _memo(session: LevelSession, key, make: Callable[[], object]):
    """``make()``, computed on the first call for ``key`` and kept on the
    session instance, so that later calls return the same object.

    Everything is kept in one dict under the ``_memo`` attribute. It is not
    a dataclass field, so ``==``, ``repr`` and ``dataclasses.replace`` ignore
    it. A session's fields cannot change, so a kept value never goes stale.
    Both the dict and each value are stored with ``setdefault``: a
    concurrent first call keeps what was stored first.
    """
    memo = vars(session).get("_memo") or vars(session).setdefault("_memo", {})
    value = memo.get(key)
    return memo.setdefault(key, make()) if value is None else value


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
        """The student's sessions in level order."""
        get = self.sessions.get
        return [s for level in VALID_LEVELS if (s := get((student_id, level))) is not None]

    def __len__(self) -> int:
        return len(self.sessions)


def parse_coordinate_string(text: str) -> tuple[float, float]:
    """Parse "(x, y)" into a pair of floats.

    Accepts integers or decimals with optional sign and whitespace.
    Raises CoordinateParseError for anything else (missing parentheses,
    non-numeric fields, wrong arity).
    """
    x, y, _ = _GAZE_LINES_RE.match(text.replace("\n", " ")).groups()
    if x is None:
        raise CoordinateParseError(f"not a coordinate pair: {text!r}")
    return float(x), float(y)


def _parse_timestamp(text: str) -> float:
    """The float value of a timestamp cell, NaN for a blank or unparsable one."""
    text = text.strip()
    try:
        return float(text) if text else math.nan
    except ValueError:
        return math.nan


def _timestamp_values(cells: Sequence[str | None]) -> list[float]:
    """``float`` of every cell in one C-level pass; only the cells it rejects
    go through ``_parse_timestamp``, a missing cell (None) as a blank one.
    ``float`` itself ignores surrounding ASCII whitespace, so a cell it
    accepts has the same value stripped."""
    values: list[float] = []
    rest = iter(cells)
    while True:
        try:
            values.extend(map(float, rest))  # keeps the values before a failure
            return values
        except (TypeError, ValueError):
            values.append(_parse_timestamp(cells[len(values)] or ""))


def _gaze_fields(cells: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """x text, y text and leftover text per gaze cell: x and y are set for a
    coordinate pair, the leftover for anything else, none for a blank cell.

    One ``findall`` over the joined column does the work. A line break
    inside a cell is read as a space, which is whitespace to a pair and to
    the leftover test alike.
    """
    if not cells:
        return (), (), ()
    joined = "\n".join(cells)
    if joined.count("\n") != len(cells) - 1:
        joined = "\n".join(cell.replace("\n", " ") for cell in cells)
    return tuple(zip(*_GAZE_LINES_RE.findall(joined)))


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
    placements: list[_Facet],
    events: list[_Facet],
) -> None:
    """Append the fields of the placement and the scored event one row
    carries, if any, after the checks their constructors make."""
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
            _check_aoi_size(w, h)
        except ValueError as exc:
            raise SessionLoadError(str(exc), path, line_no, "aoi_w") from exc
        placements.append((t_ms, ox, oy, w, h))

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
        events.append((t_ms, event_kind, correct))


def _kept(
    path: Path,
    geometry: ScreenGeometry,
    placements: list[_Facet],
    events: list[_Facet],
    lines: Sequence[int],
    ts_cells: Sequence[str | None],
    xs: Sequence[str | None],
    ys: Sequence[str | None],
    rest: Sequence[str],
    visits: list[tuple[int, list[str]]],
) -> _Batch:
    """Kept t, x and y columns (file order) and the drop count of a batch of
    rows, row i's record starting on line ``lines[i]`` (lines end as the CSV
    reader ends them), from each row's timestamp cell and x and y text
    (empty or None without a coordinate pair). ``rest`` holds the leftover
    text of gaze cells that are not a pair (see ``_gaze_fields``); each
    non-empty one is a dropped reading.

    ``visits`` are the (index, row) pairs, in file order, of the rows of the
    wrong length or with a placement or event cell, the only rows visited
    one by one: the first error is the first faulty row's.
    """
    width = len(CSV_HEADER)
    t = np.array(_timestamp_values(ts_cells), dtype=np.float64)
    # False for NaN and infinities. In range, every whole ms is exact and
    # the fraction t - floor(t) is too, so the half-up rounding is exact.
    usable = np.abs(t) < MAX_ABS_TIMESTAMP_MS
    whole = np.floor(np.where(usable, t, 0.0))
    t_ms = (whole + (t - whole >= 0.5)).astype(np.int64)

    for i, row in visits:
        if len(row) != width:
            if any(cell.strip() for cell in row):
                raise SessionLoadError(f"expected {width} fields, got {len(row)}", path, lines[i])
            continue
        t_row = int(t_ms[i]) if usable[i] else None
        _add_facets(row, t_row, path, lines[i], placements, events)

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
    unparsed = len(rest) - rest.count("")
    dropped = int(np.count_nonzero(parsed)) + unparsed - int(np.count_nonzero(keep))
    return t_ms[keep], x[keep], y[keep], dropped


def _parse_rows(rows: list[list[str]]) -> tuple:
    """The cells ``_kept`` takes of a batch of CSV rows: timestamps and gaze
    cells run as whole columns, a row of the wrong length as a blank one."""
    width = len(CSV_HEADER)
    lengths = list(map(len, rows))
    if lengths.count(width) == len(rows):
        columns, visit = rows, set()
    else:
        columns = [row if n == width else _BLANK_ROW for row, n in zip(rows, lengths)]
        visit = {i for i, n in enumerate(lengths) if n != width}
    ts_cells, gaze_cells, object_cells, _, _, kind_cells, _ = (
        tuple(zip(*columns)) or ((),) * width
    )
    indices = range(len(rows))
    visit.update(compress(indices, object_cells), compress(indices, kind_cells))
    visits = [(i, rows[i]) for i in sorted(visit)]
    return ts_cells, *_gaze_fields(gaze_cells), visits


def _plain_lines(text: str) -> tuple | None:
    """The cells ``_kept`` takes of whole lines of text, or None unless
    ``csv.reader`` reads each of the lines as one record: no NUL, every "\r"
    before a "\n", every '"' opening or closing a whole cell on one line, no
    line longer than the field limit. A plain gaze line (see
    ``_PLAIN_LINES_RE``) meets these by its form, so only the other lines are
    checked, and only they go through ``csv.reader`` and ``_parse_rows``.
    """
    if text.endswith("\r"):
        return None
    # One match, four groups and the line break after it per line; a final
    # line break leaves one more, empty match, and so does empty text.
    parts = _PLAIN_LINES_RE.split(text)
    stop = len(parts) - 5 * (not text or text.endswith("\n"))
    ts_cells, xs, ys, other = (parts[k:stop:5] for k in range(1, 5))
    others = "\n".join(filter(None, other))
    limit = csv.field_size_limit()
    if (
        "\x00" in others
        or others.count("\r") != others.count("\r\n") + others.endswith("\r")
        or others.count('"') != 2 * len(_QUOTED_CELL_RE.findall(others))
        or (len(text) > limit and max(map(len, text.split("\n"))) > limit)
    ):
        return None
    odd = list(compress(range(len(other)), other))
    *cells, rest, visits = _parse_rows(list(csv.reader(map(other.__getitem__, odd))))
    for i, t, x, y in zip(odd, *cells):
        ts_cells[i], xs[i], ys[i] = t, x, y
    return ts_cells, xs, ys, rest, [(odd[j], row) for j, row in visits]


def _text_blocks(fh) -> Iterator[str]:
    """The text of each block of about ``_SLICE_BYTES`` bytes of a binary
    file, cut after a "\n". At a byte that is not UTF-8 it yields the text
    before that byte's line instead, then raises the UnicodeDecodeError with
    ``start`` set to the byte's offset in the file."""
    while data := fh.read(_SLICE_BYTES):
        if not data.endswith(b"\n"):
            data += fh.readline()
        try:
            yield data.decode("utf-8")
        except UnicodeDecodeError as exc:
            cut = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
            yield data[:cut].decode("utf-8")
            exc.start += fh.tell() - len(data)
            raise exc


def _not_utf8(exc: UnicodeDecodeError, path: Path, line: int) -> SessionLoadError:
    return SessionLoadError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", path, line)


def _read(path: Path, kept: Callable[..., _Batch]) -> Iterator[_Batch]:
    """``kept(lines, *cells)`` of each batch of a level file: plain blocks by
    ``_plain_lines``; from the first block that is not plain (line 1 if the
    header is not one plain line), the rest by one CSV reader and
    ``_parse_rows``, ``_CHUNK_ROWS`` records at a time."""
    with path.open("rb") as fh:
        blocks = _text_blocks(fh)
        block = next(blocks, "")
        header, _, rest = block.partition("\n")
        fields = [h.strip() for h in header.split(",")]
        line_no = 1
        if "\r" not in header.removesuffix("\r") and fields == CSV_HEADER:
            line_no = 2
            try:
                for block in chain((rest,), blocks):
                    cells = _plain_lines(block)
                    if cells is None:
                        break
                    lines = range(line_no, line_no + len(cells[0]))
                    yield kept(lines, *cells)
                    line_no = lines.stop
                else:
                    return
            except UnicodeDecodeError as exc:
                raise _not_utf8(exc, path, line_no) from None

        texts = chain((block,), blocks)
        reader = csv.reader(chain.from_iterable(io.StringIO(t, newline="") for t in texts))
        before, at_header, count = line_no - 1, line_no == 1, _CHUNK_ROWS
        while count == _CHUNK_ROWS:
            # ``rows`` keeps the last batch until this one is read: freed first, its
            # lists would not offset this batch's in the gen-0 count, which stops at 0.
            read: list[list[str]] = []
            lines: list[int] = []
            line = before + reader.line_num + 1
            error = None
            try:
                for row in islice(reader, _CHUNK_ROWS):
                    read.append(row)
                    lines.append(line)
                    line = before + reader.line_num + 1
            except csv.Error as exc:
                error = SessionLoadError(f"unreadable CSV row: {exc}", path, line)
            except UnicodeDecodeError as exc:
                error = _not_utf8(exc, path, before + reader.line_num + 1)
            rows, count = read, len(read)
            if at_header:
                if not rows:
                    raise error or SessionLoadError("empty file, expected canonical header", path, 1)
                if [h.strip() for h in rows[0]] != CSV_HEADER:
                    raise SessionLoadError(
                        f"malformed header {rows[0]!r}, expected {CSV_HEADER!r}", path, 1
                    )
                del rows[0], lines[0]
                at_header = False
            yield kept(lines, *_parse_rows(rows))
            if error is not None:
                raise error


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
    Samples, events and placements shift by the offset that puts the
    earliest sample at 0, and ``LevelSession`` puts them in time order.
    Malformed event or placement fields are structural errors and raise
    SessionLoadError with file, line and field context, as do bytes that
    are not UTF-8 and rows the CSV reader rejects (a field over its size
    limit). Errors come in file order, each raised as soon as it is met;
    each names the line where its record or bad byte starts, lines ended
    as the CSV reader ends them ("\n", "\r\n" or a lone "\r").

    The file is read once, one block of about 24 KB (cut after a line
    break) at a time. A block is plain when each of its lines is one CSV
    record (no NUL, every "\r" before a "\n", every '"' around a whole
    cell on one line, no line over the CSV field limit): one regular
    expression takes its plain gaze lines apart and the CSV reader only
    the others. From the first block that is not plain (from line 1 when
    the header is not one plain line), the rest of the file goes through
    the CSV reader, one decoded block at a time.
    """
    path = Path(path)
    if level not in VALID_LEVELS:
        raise SessionLoadError(f"level must be in {VALID_LEVELS}, got {level}", path)
    if not path.exists():
        raise FileNotFoundError(f"no such session file: {path}")

    placements, events = [], []
    t, x, y, drops = zip(*_read(path, partial(_kept, path, geometry, placements, events)))
    t, x, y = map(np.concatenate, (t, x, y))
    dropped = sum(drops)
    if not len(t):
        log.warning("%s: no valid gaze samples (dropped=%d)", path, dropped)
    offset = int(t.min()) if len(t) else 0
    return LevelSession(
        student_id=student_id,
        level=level,
        samples=SampleColumns._adopt(t - offset, x, y),
        events=[GameEvent(ti - offset, *rest) for ti, *rest in events],
        placements=[ObjectPlacement(ti - offset, *rest) for ti, *rest in placements],
        geometry=geometry,
        dropped_samples=dropped,
    )


def merge_levels(sessions: Iterable[LevelSession]) -> SessionSet:
    """Group sessions by (student, level); duplicates are an error.

    Partial sets (fewer than three levels for a student) are accepted
    with a warning; analysis runs per available level.
    """
    merged = SessionSet()
    for session in sessions:
        merged.add(session)
    for student in merged.students():
        levels = [s.level for s in merged.for_student(student)]
        if len(levels) < len(VALID_LEVELS):
            log.warning(
                "student %s has levels %s only (expected %s)", student, levels, list(VALID_LEVELS)
            )
    return merged
