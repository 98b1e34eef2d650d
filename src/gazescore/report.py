"""Deterministic JSON reports, plot-data CSVs and session CSVs.

Key order is fixed by construction and floats are rounded to fixed
precision (1 decimal for percentages, 3 for correlations and score
terms, 4 for unit-interval ratios), so identical inputs produce
byte-identical files. Every file gazescore writes, session CSVs
included, is staged and renamed by ``_atomic_write``.
"""
from __future__ import annotations

import heapq
import os
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .ingest import CSV_HEADER, LevelSession, _memo
from .pipeline import SessionAnalysis
from .validation import ValidationReport, classify_assessment
from .scoring import ScoringConfig
from .spatial import AOI_ORDER, QUADRANT_ORDER

VALIDATION_NOTE = (
    "Correlations are computed from the per-level (model score, game accuracy) "
    "pairs only; correlations computed on richer per-session data may differ."
)


# Label names in matrix order, built once: Enum ``.value`` is a property.
_QUADRANT_NAMES = tuple(q.value for q in QUADRANT_ORDER)
_AOI_NAMES = tuple(a.value for a in AOI_ORDER)


def _pct(value: float | None) -> float | None:
    return None if value is None else round(float(value), 1)


def _score(value: float | None) -> float | None:
    return None if value is None else round(float(value), 3)


def _ratio(value: float | None) -> float | None:
    return None if value is None else round(float(value), 4)


# The weight-free terms of a ScoreBreakdown, in report order.
_TERM_NAMES = (
    "level_bonus", "focus_score", "engagement_bonus", "sustained_bonus",
    "duration_bonus", "excess_penalty", "temporal_impact",
)
_terms_of = attrgetter(*_TERM_NAMES)
# The objects a level block's weight-free leaves are rounded from: these
# fields of the analysis, then the weight-free terms of its breakdown.
_sources_of = attrgetter("aggregates", "aoi", "dwell", "focus_aoi_pct", "aoi_time_share_pct",
                         "game", "temporal")


def _leaves(aggregates, aoi, dwell, focus_aoi_pct, aoi_time_share_pct, game, temporal, *terms):
    """The rounded leaves of a level block that no weight changes: the
    ``transitions`` leaves after the matrices, the ``temporal`` block, the
    weight-free ``score`` leaves and the ``game`` block."""
    return {
        "nsq_to_sq": aggregates.nsq_to_sq,
        "sq_to_nsq": aggregates.sq_to_nsq,
        "nsq_to_nsq": aggregates.nsq_to_nsq,
        "sq_to_sq": aggregates.sq_to_sq,
        "total": aggregates.total,
        "aoi_switches": aoi.left_right_transitions,
        "aoi_balance": _ratio(aoi.balance),
        "aoi_efficiency": _ratio(aoi.efficiency),
        "fixations_left": aoi.fixations_left,
        "fixations_right": aoi.fixations_right,
        # time_in_quadrant is in QUADRANT_ORDER (DwellSummary).
        "dwell_ms": dict(zip(_QUADRANT_NAMES, dwell.time_in_quadrant.values())),
        "session_duration_ms": dwell.session_duration_ms,
        "stimuli_focus_pct": _pct(dwell.stimuli_focus_pct),
        "focus_aoi_pct": _pct(focus_aoi_pct),
        "aoi_time_share_pct": _pct(aoi_time_share_pct),
    }, {
        "eta_temporal": _ratio(temporal.eta_temporal),
        "mu_engagement_ms": _score(temporal.mu_engagement_ms),
        "sigma_sustained": _ratio(temporal.sigma_sustained),
        "period_count": temporal.period_count,
        "sustained_count": temporal.sustained_count,
    }, dict(zip(_TERM_NAMES, map(_score, terms))), None if game.total_events == 0 else {
        "correct_clicks": game.correct_clicks,
        "total_clicks": game.total_clicks,
        "correct_answers": game.correct_answers,
        "total_answers": game.total_answers,
        "total_events": game.total_events,
        "accuracy_pct": _pct(game.accuracy_pct),
    }


def _level_block(analysis: SessionAnalysis, config: ScoringConfig) -> dict:
    b = analysis.breakdown
    game = analysis.game
    diff = (
        abs(b.final_score - game.accuracy_pct) if game.accuracy_pct is not None else None
    )
    category, calibration = classify_assessment(b.final_score, diff, config)
    session = analysis.session
    # Kept on the session per set of source objects, keyed by their ids. The
    # entry holds its sources, so no id in its key is reused while it lives:
    # it serves exactly the analyses that hold those very objects (equal
    # floats may round apart: 0.0 and -0.0).
    sources = (*_sources_of(analysis), *_terms_of(b))
    _, transitions, temporal, score, game_leaves = _memo(
        session, ("report", *map(id, sources)), lambda: (sources, *_leaves(*sources))
    )
    return {
        "level": session.level,
        "score": {
            "base_score": _score(b.base_score),
            **score,
            "multiplier": b.multiplier,
            "final_score": _score(b.final_score),
        },
        "transitions": {
            "quadrant_order": list(_QUADRANT_NAMES),
            "quadrant_counts": analysis.quadrant_matrix.counts.tolist(),
            "aoi_order": list(_AOI_NAMES),
            "aoi_counts": analysis.aoi_matrix.counts.tolist(),
            **transitions,  # with a fresh dwell_ms, as every container is
            "dwell_ms": dict(transitions["dwell_ms"]),
        },
        "temporal": dict(temporal),
        "game": game_leaves and dict(game_leaves),
        "assessment": {
            "performance": category,
            "calibration": calibration,
            "difference": _score(diff),
        },
        "constraint_violations": list(analysis.violations),
    }


def build_report(
    student_id: str,
    analyses: Sequence[SessionAnalysis],
    validation: ValidationReport | None,
    config: ScoringConfig = ScoringConfig(),
) -> dict:
    """Report document for one student; validation is None below 2 pairs.

    Every leaf comes from the analyses; ``config`` only picks the
    assessment labels."""
    doc = {
        "student_id": student_id,
        "levels": [
            _level_block(a, config)
            for a in sorted(analyses, key=lambda a: a.session.level)
        ],
        "validation": None,
    }
    if validation is not None:
        doc["validation"] = {
            "mae": _score(validation.mae_pct),
            "rmse": _score(validation.rmse_pct),
            "pearson": _score(validation.pearson_r),
            "spearman": _score(validation.spearman_rho),
            "n": validation.n,
            "note": VALIDATION_NOTE,
        }
    return doc


# The flags and mode ``open(path, "w")`` creates a file with.
_WRITE_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_TRUNC
                | getattr(os, "O_CLOEXEC", 0) | getattr(os, "O_BINARY", 0))


def _atomic_write(path: Path, texts: Iterable[str]) -> None:
    """Write the texts as UTF-8 to a staged file, then rename it over ``path``.

    The staged ``<name>.tmp`` is opened with the flags and mode of
    ``open(path, "w")`` (0o666 less the umask), and each text is encoded
    and handed to ``os.write``, without a file object's buffer and text
    layers (about 15 us per file). A failed write leaves ``path`` as it
    was and the staged file behind.

    The rename goes over the existing file on purpose. Readers never see
    the path missing, and ext4 (``auto_da_alloc``) starts writing out the
    data of a file renamed over another, so a crash is unlikely to leave
    an empty file where the old one was. The cost, probed on ext4 with a
    20 KB staged file (min / median): 111 / 344 us onto an existing name,
    46 / 119 us onto a new name, 16 / 21 us to create, write and unlink.
    Unlinking first would be faster but gives both up.
    """
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, _WRITE_FLAGS, 0o666)
    try:
        for text in texts:
            data = text.encode("utf-8")
            while data:
                data = data[os.write(fd, data):]
    finally:
        os.close(fd)
    os.replace(tmp, path)


# float repr of the non-finite values -> the names ``json`` writes.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(value, out: list[str], newline: str) -> None:
    """Append the indent-2 JSON text of ``value`` to ``out``.

    ``newline`` is a line break plus the indent of the enclosing level.
    Byte-equal to ``json.dumps(value, indent=2)`` for dicts with ``str``
    keys, lists, str, int, float, bool and None; any other type raises
    TypeError. Strings go through the C ``encode_basestring_ascii``, so
    this skips only the pure-Python ``json`` encoder that ``indent``
    selects.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, opener = newline + "  ", "{"
        for key, item in value.items():
            out.extend((opener, inner, _quote(key), ": "))  # TypeError unless str
            _encode(item, out, inner)
            opener = ","
        out.extend((newline, "}"))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner, opener = newline + "  ", "["
        for item in value:
            out.extend((opener, inner))
            _encode(item, out, inner)
            opener = ","
        out.extend((newline, "]"))
    else:
        raise TypeError(f"cannot encode {type(value).__name__} in a report")


def report_json(report: dict) -> str:
    """The report as ``json.dumps(report, indent=2)`` writes it."""
    out: list[str] = []
    _encode(report, out, "\n")
    return "".join(out)


def write_report(report: dict, path: str | Path) -> Path:
    """Write the report JSON atomically (staged then renamed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, [report_json(report), "\n"])
    return path


def _csv_line(values: Iterable) -> str:
    """One CSV line as ``csv.writer`` writes cells that need no quoting:
    ``str`` of each value (``repr`` for floats), None as an empty cell."""
    return ",".join("" if v is None else str(v) for v in values) + "\n"


def _write_csv_atomic(path: Path, header: list[str], lines: Iterable[str]) -> None:
    _atomic_write(path, chain([_csv_line(header)], lines))


# ",<quadrant>,<aoi label>\n" at index quadrant code * len(AOI_ORDER) + AoI code.
_SAMPLE_TAILS = tuple(f",{q.value},{a.value}\n" for q in QUADRANT_ORDER for a in AOI_ORDER)

# Samples formatted per chunk: bounds the Python strings and numbers (about
# 250 B per sample) or the kernel's cell matrices one chunk holds on long
# levels.
_CHUNK_SAMPLES = 2048

# Offsets into ``_CELLS``, the cells of the short-decimal kernel: 4-byte
# texts padded with NUL bytes, which the kernel drops from its output. Row
# v of each digit table is the 4-digit group v ("0000" to "9999"):
# - _LAST, the last group of a number with no digit before it: leading
#   zeros as NUL, a lone 0 kept;
# - _FULL, a group with a digit before it: all four digits;
# - _LEAD, any other group with no digit before it: leading zeros as NUL;
# - _FRAC, the four decimals of a fraction: trailing zeros as NUL, the
#   first decimal kept.
# The comma, point and tail cells follow.
_LAST, _FULL, _LEAD, _FRAC, _COMMA, _POINT, _TAIL = 0, 10_000, 20_000, 30_000, 40_000, 40_001, 40_002
_NUL = _LEAD  # row 0 of _LEAD is all NUL
_TAIL_CELLS = -(-max(map(len, _SAMPLE_TAILS)) // 4)


def _cell_table() -> np.ndarray:
    """The cells at the offsets above, as one uint32 per cell."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()  # of 0-9999
    from_first = np.logical_or.accumulate(digits > 0, axis=1)
    to_last = np.logical_or.accumulate(digits[:, ::-1] > 0, axis=1)[:, ::-1]
    units, tenths = np.arange(4) == 3, np.arange(4) == 0
    ascii_digits = digits + ord("0")
    texts = b"".join(
        text.encode().ljust(4 * count, b"\0")
        for text, count in [(",", 1), (".", 1)] + [(tail, _TAIL_CELLS) for tail in _SAMPLE_TAILS]
    )
    cells = np.concatenate((
        np.where(from_first | units, ascii_digits, 0),
        ascii_digits,
        np.where(from_first, ascii_digits, 0),
        np.where(to_last | tenths, ascii_digits, 0),
        np.frombuffer(texts, np.uint8).reshape(-1, 4),
    ))
    return np.ascontiguousarray(cells, np.uint8).view(np.uint32).ravel()


_CELLS = _cell_table()
# The tail cells of each ``_SAMPLE_TAILS`` index, one row per cell.
_TAIL_INDEX = np.arange(_TAIL, _TAIL + _TAIL_CELLS * len(_SAMPLE_TAILS)).reshape(-1, _TAIL_CELLS).T


def _short_decimal_lines(
    t: np.ndarray, x: np.ndarray, y: np.ndarray, tails: np.ndarray
) -> str | None:
    """The lines of one chunk of samples as ``_sample_lines`` writes them, or
    None unless every t is at least 0 and every x and y is the float nearest
    to k / 10**4 for an integer 0 <= k < 10**15 (not NaN, inf or -0.0).

    Such a float is the nearest to a decimal of at most 15 significant
    digits, so its ``repr`` is that decimal in fixed notation, with the
    trailing zeros of the fraction dropped but one digit kept (1920.0,
    0.0001). Each line is a column of cell indices: per number its 4-digit
    groups, then point, fraction and comma cells; then the tail's cells.
    """
    xy = np.stack((x, y))
    if not (xy.max() < 1e11 and t.min() >= 0) or np.signbit(xy).any():
        return None  # the bound keeps k below 10**15 and rejects NaN
    k = np.rint(xy * 1e4)
    if not (k / 1e4 == xy).all():
        return None
    whole = np.floor(xy)
    rest = np.empty((3, len(t)), np.int64)  # t and the whole parts of x and y
    rest[0] = t
    rest[1:] = whole
    n = -(-len(str(rest.max())) // 4)
    cells = np.empty((3 * (n + 3) + _TAIL_CELLS, len(t)), np.intp)
    numbers = cells[: 3 * (n + 3)].reshape(3, n + 3, len(t))  # a view: leading rows
    table = _LAST
    for group in range(n - 1, -1, -1):
        above = rest // 10_000
        numbers[:, group] = rest - above * 10_000 + np.where(above > 0, _FULL, table)
        rest, table = above, _LEAD
    numbers[:, n] = ((_NUL,), (_POINT,), (_POINT,))
    numbers[0, n + 1] = _NUL
    numbers[1:, n + 1] = k - whole * 1e4 + _FRAC
    numbers[:, n + 2] = ((_COMMA,), (_COMMA,), (_NUL,))  # the tail opens with a comma
    cells[3 * (n + 3):] = _TAIL_INDEX[:, tails]
    return _CELLS[cells.T].tobytes().translate(None, b"\0").decode("ascii")


def _sample_lines(analysis: SessionAnalysis) -> Iterator[str]:
    """(t, x, y, quadrant, aoi_label) lines, joined one chunk of samples at
    a time so a long session never holds one Python line per sample. Floats
    are written as ``repr`` writes them: by ``_short_decimal_lines`` where it
    takes the chunk, else one f-string per sample."""
    s = analysis.session.samples
    tails = analysis.quadrant_labels.astype(np.intp) * len(AOI_ORDER) + analysis.aoi_labels
    for lo in range(0, len(s), _CHUNK_SAMPLES):
        part = slice(lo, lo + _CHUNK_SAMPLES)
        t, x, y, tail = s.t_ms[part], s.x_px[part], s.y_px[part], tails[part]
        yield _short_decimal_lines(t, x, y, tail) or "".join(
            [
                f"{ti},{xi!r},{yi!r}{end}"
                for ti, xi, yi, end in zip(
                    t.tolist(),
                    x.tolist(),
                    y.tolist(),
                    map(_SAMPLE_TAILS.__getitem__, tail.tolist()),
                )
            ]
        )


def emit_plot_data(
    analyses: Sequence[SessionAnalysis], out_dir: str | Path
) -> list[Path]:
    """Write plot-source CSVs (UTF-8, LF, fixed column order).

    Per level: a per-sample file (t, x, y, quadrant, aoi_label) for AoI
    detection scatter plots and a per-period file for engagement bars;
    plus one summary file across levels for the temporal panels.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    ordered = sorted(analyses, key=lambda a: a.session.level)

    for analysis in ordered:
        level = analysis.session.level
        sample_path = out_dir / f"samples_level{level}.csv"
        _write_csv_atomic(
            sample_path,
            ["t_ms", "x_px", "y_px", "quadrant", "aoi_label"],
            _sample_lines(analysis),
        )
        written.append(sample_path)

        period_rows = [
            [i, p.t_start_ms, p.t_end_ms, p.duration_ms, p.aoi.value, str(p.sustained).lower()]
            for i, p in enumerate(analysis.periods)
        ]
        period_path = out_dir / f"periods_level{level}.csv"
        _write_csv_atomic(
            period_path,
            ["index", "t_start_ms", "t_end_ms", "duration_ms", "aoi", "sustained"],
            map(_csv_line, period_rows),
        )
        written.append(period_path)

    summary_rows = [
        [
            a.session.level,
            a.temporal.period_count,
            a.temporal.sustained_count,
            sum(p.duration_ms for p in a.periods),
            _ratio(a.temporal.eta_temporal),
            _score(a.temporal.mu_engagement_ms),
            _ratio(a.temporal.sigma_sustained),
            _score(a.breakdown.temporal_impact),
        ]
        for a in ordered
    ]
    summary_path = out_dir / "temporal_summary.csv"
    _write_csv_atomic(
        summary_path,
        [
            "level",
            "period_count",
            "sustained_count",
            "engagement_ms",
            "eta_temporal",
            "mu_engagement_ms",
            "sigma_sustained",
            "temporal_impact",
        ],
        map(_csv_line, summary_rows),
    )
    written.append(summary_path)
    return written


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_coord(x: float, y: float) -> str:
    return f"({_format_number(x)}, {_format_number(y)})"


def write_level_csv(session: LevelSession, path: str | Path) -> Path:
    """Serialize a session to the canonical CSV (LF line endings), staged
    then renamed over ``path`` as every output is (see ``_atomic_write``).

    Rows run by time; at equal times a placement comes first, then a
    sample, then an event, each kind in its session order (time order, kept
    by ``LevelSession``). Reloading the written file gives an identical
    session if it is normalized (first sample at t=0), as loaded ones are.
    """
    path = Path(path)
    samples = session.samples
    t, x, y = (column.tolist() for column in (samples.t_ms, samples.x_px, samples.y_px))
    rows = heapq.merge(
        (
            (p.t_ms, 0, f'{p.t_ms},,"{_format_coord(p.obj_x_px, p.obj_y_px)}",'
             f"{_format_number(p.aoi_w_px)},{_format_number(p.aoi_h_px)},,\n")
            for p in session.placements
        ),
        ((ti, 1, f'{ti},"{_format_coord(xi, yi)}",,,,,\n') for ti, xi, yi in zip(t, x, y)),
        (
            (e.t_ms, 2, f"{e.t_ms},,,,,{e.kind},{'true' if e.correct else 'false'}\n")
            for e in session.events
        ),
    )
    lines = (line for _, _, line in rows)
    # One text, and so one os.write, per _CHUNK_SAMPLES rows.
    _write_csv_atomic(path, CSV_HEADER, iter(lambda: "".join(islice(lines, _CHUNK_SAMPLES)), ""))
    return path
