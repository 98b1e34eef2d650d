"""Per-sample reference implementations of the loader, the analysis stages
and the plot-CSV emitter.

These are the straightforward Python loops the columnar code in
``gazescore`` replaced. They walk one record, one ``GazeSample``, one
Enum label or one CSV row at a time and serve as oracles in the
equivalence property tests. ``write_level_csv`` is the session CSV
writer that sorted one row list per file and wrote it through
``csv.writer``. ``report_json`` is the report text as the
``json`` module's indent-2 encoder writes it. ``level_block`` builds a
report level block from the analysis alone on every call, as
``build_report`` did before it kept a session's config-independent
leaves. ``final_score`` is the one-piece scorer that computed every term
on every call, before the weight-free terms were split off to be kept per
setting. ``mae`` to
``validate_scores`` are the NumPy validation metrics the plain-float ones
in ``gazescore.validation`` replaced.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from gazescore.engagement import EngagementPeriod
from gazescore.ingest import (
    CSV_HEADER,
    EVENT_KINDS_SCORED,
    VALID_LEVELS,
    CoordinateParseError,
    GameEvent,
    GazeSample,
    LevelSession,
    ObjectPlacement,
    SessionLoadError,
)
from gazescore.report import _format_coord, _format_number, _pct, _ratio, _score
from gazescore.scoring import (
    ScoreBreakdown,
    _eta_for,
    bonus_aoi,
    bonus_duration,
    bonus_sustained,
    level_bonus,
    penalty_excess,
    psi_focus,
    temporal_multiplier,
)
from gazescore.spatial import (
    AOI_ORDER,
    QUADRANT_ORDER,
    AoiLabel,
    Quadrant,
    ScreenGeometry,
)
from gazescore.transitions import DwellSummary
from gazescore.validation import ValidationReport

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
    half_w = placement.aoi_w_px / 2
    half_h = placement.aoi_h_px / 2
    if not (
        placement.obj_x_px - half_w <= x <= placement.obj_x_px + half_w
        and placement.obj_y_px - half_h <= y <= placement.obj_y_px + half_h
    ):
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


def parse_coordinate_string(text: str) -> tuple[float, float]:
    """The two floats of an ``"(x, y)"`` cell, by the grammar the package's
    ``parse_coordinate_string`` docstring states: integers or decimals with
    an optional sign, whitespace around any parenthesis, comma or number,
    nothing else. It uses string methods, not the package's regular
    expressions, so that a change to those shows here."""
    body = text.strip()
    fields = body[1:-1].split(",")
    if len(body) < 2 or body[0] != "(" or body[-1] != ")" or len(fields) != 2:
        raise CoordinateParseError(f"not a coordinate pair: {text!r}")
    return _number(fields[0], text), _number(fields[1], text)


def _number(field: str, text: str) -> float:
    """An optionally signed run of digits with at most one point and a
    digit on at least one side of it; no exponent, no inner whitespace."""
    field = field.strip()
    unsigned = field[1:] if field[:1] in ("+", "-") else field
    whole, _, fraction = unsigned.partition(".")
    if not (whole or fraction) or not all(p.isdecimal() for p in (whole, fraction) if p):
        raise CoordinateParseError(f"not a coordinate pair: {text!r}")
    return float(field)


@dataclass(frozen=True)
class RawRecord:
    """One gaze-bearing CSV row before cleaning."""

    timestamp_ms: int | None
    gaze_text: str | None = None


def clean_samples(
    records: Iterable[RawRecord], geometry: ScreenGeometry
) -> tuple[list[GazeSample], int]:
    """Kept samples sorted by timestamp (stable for ties), and the drop count."""
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
        if not (0 <= x <= geometry.width_px and 0 <= y <= geometry.height_px):
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
    return [replace(s, t_ms=s.t_ms - offset) for s in samples]


# The loader's timestamp limit, 2**53 ms, written out: every whole number of
# ms below it is a float64.
_TIMESTAMP_LIMIT_MS = 9_007_199_254_740_992


def _parse_timestamp(text: str) -> int | None:
    """The float the text reads as, rounded half up exactly (as a fraction),
    or None when it is no number or not below the limit in magnitude."""
    text = text.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    if not abs(value) < _TIMESTAMP_LIMIT_MS:
        return None
    return math.floor(Fraction(value) + Fraction(1, 2))


def _parse_bool(text: str) -> bool | None:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    return None


def _csv_records(path: Path) -> Iterator[tuple[int, list[str]]]:
    """(line number, row) per CSV record of the whole file, in file order,
    each numbered by the physical line it starts on, as the CSV reader ends
    lines ("\n", "\r\n" or a lone "\r"). A row the reader rejects ends it
    with the documented SessionLoadError; so does a byte that is not UTF-8,
    after the records before that byte's line."""
    data = path.read_bytes()
    try:
        text, bad_byte = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        text = head[: max(head.rfind("\n"), head.rfind("\r")) + 1]
        bad_byte = SessionLoadError(
            f"not UTF-8 text: {exc.reason} at byte {exc.start}",
            path,
            len(io.StringIO(text, newline="").readlines()) + 1,
        )

    def lines() -> Iterator[str]:
        yield from io.StringIO(text, newline="")
        if bad_byte is not None:
            # Raised from the line source, so the reader drops a record the
            # bad byte's line leaves open rather than yield it as ended.
            raise bad_byte

    reader = csv.reader(lines())
    line_no = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise SessionLoadError(f"unreadable CSV row: {exc}", path, line_no) from exc
        yield line_no, row
        line_no = reader.line_num + 1


def load_level_csv(
    path: str | Path,
    level: int,
    student_id: str,
    geometry: ScreenGeometry = ScreenGeometry(),
) -> LevelSession:
    """Row records first, then cleaning, sorting and normalization."""
    path = Path(path)
    if level not in VALID_LEVELS:
        raise SessionLoadError(f"level must be in {VALID_LEVELS}, got {level}", path)
    if not path.exists():
        raise FileNotFoundError(f"no such session file: {path}")

    records: list[RawRecord] = []
    events: list[tuple[int, GameEvent]] = []
    placements: list[tuple[int, ObjectPlacement]] = []

    rows = _csv_records(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise SessionLoadError("empty file, expected canonical header", path, 1)
    if [h.strip() for h in header] != CSV_HEADER:
        raise SessionLoadError(f"malformed header {header!r}, expected {CSV_HEADER!r}", path, 1)
    for line_no, row in rows:
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

    samples, dropped = clean_samples(records, geometry)
    offset = samples[0].t_ms if samples else 0
    samples = normalize_timestamps(samples)
    events.sort(key=lambda pair: pair[0])
    placements.sort(key=lambda pair: pair[0])
    return LevelSession(
        student_id=student_id,
        level=level,
        samples=tuple(samples),
        events=tuple(replace(ev, t_ms=ev.t_ms - offset) for _, ev in events),
        placements=tuple(replace(pl, t_ms=pl.t_ms - offset) for _, pl in placements),
        geometry=geometry,
        dropped_samples=dropped,
    )


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


def _write_csv_atomic(path: Path, header: list[str], rows: Iterable) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def _sample_rows(analysis) -> Iterator[tuple]:
    s = analysis.session.samples
    quadrant_values = [q.value for q in QUADRANT_ORDER]
    aoi_values = [a.value for a in AOI_ORDER]
    for lo in range(0, len(s), 8192):
        part = slice(lo, lo + 8192)
        yield from zip(
            s.t_ms[part].tolist(),
            s.x_px[part].tolist(),
            s.y_px[part].tolist(),
            map(quadrant_values.__getitem__, analysis.quadrant_labels[part].tolist()),
            map(aoi_values.__getitem__, analysis.aoi_labels[part].tolist()),
        )


def emit_plot_data(analyses, out_dir: str | Path) -> list[Path]:
    """Plot CSVs written row by row through ``csv.writer``."""
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
            _sample_rows(analysis),
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
            period_rows,
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
        summary_rows,
    )
    written.append(summary_path)
    return written


def report_json(report: dict) -> str:
    """The report text ``write_report`` wrote before its own encoder."""
    return json.dumps(report, indent=2)


def assessment(score: float, diff: float | None, config) -> tuple[str, str | None]:
    """Performance and calibration labels read off the config thresholds:
    the first bound the score reaches, the first bound the difference is under."""
    category = next(
        (name for bound, name in ((config.mastery_min, "Mastery"),
                                  (config.developing_min, "Developing")) if score >= bound),
        "Struggling",
    )
    if diff is None:
        return category, None
    bounds = ((config.calibration_excellent, "Excellent"), (config.calibration_good, "Good"),
              (config.calibration_fair, "Fair"))
    return category, next((name for bound, name in bounds if diff < bound), "Poor")


def level_block(analysis, config) -> dict:
    """One ``levels`` entry of a report, every leaf built from the analysis."""
    b = analysis.breakdown
    game = analysis.game
    diff = (
        abs(b.final_score - game.accuracy_pct) if game.accuracy_pct is not None else None
    )
    category, calibration = assessment(b.final_score, diff, config)
    quadrant_names = [q.value for q in QUADRANT_ORDER]
    return {
        "level": analysis.session.level,
        "score": {
            "base_score": _score(b.base_score),
            "level_bonus": _score(b.level_bonus),
            "focus_score": _score(b.focus_score),
            "engagement_bonus": _score(b.engagement_bonus),
            "sustained_bonus": _score(b.sustained_bonus),
            "duration_bonus": _score(b.duration_bonus),
            "excess_penalty": _score(b.excess_penalty),
            "temporal_impact": _score(b.temporal_impact),
            "multiplier": b.multiplier,
            "final_score": _score(b.final_score),
        },
        "transitions": {
            "quadrant_order": quadrant_names,
            "quadrant_counts": analysis.quadrant_matrix.counts.tolist(),
            "aoi_order": [a.value for a in AOI_ORDER],
            "aoi_counts": analysis.aoi_matrix.counts.tolist(),
            "nsq_to_sq": analysis.aggregates.nsq_to_sq,
            "sq_to_nsq": analysis.aggregates.sq_to_nsq,
            "nsq_to_nsq": analysis.aggregates.nsq_to_nsq,
            "sq_to_sq": analysis.aggregates.sq_to_sq,
            "total": analysis.aggregates.total,
            "aoi_switches": analysis.aoi.left_right_transitions,
            "aoi_balance": _ratio(analysis.aoi.balance),
            "aoi_efficiency": _ratio(analysis.aoi.efficiency),
            "fixations_left": analysis.aoi.fixations_left,
            "fixations_right": analysis.aoi.fixations_right,
            # time_in_quadrant is in QUADRANT_ORDER (DwellSummary).
            "dwell_ms": dict(zip(quadrant_names, analysis.dwell.time_in_quadrant.values())),
            "session_duration_ms": analysis.dwell.session_duration_ms,
            "stimuli_focus_pct": _pct(analysis.dwell.stimuli_focus_pct),
            "focus_aoi_pct": _pct(analysis.focus_aoi_pct),
            "aoi_time_share_pct": _pct(analysis.aoi_time_share_pct),
        },
        "temporal": {
            "eta_temporal": _ratio(analysis.temporal.eta_temporal),
            "mu_engagement_ms": _score(analysis.temporal.mu_engagement_ms),
            "sigma_sustained": _ratio(analysis.temporal.sigma_sustained),
            "period_count": analysis.temporal.period_count,
            "sustained_count": analysis.temporal.sustained_count,
        },
        "game": (
            None
            if game.total_events == 0
            else {
                "correct_clicks": game.correct_clicks,
                "total_clicks": game.total_clicks,
                "correct_answers": game.correct_answers,
                "total_answers": game.total_answers,
                "total_events": game.total_events,
                "accuracy_pct": _pct(game.accuracy_pct),
            }
        ),
        "assessment": {
            "performance": category,
            "calibration": calibration,
            "difference": _score(diff),
        },
        "constraint_violations": list(analysis.violations),
    }


def final_score(features, config) -> ScoreBreakdown:
    """Every term of the score, computed in one piece on every call.

    The multiplier is evaluated on the unclamped base score; only the
    combined result is clamped to [0, 100].
    """
    bonus = level_bonus(features)
    focus = psi_focus(features.sf_pct, features.level)
    temporal = features.temporal
    engagement = bonus_aoi(_eta_for(features, config))
    sustained = bonus_sustained(temporal.sustained_count)
    duration = bonus_duration(temporal.mu_engagement_ms / 1000.0)
    excess = penalty_excess(temporal.period_count, config.excess_period_threshold)
    s_base = (
        config.alpha1 * features.nsq_to_sq
        - config.alpha2 * features.sq_to_nsq
        + bonus
        + config.gamma * features.aoi_efficiency
        + config.delta * focus
    )
    cap = config.max_impact[features.level]
    impact = max(-cap, min(cap, engagement + focus + sustained + duration - excess))
    multiplier = temporal_multiplier(s_base)
    final = max(0.0, min(100.0, s_base + multiplier * impact))
    return ScoreBreakdown(
        level=features.level,
        base_score=s_base,
        level_bonus=bonus,
        focus_score=focus,
        engagement_bonus=engagement,
        sustained_bonus=sustained,
        duration_bonus=duration,
        excess_penalty=excess,
        temporal_impact=impact,
        multiplier=multiplier,
        final_score=final,
    )


def _paired(model: Sequence[float], truth: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    if len(model) != len(truth):
        raise ValueError(f"length mismatch: {len(model)} vs {len(truth)}")
    if len(model) == 0:
        raise ValueError("need at least one pair")
    return np.asarray(model, dtype=float), np.asarray(truth, dtype=float)


def mae(model: Sequence[float], truth: Sequence[float]) -> float:
    m, t = _paired(model, truth)
    return float(np.mean(np.abs(m - t)))


def rmse(model: Sequence[float], truth: Sequence[float]) -> float:
    m, t = _paired(model, truth)
    return float(np.sqrt(np.mean((m - t) ** 2)))


def _deviations(values: np.ndarray) -> np.ndarray:
    """Deviations from the mean of a non-constant series, scaled to peak 1.

    The exact power-of-two prescale lifts subnormal values, whose mean
    is not representable ([0, 5e-324] has no midpoint). The second
    centering removes the first mean's rounding error, which dominates
    when the spread is tiny next to the values; the final scaling keeps
    squares clear of underflow. None of these changes the correlation.
    """
    values = np.ldexp(values, -np.frexp(np.abs(values).max())[1])
    d = values - values.sum() / len(values)
    d -= d.sum() / len(d)
    return d / np.abs(d).max()


def pearson(model: Sequence[float], truth: Sequence[float]) -> float | None:
    """Product-moment correlation in [-1, 1]; None when either series is constant."""
    m, t = _paired(model, truth)
    if len(m) < 2:
        raise ValueError("need at least two pairs")
    # Constancy is tested on the values: the rounded mean of a constant
    # series leaves tiny non-zero deviations.
    if (m == m[0]).all() or (t == t[0]).all():
        return None
    dm = _deviations(m)
    dt = _deviations(t)
    r = float((dm * dt).sum() / (np.sqrt((dm * dm).sum()) * np.sqrt((dt * dt).sum())))
    # Rounding can carry r a few ulps past +/-1.
    return min(1.0, max(-1.0, r))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties receiving the average of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman(model: Sequence[float], truth: Sequence[float]) -> float | None:
    """Rank correlation with average ranks under ties.

    Tie-free input uses the closed-form 1 - 6*sum(d^2)/(n(n^2-1));
    otherwise the product-moment formula is applied to the rank vectors.
    Constant series make the coefficient undefined (None).
    """
    m, t = _paired(model, truth)
    n = len(m)
    if n < 2:
        raise ValueError("need at least two pairs")
    if np.all(m == m[0]) or np.all(t == t[0]):
        return None
    rm = _average_ranks(m)
    rt = _average_ranks(t)
    tie_free = len(np.unique(m)) == n and len(np.unique(t)) == n
    if tie_free:
        d = rm - rt
        return float(1 - 6 * np.sum(d**2) / (n * (n**2 - 1)))
    return pearson(rm, rt)


def validate_scores(
    model: Sequence[float], truth: Sequence[float]
) -> ValidationReport:
    """Error metrics plus correlations, with undefined values left as None."""
    m, t = _paired(model, truth)
    n = len(m)
    pear: float | None = None
    spear: float | None = None
    if n >= 2:
        pear = pearson(m, t)
        spear = spearman(m, t)
    return ValidationReport(
        mae_pct=mae(m, t),
        rmse_pct=rmse(m, t),
        pearson_r=pear,
        spearman_rho=spear,
        n=n,
    )
