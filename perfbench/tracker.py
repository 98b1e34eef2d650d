"""Seeded model of a real eye tracker's per-level log.

The bundled ``gazescore.synth`` generator writes clean, evenly spaced
samples. Real tracker exports look different (Holmqvist, Nystroem &
Mulvey, *Eye tracker data quality*, ETRA 2012), and this module writes
level CSVs the way they do:

- fixations and saccades at about 60 Hz, with jittered fractional
  epoch-ms timestamps and CRLF line endings;
- blink bursts logged as ``(0, 0)``, about 1 % out-of-bounds points,
  rare malformed gaze cells and rare gaze rows without a timestamp;
- an object placement every 0.8-3 s and a game event every 1-4 s.

Every random draw comes from one ``random.Random(seed)``, so the same
seed gives the same bytes. :func:`write_level_log` returns the gaze
samples it wrote as valid, after the documented ingest rules (integer
milliseconds rounded half-up, first kept sample at t=0), so a caller can
check the loader against them.
"""
from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

WIDTH_PX = 1920
HEIGHT_PX = 1080
SAMPLE_PERIOD_US = 1_000_000 / 60  # timestamps are kept in integer microseconds

HEADER = ["timestamp_ms", "gaze", "object_pos", "aoi_w", "aoi_h", "event_kind", "event_correct"]

OUT_OF_BOUNDS_P = 0.01
MALFORMED_P = 0.0007
NO_TIMESTAMP_P = 0.0003
MALFORMED_CELLS = ("(nan, nan)", "(1024.5; 300.2)", "1024.5 300.2", "(,)", "(12e3, 5)", "(x, y)")


@dataclass(frozen=True)
class LevelLog:
    """What one generated level file holds, as the loader should see it."""

    rows: int                                   # data rows, header excluded
    valid: tuple[tuple[int, float, float], ...]  # kept samples (t_ms from 0, x, y)
    dropped: int                                # gaze rows the loader must drop
    placements: int
    events: int                                 # scored events (clicks and answers)

    @property
    def duration_ms(self) -> int:
        return self.valid[-1][0] - self.valid[0][0] if self.valid else 0


def _timestamp_text(t_us: int) -> str:
    return f"{t_us // 1000}.{t_us % 1000:03d}"


def _avoid_half(t_us: int) -> int:
    """Keep the sub-ms fraction away from .5 so half-up rounding is unambiguous."""
    return t_us + 20 if 495 <= t_us % 1000 <= 505 else t_us


def _out_of_bounds(rng: random.Random) -> tuple[float, float]:
    side = rng.randrange(4)
    if side == 0:
        return rng.uniform(-150.0, -5.0), rng.uniform(0.0, HEIGHT_PX)
    if side == 1:
        return rng.uniform(WIDTH_PX + 5.0, WIDTH_PX + 150.0), rng.uniform(0.0, HEIGHT_PX)
    if side == 2:
        return rng.uniform(0.0, WIDTH_PX), rng.uniform(-120.0, -5.0)
    return rng.uniform(0.0, WIDTH_PX), rng.uniform(HEIGHT_PX + 5.0, HEIGHT_PX + 120.0)


def _clamp(value: float, hi: float) -> float:
    return min(max(value, 1.0), hi - 1.0)


def write_level_log(path: str | Path, seed: int, duration_s: float | None = None) -> LevelLog:
    """Write one level CSV for ``seed`` and describe what a loader must keep."""
    rng = random.Random(seed)
    if duration_s is None:
        duration_s = rng.uniform(50.0, 70.0)
    n = int(duration_s * 60)
    t0_us = 1_760_000_000_000_000 + rng.randrange(10**12)

    # Placements: (time from t0 in us, object centre, AoI size).
    placements = []
    t = rng.uniform(0.1, 0.4) * 1e6
    while t < duration_s * 1e6:
        left = rng.random() < 0.5
        ox = rng.randint(300, 700) if left else rng.randint(1220, 1620)
        oy, w, h = rng.randint(700, 900), rng.randint(180, 260), rng.randint(130, 200)
        placements.append((int(t), ox, oy, w, h))
        t += rng.uniform(0.8, 3.0) * 1e6

    events = []
    t = rng.uniform(1.0, 4.0) * 1e6
    while t < duration_s * 1e6:
        kind = rng.choices(("mouse_click", "answer", "other"), (0.4, 0.45, 0.15))[0]
        correct = "" if kind == "other" else ("true" if rng.random() < 0.8 else "false")
        events.append((int(t), kind, correct))
        t += rng.uniform(1.0, 4.0) * 1e6

    # Gaze targets: fixations of 130-800 ms joined by 1-3 saccade samples.
    points: list[tuple[float, float]] = []
    pi = 0
    cx, cy = WIDTH_PX / 2, HEIGHT_PX * 0.75
    while len(points) < n:
        t_now = len(points) * SAMPLE_PERIOD_US
        while pi < len(placements) and placements[pi][0] <= t_now:
            pi += 1
        draw = rng.random()
        if pi and draw < 0.55:
            _, ox, oy, w, h = placements[pi - 1]
            tx, ty = ox + rng.uniform(-0.35, 0.35) * w, oy + rng.uniform(-0.35, 0.35) * h
        elif draw < 0.8:
            tx, ty = rng.uniform(40, WIDTH_PX - 40), rng.uniform(560, HEIGHT_PX - 40)
        else:
            tx, ty = rng.uniform(40, WIDTH_PX - 40), rng.uniform(40, 520)
        steps = rng.randint(1, 3)
        for k in range(1, steps + 1):
            f = k / (steps + 1)
            points.append((cx + (tx - cx) * f, cy + (ty - cy) * f))
        for _ in range(rng.randint(8, 48)):
            points.append((tx + rng.gauss(0, 5), ty + rng.gauss(0, 5)))
        cx, cy = tx, ty
    del points[n:]

    blinks: set[int] = set()
    i = int(rng.uniform(2.0, 6.0) * 60)
    while i < n:
        blinks.update(range(i, min(n, i + rng.randint(5, 14))))
        i += int(rng.uniform(2.0, 6.0) * 60)

    rows: list[tuple[int, int, list[str]]] = []
    kept: list[tuple[int, float, float]] = []
    for i, (x, y) in enumerate(points):
        jitter_us = int(max(-2000, min(2000, rng.gauss(0, 600))))
        t_us = _avoid_half(t0_us + round(i * SAMPLE_PERIOD_US) + jitter_us)
        ts = _timestamp_text(t_us)
        draw = rng.random()
        if i in blinks:
            gaze = "(0, 0)" if i % 2 else "(0.0, 0.0)"
        elif draw < OUT_OF_BOUNDS_P:
            gaze = "({:.2f}, {:.2f})".format(*_out_of_bounds(rng))
        elif draw < OUT_OF_BOUNDS_P + MALFORMED_P:
            gaze = rng.choice(MALFORMED_CELLS)
        else:
            x, y = round(_clamp(x, WIDTH_PX), 2), round(_clamp(y, HEIGHT_PX), 2)
            gaze = f"({x:.2f}, {y:.2f})"
            if draw < OUT_OF_BOUNDS_P + MALFORMED_P + NO_TIMESTAMP_P:
                ts = ""
            else:
                kept.append(((t_us + 500) // 1000, x, y))
        rows.append((t_us, 1, [ts, gaze, "", "", "", "", ""]))

    for off, ox, oy, w, h in placements:
        t_us = _avoid_half(t0_us + off)
        rows.append((t_us, 0, [_timestamp_text(t_us), "", f"({ox}, {oy})", str(w), str(h), "", ""]))
    for off, kind, correct in events:
        t_us = _avoid_half(t0_us + off)
        rows.append((t_us, 2, [_timestamp_text(t_us), "", "", "", "", kind, correct]))
    rows.sort(key=lambda r: (r[0], r[1]))

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(HEADER)
        writer.writerows(row for _, _, row in rows)

    first = kept[0][0] if kept else 0
    return LevelLog(
        rows=len(rows),
        valid=tuple((t - first, x, y) for t, x, y in kept),
        dropped=n - len(kept),
        placements=len(placements),
        events=sum(1 for _, kind, _ in events if kind != "other"),
    )
