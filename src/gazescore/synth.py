"""Deterministic synthetic gaze sessions with controllable statistics.

Sessions are built constructively: dwell blocks, engagement runs and
transition boundaries are placed to hit the requested counts exactly,
and seeded coordinate jitter stays strictly inside quadrant and AoI
boundaries so labels are unaffected. The same seed always yields the
same session.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engagement import MIN_DURATION_MS
from .ingest import (
    VALID_LEVELS,
    GameEvent,
    LevelSession,
    ObjectPlacement,
    SampleColumns,
    SessionSet,
    merge_levels,
    write_level_csv,
)
from .spatial import AoiLabel, Quadrant, ScreenGeometry

GEOMETRY = ScreenGeometry()

# generate_session tops its placements up to at least this many.
N_OBJECTS = 4

LEFT_OBJECT = (480.0, 810.0)
RIGHT_OBJECT = (1440.0, 810.0)
AOI_W = 200.0
AOI_H = 150.0

# Filler sample boxes per quadrant (screen coordinates, y down), chosen
# to avoid both AoI rectangles and all quadrant boundaries.
_SAFE_BOX = {
    Quadrant.Q1: (100.0, 860.0, 60.0, 480.0),
    Quadrant.Q2: (1060.0, 1820.0, 60.0, 480.0),
    Quadrant.Q3: (60.0, 340.0, 580.0, 700.0),
    Quadrant.Q4: (1580.0, 1860.0, 580.0, 700.0),
}


class ProfileError(ValueError):
    """Infeasible or inconsistent synthesis profile."""


@dataclass(frozen=True)
class SynthProfile:
    seed: int = 0
    level: int = 1
    duration_ms: int = 60000
    sample_interval_ms: int = 16
    target_sf_pct: float = 60.0
    target_aoi_dwell_share: float = 0.25
    engagement_period_lengths_ms: tuple[int, ...] = (3000, 2600, 800)
    click_accuracy: float = 0.8
    answer_accuracy: float = 0.9
    n_clicks: int = 12
    n_answers: int = 20
    noise_px: float = 6.0
    student_id: str = "SYNTH"

    def __post_init__(self) -> None:
        if self.level not in VALID_LEVELS:
            raise ProfileError(f"level must be in {VALID_LEVELS}, got {self.level}")
        if self.duration_ms <= 0 or self.sample_interval_ms <= 0:
            raise ProfileError("duration and sample interval must be positive")
        if not 0 <= self.target_sf_pct <= 100:
            raise ProfileError("target_sf_pct must lie in [0, 100]")
        if not 0 <= self.target_aoi_dwell_share <= 1:
            raise ProfileError("target_aoi_dwell_share must lie in [0, 1]")
        for p in (self.click_accuracy, self.answer_accuracy):
            if not 0 <= p <= 1:
                raise ProfileError("event accuracy probabilities must lie in [0, 1]")
        if any(length <= 0 for length in self.engagement_period_lengths_ms):
            raise ProfileError("engagement period lengths must be positive")
        if min(self.seed, self.n_clicks, self.n_answers) < 0:
            raise ProfileError("seed and event counts must be >= 0")
        if not 0 <= self.noise_px < math.inf:
            raise ProfileError(f"noise_px must be finite and >= 0, got {self.noise_px}")


@dataclass(frozen=True)
class _Run:
    """A run of consecutive samples sharing a quadrant and AoI state.

    ``side=None`` means outside any AoI (filler). ``exact_span_ms``
    forces the run to span exactly that many ms by adding one off-grid
    sample at the end when the span is not a grid multiple.
    """

    quadrant: Quadrant
    side: AoiLabel | None
    n: int = 0
    exact_span_ms: int | None = None

    def sample_count(self, dt: int) -> int:
        if self.exact_span_ms is None:
            return self.n
        k = self.exact_span_ms // dt
        return k + (2 if self.exact_span_ms % dt else 1)


def _object_for(side: AoiLabel) -> tuple[float, float]:
    return LEFT_OBJECT if side is AoiLabel.LEFT else RIGHT_OBJECT


def _compile(
    runs: list[_Run], dt: int, rng: np.random.Generator, noise_px: float
) -> tuple[SampleColumns, list[ObjectPlacement]]:
    """Emit samples and placements for a run list on a dt grid.

    Each sample is its run's centre plus uniform jitter of up to
    ``noise_px`` (at most the half-size of the run's box), drawn x then y,
    sample by sample, in one call.
    """
    times: list[np.ndarray] = []
    shapes: list[tuple[float, float, float, float]] = []  # centre x, y; half-size x, y
    placements: list[ObjectPlacement] = []
    active: AoiLabel | None = None
    t = 0
    for run in runs:
        if run.exact_span_ms is None:
            offsets = np.arange(run.n) * dt
            footprint = run.n * dt
        else:
            span = run.exact_span_ms
            offsets = np.arange(span // dt + 1) * dt
            if span % dt:
                offsets = np.append(offsets, span)
            footprint = span + dt
        if run.side is None:
            x_lo, x_hi, y_lo, y_hi = _SAFE_BOX[run.quadrant]
            shapes.append(
                ((x_lo + x_hi) / 2, (y_lo + y_hi) / 2, (x_hi - x_lo) / 2, (y_hi - y_lo) / 2)
            )
        else:
            ox, oy = _object_for(run.side)
            if active is not run.side:
                placements.append(ObjectPlacement(t, ox, oy, AOI_W, AOI_H))
                active = run.side
            shapes.append((ox, oy, AOI_W / 2 - 15, AOI_H / 2 - 15))
        times.append(t + offsets)
        t += footprint
    per_sample = np.repeat(np.array(shapes), list(map(len, times)), axis=0)
    amplitudes = np.minimum(per_sample[:, 2:], noise_px)
    jitter = rng.uniform(-amplitudes, amplitudes)
    samples = SampleColumns._adopt(
        np.concatenate(times), per_sample[:, 0] + jitter[:, 0], per_sample[:, 1] + jitter[:, 1]
    )
    return samples, placements


def _make_events(
    duration_ms: int, clicks: tuple[int, int], answers: tuple[int, int]
) -> tuple[GameEvent, ...]:
    """Evenly spaced events from (total, correct) counts; the incorrect ones
    sit at the tail slots."""
    events: list[GameEvent] = []
    for kind, (total, correct), phase in (("mouse_click", clicks, 1), ("answer", answers, 2)):
        for i in range(total):
            t = duration_ms * (i + 1) // (total + 2) + phase
            events.append(GameEvent(t_ms=t, kind=kind, correct=i < correct))
    events.sort(key=lambda e: e.t_ms)
    return tuple(events)


def _aoi_block(
    quadrant: Quadrant, items: list[_Run], total_samples: int, dt: int
) -> list[_Run]:
    """One quadrant block: padded filler, then items separated by filler."""
    minimum = sum(item.sample_count(dt) for item in items) + len(items) + 1
    pad = total_samples - minimum
    if pad < 0:
        raise ProfileError(
            f"stimulus block too small: need {minimum} samples, have {total_samples}"
        )
    runs: list[_Run] = [_Run(quadrant, None, 1 + pad)]
    for item in items:
        runs.append(item)
        runs.append(_Run(quadrant, None, 1))
    return runs


def generate_session(profile: SynthProfile) -> LevelSession:
    """Build a session whose measured statistics track the profile.

    Guarantees: deterministic per seed; embedded engagement periods are
    detected at exactly the requested lengths; measured stimulus focus
    and AoI dwell share land within 3 percentage points of their
    targets. Infeasible combinations raise ProfileError.
    """
    dt = profile.sample_interval_ms
    rng = np.random.default_rng(profile.seed)
    lengths = list(profile.engagement_period_lengths_ms)
    if any(length < MIN_DURATION_MS for length in lengths):
        raise ProfileError(f"engagement periods under {MIN_DURATION_MS} ms would not be detected")

    pairs = profile.duration_ms // dt
    if pairs < 20:
        raise ProfileError("session too short for the sample interval")
    sq_gaps = round(profile.target_sf_pct / 100 * pairs)
    nsq_gaps = pairs - sq_gaps
    duration = pairs * dt

    # Engagement and glance content, alternating sides.
    left_items: list[_Run] = []
    right_items: list[_Run] = []
    period_time = 0
    for i, length in enumerate(lengths):
        if i % 2 == 0:
            left_items.append(_Run(Quadrant.Q3, AoiLabel.LEFT, exact_span_ms=length))
        else:
            right_items.append(_Run(Quadrant.Q4, AoiLabel.RIGHT, exact_span_ms=length))
        period_time += length + dt

    aoi_time_target = round(profile.target_aoi_dwell_share * duration)
    glance_time = aoi_time_target - period_time
    if glance_time < -dt * max(1, len(lengths)):
        raise ProfileError(
            f"engagement periods occupy {period_time} ms, beyond the AoI dwell "
            f"target of {aoi_time_target} ms"
        )
    glance_n = max(2, min(math.ceil(MIN_DURATION_MS / dt) - 1, 10))
    for i in range(max(0, glance_time) // (glance_n * dt)):
        if i % 2 == 0:
            left_items.append(_Run(Quadrant.Q3, AoiLabel.LEFT, glance_n))
        else:
            right_items.append(_Run(Quadrant.Q4, AoiLabel.RIGHT, glance_n))

    # Ends on a non-stimulus block so stimulus gaps equal stimulus samples.
    runs = [
        _Run(Quadrant.Q1, None, (nsq_gaps + 1) // 2),
        *_aoi_block(Quadrant.Q3, left_items, (sq_gaps + 1) // 2, dt),
        *_aoi_block(Quadrant.Q4, right_items, sq_gaps // 2, dt),
        _Run(Quadrant.Q2, None, nsq_gaps // 2 + 1),
    ]

    samples, placements = _compile(runs, dt, rng, profile.noise_px)

    # Top up placements so at least N_OBJECTS appear; extras arrive after
    # the last AoI run and never capture filler samples.
    last = int(samples.t_ms[-1])
    for i in range(max(0, N_OBJECTS - len(placements))):
        ox, oy = _object_for(AoiLabel.LEFT if i % 2 == 0 else AoiLabel.RIGHT)
        placements.append(ObjectPlacement(last - i * dt - dt + 1, ox, oy, AOI_W, AOI_H))
    placements.sort(key=lambda p: p.t_ms)

    events = _make_events(
        duration,
        (profile.n_clicks, round(profile.click_accuracy * profile.n_clicks)),
        (profile.n_answers, round(profile.answer_accuracy * profile.n_answers)),
    )
    return LevelSession(
        student_id=profile.student_id,
        level=profile.level,
        samples=samples,
        events=events,
        placements=tuple(placements),
        geometry=GEOMETRY,
    )


# ---------------------------------------------------------------------------
# Case-study fixture: a three-level session set whose analyzed statistics
# match the published case-study tables (cross-quadrant transitions
# 105/107/92, AoI focus 40.9/29.6/16.0 percent, the event tallies, and a
# level-3 temporal impact of exactly -1.1).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _FixturePlan:
    level: int
    seed: int
    dt: int
    pairs: int
    group_switches: int        # boundaries in each direction (NSQ<->SQ)
    nn: int                    # Q1<->Q2 switches, all in the first NSQ visit
    ss: int                    # Q3<->Q4 switches, all in the first SQ visit
    n_pairs: int               # leading ss boundaries realized as AoI switch pairs
    sq_gaps: int
    periods: tuple[tuple[int, AoiLabel], ...]   # (sample count, side)
    singles: tuple[tuple[int, AoiLabel], ...]
    small_visit: int
    clicks: tuple[int, int]    # (total, correct)
    answers: tuple[int, int]


def _sides(counts: list[int]) -> tuple[tuple[int, AoiLabel], ...]:
    return tuple(
        (n, AoiLabel.LEFT if i % 2 == 0 else AoiLabel.RIGHT) for i, n in enumerate(counts)
    )


_FIXTURE_PLANS = (
    _FixturePlan(
        level=1,
        seed=101,
        dt=16,
        pairs=12500,
        group_switches=25,
        nn=27,
        ss=28,
        n_pairs=2,
        sq_gaps=9062,
        periods=_sides([939, 875, 813, 751, 688, 501, 376]),
        singles=_sides([10] * 16 + [6]),
        small_visit=8,
        clicks=(18, 15),
        answers=(36, 36),
    ),
    _FixturePlan(
        level=2,
        seed=102,
        dt=16,
        pairs=10000,
        group_switches=26,
        nn=27,
        ss=28,
        n_pairs=12,
        sq_gaps=6820,
        periods=_sides([751, 601, 501, 401, 301, 161]),
        singles=_sides([2] * 110),
        small_visit=8,
        clicks=(11, 11),
        answers=(34, 33),
    ),
    _FixturePlan(
        level=3,
        seed=103,
        dt=25,
        pairs=3200,
        group_switches=28,
        nn=16,
        ss=20,
        n_pairs=20,
        sq_gaps=1728,
        periods=_sides([36] * 12),
        singles=_sides([2] * 20),
        small_visit=8,
        clicks=(13, 10),
        answers=(34, 31),
    ),
)


def _phase_runs(plan: _FixturePlan, phase: int, items: list[_Run], extra: int) -> list[_Run]:
    """One Q3/Q4 sub-block of the content visit.

    A phase carries a head (tail) AoI sample when the boundary before
    (after) it is realized as a direct left/right switch pair.
    """
    quadrant = Quadrant.Q3 if phase % 2 == 0 else Quadrant.Q4
    side = AoiLabel.LEFT if phase % 2 == 0 else AoiLabel.RIGHT
    head = phase > 0 and (phase - 1) < plan.n_pairs
    tail = phase < plan.ss and phase < plan.n_pairs
    runs: list[_Run] = []
    if head:
        runs.append(_Run(quadrant, side, 1))
    if items:
        runs.append(_Run(quadrant, None, 1 + extra))
        for item in items:
            runs.append(item)
            runs.append(_Run(quadrant, None, 1))
    elif extra > 0 or (not head and not tail):
        runs.append(_Run(quadrant, None, max(1, extra)))
    if tail:
        runs.append(_Run(quadrant, side, 1))
    return runs


def _fixture_runs(plan: _FixturePlan) -> list[_Run]:
    dt = plan.dt
    left_items = [
        _Run(Quadrant.Q3, AoiLabel.LEFT, n)
        for n, side in (*plan.periods, *plan.singles)
        if side is AoiLabel.LEFT
    ]
    right_items = [
        _Run(Quadrant.Q4, AoiLabel.RIGHT, n)
        for n, side in (*plan.periods, *plan.singles)
        if side is AoiLabel.RIGHT
    ]

    k = plan.group_switches
    sq_samples = plan.sq_gaps + 1      # session ends inside a stimulus visit
    nsq_samples = plan.pairs - plan.sq_gaps
    first_sq_budget = sq_samples - k * plan.small_visit
    first_nsq_budget = nsq_samples - (k - 1) * plan.small_visit

    phase_items: list[list[_Run]] = [[] for _ in range(plan.ss + 1)]
    phase_items[0] = left_items
    if plan.ss >= 1:
        phase_items[1] = right_items
    minimum = sum(
        run.sample_count(dt)
        for p in range(plan.ss + 1)
        for run in _phase_runs(plan, p, phase_items[p], 0)
    )
    extra = first_sq_budget - minimum
    first_sq: list[_Run] = []
    for p in range(plan.ss + 1):
        first_sq.extend(_phase_runs(plan, p, phase_items[p], extra if p == 0 else 0))

    nsq_blocks = plan.nn + 1
    first_nsq = [
        _Run(
            Quadrant.Q1 if i % 2 == 0 else Quadrant.Q2,
            None,
            first_nsq_budget - (nsq_blocks - 1) if i == 0 else 1,
        )
        for i in range(nsq_blocks)
    ]

    runs: list[_Run] = list(first_sq)
    for visit in range(k):
        if visit == 0:
            runs.extend(first_nsq)
        else:
            runs.append(
                _Run(Quadrant.Q1 if visit % 2 == 0 else Quadrant.Q2, None, plan.small_visit)
            )
        runs.append(
            _Run(Quadrant.Q4 if visit % 2 == 0 else Quadrant.Q3, None, plan.small_visit)
        )
    return runs


def generate_table_fixture(student_id: str = "S10") -> SessionSet:
    """Three-level case-study fixture with table-exact derived statistics."""
    sessions = []
    for plan in _FIXTURE_PLANS:
        rng = np.random.default_rng(plan.seed)
        samples, placements = _compile(_fixture_runs(plan), plan.dt, rng, noise_px=6.0)
        events = _make_events(int(samples.t_ms[-1]), plan.clicks, plan.answers)
        sessions.append(
            LevelSession(
                student_id=student_id,
                level=plan.level,
                samples=samples,
                events=events,
                placements=tuple(placements),
                geometry=GEOMETRY,
            )
        )
    return merge_levels(sessions)


def write_session_set(session_set: SessionSet, out_dir: str | Path) -> list[Path]:
    """Write every session as ``<student>_level<k>.csv`` under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for (student, level), session in sorted(session_set.sessions.items()):
        written.append(write_level_csv(session, out_dir / f"{student}_level{level}.csv"))
    return written
