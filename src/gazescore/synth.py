"""Deterministic synthetic gaze sessions with controllable statistics.

Sessions are built constructively: dwell blocks, engagement runs and
transition boundaries are placed to hit the requested counts exactly,
and seeded coordinate jitter stays strictly inside quadrant and AoI
boundaries so labels are unaffected. The same seed always yields the
same session.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engagement import MIN_DURATION_MS
from .ingest import (
    MAX_ABS_TIMESTAMP_MS,
    VALID_LEVELS,
    GameEvent,
    LevelSession,
    ObjectPlacement,
    SampleColumns,
    SessionSet,
    merge_levels,
)
from .report import write_level_csv
from .spatial import AoiLabel, Quadrant

# generate_session tops its placements up to at least this many.
N_OBJECTS = 4

# A profile may ask for at most this many samples (duration over interval)
# and this many events, about 44 h at 16 ms; past it generation would run
# away in time and memory.
MAX_PROFILE_ITEMS = 10_000_000

# Item i of a side-alternating list visits _SIDES[i % 2]. The left object
# sits in stimulus quadrant Q3, the right one in Q4.
_SIDES = (AoiLabel.LEFT, AoiLabel.RIGHT)
_OBJECT = {AoiLabel.LEFT: (480.0, 810.0), AoiLabel.RIGHT: (1440.0, 810.0)}
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
        if self.duration_ms > MAX_ABS_TIMESTAMP_MS:
            raise ProfileError(f"duration_ms must be at most {MAX_ABS_TIMESTAMP_MS}")
        samples = self.duration_ms // self.sample_interval_ms
        if max(samples, self.n_clicks + self.n_answers) > MAX_PROFILE_ITEMS:
            raise ProfileError(
                f"a profile may ask for at most {MAX_PROFILE_ITEMS} samples and as many events"
            )


@dataclass(frozen=True)
class _Run:
    """A run of consecutive samples: filler in a quadrant's safe box, or a
    visit to one side's object.

    ``exact_span_ms`` forces the run to span exactly that many ms by adding
    one off-grid sample at the end when the span is not a grid multiple.
    """

    where: Quadrant | AoiLabel
    n: int = 0
    exact_span_ms: int | None = None

    def offsets(self, dt: int) -> np.ndarray:
        """Sample times relative to the run's start."""
        if self.exact_span_ms is None:
            return np.arange(self.n) * dt
        span = self.exact_span_ms
        grid = np.arange(span // dt + 1) * dt
        return np.append(grid, span) if span % dt else grid

    def sample_count(self, dt: int) -> int:
        return len(self.offsets(dt))


def _compile(
    runs: list[_Run], dt: int, rng: np.random.Generator, noise_px: float
) -> tuple[SampleColumns, list[ObjectPlacement]]:
    """Emit samples and placements for a run list on a dt grid.

    Each run starts one dt after its predecessor's last sample. Each sample
    is its run's centre plus uniform jitter of up to ``noise_px`` (at most
    the half-size of the run's box), drawn x then y, sample by sample, in
    one call.
    """
    times: list[np.ndarray] = []
    shapes: list[tuple[float, float, float, float]] = []  # centre x, y; half-size x, y
    placements: list[ObjectPlacement] = []
    active: AoiLabel | None = None
    t = 0
    for run in runs:
        offsets = run.offsets(dt)
        if isinstance(run.where, Quadrant):
            x_lo, x_hi, y_lo, y_hi = _SAFE_BOX[run.where]
            shapes.append(
                ((x_lo + x_hi) / 2, (y_lo + y_hi) / 2, (x_hi - x_lo) / 2, (y_hi - y_lo) / 2)
            )
        else:
            ox, oy = _OBJECT[run.where]
            if active is not run.where:
                placements.append(ObjectPlacement(t, ox, oy, AOI_W, AOI_H))
                active = run.where
            shapes.append((ox, oy, AOI_W / 2 - 15, AOI_H / 2 - 15))
        times.append(t + offsets)
        t += int(offsets[-1]) + dt if len(offsets) else 0
    per_sample = np.repeat(np.array(shapes), list(map(len, times)), axis=0)
    amplitudes = np.minimum(per_sample[:, 2:], noise_px)
    jitter = rng.uniform(-amplitudes, amplitudes)
    samples = SampleColumns._adopt(
        np.concatenate(times), per_sample[:, 0] + jitter[:, 0], per_sample[:, 1] + jitter[:, 1]
    )
    return samples, placements


def _make_events(
    duration_ms: int, clicks: tuple[int, int], answers: tuple[int, int]
) -> list[GameEvent]:
    """Evenly spaced events from (total, correct) counts, clicks then
    answers; the incorrect ones sit at the tail slots."""
    events: list[GameEvent] = []
    for kind, (total, correct), phase in (("mouse_click", clicks, 1), ("answer", answers, 2)):
        for i in range(total):
            t = duration_ms * (i + 1) // (total + 2) + phase
            events.append(GameEvent(t_ms=t, kind=kind, correct=i < correct))
    return events


def _block(quadrant: Quadrant, items: list[_Run]) -> list[_Run]:
    """One filler sample, then each item followed by one filler sample."""
    runs = [_Run(quadrant, 1)]
    for item in items:
        runs += (item, _Run(quadrant, 1))
    return runs


def _padded(quadrant: Quadrant, runs: list[_Run], total_samples: int, dt: int) -> list[_Run]:
    """Filler ahead of the runs so that all of them hold total_samples samples."""
    pad = total_samples - sum(run.sample_count(dt) for run in runs)
    if pad < 0:
        raise ProfileError(
            f"stimulus block too small: need {total_samples - pad} samples, have {total_samples}"
        )
    return [_Run(quadrant, pad), *runs]


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
    period_time = sum(length + dt for length in lengths)
    aoi_time_target = round(profile.target_aoi_dwell_share * duration)
    glance_time = aoi_time_target - period_time
    if glance_time < -dt * max(1, len(lengths)):
        raise ProfileError(
            f"engagement periods occupy {period_time} ms, beyond the AoI dwell "
            f"target of {aoi_time_target} ms"
        )
    glance_n = max(2, min(math.ceil(MIN_DURATION_MS / dt) - 1, 10))
    glances = range(max(0, glance_time) // (glance_n * dt))
    left, right = (
        [_Run(side, exact_span_ms=length) for length in lengths[i::2]]
        + [_Run(side, glance_n) for _ in glances[i::2]]
        for i, side in enumerate(_SIDES)
    )

    # Ends on a non-stimulus block so stimulus gaps equal stimulus samples.
    runs = [
        _Run(Quadrant.Q1, (nsq_gaps + 1) // 2),
        *_padded(Quadrant.Q3, _block(Quadrant.Q3, left), (sq_gaps + 1) // 2, dt),
        *_padded(Quadrant.Q4, _block(Quadrant.Q4, right), sq_gaps // 2, dt),
        _Run(Quadrant.Q2, nsq_gaps // 2 + 1),
    ]

    samples, placements = _compile(runs, dt, rng, profile.noise_px)

    # Top up placements so at least N_OBJECTS appear; extras arrive after
    # the last AoI run and never capture filler samples.
    last = int(samples.t_ms[-1])
    for i in range(max(0, N_OBJECTS - len(placements))):
        ox, oy = _OBJECT[_SIDES[i % 2]]
        placements.append(ObjectPlacement(last - i * dt - dt + 1, ox, oy, AOI_W, AOI_H))

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
        placements=placements,
    )


# ---------------------------------------------------------------------------
# Case-study fixture: a three-level session set whose analyzed statistics
# match the published case-study tables (cross-quadrant transitions
# 105/107/92, AoI focus 40.9/29.6/16.0 percent, the event tallies, and a
# level-3 temporal impact of exactly -1.1).
# ---------------------------------------------------------------------------

# Samples in each of the small quadrant visits that close a fixture level.
_SMALL_VISIT = 8


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
    periods: tuple[int, ...]   # sample counts; sides alternate from the left
    singles: tuple[int, ...]
    clicks: tuple[int, int]    # (total, correct)
    answers: tuple[int, int]


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
        periods=(939, 875, 813, 751, 688, 501, 376),
        singles=(10,) * 16 + (6,),
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
        periods=(751, 601, 501, 401, 301, 161),
        singles=(2,) * 110,
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
        periods=(36,) * 12,
        singles=(2,) * 20,
        clicks=(13, 10),
        answers=(34, 31),
    ),
)


def _phase_runs(plan: _FixturePlan, phase: int, items: list[_Run]) -> list[_Run]:
    """One Q3/Q4 sub-block of the content visit.

    A phase carries a head (tail) AoI sample when the boundary before
    (after) it is realized as a direct left/right switch pair.
    """
    quadrant = (Quadrant.Q3, Quadrant.Q4)[phase % 2]
    side = _SIDES[phase % 2]
    head = phase > 0 and (phase - 1) < plan.n_pairs
    tail = phase < plan.ss and phase < plan.n_pairs
    runs = [_Run(side, 1)] if head else []
    if items:
        runs += _block(quadrant, items)
    elif not head and not tail:
        runs.append(_Run(quadrant, 1))
    if tail:
        runs.append(_Run(side, 1))
    return runs


def _fixture_runs(plan: _FixturePlan) -> list[_Run]:
    left, right = (
        [_Run(side, n) for counts in (plan.periods, plan.singles) for n in counts[i::2]]
        for i, side in enumerate(_SIDES)
    )
    k = plan.group_switches
    sq_samples = plan.sq_gaps + 1      # session ends inside a stimulus visit
    nsq_samples = plan.pairs - plan.sq_gaps

    # The first stimulus visit: padding, then ss + 1 phases, the first two
    # holding the items.
    phases = enumerate([left, right] + [[]] * (plan.ss - 1))
    runs = _padded(
        Quadrant.Q3,
        [run for p, items in phases for run in _phase_runs(plan, p, items)],
        sq_samples - k * _SMALL_VISIT,
        plan.dt,
    )
    # The first non-stimulus visit: a Q1 block, then nn one-sample switches.
    runs.append(_Run(Quadrant.Q1, nsq_samples - (k - 1) * _SMALL_VISIT - plan.nn))
    runs += [_Run((Quadrant.Q2, Quadrant.Q1)[i % 2], 1) for i in range(plan.nn)]
    # Then small visits until the session's k stimulus visits are done.
    cycle = (Quadrant.Q4, Quadrant.Q2, Quadrant.Q3, Quadrant.Q1)
    runs += [_Run(cycle[i % 4], _SMALL_VISIT) for i in range(2 * k - 1)]
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
                placements=placements,
            )
        )
    return merge_levels(sessions)


def check_student_id(student_id: str) -> str:
    """The id, unless it is empty, "." or ".." or holds a path separator or a
    NUL (ValueError): its ``<student>_level<k>.csv`` must stay in its directory."""
    if student_id in ("", ".", "..") or {"/", os.sep, os.altsep, "\0"} & set(student_id):
        raise ValueError(f"student id must name a file in the output directory: {student_id!r}")
    return student_id


def write_session_set(session_set: SessionSet, out_dir: str | Path) -> list[Path]:
    """Write every session as ``<student>_level<k>.csv`` under out_dir."""
    for student, _ in session_set.sessions:
        check_student_id(student)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [
        write_level_csv(session, out_dir / f"{student}_level{level}.csv")
        for (student, level), session in sorted(session_set.sessions.items())
    ]
