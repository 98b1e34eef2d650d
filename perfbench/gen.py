"""Write one workload's input CSVs and a manifest of what the loader must keep.

    python3 perfbench/gen.py --workload noisy-cohort --seed 1 --out DIR

Runs as its own process (with ``src/`` on the path) so that the benchmark
parent ``run.py`` stays small: a spawned child's peak RSS includes its parent's.
The manifest maps student -> level -> the file's data rows, the samples
a loader must keep, the gaze rows it must drop, the kept-sample span in
ms, the placements, the scored events and, for constructed sessions, the
engagement-period lengths the generator placed.
"""
from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import checks
import tracker

NOISY_STUDENTS = 4
SWEEP_STUDENTS = 2
# Short levels keep each timed call to tens of ms, so a run repeats every call
# many times and the fastest of them is a steady figure on a shared machine.
LEVEL_S = (6.0, 9.0)
CLEAN_LEVEL_MS = 30_000
MAX_DRAWS = 20


def _constructed(sessions, out: Path, requested: dict) -> dict:
    from gazescore.ingest import merge_levels
    from gazescore.synth import write_session_set

    write_session_set(merge_levels(sessions), out)
    manifest: dict = {}
    for s in sessions:
        entry = {
            "file": f"{s.student_id}_level{s.level}.csv",
            "rows": len(s.samples) + len(s.placements) + len(s.events),
            "valid": len(s.samples),
            "dropped": 0,
            "duration_ms": s.samples[-1].t_ms - s.samples[0].t_ms,
            "placements": len(s.placements),
            "events": len(s.events),
        }
        if (s.student_id, s.level) in requested:
            entry["periods"] = list(requested[s.student_id, s.level])
        manifest.setdefault(s.student_id, {})[s.level] = entry
    return manifest


def _case_study():
    from gazescore.synth import generate_table_fixture

    return generate_table_fixture().for_student("S10")


def _clean_level(rng: random.Random, level: int):
    """One clean 30-second ``generate_session`` level and the period lengths it was asked for.

    ``generate_session`` refuses a profile whose periods and stimulus time
    do not fit the level; that happened for none of 600 seeds, and a
    refused draw is replaced by the next one from the same ``rng``.
    """
    from gazescore.synth import ProfileError, SynthProfile, generate_session

    for _ in range(MAX_DRAWS):
        lengths = tuple(rng.randrange(400, 3_001) for _ in range(rng.randint(2, 3)))
        profile = SynthProfile(
            seed=rng.randrange(2**31),
            level=level,
            duration_ms=CLEAN_LEVEL_MS,
            sample_interval_ms=16,
            target_sf_pct=rng.uniform(50.0, 75.0),
            target_aoi_dwell_share=0.3,  # room for up to 9 s of periods
            engagement_period_lengths_ms=lengths,
            student_id=checks.CLEAN_STUDENT,
        )
        try:
            return generate_session(profile), lengths
        except ProfileError:
            continue
    raise RuntimeError(f"no feasible clean level {level} in {MAX_DRAWS} draws")


def _clean_student(rng: random.Random) -> tuple[list, dict]:
    """Three clean levels with requested engagement periods."""
    sessions, requested = [], {}
    for level in (1, 2, 3):
        session, requested[checks.CLEAN_STUDENT, level] = _clean_level(rng, level)
        sessions.append(session)
    return sessions, requested


def _tracker_cohort(seed: int, out: Path, students: int) -> dict:
    rng = random.Random(seed)
    manifest: dict = {}
    for k in range(1, students + 1):
        student = f"P{k:02d}"
        for level in (1, 2, 3):
            name = f"{student}_level{level}.csv"
            log = tracker.write_level_log(out / name, rng.randrange(2**63),
                                          duration_s=rng.uniform(*LEVEL_S))
            manifest.setdefault(student, {})[level] = {
                "file": name,
                "rows": log.rows,
                "valid": len(log.valid),
                "dropped": log.dropped,
                "duration_ms": log.duration_ms,
                "placements": log.placements,
                "events": log.events,
            }
    return manifest


def noisy_cohort(seed: int, out: Path) -> dict:
    """Tracker-model students, one clean constructed student and the case study."""
    manifest = _tracker_cohort(seed, out, NOISY_STUDENTS)
    sessions, requested = _clean_student(random.Random(seed))
    manifest.update(_constructed(sessions + _case_study(), out, requested))
    return manifest


def rescore_sweep(seed: int, out: Path) -> dict:
    """A few tracker-model students, re-scored in process."""
    return _tracker_cohort(seed, out, SWEEP_STUDENTS)


WORKLOADS = {"noisy-cohort": noisy_cohort, "rescore-sweep": rescore_sweep}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    manifest = WORKLOADS[args.workload](args.seed, args.out)
    (args.out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
