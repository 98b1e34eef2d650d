"""One measured process of the benchmark, started fresh by ``run.py``.

    python3 perfbench/child.py MODE --in DIR --result FILE [options]

Modes:

- ``cli``: does what ``python -m gazescore.cli analyze --in DIR --out OUT``
  does (import ``gazescore.cli``, exit with ``main(argv)``), with set-up
  ending once the import is done. With ``--repeat SECONDS`` it instead
  calls ``main`` once per timed student (``--student``), pass after pass,
  for that long, and returns the time of every call.
- ``sweep``: set-up also loads every input level; the timed phase then
  re-analyses each student with ``analyze_student`` + ``build_report`` for
  every config of ``GRID``, with no ingest and no writes. The outputs are
  checked here, after the timed phase, because they never reach the disk.
  With ``--repeat SECONDS`` every (student, config) unit is repeated, pass
  after pass, and every pass must give the first pass's reports.
- ``probe``: set-up only (``--sweep`` adds the loading), for more set-up
  samples.
- ``memory``: untimed; bytes per sample still allocated after loading the
  first input level and after analysing it, measured with ``tracemalloc``.

The child stamps ``time.perf_counter_ns`` (CLOCK_MONOTONIC, one clock for
all processes) when set-up is done and when the timed phase is done, and
writes both to the result file; ``--spans`` turns on the tracer.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

import gazescore.cli  # noqa: F401  (set-up: every mode pays for this import)
from gazescore import pipeline, report

import checks
from spans import Tracer

# Paper parameters swept by rescore-sweep; the first entry is the default config.
GRID = [
    {"tau_min_ms": tau_min, "tau_sustained_ms": tau_sus, "alpha1": a1, "alpha2": a2}
    for tau_min in (400, 300)
    for tau_sus in (2500, 1500)
    for a1 in (3.0, 2.0)
    for a2 in (1.5, 1.0)
]


def _load_all(in_dir: Path, manifest: dict, students: list[str]):
    from gazescore import ingest

    sessions = [
        ingest.load_level_csv(in_dir / entry["file"], level, student)
        for student in students
        for level, entry in sorted(manifest[student].items())
    ]
    return ingest.merge_levels(sessions)


def _repeat(seconds: float, units: dict, after=None) -> dict[str, list[int]]:
    """Call every unit in turn, pass after pass, until ``seconds`` have gone by.

    Returns each unit's call times in ns. ``after(key, result)`` runs
    outside the timed call, for checks.
    """
    times: dict[str, list[int]] = {key: [] for key in units}
    clock = time.perf_counter_ns
    end = clock() + int(seconds * 1e9)
    while True:
        for key, call in units.items():
            start = clock()
            result = call()
            times[key].append(clock() - start)
            if after is not None:
                after(key, result)
        if clock() >= end:
            return times


def run_cli(args) -> dict:
    from gazescore import cli

    argv = ["analyze", "--in", str(args.in_dir), "--out", str(args.out)]
    ready = time.perf_counter_ns()
    if args.repeat is None:
        rc = cli.main(argv)
        return {"rc": rc, "ready_ns": ready, "done_ns": time.perf_counter_ns()}
    students = checks.timed_students(checks.load_manifest(args.in_dir))
    units = {s: functools.partial(cli.main, [*argv, "--student", s]) for s in students}
    failed: set[str] = set()

    def after(student, rc):
        if rc != 0:
            failed.add(student)

    times = _repeat(args.repeat, units, after)
    return {"rc": 0, "ready_ns": ready, "done_ns": time.perf_counter_ns(), "units": times,
            "failed_students": sorted(failed)}


def _rescore(session_set, student: str, config):
    analyses, validation = pipeline.analyze_student(session_set, student, config)
    return report.build_report(student, analyses, validation, config), analyses


def run_sweep(args) -> dict:
    from gazescore.scoring import ScoringConfig

    manifest = checks.load_manifest(args.in_dir)
    students = checks.timed_students(manifest)
    session_set = _load_all(args.in_dir, manifest, students)
    configs = [ScoringConfig(**cfg) for cfg in GRID]
    kept = {
        (s.student_id, s.level): len(s.samples) for s in session_set.sessions.values()
    }
    if args.repeat is not None:
        return _repeat_sweep(args, session_set, students, configs)
    outputs = []
    ready = time.perf_counter_ns()
    for index, config in enumerate(configs):
        for student in students:
            doc, analyses = _rescore(session_set, student, config)
            outputs.append((index, student, doc, {a.session.level: a.periods for a in analyses}))
    done = time.perf_counter_ns()

    failed: set[tuple[str, int, int]] = set()
    problems: list[str] = []
    digests: dict[str, str] = {}
    reports: dict[str, dict] = {}
    transitions: dict[str, list] = {}
    for index, student, doc, periods in outputs:
        key = f"{student}@{index}"
        reports[key] = doc
        digests[key] = checks.sha256(checks.report_bytes(doc))
        config = dict(GRID[index], default=index == 0)
        found = checks.check_levels(
            doc,
            manifest[student],
            config,
            {level: kept[student, level] for level in manifest[student]},
            {level: [(p.duration_ms, p.sustained) for p in ps] for level, ps in periods.items()},
        )
        # Labels, matrices and dwell do not depend on the swept parameters.
        blocks = [block["transitions"] for block in doc["levels"]]
        if transitions.setdefault(student, blocks) != blocks:
            found.setdefault(1, []).append(f"transitions differ under config {index}")
        for level, msgs in found.items():
            failed.add((student, level, index))
            problems.extend(f"{key} level {level}: {m}" for m in msgs)
    if args.record_reference:
        checks.record_reference("rescore-sweep", reports)
    elif args.check_reference:
        reference = checks.load_reference("rescore-sweep")
        shape, want = reference if reference is not None else (None, {})
        for index, student, doc, _ in outputs:
            key = f"{student}@{index}"
            if want.get(key) != checks.reference_digest(doc, shape):
                failed.update((student, level, index) for level in manifest[student])
                problems.append(f"{key}: differs from the recorded reference")
    return {
        "rc": 0,
        "ready_ns": ready,
        "done_ns": done,
        "attempted": len(kept) * len(configs),
        "failed": len(failed),
        "problems": problems[:20],
        "digests": digests,
    }


def _repeat_sweep(args, session_set, students, configs) -> dict:
    """Re-score every (student, config) unit again and again; every pass must match the first."""
    units = {
        f"{student}@{index}": functools.partial(_rescore, session_set, student, config)
        for index, config in enumerate(configs)
        for student in students
    }
    digests: dict[str, str] = {}
    differ: set[str] = set()

    def after(key, result):
        digest = checks.sha256(checks.report_bytes(result[0]))
        if digests.setdefault(key, digest) != digest:
            differ.add(key)

    ready = time.perf_counter_ns()
    times = _repeat(args.repeat, units, after)
    return {"rc": 0, "ready_ns": ready, "done_ns": time.perf_counter_ns(), "units": times,
            "digests": digests, "differ": sorted(differ)}


def run_probe(args) -> dict:
    if args.sweep:
        manifest = checks.load_manifest(args.in_dir)
        _load_all(args.in_dir, manifest, sorted(manifest))
    return {"rc": 0, "ready_ns": time.perf_counter_ns()}


def run_memory(args) -> dict:
    import tracemalloc

    from gazescore import ingest, pipeline

    manifest = checks.load_manifest(args.in_dir)
    student = sorted(manifest)[0]
    level, entry = min(manifest[student].items())

    def load():
        session = ingest.load_level_csv(args.in_dir / entry["file"], level, student)
        return ingest.merge_levels([session])

    # One untraced pass first, so lazy imports and caches are not counted.
    pipeline.analyze_student(load(), student)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    session_set = load()
    loaded = tracemalloc.get_traced_memory()[0]
    analyses, _ = pipeline.analyze_student(session_set, student)
    analysed = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return {
        "rc": 0,
        "samples": sum(len(a.session.samples) for a in analyses),
        "ingest_bytes": loaded - base,
        "pipeline_bytes": analysed - loaded,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark process")
    parser.add_argument("mode", choices=("cli", "sweep", "probe", "memory"))
    parser.add_argument("--in", dest="in_dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--sweep", action="store_true", help="probe: also load the inputs")
    parser.add_argument("--repeat", type=float, default=None, metavar="SECONDS",
                        help="cli, sweep: repeat the timed units for SECONDS, timing each call")
    parser.add_argument("--check-reference", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.spans is not None:
        tracer = Tracer(args.run_id)
        tracer.install()
    try:
        run = {"cli": run_cli, "sweep": run_sweep, "probe": run_probe, "memory": run_memory}
        result = run[args.mode](args)
    finally:
        if tracer is not None:
            tracer.write(args.spans)
    if tracer is not None:
        result["missing_names"] = tracer.missing
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return int(result["rc"])


if __name__ == "__main__":
    code = main()
    # Everything is written; skip freeing the loaded sessions at interpreter exit.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
