"""Output checks, digests and the recorded reference for the benchmark.

Every check is phrased on a report document plus, per level, the number
of per-sample plot rows and the (duration_ms, sustained) pairs of the
engagement periods, so CLI outputs read back from disk and in-process
reports go through the same code. A failed check names the sessions it
fails as (student, level) pairs; a failure of a whole student fails all
of that student's sessions.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

# The case-study student: cross-quadrant totals, AoI focus shares and the
# level-3 temporal impact published in the paper's tables.
CASE_STUDY = "S10"
CASE_STUDY_TOTALS = (105, 107, 92)
CASE_STUDY_FOCUS_AOI = (40.9, 29.6, 16.0)
CASE_STUDY_L3_IMPACT = -1.1

# A clean constructed student; like the case study it is checked but not timed.
CLEAN_STUDENT = "SYN"

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 1


def load_manifest(in_dir: Path) -> dict:
    """The generator's manifest: student -> level (int) -> file entry."""
    raw = json.loads((in_dir / "manifest.json").read_text(encoding="utf-8"))
    return {s: {int(k): e for k, e in levels.items()} for s, levels in raw.items()}


def timed_students(manifest: dict) -> list[str]:
    """The students whose analysis is timed: the tracker-model ones."""
    return [s for s in sorted(manifest) if s not in (CASE_STUDY, CLEAN_STUDENT)]


def report_bytes(report: dict) -> bytes:
    """The bytes ``gazescore.report.write_report`` writes for a report."""
    return (json.dumps(report, indent=2) + "\n").encode("utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_levels(report: dict, expected: dict, config: dict, sample_rows: dict,
                 periods: dict) -> dict[int, list[str]]:
    """Per-level problems with one student's report.

    ``expected`` maps level -> manifest entry (``valid``, ``duration_ms``
    and, for constructed sessions, ``periods``); ``config`` carries
    ``tau_min_ms`` and ``tau_sustained_ms``; ``sample_rows`` and
    ``periods`` map level -> plot rows and (duration_ms, sustained) pairs.
    """
    problems: dict[int, list[str]] = {}
    by_level = {block.get("level"): block for block in report.get("levels", [])}
    for level, want in expected.items():
        bad = problems.setdefault(level, [])
        block = by_level.get(level)
        if block is None:
            bad.append("level missing from report")
            continue
        tr, temporal = block["transitions"], block["temporal"]
        kept = want["valid"]
        if sample_rows.get(level) != kept:
            bad.append(f"{sample_rows.get(level)} plot sample rows, generator wrote {kept} valid")
        for key in ("quadrant_counts", "aoi_counts"):
            mass = sum(sum(row) for row in tr[key])
            if mass != max(kept - 1, 0):
                bad.append(f"{key} mass {mass} != kept samples - 1 = {kept - 1}")
        if sum(tr["dwell_ms"].values()) != tr["session_duration_ms"]:
            bad.append("dwell does not sum to session_duration_ms")
        if tr["session_duration_ms"] != want["duration_ms"]:
            bad.append(f"session_duration_ms {tr['session_duration_ms']} != {want['duration_ms']}")
        level_periods = periods.get(level, [])
        for duration, sustained in level_periods:
            if duration < config["tau_min_ms"]:
                bad.append(f"period of {duration} ms below tau_min_ms")
            if sustained != (duration >= config["tau_sustained_ms"]):
                bad.append(f"period of {duration} ms has sustained={sustained}")
        if len(level_periods) != temporal["period_count"]:
            bad.append("period rows disagree with period_count")
        if sum(1 for _, s in level_periods if s) != temporal["sustained_count"]:
            bad.append("sustained rows disagree with sustained_count")
        if "periods" in want and sorted(d for d, _ in level_periods) != sorted(want["periods"]):
            bad.append("periods not detected at exactly their requested lengths")
        if not 0 <= block["score"]["final_score"] <= 100:
            bad.append(f"final score {block['score']['final_score']} outside [0, 100]")
    if report.get("student_id") == CASE_STUDY and config.get("default"):
        levels = [by_level.get(k, {}) for k in (1, 2, 3)]
        totals = tuple(b.get("transitions", {}).get("total") for b in levels)
        focus = tuple(b.get("transitions", {}).get("focus_aoi_pct") for b in levels)
        impact = levels[2].get("score", {}).get("temporal_impact")
        if totals != CASE_STUDY_TOTALS:
            problems.setdefault(1, []).append(f"case-study totals {totals}")
        if focus != CASE_STUDY_FOCUS_AOI:
            problems.setdefault(1, []).append(f"case-study AoI focus {focus}")
        if impact != CASE_STUDY_L3_IMPACT:
            problems.setdefault(3, []).append(f"case-study level-3 impact {impact}")
    return {level: msgs for level, msgs in problems.items() if msgs}


def read_cli_outputs(out_dir: Path, student: str, levels: list[int]):
    """(report, sample_rows, periods, problems) for one student's CLI outputs."""
    problems: list[str] = []
    try:
        report = json.loads((out_dir / f"report_{student}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return None, {}, {}, [f"report unreadable: {exc}"]
    plot_dir = out_dir / "plots" / student
    names = sorted(p.name for p in plot_dir.glob("*.csv")) if plot_dir.is_dir() else []
    want = sorted([f"samples_level{k}.csv" for k in levels]
                  + [f"periods_level{k}.csv" for k in levels] + ["temporal_summary.csv"])
    if names != want:
        problems.append(f"plot files {names}, expected {len(want)}")
    sample_rows, periods = {}, {}
    for k in levels:
        try:
            with open(plot_dir / f"samples_level{k}.csv", "rb") as fh:
                sample_rows[k] = sum(1 for _ in fh) - 1
            with open(plot_dir / f"periods_level{k}.csv", newline="", encoding="utf-8") as fh:
                periods[k] = [(int(r["duration_ms"]), r["sustained"] == "true")
                              for r in csv.DictReader(fh)]
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"level {k} plot data unreadable: {exc}")
    return report, sample_rows, periods, problems


def skeleton(value):
    """Key structure of a report: dicts keep their keys, lists their element shape."""
    if isinstance(value, dict):
        return {k: skeleton(v) for k, v in value.items()}
    if isinstance(value, list) and value and isinstance(value[0], dict):
        merged: dict = {}
        for item in value:
            merged = merge_skeletons(merged, skeleton(item))
        return [merged]
    return None


def merge_skeletons(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        out = dict(a)
        for k, v in b.items():
            out[k] = merge_skeletons(a.get(k), v)
        return out
    if isinstance(a, list) and isinstance(b, list):
        return [merge_skeletons(a[0], b[0])]
    return b if a is None else a


def project(value, shape):
    """``value`` restricted to the keys in ``shape``, so later keys are ignored."""
    if isinstance(shape, dict) and isinstance(value, dict):
        return {k: project(v, shape[k]) for k, v in value.items() if k in shape}
    if isinstance(shape, list) and isinstance(value, list):
        return [project(v, shape[0]) for v in value]
    return value


def reference_digest(report: dict, shape) -> str:
    return sha256(json.dumps(project(report, shape), sort_keys=False).encode("utf-8"))


def load_reference(workload: str):
    """(shape, {report key: digest}) recorded for ``workload``, or None."""
    if not REFERENCE_PATH.exists():
        return None
    entry = json.loads(REFERENCE_PATH.read_text(encoding="utf-8")).get(workload)
    return None if entry is None else (entry["skeleton"], entry["digests"])


def record_reference(workload: str, reports: dict[str, dict]) -> None:
    """Store the key shape and digests of ``reports`` (key -> report) for ``workload``."""
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8")) if REFERENCE_PATH.exists() else {}
    shape: dict = {}
    for report in reports.values():
        shape = merge_skeletons(shape, skeleton(report))
    data[workload] = {
        "seed": REFERENCE_SEED,
        "skeleton": shape,
        "digests": {key: reference_digest(r, shape) for key, r in sorted(reports.items())},
    }
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
