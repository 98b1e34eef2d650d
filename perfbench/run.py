"""End-to-end and per-layer benchmark: per-level gaze CSVs -> reports and plot CSVs.

    python3 perfbench/run.py --workload noisy-cohort --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; ``src/`` is put on the path of
every child, nothing needs installing. This process stays small and
imports neither NumPy nor gazescore, because a spawned child's peak RSS
includes its parent's. It

1. generates the workload's inputs from ``--seed`` in a child (``gen.py``);
2. with ``--trace 0``: runs the whole job once in a fresh child (the CLI
   over every student, or one sweep pass) for its outputs and peak RSS;
   then one fresh child repeats the timed units (a CLI call per
   tracker-model student, or one student under one config) pass after
   pass for ``--seconds``, timing every call; set-up-only children before
   and after it add set-up samples (interpreter start, ``import
   gazescore.cli`` and, on rescore-sweep, loading the inputs);
3. checks every child's outputs (``checks.py``), counting each level
   session that fails a check, or whose child exited non-zero, as failed;
4. prints a digest of every output, then one JSON line with the
   end-to-end metrics (``--trace 0``) or the per-layer metrics
   (``--trace 1``: whole jobs, alternately untraced and traced, for
   about ``--seconds``, plus one untimed ``tracemalloc`` child).

``samples_per_s`` divides the samples of one pass by the sum of each
unit's fastest call. On a shared machine whose speed swings by up to
twice over seconds to minutes, the fastest of many short calls repeats
from run to run where a mean or median over the run does not.

The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MODES = {"noisy-cohort": "cli", "rescore-sweep": "sweep"}
SETUP_PROBES = 6          # set-up-only children per run, half before the timed loop
RUN_BUDGET_S = 170        # every child of one run must finish within this
LAYERS = ("ingest", "spatial", "transitions", "engagement", "scoring", "validation",
          "pipeline", "report", "cli")
MATRICES = ("build_quadrant_matrix", "aggregate_transitions", "build_aoi_matrix", "aoi_metrics")
DWELL = ("dwell_summary", "aoi_time_share_pct", "aoi_sample_share_pct")


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def spawn(script: str, args: list[str], log: Path, deadline: float) -> tuple[int, int, int]:
    """Run one child to completion: (exit code, peak RSS in KiB, spawn time ns)."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # same set and dict layouts in every child
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "ab") as out:
        started = time.perf_counter_ns()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT, env=env,
        )
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException as exc:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        if not isinstance(exc, ChildTimeout):
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, started


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Run:
    def __init__(self, args, work: Path, manifest: dict):
        self.args = args
        self.work = work
        self.manifest = manifest
        self.mode = MODES[args.workload]
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.sessions = [(s, lv) for s in sorted(manifest) for lv in sorted(manifest[s])]
        self.rows = {e["file"]: e["rows"] for lv in manifest.values() for e in lv.values()}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: dict[str, str] | None = None
        self.iterations: list[dict] = []
        self.loop: dict = {}
        self.setups: list[float] = []
        self.absent: set[str] = set()
        self.n = 0

    def child(self, mode: str, *extra: str, spans_file: Path | None = None) -> dict:
        self.n += 1
        result = self.work / f"result{self.n}.json"
        argv = [mode, "--in", str(self.work / "in"), "--result", str(result), *extra]
        if spans_file is not None:
            argv += ["--spans", str(spans_file), "--run-id", f"{self.args.workload}-{self.n}"]
        rc, rss_kib, started = spawn("child.py", argv, self.work / "child.log", self.deadline)
        data = _read_json(result) or {}
        data.update(exit=rc, rss_kib=rss_kib, started_ns=started,
                    wall_s=(time.perf_counter_ns() - started) / 1e9)
        if "ready_ns" in data and spans_file is None:
            self.setups.append((data["ready_ns"] - started) / 1e9)
        return data

    def fail(self, sessions, message: str) -> None:
        self.failed += len(sessions)
        self.problems.append(message)

    def iteration(self, traced: bool) -> None:
        """One whole job in a fresh child: the CLI over every student, or one sweep pass."""
        i = len(self.iterations)
        spans_file = self.work / f"spans{i}.jsonl" if traced else None
        reference = self.args.seed == checks.REFERENCE_SEED and not self.args.record_reference
        if self.mode == "cli":
            out = self.work / f"out{i}"
            data = self.child("cli", "--out", str(out), spans_file=spans_file)
            self.check_cli(data, out, reference)
            shutil.rmtree(out, ignore_errors=True)
        else:
            flags = ["--record-reference"] if self.args.record_reference else []
            flags += ["--check-reference"] if reference else []
            data = self.child("sweep", *flags, spans_file=spans_file)
            self.check_sweep(data)
        data["traced"] = traced
        if "done_ns" in data:
            timed = (data["done_ns"] - data["ready_ns"]) / 1e9
            print(f"child {i}: traced={int(traced)} setup "
                  f"{(data['ready_ns'] - data['started_ns']) / 1e9:.3f} s, timed {timed:.3f} s, "
                  f"peak RSS {data['rss_kib']} KiB, process {data['wall_s']:.3f} s",
                  file=sys.stderr)
        if traced and spans_file.exists():
            data["spans"] = spans.read_spans(spans_file)
            absent = set(data.get("missing_names", [])) - self.absent
            if absent:
                print(f"not traced (absent): {', '.join(sorted(absent))}", file=sys.stderr)
                self.absent |= absent
        self.iterations.append(data)

    def repeat(self) -> None:
        """The timed loop: one fresh child repeats every timed unit for ``--seconds``."""
        students = checks.timed_students(self.manifest)
        timed = {s: self.manifest[s] for s in students}
        sessions = [(s, lv) for s in students for lv in sorted(timed[s])]
        args = ["--repeat", str(self.args.seconds)]
        if self.mode == "cli":
            out = self.work / "repeat-out"
            data = self.child("cli", *args, "--out", str(out))
        else:
            data = self.child("sweep", *args)
        if data["exit"] != 0 or "units" not in data:
            self.attempted += len(sessions)
            self.fail(sessions, f"timed loop child exited {data['exit']}")
            return
        passes = min(len(ns) for ns in data["units"].values())
        per_student = len(data["units"]) // len(students)  # 1 call, or one per config
        self.attempted += passes * per_student * len(sessions)
        if self.mode == "cli":
            for student in data["failed_students"]:
                self.fail([(student, lv) for lv in timed[student]], f"{student}: a timed call failed")
            self.check_cli(data, out, False, timed)
            shutil.rmtree(out, ignore_errors=True)
        else:
            for key in data["differ"]:
                student = key.split("@")[0]
                self.fail([(student, lv) for lv in timed[student]], f"{key}: a pass differs")
            self.digests(data["digests"])
        # Samples per unit: a CLI call per student, or one student under one config.
        self.loop = {"units": data["units"],
                     "samples": {key: sum(e["valid"] for e in timed[key.split("@")[0]].values())
                                 for key in data["units"]}}
        best = sum(min(ns) for ns in data["units"].values()) / 1e9
        typical = sum(statistics.median(ns) for ns in data["units"].values()) / 1e9
        print(f"timed loop: {passes} passes of {len(data['units'])} units; a pass takes "
              f"{best:.4f} s at each unit's fastest, {typical:.4f} s at its median", file=sys.stderr)

    def check_cli(self, data: dict, out: Path, reference: bool, manifest: dict | None = None) -> None:
        manifest = self.manifest if manifest is None else manifest
        sessions = [(s, lv) for s in sorted(manifest) for lv in sorted(manifest[s])]
        self.attempted += len(sessions)
        if data["exit"] != 0 or "done_ns" not in data:
            self.fail(sessions, f"cli child exited {data['exit']}")
            return
        failed: set = set()
        digests: dict[str, str] = {}
        reports: dict[str, dict] = {}
        if len(list(out.glob("report_*.json"))) != len(manifest):
            self.problems.append("report count differs from student count")
            failed.update(sessions)
        want_ref = checks.load_reference(self.args.workload) if reference else None
        for student, levels in sorted(manifest.items()):
            report, rows, periods, problems = checks.read_cli_outputs(out, student, sorted(levels))
            mine = {(student, lv) for lv in levels}
            if report is None or problems:
                failed.update(mine)
                self.problems.extend(f"{student}: {p}" for p in problems)
                continue
            reports[student] = report
            config = {"tau_min_ms": 400, "tau_sustained_ms": 2500, "default": True}
            found = checks.check_levels(report, levels, config, rows, periods)
            for level, msgs in found.items():
                failed.add((student, level))
                self.problems.extend(f"{student} level {level}: {m}" for m in msgs)
            if reference:
                if want_ref is None:
                    failed.update(mine)
                    self.problems.append(f"no recorded reference for {self.args.workload}")
                elif want_ref[1].get(student) != checks.reference_digest(report, want_ref[0]):
                    failed.update(mine)
                    self.problems.append(f"{student}: differs from the recorded reference")
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digests[path.relative_to(out).as_posix()] = checks.file_sha256(path)
        data["files_written"] = len(digests)
        data["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if self.args.record_reference:
            checks.record_reference(self.args.workload, reports)
        self.failed += len(failed)
        self.digests(digests)

    def check_sweep(self, data: dict) -> None:
        if data["exit"] != 0 or "done_ns" not in data:
            self.attempted += len(self.sessions)
            self.fail(self.sessions, f"sweep child exited {data['exit']}")
            return
        self.attempted += data["attempted"]
        self.failed += data["failed"]
        self.problems.extend(data["problems"])
        data["files_written"] = data["bytes_written"] = 0
        self.digests(data["digests"])

    def digests(self, digests: dict[str, str]) -> None:
        """The first child's output digests are printed; every later output must match them."""
        if self.first_digests is None:
            self.first_digests = digests
            for name, digest in sorted(digests.items()):
                print(f"digest {self.args.workload} {name} {digest}")
            combined = checks.sha256(json.dumps(digests, sort_keys=True).encode("utf-8"))
            print(f"digest {self.args.workload} * {combined}")
        elif any(self.first_digests.get(name) != d for name, d in digests.items()):
            self.fail(self.sessions, "outputs differ from the first child's outputs")

    def timed(self, traced: bool | None = None) -> list[dict]:
        return [
            it for it in self.iterations
            if "done_ns" in it and (traced is None or it["traced"] == traced)
        ]

    def probes(self, count: int) -> None:
        for _ in range(count):
            if time.monotonic() > self.deadline - 10:
                return
            self.child("probe", *(["--sweep"] if self.mode == "sweep" else []))

    def measure(self) -> None:
        if self.args.trace == 0:
            # A whole job (outputs, peak RSS), then the timed loop between set-up probes.
            self.iteration(False)
            if "done_ns" in self.iterations[-1] and not self.args.record_reference:
                self.probes(SETUP_PROBES // 2)
                self.repeat()
                self.probes(SETUP_PROBES - SETUP_PROBES // 2)
            return
        # Whole jobs, alternately untraced and traced, for about --seconds.
        start = time.monotonic()
        while True:
            self.iteration(traced=len(self.iterations) % 2 == 1)
            if "done_ns" not in self.iterations[-1] or self.args.record_reference:
                break
            enough = time.monotonic() - start >= self.args.seconds
            if (enough and self.timed(True)) or time.monotonic() > self.deadline - 10:
                break

    def end_to_end(self) -> dict:
        units, samples = self.loop.get("units", {}), self.loop.get("samples", {})
        best_ns = sum(min(ns) for ns in units.values())
        job = self.iterations[0] if self.iterations else {}
        return {
            "samples_per_s": (_ratio(sum(samples.values()) * 1e9, best_ns), "1/s"),
            "setup_s": (statistics.median(self.setups) if self.setups else 0.0, "s"),
            "peak_rss_mb": (job.get("rss_kib", 0) / 1024, "MB"),
            "ok_share": (1.0 - _ratio(self.failed, self.attempted), "share"),
        }

    def per_layer(self) -> dict:
        traced = self.timed(True)
        n = max(len(traced), 1)
        dur: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        layer: dict[str, int] = defaultdict(int)
        rows = accounted = wall = 0
        for it in traced:
            span_list = it.get("spans", [])
            own = spans.self_ns(span_list)
            wall += it["done_ns"] - it["ready_ns"]
            for name, ns in spans.layer_self_ns(span_list).items():
                layer[name] += ns
            for s in span_list:
                name = s["name"]
                dur[name] += s["end"] - s["start"]
                calls[name] += 1
                if s["start"] >= it["ready_ns"]:
                    accounted += own[s["id"]]
                if name == "pipeline.analyze_session":
                    dur["pipeline.analyze_session.self"] += own[s["id"]]
                for key, value in s["counts"].items():
                    if key == "file":
                        rows += self.rows.get(value, 0)
                    else:
                        counts[f"{name}.{key}"] += value
        untraced = [it["done_ns"] - it["ready_ns"] for it in self.timed(False)]
        traced_wall = [it["done_ns"] - it["ready_ns"] for it in traced]
        analysed = counts["pipeline.analyze_session.samples"]
        load = "ingest.load_level_csv"
        kept, dropped = counts[f"{load}.kept"], counts[f"{load}.dropped"]
        memory = self.child("memory") if self.args.trace == 1 else {}
        metrics = {
            "ingest.load_level_csv.ns_per_row": (_ratio(dur[load], rows), "ns/row"),
            "ingest.rows": (rows / n, "count"),
            "ingest.samples_kept": (kept / n, "count"),
            "ingest.samples_dropped": (dropped / n, "count"),
            "ingest.keep_ratio": (_ratio(kept, kept + dropped), "ratio"),
            "ingest.placements": (counts[f"{load}.placements"] / n, "count"),
            "ingest.events": (counts[f"{load}.events"] / n, "count"),
            "ingest.retained_bytes_per_sample": (
                _ratio(memory.get("ingest_bytes", 0), memory.get("samples", 0)), "B/sample"),
            "spatial.classify_session.ns_per_sample": (
                _ratio(dur["spatial.classify_session"],
                       counts["spatial.classify_session.samples"]), "ns/sample"),
            "spatial.placements_per_1k_samples": (
                1000 * _ratio(counts["spatial.classify_session.placements"],
                              counts["spatial.classify_session.samples"]), "per_1k_samples"),
            "transitions.matrices.ns_per_sample": (
                _ratio(sum(dur[f"transitions.{f}"] for f in MATRICES), analysed), "ns/sample"),
            "transitions.dwell.ns_per_sample": (
                _ratio(sum(dur[f"transitions.{f}"] for f in DWELL), analysed), "ns/sample"),
            "engagement.detect_engagement_periods.ns_per_sample": (
                _ratio(dur["engagement.detect_engagement_periods"],
                       counts["engagement.detect_engagement_periods.samples"]), "ns/sample"),
            "engagement.periods": (
                counts["engagement.detect_engagement_periods.periods"] / n, "count"),
            "engagement.sustained_periods": (
                counts["engagement.detect_engagement_periods.sustained"] / n, "count"),
            "scoring.us_per_level": (
                _ratio(dur["scoring.final_score"] + dur["scoring.check_constraints"],
                       calls["pipeline.analyze_session"]) / 1e3, "us/level"),
            "validation.us_per_student": (
                _ratio(dur["validation.game_accuracy"] + dur["validation.validate_scores"],
                       calls["pipeline.analyze_student"]) / 1e3, "us/student"),
            "pipeline.analyze_session.ns_per_sample": (
                _ratio(dur["pipeline.analyze_session"], analysed), "ns/sample"),
            "pipeline.analyze_session.self_ns_per_sample": (
                _ratio(dur["pipeline.analyze_session.self"], analysed), "ns/sample"),
            "pipeline.retained_bytes_per_sample": (
                _ratio(memory.get("pipeline_bytes", 0), memory.get("samples", 0)), "B/sample"),
            "report.emit_plot_data.ns_per_sample": (
                _ratio(dur["report.emit_plot_data"],
                       counts["report.emit_plot_data.samples"]), "ns/sample"),
            "report.build_report.us_per_student": (
                _ratio(dur["report.build_report"], calls["report.build_report"]) / 1e3,
                "us/student"),
            "report.write_report.us_per_student": (
                _ratio(dur["report.write_report"], calls["report.write_report"]) / 1e3,
                "us/student"),
            "report.files_written": (sum(it["files_written"] for it in traced) / n, "count"),
            "report.bytes_written": (sum(it["bytes_written"] for it in traced) / n, "B"),
        }
        for name in LAYERS:
            metrics[f"{name}.self_s"] = (layer[name] / n / 1e9, "s")
        metrics["trace.wall_s"] = (wall / n / 1e9, "s")
        metrics["trace.accounted_share"] = (_ratio(accounted, wall), "ratio")
        metrics["trace.overhead_ratio"] = (
            _ratio(statistics.median(traced_wall), statistics.median(untraced))
            if traced_wall and untraced else 0.0, "ratio")
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MODES), required=True)
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store the outputs of seed {checks.REFERENCE_SEED} as the reference")
    args = parser.parse_args()
    if not (SRC / "gazescore" / "cli.py").is_file():
        print(f"error: no gazescore sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_reference and args.seed != checks.REFERENCE_SEED:
        parser.error(f"--record-reference needs --seed {checks.REFERENCE_SEED}")

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rc, _, _ = spawn("gen.py", ["--workload", args.workload, "--seed", str(args.seed),
                                    "--out", str(work / "in")],
                         work / "gen.log", time.monotonic() + RUN_BUDGET_S)
        if rc != 0 or not (work / "in" / "manifest.json").is_file():
            sys.stderr.write((work / "gen.log").read_text(errors="replace")[-4000:])
            print(f"error: input generation failed (exit {rc})", file=sys.stderr)
            return 1
        run = Run(args, work, checks.load_manifest(work / "in"))
        run.measure()
        metrics = run.per_layer() if args.trace == 1 else run.end_to_end()
        for problem in run.problems[:20]:
            print(f"problem: {problem}", file=sys.stderr)
        if run.failed:
            sys.stderr.write((work / "child.log").read_text(errors="replace")[-4000:])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
