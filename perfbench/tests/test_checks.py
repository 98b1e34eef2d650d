"""The output check counts tampered outputs as failed sessions."""
import argparse
import json

import pytest

import checks
import gen
import run
from gazescore import cli


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    base = tmp_path_factory.mktemp("cohort")
    (base / "in").mkdir()
    manifest = gen._tracker_cohort(5, base / "in", students=2)
    assert cli.main(["analyze", "--in", str(base / "in"), "--out", str(base / "out")]) == 0
    return base, manifest


def _check(base, manifest, reference=False):
    args = argparse.Namespace(workload="noisy-cohort", seed=5, record_reference=False, trace=0)
    bench = run.Run(args, base, manifest)
    bench.check_cli({"exit": 0, "done_ns": 1}, base / "out", reference)
    return bench


def _edit_report(base, student, edit):
    path = base / "out" / f"report_{student}.json"
    original = path.read_text(encoding="utf-8")
    doc = json.loads(original)
    edit(doc)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path, original


def test_clean_outputs_pass(cohort):
    bench = _check(*cohort)
    assert (bench.attempted, bench.failed) == (6, 0), bench.problems


@pytest.mark.parametrize("edit", [
    lambda d: d["levels"][0]["transitions"]["quadrant_counts"][0].__setitem__(0, 0),
    lambda d: d["levels"][0]["transitions"]["dwell_ms"].__setitem__("Q1", -1),
    lambda d: d["levels"][0]["score"].__setitem__("final_score", 101.0),
    lambda d: d["levels"][0]["temporal"].__setitem__("period_count", 0),
])
def test_tampered_report_is_failed(cohort, edit):
    base, manifest = cohort
    path, original = _edit_report(base, "P01", edit)
    try:
        bench = _check(base, manifest)
    finally:
        path.write_text(original, encoding="utf-8")
    assert bench.failed == 1 and any("P01 level 1" in p for p in bench.problems)


def test_missing_plot_file_fails_the_student(cohort):
    base, manifest = cohort
    path = base / "out" / "plots" / "P02" / "periods_level2.csv"
    kept = path.read_bytes()
    path.unlink()
    try:
        bench = _check(base, manifest)
    finally:
        path.write_bytes(kept)
    assert bench.failed == 3


def test_reference_ignores_new_keys_but_not_changed_values(cohort, tmp_path, monkeypatch):
    base, manifest = cohort
    monkeypatch.setattr(checks, "REFERENCE_PATH", tmp_path / "reference.json")
    reports = {s: json.loads((base / "out" / f"report_{s}.json").read_text()) for s in manifest}
    checks.record_reference("noisy-cohort", reports)
    assert _check(base, manifest, reference=True).failed == 0

    path, original = _edit_report(base, "P01", lambda d: d.setdefault("added_later", {"x": 1}))
    try:
        assert _check(base, manifest, reference=True).failed == 0
    finally:
        path.write_text(original, encoding="utf-8")

    path, original = _edit_report(
        base, "P02", lambda d: d["levels"][2]["temporal"].__setitem__("eta_temporal", 0.5))
    try:
        bench = _check(base, manifest, reference=True)
    finally:
        path.write_text(original, encoding="utf-8")
    assert bench.failed == 3 and any("reference" in p for p in bench.problems)
