from __future__ import annotations

import errno
import itertools
import json
import os
import stat
from unittest import mock

import numpy as np
import pytest

from gazescore import report as report_module
from gazescore.ingest import LevelSession, load_level_csv
from gazescore.pipeline import analyze_session, analyze_student
from gazescore.report import build_report, emit_plot_data, write_report
from gazescore.scoring import ScoringConfig
from gazescore.synth import generate_table_fixture


@pytest.fixture(scope="module")
def fixture_analysis():
    fixture = generate_table_fixture()
    analyses, validation = analyze_student(fixture, "S10")
    return analyses, validation


def _leaves(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _leaves(value)
    elif isinstance(node, list):
        for value in node:
            yield from _leaves(value)
    else:
        yield node


class TestBuildReport:
    def test_values_are_plain_python(self, fixture_analysis):
        analyses, validation = fixture_analysis
        report = build_report("S10", analyses, validation)
        kinds = {type(leaf) for leaf in _leaves(report)}
        assert kinds <= {int, float, str, bool, type(None)}

    def test_labels_are_read_only_codes(self, fixture_analysis):
        analyses, _ = fixture_analysis
        for a in analyses:
            assert a.quadrant_labels.dtype == a.aoi_labels.dtype == np.int8
            assert len(a.quadrant_labels) == len(a.aoi_labels) == len(a.session.samples)
            assert not a.quadrant_labels.flags.writeable
            assert not a.aoi_labels.flags.writeable

    def test_top_level_schema(self, fixture_analysis):
        analyses, validation = fixture_analysis
        report = build_report("S10", analyses, validation)
        assert list(report) == ["student_id", "levels", "validation"]
        assert report["student_id"] == "S10"
        assert [block["level"] for block in report["levels"]] == [1, 2, 3]
        assert set(report["validation"]) == {"mae", "rmse", "pearson", "spearman", "n", "note"}
        assert report["validation"]["n"] == 3

    def test_level_block_contents(self, fixture_analysis):
        analyses, validation = fixture_analysis
        block = build_report("S10", analyses, validation)["levels"][0]
        assert set(block) == {
            "level", "score", "transitions", "temporal", "game", "assessment",
            "constraint_violations",
        }
        score = block["score"]
        assert set(score) == {
            "base_score", "level_bonus", "focus_score", "engagement_bonus",
            "sustained_bonus", "duration_bonus", "excess_penalty",
            "temporal_impact", "multiplier", "final_score",
        }
        assert block["transitions"]["total"] == 105
        assert block["game"]["accuracy_pct"] == 94.4
        assert block["assessment"]["performance"] == "Mastery"

    def test_single_level_validation_absent(self, fixture_analysis):
        analyses, _ = fixture_analysis
        report = build_report("S10", analyses[:1], None)
        assert len(report["levels"]) == 1
        assert report["validation"] is None

    def test_validation_footnote_mentions_pair_scope(self, fixture_analysis):
        analyses, validation = fixture_analysis
        note = build_report("S10", analyses, validation)["validation"]["note"]
        assert "pairs" in note

    def test_deterministic_documents(self, fixture_analysis):
        analyses, validation = fixture_analysis
        a = json.dumps(build_report("S10", analyses, validation))
        b = json.dumps(build_report("S10", analyses, validation))
        assert a == b


def _mutate_every_container(node) -> int:
    """Write into every dict and list of a report, deepest first: overwrite
    each entry and add one. Returns how many containers it wrote into."""
    if isinstance(node, dict):
        written = sum(_mutate_every_container(value) for value in node.values())
        node.update(dict.fromkeys(node, "mutated"), mutated=True)
        return written + 1
    if isinstance(node, list):
        written = sum(_mutate_every_container(value) for value in node)
        node[:] = ["mutated"] * len(node) + ["mutated"]
        return written + 1
    return 0


@pytest.mark.parametrize("changes_only", [False, True])
def test_mutated_report_leaves_the_next_one_alone(changes_only):
    """A report is its caller's: writing into it (count rows, order lists,
    dwell_ms, game, constraint_violations) changes no later report of the
    same sessions, under the same config or the other AoI switch value."""
    config = ScoringConfig(aoi_total_changes_only=changes_only)
    other = ScoringConfig(aoi_total_changes_only=not changes_only)
    warm = generate_table_fixture()

    def report(session_set, config):
        return build_report("S10", *analyze_student(session_set, "S10", config), config)

    first = report(warm, config)
    blocks = first["levels"]
    containers = [first, blocks, first["validation"], *blocks]
    for block in blocks:
        t = block["transitions"]
        containers += [
            block["score"], t, block["temporal"], block["game"], block["assessment"],
            block["constraint_violations"], t["quadrant_order"], t["quadrant_counts"],
            *t["quadrant_counts"], t["aoi_order"], t["aoi_counts"], *t["aoi_counts"],
            t["dwell_ms"],
        ]
    assert all(isinstance(c, (dict, list)) for c in containers)
    assert _mutate_every_container(first) == len(containers)

    cold = generate_table_fixture()
    for later in (config, other, config):
        assert report(warm, later) == report(cold, later)


class TestAoiTotalSwitch:
    """``aoi_total_changes_only`` narrows the AoI efficiency denominator to
    label changes (off-diagonal cells) instead of all consecutive pairs."""

    def test_switch_changes_total_and_efficiency(self):
        session = generate_table_fixture().for_student("S10")[1]
        config = ScoringConfig(aoi_total_changes_only=True)
        default = analyze_session(session)
        switched = analyze_session(session, config)
        counts = default.aoi_matrix.counts
        changes = int(counts.sum() - np.trace(counts))
        switches = default.aoi.left_right_transitions
        pairs = len(session.samples) - 1
        assert 0 < switches <= changes < pairs

        assert default.aoi.aoi_total == pairs
        assert switched.aoi.aoi_total == changes
        assert default.aoi.efficiency == switches / pairs
        assert switched.aoi.efficiency == switches / changes
        # Level 2's bonus weighs the total, so the narrower one lowers it.
        assert switched.features.aoi_transitions == changes
        assert switched.breakdown.level_bonus < default.breakdown.level_bonus

        def reported(analysis, config):
            level = build_report("S10", [analysis], None, config)["levels"][0]
            return level["transitions"]["aoi_efficiency"]

        assert reported(default, ScoringConfig()) == round(switches / pairs, 4)
        assert reported(switched, config) == round(switches / changes, 4)


class TestWriteReport:
    def test_round_trip(self, fixture_analysis, tmp_path):
        analyses, validation = fixture_analysis
        report = build_report("S10", analyses, validation)
        path = write_report(report, tmp_path / "report.json")
        assert json.loads(path.read_text()) == report

    def test_byte_identical_rewrites(self, fixture_analysis, tmp_path):
        analyses, validation = fixture_analysis
        report = build_report("S10", analyses, validation)
        first = write_report(report, tmp_path / "a.json").read_bytes()
        second = write_report(report, tmp_path / "b.json").read_bytes()
        assert first == second
        assert b"\r\n" not in first


class TestEmitPlotData:
    def test_per_level_files(self, fixture_analysis, tmp_path):
        analyses, _ = fixture_analysis
        paths = emit_plot_data(analyses, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == [
            "periods_level1.csv", "periods_level2.csv", "periods_level3.csv",
            "samples_level1.csv", "samples_level2.csv", "samples_level3.csv",
            "temporal_summary.csv",
        ]

    def test_sample_file_row_counts(self, fixture_analysis, tmp_path):
        analyses, _ = fixture_analysis
        emit_plot_data(analyses, tmp_path)
        for analysis in analyses:
            path = tmp_path / f"samples_level{analysis.session.level}.csv"
            lines = path.read_text().splitlines()
            assert lines[0] == "t_ms,x_px,y_px,quadrant,aoi_label"
            assert len(lines) - 1 == len(analysis.session.samples)

    def test_summary_rows(self, fixture_analysis, tmp_path):
        analyses, _ = fixture_analysis
        emit_plot_data(analyses, tmp_path)
        lines = (tmp_path / "temporal_summary.csv").read_text().splitlines()
        assert len(lines) == 4
        level3 = lines[3].split(",")
        assert level3[0] == "3" and level3[-1] == "-1.1"

    def test_empty_session_header_only(self, tmp_path):
        empty = LevelSession("s", 1, (), (), ())
        analysis = analyze_session(empty)
        emit_plot_data([analysis], tmp_path)
        samples = (tmp_path / "samples_level1.csv").read_text().splitlines()
        periods = (tmp_path / "periods_level1.csv").read_text().splitlines()
        assert len(samples) == 1 and len(periods) == 1

    def test_deterministic_re_emission(self, fixture_analysis, tmp_path):
        analyses, _ = fixture_analysis
        first = {p.name: p.read_bytes() for p in emit_plot_data(analyses, tmp_path / "a")}
        second = {p.name: p.read_bytes() for p in emit_plot_data(analyses, tmp_path / "b")}
        assert first == second


class TestEmptySessionReport:
    def test_report_for_empty_session(self):
        empty = LevelSession("s", 1, (), (), ())
        analysis = analyze_session(empty)
        report = build_report("s", [analysis], None)
        block = report["levels"][0]
        assert block["game"] is None
        assert block["assessment"]["calibration"] is None
        assert block["score"]["final_score"] == 0.0


class TestStagedWrite:
    """``_atomic_write`` against ``open(path, "w", encoding="utf-8", newline="\\n")``."""

    def test_same_bytes_and_mode_as_open(self, tmp_path):
        texts = ["t_ms,x_px\n", "", "0,\u00e9\r\n"]
        old_umask = os.umask(0o002)
        try:
            report_module._atomic_write(tmp_path / "staged.csv", texts)
            with open(tmp_path / "opened.csv", "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(texts)
        finally:
            os.umask(old_umask)
        staged, opened = (tmp_path / "staged.csv").stat(), (tmp_path / "opened.csv").stat()
        assert stat.S_IMODE(staged.st_mode) == stat.S_IMODE(opened.st_mode) == 0o664
        assert (tmp_path / "staged.csv").read_bytes() == (tmp_path / "opened.csv").read_bytes()
        assert not (tmp_path / "staged.csv.tmp").exists()

    def test_stale_staged_file_is_truncated(self, tmp_path):
        """A longer ``.tmp`` left by a failed write does not leak its tail."""
        (tmp_path / "out.csv.tmp").write_text("left over from a failed write\n")
        report_module._atomic_write(tmp_path / "out.csv", ["new\n"])
        assert (tmp_path / "out.csv").read_text() == "new\n"

    def test_short_writes_are_resumed(self, tmp_path):
        write = os.write
        with mock.patch.object(report_module.os, "write",
                               lambda fd, data: write(fd, data[:3])):
            report_module._atomic_write(tmp_path / "out.csv", ["abcdefgh\n", "ij\n"])
        assert (tmp_path / "out.csv").read_bytes() == b"abcdefgh\nij\n"

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        target = tmp_path / "samples_level1.csv"
        target.write_text("old\n")
        write, calls = os.write, []

        def fail_second(fd, data):
            calls.append(fd)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(fd, data)

        with mock.patch.object(report_module.os, "write", fail_second):
            with pytest.raises(OSError) as failed:
                report_module._atomic_write(target, ["first\n", "second\n"])
        assert failed.value.errno == errno.ENOSPC
        with pytest.raises(OSError):
            os.fstat(calls[0])  # closed
        assert target.read_text() == "old\n"
        assert (tmp_path / "samples_level1.csv.tmp").read_text() == "first\n"


def test_interrupted_session_csv_leaves_the_old_file(tmp_path, fixture_analysis):
    """A session CSV rewrite stopped part-way leaves the old file whole under
    its name; the rows written so far sit only in the staged ``.tmp``."""
    session = fixture_analysis[0][0].session  # S10 level 1
    target = tmp_path / "S10_level1.csv"
    report_module.write_level_csv(session, target)
    old = target.read_bytes()
    format_coord, calls = report_module._format_coord, itertools.count()

    def interrupted(x, y):
        if next(calls) == 6000:
            raise KeyboardInterrupt
        return format_coord(x, y)

    with mock.patch.object(report_module, "_format_coord", interrupted):
        with pytest.raises(KeyboardInterrupt):
            report_module.write_level_csv(session, target)
    assert target.read_bytes() == old
    assert load_level_csv(target, 1, "S10").samples == session.samples
    assert 0 < (tmp_path / "S10_level1.csv.tmp").stat().st_size < len(old)
