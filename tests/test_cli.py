from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gazescore import cli
from gazescore.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, main
from gazescore.ingest import CSV_HEADER, LevelSession, SampleColumns, merge_levels
from gazescore.scoring import ScoringConfig
from gazescore.spatial import ScreenGeometry
from gazescore.synth import (
    SynthProfile, check_student_id, generate_session, write_session_set,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fx")
    assert main(["synth", "--fixture", "case-study", "--out", str(path)]) == EXIT_OK
    return path


class TestSynth:
    def test_fixture_writes_three_files(self, fixture_dir):
        names = sorted(p.name for p in fixture_dir.iterdir())
        assert names == ["S10_level1.csv", "S10_level2.csv", "S10_level3.csv"]

    def test_profile_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--seed", "7", "--level", "2", "--duration-ms", "30000",
                "--periods", "2600,800"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert (a / "SYNTH_level2.csv").read_bytes() == (b / "SYNTH_level2.csv").read_bytes()

    def test_infeasible_profile(self, tmp_path, capsys):
        code = main(["synth", "--periods", "100", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "profile error" in capsys.readouterr().err

    def test_unknown_fixture(self, tmp_path):
        assert main(["synth", "--fixture", "nope", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_parser_sets_no_profile_field(self):
        """Profile flags are set only when given; SynthProfile holds the defaults."""
        args = vars(cli.build_parser().parse_args(["synth"]))
        assert not {f.name for f in fields(SynthProfile)} & args.keys()

    def test_given_flags_set_only_their_fields(self, tmp_path):
        assert main(["synth", "--click-accuracy", "0.5", "--sf", "65", "--level", "3",
                     "--out", str(tmp_path / "cli")]) == EXIT_OK
        profile = SynthProfile(click_accuracy=0.5, target_sf_pct=65.0, level=3)
        write_session_set(merge_levels([generate_session(profile)]), tmp_path / "api")
        name = "SYNTH_level3.csv"
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()

    def test_profile_run_logs_no_warning(self, tmp_path, caplog):
        """One generated level is not a partial analysis input."""
        with caplog.at_level(logging.WARNING):
            assert main(["synth", "--level", "2", "--out", str(tmp_path)]) == EXIT_OK
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_no_profile_flags_write_the_default_profile(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "cli")]) == EXIT_OK
        write_session_set(merge_levels([generate_session(SynthProfile())]), tmp_path / "api")
        got = sorted(p.name for p in (tmp_path / "cli").iterdir())
        assert got == ["SYNTH_level1.csv"]
        assert (tmp_path / "cli" / got[0]).read_bytes() == (
            tmp_path / "api" / got[0]
        ).read_bytes()


    @pytest.mark.parametrize("student", ["../x", "a/b", "..", ".", ""])
    @pytest.mark.parametrize("fixture", [[], ["--fixture", "case-study"]], ids=["profile", "fixture"])
    def test_student_id_outside_out_is_a_usage_error(self, tmp_path, capsys, fixture, student):
        """An id that would name a file outside --out, or in a directory
        under it, is refused before anything is written."""
        work = tmp_path / "work"
        work.mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["synth", *fixture, "--student", student, "--out", str(work / "out")])
        assert exc.value.code == 2
        assert "argument --student: student id must name a file" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [work]


class TestAnalyze:
    def test_full_run(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "--in", str(fixture_dir), "--student", "S10",
                     "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report_S10.json").read_text())
        assert len(report["levels"]) == 3
        assert report["validation"]["spearman"] == 0.5
        assert (out / "plots" / "S10" / "samples_level2.csv").exists()

    def test_level_filter(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "--in", str(fixture_dir), "--level", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report_S10.json").read_text())
        assert [b["level"] for b in report["levels"]] == [2]
        assert report["validation"] is None

    def test_missing_input_dir(self, tmp_path, capsys):
        code = main(["analyze", "--in", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "out")])
        assert code == EXIT_IO
        assert not (tmp_path / "out" / "report_S10.json").exists()

    def test_no_session_files_names_the_level_set(self, tmp_path, capsys):
        (tmp_path / "S10_level4.csv").write_text("")
        code = main(["analyze", "--in", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_IO
        assert (
            f"no session files matching '<student>_level<1|2|3>.csv' in {tmp_path}"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    @pytest.mark.parametrize("flags, named", [
        (["--student", "NOPE"], "--student NOPE"),
        (["--student", "NOPE", "--level", "1"], "--student NOPE"),
        (["--level", "2"], "--level 2"),
        (["--student", "S10", "--level", "3"], "--student S10 --level 3"),
    ])
    def test_no_session_files_names_the_filter(
        self, fixture_dir, tmp_path, capsys, command, flags, named
    ):
        """Session files exist but a filter leaves none: the error names the
        filter, not the file name pattern the files do match."""
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        (in_dir / "S10_level1.csv").write_bytes((fixture_dir / "S10_level1.csv").read_bytes())
        code = main([command, "--in", str(in_dir), *flags, "--out", str(tmp_path / "out")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert f"no session files for {named} in {in_dir}" in err
        assert "matching" not in err
        assert not (tmp_path / "out").exists()

    def test_reports_byte_identical(self, fixture_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["analyze", "--in", str(fixture_dir), "--out", str(out)]) == EXIT_OK
        assert (a / "report_S10.json").read_bytes() == (b / "report_S10.json").read_bytes()

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "in"
        bad.mkdir()
        (bad / "x_level1.csv").write_text("wrong,header\n1,2\n")
        code = main(["analyze", "--in", str(bad), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_config_flag_overrides_file(self, fixture_dir, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"gamma": 0.0, "mastery_min": 99.9}))
        out = tmp_path / "out"
        code = main(["analyze", "--in", str(fixture_dir), "--student", "S10",
                     "--out", str(out), "--config", str(config_path),
                     "--mastery-min", "95"])
        assert code == EXIT_OK
        report = json.loads((out / "report_S10.json").read_text())
        # flag (95) wins over the file (99.9): level 1 scores ~97.7 -> Mastery
        assert report["levels"][0]["assessment"]["performance"] == "Mastery"

    def test_bad_config_file(self, fixture_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"alphaone": 1}))
        code = main(["analyze", "--in", str(fixture_dir), "--out", str(tmp_path / "o"),
                     "--config", str(config_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "blocked", ["report_S10.json.tmp", "plots/S10/samples_level2.csv.tmp"]
    )
    def test_unwritable_output_is_io_error(self, fixture_dir, tmp_path, capsys, blocked):
        """A directory where a staged file goes: exit 3 with the message the
        open that ``open(path, "w")`` makes would give."""
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        with pytest.raises(OSError) as opened:
            open(out / blocked, "w")
        code = main(["analyze", "--in", str(fixture_dir), "--out", str(out)])
        assert code == EXIT_IO
        assert f"i/o error: {opened.value}\n" in capsys.readouterr().err


SESSION_TEXT = ",".join(CSV_HEADER) + '\n0,"(5, 5)",,,,,\n'


def test_discovery_order(tmp_path, monkeypatch):
    """Session files load in the string order of their names; other names
    in the directory are passed over."""
    for name in ["b_level2.csv", "B_level1.csv", "a_level3.csv", "a_level1.csv",
                 "a_level4.csv", "a_level1.csv.tmp", "a_level1.CSV", "notes.txt"]:
        (tmp_path / name).write_text(SESSION_TEXT)
    loaded = []
    load = cli.load_level_csv
    monkeypatch.setattr(
        cli, "load_level_csv", lambda path, *args: loaded.append(path) or load(path, *args)
    )
    session_set = cli._discover_sessions(tmp_path, None, None, ScreenGeometry())
    names = ["B_level1.csv", "a_level1.csv", "a_level3.csv", "b_level2.csv"]
    assert loaded == [tmp_path / name for name in names]
    assert list(session_set.sessions) == [("B", 1), ("a", 1), ("a", 3), ("b", 2)]


@pytest.mark.parametrize("names, student, level, message", [
    ([], None, None, "no session files matching '<student>_level<1|2|3>.csv' in {}"),
    (["notes.txt", "a_level4.csv"], "a", 1,
     "no session files matching '<student>_level<1|2|3>.csv' in {}"),
    (["a_level1.csv"], "b", None, "no session files for --student b in {}"),
    (["a_level1.csv"], None, 2, "no session files for --level 2 in {}"),
    (["a_level1.csv", "b_level2.csv"], "a", 2, "no session files for --student a --level 2 in {}"),
])
def test_discovery_messages(tmp_path, names, student, level, message):
    for name in names:
        (tmp_path / name).write_text(SESSION_TEXT)
    with pytest.raises(FileNotFoundError) as missing:
        cli._discover_sessions(tmp_path, student, level, ScreenGeometry())
    assert str(missing.value) == message.format(tmp_path)


# Ids the id rule accepts; a file name holds no NUL and no lone surrogate.
STUDENT_IDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1, max_size=12,
).filter(lambda sid: sid not in (".", "..") and "/" not in sid and os.sep not in sid)


@settings(max_examples=60, deadline=None)
@given(keys=st.sets(st.tuples(STUDENT_IDS, st.integers(1, 3)), min_size=1, max_size=4))
@example(keys={("a\nb", 1), ("c", 2)})
@example(keys={("x_level2", 1), ("x", 2), ("_level3.csv", 3)})
def test_written_session_files_are_discovered(tmp_path_factory, keys):
    """``write_session_set`` then discovery gives back exactly the (student,
    level) keys written, whatever characters the ids hold."""
    assert all(check_student_id(sid) == sid for sid, _ in keys)
    sample = SampleColumns([0], [5.0], [5.0])
    sessions = merge_levels(LevelSession(sid, level, sample, (), ()) for sid, level in keys)
    directory = tmp_path_factory.mktemp("sessions")
    write_session_set(sessions, directory)
    found = cli._discover_sessions(directory, None, None, ScreenGeometry())
    assert set(found.sessions) == keys


@pytest.mark.parametrize("student", ["..", "."])
def test_file_name_without_a_usable_student_id(tmp_path, capsys, monkeypatch, student):
    """Student "." or ".." would put its plot files beside or above its own
    folder: the run stops before loading or writing, unless a filter passes
    the file over."""
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for name in ("S1_level1.csv", f"{student}_level1.csv"):
        (in_dir / name).write_text(SESSION_TEXT)
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "load_level_csv", lambda *args: pytest.fail("a file was loaded"))
        assert main(["analyze", "--in", str(in_dir), "--out", str(out)]) == EXIT_DATA
    path = in_dir / f"{student}_level1.csv"
    assert capsys.readouterr().err == (
        f"data error: file name gives no usable student id {student!r} [{path}]\n"
    )
    assert not out.exists()
    assert main(["analyze", "--in", str(in_dir), "--out", str(out), "--student", "S1"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["plots", "report_S1.json"]


def _run_cli(*args):
    """``python -m gazescore.cli`` in a fresh process, on this checkout's source."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "gazescore.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def _session_dir(tmp_path, rows):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    lines = [",".join(CSV_HEADER)] + rows
    (in_dir / "S1_level1.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return in_dir


GAZE_ROWS = ['0,"(100, 900)",,,,,', '16,"(110, 900)",,,,,', '32,"(120, 900)",,,,,']


class TestMalformedInput:
    @pytest.mark.parametrize("stamp", ["inf", "-inf", "1e19"])
    def test_infinite_gaze_timestamp_dropped(self, tmp_path, stamp):
        in_dir = _session_dir(tmp_path, GAZE_ROWS + [f'{stamp},"(130, 900)",,,,,'])
        out = tmp_path / "out"
        assert main(["analyze", "--in", str(in_dir), "--out", str(out)]) == EXIT_OK
        rows = (out / "plots" / "S1" / "samples_level1.csv").read_text().splitlines()
        assert len(rows) == 1 + len(GAZE_ROWS)

    @pytest.mark.parametrize("stamp", ["inf", "-inf"])
    @pytest.mark.parametrize("row", [',,"(480, 810)",200,150,,', ",,,,,answer,true"])
    def test_infinite_placement_or_event_timestamp(self, tmp_path, capsys, stamp, row):
        in_dir = _session_dir(tmp_path, GAZE_ROWS + [stamp + row])
        code = main(["analyze", "--in", str(in_dir), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "field=timestamp_ms" in capsys.readouterr().err

    @pytest.mark.parametrize("w,h", [("nan", "150"), ("200", "nan"), ("inf", "150")])
    def test_non_finite_placement_size(self, tmp_path, capsys, w, h):
        in_dir = _session_dir(tmp_path, GAZE_ROWS + [f'20,,"(480, 810)",{w},{h},,'])
        code = main(["analyze", "--in", str(in_dir), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "field=aoi_w" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "content",
        [b'{"gamma": 1', b"[1, 2]", b'{"tau_min_ms": "abc"}', b'{"max_impact": "x"}',
         b"\xff\xfe"],
    )
    def test_malformed_config_is_config_error(self, tmp_path, capsys, content):
        in_dir = _session_dir(tmp_path, GAZE_ROWS)
        config_path = tmp_path / "config.json"
        config_path.write_bytes(content)
        code = main(["analyze", "--in", str(in_dir), "--out", str(tmp_path / "out"),
                     "--config", str(config_path)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        ['{"max_impact": Infinity}', '{"excess_period_threshold": NaN}',
         '{"tau_min_ms": 400.5}', '{"gap_tolerance_ms": 1e400}', '{"alpha1": -Infinity}'],
    )
    def test_non_finite_or_fractional_config_value(self, fixture_dir, tmp_path, capsys,
                                                   content):
        config_path = tmp_path / "config.json"
        config_path.write_text(content, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["analyze", "--in", str(fixture_dir), "--out", str(out),
                     "--config", str(config_path)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    @pytest.mark.parametrize(
        "weights",
        [{"alpha1": 1e308, "alpha2": 1e308}, {"alpha2": 1e308}, {"delta": 1e308, "gamma": 1e308}],
        ids=["nan", "-inf", "inf"],
    )
    def test_weights_overflowing_the_base_score(self, fixture_dir, tmp_path, capsys, weights,
                                                command):
        """Finite weights whose base score leaves the float range: a config
        error naming the weights, and no file written."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(weights), encoding="utf-8")
        out = tmp_path / "out"
        code = main([command, "--in", str(fixture_dir), "--out", str(out),
                     "--config", str(config_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "base score is" in err
        assert all(f"{name}=1e+308" in err for name in weights)
        assert not out.exists()

    def test_deeply_nested_config_exits_without_traceback(self, tmp_path):
        in_dir = _session_dir(tmp_path, GAZE_ROWS)
        config_path = tmp_path / "config.json"
        config_path.write_text("[" * 2000, encoding="utf-8")
        proc = _run_cli("analyze", "--in", str(in_dir), "--out", str(tmp_path / "out"),
                        "--config", str(config_path))
        assert proc.returncode == EXIT_CONFIG
        assert "nested too deeply" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag", ["--max-impact", "--mastery-min", "--gamma"])
    def test_non_finite_config_flag(self, fixture_dir, tmp_path, capsys, flag):
        code = main(["analyze", "--in", str(fixture_dir), "--out", str(tmp_path / "out"),
                     flag, "inf"])
        assert code == EXIT_CONFIG
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content,named",
        [
            ('{"alpha1": 1%s}' % ("0" * 400), "alpha1"),
            ('{"alpha1": 1%s}' % ("0" * 308), "alpha1"),  # in range, but its products are not
            ('{"tau_sustained_ms": 1%s}' % ("0" * 400), "tau_sustained_ms"),
            ('{"max_impact": 1%s}' % ("0" * 400), "max_impact"),
            ('{"max_impact": {"1": 5, "2": 1%s, "3": 5}}' % ("0" * 400), "max_impact"),
            ('{"gamma": 1%s}' % ("0" * 4400), "config.json"),
        ],
        ids=["401-digits", "309-digits", "int-field", "max-impact", "max-impact-level",
             "4401-digits"],
    )
    def test_huge_config_integer(self, fixture_dir, tmp_path, capsys, content, named):
        """An integer beyond the float range is a config error naming the
        field, and one beyond the JSON reader's digit limit names the file."""
        config_path = tmp_path / "config.json"
        config_path.write_text(content, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["analyze", "--in", str(fixture_dir), "--out", str(out),
                     "--config", str(config_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not out.exists()

    def test_huge_integer_flag(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["analyze", "--in", str(fixture_dir), "--out", str(out),
                     "--tau-min-ms", "1" + "0" * 400])
        assert code == EXIT_CONFIG
        assert "tau_min_ms" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_config_json_exits_without_traceback(self, tmp_path):
        in_dir = _session_dir(tmp_path, GAZE_ROWS)
        config_path = tmp_path / "config.json"
        config_path.write_text('{"gamma": 1,', encoding="utf-8")
        proc = _run_cli("analyze", "--in", str(in_dir), "--out", str(tmp_path / "out"),
                        "--config", str(config_path))
        assert proc.returncode == EXIT_CONFIG
        assert "bad JSON" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "body,message",
        [(b'16,"(3, \xff4)",,,,,\n', "not UTF-8"),
         (b'16,"' + b"5" * 131_073 + b'",,,,,\n', "field limit")],
    )
    def test_unreadable_bytes_are_data_errors(self, tmp_path, capsys, body, message):
        in_dir = _session_dir(tmp_path, GAZE_ROWS)
        path = in_dir / "S1_level1.csv"
        path.write_bytes(path.read_bytes() + body)
        code = main(["analyze", "--in", str(in_dir), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert message in err and f"{path}:5]" in err
        assert not (tmp_path / "out").exists()


class TestValidate:
    def test_fixture_validation(self, fixture_dir, capsys):
        code = main(["validate", "--in", str(fixture_dir), "--student", "S10"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "Spearman 0.500" in out
        assert "MAE" in out

    def test_no_output_written_without_out_flag(self, fixture_dir, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--in", str(fixture_dir), "--student", "S10"]) == EXIT_OK
        assert list(tmp_path.iterdir()) == []

    def test_out_flag_writes_report(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "vout"
        code = main(["validate", "--in", str(fixture_dir), "--student", "S10",
                     "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report_S10.json").read_text())
        assert report["validation"]["spearman"] == 0.5

    def test_single_level_correlations_undefined(self, fixture_dir, capsys):
        code = main(["validate", "--in", str(fixture_dir), "--student", "S10",
                     "--level", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "correlations undefined" in out

    def test_student_without_events(self, tmp_path, capsys):
        assert main(["synth", "--clicks", "0", "--answers", "0", "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["validate", "--in", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().out == "SYNTH: no game events, nothing to validate\n"

    def test_mismatched_students_rejected(self, fixture_dir, tmp_path, capsys):
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        for src in fixture_dir.iterdir():
            (mixed / src.name).write_bytes(src.read_bytes())
        (mixed / "OTHER_level1.csv").write_bytes(
            (fixture_dir / "S10_level1.csv").read_bytes()
        )
        code = main(["validate", "--in", str(mixed)])
        assert code == EXIT_DATA
        assert "single student" in capsys.readouterr().err


# Per ScoringConfig field: the flag's argument (None for a switch) and the
# value it must give the resolved config, which differs from the default.
FLAG_CASES = {
    "alpha1": ("2.5", 2.5),
    "alpha2": ("0.5", 0.5),
    "gamma": ("4", 4.0),
    "delta": ("2", 2.0),
    "tau_min_ms": ("300", 300),
    "tau_sustained_ms": ("2000", 2000),
    "gap_tolerance_ms": ("50", 50),
    "excess_period_threshold": ("5", 5),
    "max_impact": ("12", {1: 12.0, 2: 12.0, 3: 12.0}),
    "eta_source": ("aoi_dwell", "aoi_dwell"),
    "aoi_total_changes_only": (None, True),
    "calibration_excellent": ("2", 2.0),
    "calibration_good": ("7", 7.0),
    "calibration_fair": ("14", 14.0),
    "mastery_min": ("90", 90.0),
    "developing_min": ("50", 50.0),
}
INT_FIELDS = [f.name for f in fields(ScoringConfig) if f.type == "int"]


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class TestScoringFlags:
    def test_every_field_has_a_case(self):
        assert list(FLAG_CASES) == [f.name for f in fields(ScoringConfig)]

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    @pytest.mark.parametrize("name", list(FLAG_CASES))
    def test_flag_reaches_config(self, command, name):
        text, want = FLAG_CASES[name]
        argv = [command, "--in", "in", _flag(name)] + ([text] if text is not None else [])
        config = cli._resolve_config(cli._parser().parse_args(argv))
        assert config == ScoringConfig(**{name: want}) != ScoringConfig()

    @pytest.mark.parametrize("name", INT_FIELDS)
    def test_fractional_int_flag_is_usage_error(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--in", "in", _flag(name), "400.5"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--nope"])
        assert exc.value.code == 2


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture
def restore_log_level():
    logger = logging.getLogger("gazescore")
    level = logger.level
    yield
    logger.setLevel(level)


class TestInProcessReuse:
    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_earlier_calls_leave_no_trace(self, fixture_dir, tmp_path, capsys):
        """Flags and usage errors of earlier calls do not reach a later one."""
        args = ["analyze", "--in", str(fixture_dir), "--student", "S10"]
        assert main([*args, "--alpha1", "2", "--out", str(tmp_path / "tuned")]) == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main([*args, "--alpha1", "x", "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2
        assert main([*args, "--out", str(tmp_path / "in-process")]) == EXIT_OK
        proc = _run_cli(*args, "--out", str(tmp_path / "fresh"))
        assert proc.returncode == EXIT_OK, proc.stderr
        fresh = _tree_bytes(tmp_path / "fresh")
        assert len(fresh) == 8
        assert _tree_bytes(tmp_path / "in-process") == fresh
        assert _tree_bytes(tmp_path / "tuned") != fresh
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("order", [(False, True), (True, False)], ids=["quiet-first",
                                                                           "verbose-first"])
    def test_each_call_sets_its_own_verbosity(self, fixture_dir, tmp_path, caplog,
                                              restore_log_level, order):
        args = ["analyze", "--in", str(fixture_dir), "--student", "S10", "--out", str(tmp_path)]
        for verbose in order:
            caplog.clear()
            assert main(["--verbose"] * verbose + args) == EXIT_OK
            messages = [r.getMessage() for r in caplog.records]
            assert any("effective scoring config" in m for m in messages) is verbose


def _exit_case(tmp_path, case):
    """CLI arguments (after ``analyze``) for one failure class."""
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    level = in_dir / "S1_level1.csv"
    good = (",".join(CSV_HEADER) + "\n" + "\n".join(GAZE_ROWS) + "\n").encode()
    level.write_bytes(good)
    config = tmp_path / "config.json"
    args = ["--in", str(in_dir), "--out", str(tmp_path / "out")]
    if case == "usage":
        return args + ["--no-such-flag"]
    if case == "missing input directory":
        return ["--in", str(tmp_path / "nope"), "--out", str(tmp_path / "out")]
    if case == "bad config JSON and missing input":
        config.write_text('{"gamma": 1,', encoding="utf-8")
        return ["--in", str(tmp_path / "nope"), "--out", str(tmp_path / "out"),
                "--config", str(config)]
    if case == "bad header":
        level.write_bytes(b"wrong,header\n1,2\n")
    elif case == "bad placement":
        level.write_bytes(good + b'40,,"(480, 810)",0,150,,\n')
    elif case == "non-UTF-8":
        level.write_bytes(good + b'40,"(3, \xff4)",,,,,\n')
    elif case == "oversized field":
        level.write_bytes(good + b'40,"' + b"5" * 131_073 + b'",,,,,\n')
    elif case == "bad config JSON":
        config.write_text('{"gamma": 1,', encoding="utf-8")
        args += ["--config", str(config)]
    elif case == "boolean config value":
        config.write_text('{"tau_min_ms": true}', encoding="utf-8")
        args += ["--config", str(config)]
    elif case == "width 0":
        args += ["--width", "0"]
    elif case == "height nan":
        args += ["--height", "nan"]
    return args


@pytest.mark.parametrize(
    "case,code",
    [("usage", 2), ("missing input directory", EXIT_IO), ("bad header", EXIT_DATA),
     ("bad placement", EXIT_DATA), ("non-UTF-8", EXIT_DATA), ("oversized field", EXIT_DATA),
     ("bad config JSON", EXIT_CONFIG), ("bad config JSON and missing input", EXIT_CONFIG),
     ("boolean config value", EXIT_CONFIG),
     ("width 0", 2), ("height nan", 2)],
)
def test_failure_class_exit_codes(tmp_path, case, code):
    """Each failure class exits with its documented code and no traceback."""
    proc = _run_cli("analyze", *_exit_case(tmp_path, case))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip()


@pytest.mark.parametrize(
    "flags,code",
    [(["--periods", "abc"], 2), (["--periods", "3000,2.5"], 2), (["--noise", "nan"], EXIT_CONFIG),
     (["--noise", "inf"], EXIT_CONFIG), (["--seed", "-1"], EXIT_CONFIG),
     (["--clicks", "-1"], EXIT_CONFIG), (["--answers", "-3"], EXIT_CONFIG),
     (["--duration-ms", "1" + "0" * 30], EXIT_CONFIG), (["--clicks", "1000000000"], EXIT_CONFIG),
     (["--duration-ms", "1" + "0" * 30, "--sample-interval-ms", "1" + "0" * 28], EXIT_CONFIG),
     (["--fixture", "case-study", "--level", "2", "--seed", "9", "--noise", "0"], 2),
     (["--width", "800", "--height", "600", "--y-up", "--config", "/nonexistent.json"], 2)],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_synth_failure_exit_codes(tmp_path, flags, code):
    """A malformed synth flag exits with its code, no traceback and no output."""
    proc = _run_cli("synth", *flags, "--out", str(tmp_path / "out"))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip()
    assert not (tmp_path / "out").exists()


# JSON value texts at the edges of what a config holds: floats near the
# float limit, ints past it and past the JSON reader's 4 300-digit limit,
# bools, null, strings, the NaN tokens and deep nesting.
_DIGITS = st.sampled_from("19")
CONFIG_VALUES = st.one_of(
    st.integers(-3, 3000).map(str),
    st.integers(0, 30).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(1e307, 1.7976931348623157e308).map(lambda v: repr(v) if v % 2 else repr(-v)),
    st.builds(str.__mul__, _DIGITS, st.integers(309, 330)),
    st.builds(str.__mul__, _DIGITS, st.integers(4301, 4400)),
    st.sampled_from(["true", "false", "null", "NaN", "Infinity", "-Infinity",
                     '"temporal"', '"aoi_dwell"', '"x"', '{"1": 5, "2": 5, "3": 5}']),
    st.integers(1, 3000).map(lambda n: "[" * n + "]" * n),
)
# Flag texts: the same edges as argv holds them.
FLAG_VALUES = st.one_of(
    st.integers(0, 3000).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e400", "abc", "true", "0.5"]),
    st.builds(str.__mul__, _DIGITS, st.integers(309, 330)),
    st.builds(str.__mul__, _DIGITS, st.integers(4301, 4400)),
)
FIELD_NAMES = [f.name for f in fields(ScoringConfig)]


@st.composite
def config_texts(draw) -> str:
    keys = draw(st.lists(st.sampled_from([*FIELD_NAMES, "unknown"]), max_size=4, unique=True))
    body = ", ".join(f'"{key}": {draw(CONFIG_VALUES)}' for key in keys)
    # One text in four is a bare value, which no config may be.
    return f"{{{body}}}" if draw(st.integers(0, 3)) else draw(CONFIG_VALUES)


@st.composite
def flag_lists(draw) -> list[str]:
    argv = []
    for f in draw(st.lists(st.sampled_from(fields(ScoringConfig)), max_size=3, unique=True)):
        argv.append(_flag(f.name))
        if f.type != "bool":
            argv.append(draw(FLAG_VALUES if f.type != "str" else st.sampled_from(["x", "temporal"])))
    return argv


def _refuse(token: str):
    raise ValueError(f"report holds {token}")


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    """Two short levels with a placement, engagement and events."""
    root = tmp_path_factory.mktemp("tiny")
    rows = (['0,,"(480, 810)",300,300,,']
            + [f'{t},"(480, 810)",,,,,' for t in range(0, 800, 16)]
            + [f'{t},"(1500, 100)",,,,,' for t in range(800, 1200, 16)]
            + ["900,,,,,answer,true", "1000,,,,,mouse_click,false"])
    in_dir = root / "in"
    in_dir.mkdir()
    for level in (1, 2):
        (in_dir / f"S1_level{level}.csv").write_text(
            "\n".join([",".join(CSV_HEADER), *rows]) + "\n", encoding="utf-8")
    return root


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=st.none() | config_texts(), flags=flag_lists())
def test_analyze_exits_with_a_documented_code(tiny_dir, capsys, config, flags):
    """Any config text and scoring flags end in a documented exit code with
    no traceback; on success every report is strict JSON with final scores
    in [0, 100]."""
    out = tiny_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["analyze", "--in", str(tiny_dir / "in"), "--out", str(out), *flags]
    if config is not None:
        (tiny_dir / "config.json").write_text(config, encoding="utf-8")
        argv += ["--config", str(tiny_dir / "config.json")]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4, 5) and "Traceback" not in err, err
    if code == EXIT_OK:
        reports = list(out.glob("report_*.json"))
        assert reports
        for path in reports:
            report = json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse)
            assert all(0 <= level["score"]["final_score"] <= 100 for level in report["levels"])


def test_failing_properties_print_their_blob():
    """``conftest.py`` loads a profile that prints ``@reproduce_failure``."""
    assert settings().print_blob
