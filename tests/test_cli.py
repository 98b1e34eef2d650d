from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gazescore import cli
from gazescore.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, main
from gazescore.ingest import CSV_HEADER

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

    def test_fixture_alias_accepted(self, tmp_path):
        assert main(["synth", "--fixture", "paper-tables", "--out", str(tmp_path)]) == EXIT_OK

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

    @pytest.mark.parametrize("flag", ["--max-impact", "--mastery-min", "--gamma"])
    def test_non_finite_config_flag(self, fixture_dir, tmp_path, capsys, flag):
        code = main(["analyze", "--in", str(fixture_dir), "--out", str(tmp_path / "out"),
                     flag, "inf"])
        assert code == EXIT_CONFIG
        assert "must be" in capsys.readouterr().err

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
     ("bad config JSON", EXIT_CONFIG), ("boolean config value", EXIT_CONFIG),
     ("width 0", 2), ("height nan", 2)],
)
def test_failure_class_exit_codes(tmp_path, case, code):
    """Each failure class exits with its documented code and no traceback."""
    proc = _run_cli("analyze", *_exit_case(tmp_path, case))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip()
