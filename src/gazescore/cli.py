"""Command line interface: batch analysis, validation and synthesis.

Exit codes: 0 success, 2 usage, 3 I/O, 4 data schema, 5 configuration.
"""
from __future__ import annotations

import argparse
import functools
import logging
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

from .ingest import (
    DuplicateSessionError,
    SessionLoadError,
    SessionSet,
    load_level_csv,
    merge_levels,
)
from .pipeline import analyze_student
from .report import build_report, emit_plot_data, write_report
from .scoring import ConfigError, ScoringConfig, read_config_json
from .spatial import ScreenGeometry
from .synth import ProfileError, SynthProfile, generate_session, generate_table_fixture, write_session_set
from .validation import mae

log = logging.getLogger("gazescore")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_CONFIG = 5

_SESSION_FILE_RE = re.compile(r"^(?P<student>.+)_level(?P<level>[123])\.csv$")

_FIXTURE_NAMES = {"case-study": "case-study", "paper-tables": "case-study"}

_CONFIG_FLAGS = (
    ("alpha1", float),
    ("alpha2", float),
    ("gamma", float),
    ("delta", float),
    ("tau_min_ms", int),
    ("tau_sustained_ms", int),
    ("gap_tolerance_ms", int),
    ("excess_period_threshold", int),
    ("max_impact", float),
    ("calibration_excellent", float),
    ("calibration_good", float),
    ("calibration_fair", float),
    ("mastery_min", float),
    ("developing_min", float),
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("scoring overrides (flag > config file > default)")
    for name, kind in _CONFIG_FLAGS:
        group.add_argument(f"--{name.replace('_', '-')}", type=kind, default=None, dest=name)
    group.add_argument("--eta-source", choices=("temporal", "aoi_dwell"), default=None,
                       dest="eta_source")
    group.add_argument("--aoi-total-changes-only", action="store_true", default=None,
                       dest="aoi_total_changes_only")


def _resolve_config(args: argparse.Namespace) -> ScoringConfig:
    data = read_config_json(args.config) if args.config else {}
    valid = {f.name for f in fields(ScoringConfig)}
    for name in valid:
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    config = ScoringConfig.from_dict(data)
    log.info("effective scoring config: %s", config)
    return config


def _screen_size(text: str) -> float:
    """argparse type of --width/--height: a positive finite number of pixels."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _geometry(args: argparse.Namespace) -> ScreenGeometry:
    return ScreenGeometry(width_px=args.width, height_px=args.height, y_up=args.y_up)


def _discover_sessions(
    in_dir: Path, student: str | None, level: int | None, geometry: ScreenGeometry
) -> SessionSet:
    if not in_dir.is_dir():
        raise FileNotFoundError(f"input directory not found: {in_dir}")
    sessions = []
    for path in sorted(in_dir.iterdir()):
        match = _SESSION_FILE_RE.match(path.name)
        if not match:
            continue
        sid = match.group("student")
        lvl = int(match.group("level"))
        if student is not None and sid != student:
            continue
        if level is not None and lvl != level:
            continue
        sessions.append(load_level_csv(path, lvl, sid, geometry))
    if not sessions:
        raise FileNotFoundError(
            f"no session files matching '<student>_level<1|2|3>.csv' in {in_dir}"
        )
    return merge_levels(sessions)


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    session_set = _discover_sessions(
        Path(args.in_dir), args.student, args.level, _geometry(args)
    )
    # Analyze everything before writing anything, so a failing session
    # leaves no partial outputs; individual files are staged and renamed.
    results = []
    for student in session_set.students():
        analyses, validation = analyze_student(session_set, student, config)
        results.append((student, analyses, build_report(student, analyses, validation, config)))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for student, analyses, report in results:
        report_path = write_report(report, out_dir / f"report_{student}.json")
        plot_paths = emit_plot_data(analyses, out_dir / "plots" / student)
        print(f"{student}: report {report_path} ({len(analyses)} levels, "
              f"{len(plot_paths)} plot files)")
        for analysis in analyses:
            b = analysis.breakdown
            print(f"  level {analysis.session.level}: final score {b.final_score:.2f} "
                  f"(base {b.base_score:.2f}, impact {b.temporal_impact:.2f})")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    session_set = _discover_sessions(
        Path(args.in_dir), args.student, args.level, _geometry(args)
    )
    students = session_set.students()
    if args.student is None and len(students) > 1:
        raise SessionLoadError(
            f"validation needs a single student, found {students}; pass --student"
        )
    student = args.student or students[0]
    analyses, validation = analyze_student(session_set, student, config)
    pairs = [
        (a.session.level, a.breakdown.final_score, a.game.accuracy_pct)
        for a in analyses
        if a.game.accuracy_pct is not None
    ]
    if not pairs:
        print(f"{student}: no game events, nothing to validate")
        return EXIT_OK
    print(f"{student}: model score vs game accuracy")
    for level, score, accuracy in pairs:
        print(f"  level {level}: model {score:.1f} vs game {accuracy:.1f} "
              f"(diff {abs(score - accuracy):.1f})")
    if validation is None:
        print("  correlations undefined (fewer than 2 scored levels)")
        model = [score for _, score, _ in pairs]
        truth = [accuracy for _, _, accuracy in pairs]
        print(f"  MAE {mae(model, truth):.2f}")
    else:
        pear = "undefined" if validation.pearson_r is None else f"{validation.pearson_r:.3f}"
        spear = "undefined" if validation.spearman_rho is None else f"{validation.spearman_rho:.3f}"
        print(f"  MAE {validation.mae_pct:.2f}  RMSE {validation.rmse_pct:.2f}  "
              f"Pearson {pear}  Spearman {spear}  (n={validation.n})")
    if args.out:
        analyses_report = build_report(student, analyses, validation, config)
        write_report(analyses_report, Path(args.out) / f"report_{student}.json")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    if args.fixture is not None:
        name = _FIXTURE_NAMES.get(args.fixture)
        if name is None:
            raise ProfileError(
                f"unknown fixture {args.fixture!r}, expected one of {sorted(_FIXTURE_NAMES)}"
            )
        session_set = generate_table_fixture(student_id=args.student or "S10")
        written = write_session_set(session_set, out_dir)
    else:
        profile = SynthProfile(
            seed=args.seed,
            level=args.level or 1,
            duration_ms=args.duration_ms,
            sample_interval_ms=args.sample_interval_ms,
            target_sf_pct=args.sf,
            target_aoi_dwell_share=args.aoi_share,
            engagement_period_lengths_ms=tuple(
                int(v) for v in args.periods.split(",") if v.strip()
            ),
            event_accuracy=(args.click_accuracy, args.answer_accuracy),
            n_clicks=args.clicks,
            n_answers=args.answers,
            noise_px=args.noise,
            student_id=args.student or "SYNTH",
        )
        session = generate_session(profile)
        written = write_session_set(merge_levels([session]), out_dir)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazescore",
        description="Attention scoring for serious-game gaze sessions.",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON scoring config file")
    common.add_argument("--width", type=_screen_size, default=1920.0)
    common.add_argument("--height", type=_screen_size, default=1080.0)
    common.add_argument("--y-up", action="store_true", dest="y_up",
                        help="treat input coordinates as y-up instead of screen coordinates")

    analyze = sub.add_parser("analyze", parents=[common],
                             help="analyze session CSVs into reports and plot data")
    analyze.add_argument("--in", dest="in_dir", required=True, help="input directory")
    analyze.add_argument("--out", default="out", help="output directory")
    analyze.add_argument("--student", default=None, help="only this student id")
    analyze.add_argument("--level", type=int, choices=(1, 2, 3), default=None)
    _add_config_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

    validate = sub.add_parser("validate", parents=[common],
                              help="validate model scores against game accuracy")
    validate.add_argument("--in", dest="in_dir", required=True)
    validate.add_argument("--out", default=None,
                          help="also write the report document here")
    validate.add_argument("--student", default=None)
    validate.add_argument("--level", type=int, choices=(1, 2, 3), default=None)
    _add_config_flags(validate)
    validate.set_defaults(func=cmd_validate)

    synth = sub.add_parser("synth", parents=[common],
                           help="write synthetic session CSVs")
    synth.add_argument("--out", default="synth-out", help="output directory")
    synth.add_argument("--fixture", default=None,
                       help="named fixture to generate (case-study)")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--level", type=int, choices=(1, 2, 3), default=None)
    synth.add_argument("--student", default=None)
    synth.add_argument("--duration-ms", type=int, default=60000, dest="duration_ms")
    synth.add_argument("--sample-interval-ms", type=int, default=16, dest="sample_interval_ms")
    synth.add_argument("--sf", type=float, default=60.0, help="target stimulus focus percent")
    synth.add_argument("--aoi-share", type=float, default=0.25, dest="aoi_share")
    synth.add_argument("--periods", default="3000,2600,800",
                       help="comma-separated engagement lengths in ms")
    synth.add_argument("--clicks", type=int, default=12)
    synth.add_argument("--answers", type=int, default=20)
    synth.add_argument("--click-accuracy", type=float, default=0.8, dest="click_accuracy")
    synth.add_argument("--answer-accuracy", type=float, default=0.9, dest="answer_accuracy")
    synth.add_argument("--noise", type=float, default=6.0)
    synth.set_defaults(func=cmd_synth)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call in the process.

    Parsing leaves a parser unchanged, so one instance serves every call;
    building it costs far more than a parse.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # basicConfig only installs a handler (and once per process); the level
    # is set on every call so each call's own --verbose decides.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProfileError as exc:
        print(f"profile error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SessionLoadError, DuplicateSessionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
