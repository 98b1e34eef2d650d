"""Command line interface: batch analysis, validation and synthesis.

Exit codes: 0 success, 2 usage, 3 I/O, 4 data schema, 5 configuration.
"""
from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

from .ingest import (
    VALID_LEVELS,
    DuplicateSessionError,
    SessionLoadError,
    SessionSet,
    load_level_csv,
    merge_levels,
)
from .pipeline import analyze_student
from .report import build_report, emit_plot_data, write_report
from .scoring import ETA_SOURCES, ConfigError, ScoringConfig, read_config_json
from .spatial import ScreenGeometry
from .synth import (
    ProfileError, SynthProfile, check_student_id, generate_session, generate_table_fixture,
    write_session_set,
)
from .validation import mae

log = logging.getLogger("gazescore")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_CONFIG = 5

_LEVEL_NAMES = "|".join(map(str, VALID_LEVELS))
# Matched to the whole name: a student id may hold a line break (``check_student_id``).
_SESSION_FILE_RE = re.compile(rf"(?P<student>.+)_level(?P<level>{_LEVEL_NAMES})\.csv", re.DOTALL)

_FIXTURE = "case-study"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One ``--field-name`` flag per ``ScoringConfig`` field, typed by the field."""
    group = parser.add_argument_group("scoring overrides (flag > config file > default)")
    for f in fields(ScoringConfig):
        kind = {"bool": {"action": "store_true"}, "str": {"choices": ETA_SOURCES},
                "int": {"type": int}}.get(f.type, {"type": float})
        group.add_argument(f"--{f.name.replace('_', '-')}", default=None, dest=f.name, **kind)


def _resolve_config(args: argparse.Namespace) -> ScoringConfig:
    data = read_config_json(args.config) if args.config else {}
    for f in fields(ScoringConfig):
        value = getattr(args, f.name)
        if value is not None:
            data[f.name] = value
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


def _period_lengths(text: str) -> tuple[int, ...]:
    """argparse type of --periods: comma-separated whole milliseconds."""
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated whole ms: {text!r}") from None


def _student_id(text: str) -> str:
    """argparse type of synth --student: an id ``check_student_id`` takes."""
    try:
        return check_student_id(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _discover_sessions(
    in_dir: Path, student: str | None, level: int | None, geometry: ScreenGeometry
) -> SessionSet:
    if not in_dir.is_dir():
        raise FileNotFoundError(f"input directory not found: {in_dir}")
    found = [
        (in_dir / name, match.group("student"), int(match.group("level")))
        for name in sorted(os.listdir(in_dir))
        if (match := _SESSION_FILE_RE.fullmatch(name))
    ]
    if not found:
        raise FileNotFoundError(
            f"no session files matching '<student>_level<{_LEVEL_NAMES}>.csv' in {in_dir}"
        )
    # Session files exist: name the filter that left none of them.
    applied = []
    for flag, wanted, column in (("--student", student, 1), ("--level", level, 2)):
        if wanted is not None:
            applied.append(f"{flag} {wanted}")
            found = [entry for entry in found if entry[column] == wanted]
            if not found:
                raise FileNotFoundError(f"no session files for {' '.join(applied)} in {in_dir}")
    for path, sid, _ in found:
        try:
            check_student_id(sid)
        except ValueError:
            raise SessionLoadError(f"file name gives no usable student id {sid!r}", path) from None
    return merge_levels([load_level_csv(path, lvl, sid, geometry) for path, sid, lvl in found])


def _inputs(args: argparse.Namespace) -> tuple[ScoringConfig, SessionSet]:
    """The effective config, then the selected sessions: a bad config fails
    before a missing input does."""
    config = _resolve_config(args)
    geometry = ScreenGeometry(width_px=args.width, height_px=args.height, y_up=args.y_up)
    return config, _discover_sessions(Path(args.in_dir), args.student, args.level, geometry)


def cmd_analyze(args: argparse.Namespace) -> int:
    config, session_set = _inputs(args)
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
    config, session_set = _inputs(args)
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
    # Profile flags default to SUPPRESS: only the given ones are set, and
    # SynthProfile supplies the rest.
    given = {f.name: getattr(args, f.name) for f in fields(SynthProfile) if hasattr(args, f.name)}
    out_dir = Path(args.out)
    if args.fixture is not None:
        if given:
            _parser().error("synth --fixture takes no profile flags")
        if args.fixture != _FIXTURE:
            raise ProfileError(f"unknown fixture {args.fixture!r}, expected {_FIXTURE!r}")
        session_set = generate_table_fixture(student_id=args.student or "S10")
    else:
        session = generate_session(
            SynthProfile(**given, student_id=args.student or SynthProfile.student_id)
        )
        session_set = SessionSet({(session.student_id, session.level): session})
    for path in write_session_set(session_set, out_dir):
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazescore",
        description="Attention scoring for serious-game gaze sessions.",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    # Screen, input selection and scoring flags shared by analyze and validate.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=None, help="JSON scoring config file")
    shared.add_argument("--width", type=_screen_size, default=1920.0)
    shared.add_argument("--height", type=_screen_size, default=1080.0)
    shared.add_argument("--y-up", action="store_true", dest="y_up",
                        help="treat input coordinates as y-up instead of screen coordinates")
    shared.add_argument("--in", dest="in_dir", required=True, help="input directory")
    shared.add_argument("--student", default=None, help="only this student id")
    shared.add_argument("--level", type=int, choices=VALID_LEVELS, default=None)
    _add_config_flags(shared)

    analyze = sub.add_parser("analyze", parents=[shared],
                             help="analyze session CSVs into reports and plot data")
    analyze.add_argument("--out", default="out", help="output directory")
    analyze.set_defaults(func=cmd_analyze)

    validate = sub.add_parser("validate", parents=[shared],
                              help="validate model scores against game accuracy")
    validate.add_argument("--out", default=None, help="also write the report document here")
    validate.set_defaults(func=cmd_validate)

    synth = sub.add_parser("synth", argument_default=argparse.SUPPRESS,
                           help="write synthetic session CSVs")
    synth.add_argument("--out", default="synth-out", help="output directory")
    synth.add_argument("--fixture", default=None,
                       help=f"named fixture to generate ({_FIXTURE}); takes no profile flags")
    synth.add_argument("--student", type=_student_id, default=None)
    # Profile flags: each given one sets its SynthProfile field.
    synth.add_argument("--seed", type=int)
    synth.add_argument("--level", type=int, choices=VALID_LEVELS)
    synth.add_argument("--duration-ms", type=int)
    synth.add_argument("--sample-interval-ms", type=int)
    synth.add_argument("--sf", type=float, dest="target_sf_pct",
                       help="target stimulus focus percent")
    synth.add_argument("--aoi-share", type=float, dest="target_aoi_dwell_share")
    synth.add_argument("--periods", type=_period_lengths, dest="engagement_period_lengths_ms",
                       help="comma-separated engagement lengths in ms")
    synth.add_argument("--clicks", type=int, dest="n_clicks")
    synth.add_argument("--answers", type=int, dest="n_answers")
    synth.add_argument("--click-accuracy", type=float)
    synth.add_argument("--answer-accuracy", type=float)
    synth.add_argument("--noise", type=float, dest="noise_px")
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
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
