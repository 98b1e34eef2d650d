"""The chunked plot-CSV emitter against the row-by-row ``csv.writer`` one.

Random analyzed levels, with edge floats in the sample columns, empty
levels and levels without engagement periods, must give byte-identical
files from both emitters, whatever the emitter's chunk size. Columns of
short decimals must also go through the emitter's NumPy kernel, chunk by
chunk, and any other chunk through its f-string lines.
"""
from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazescore import report
from gazescore.ingest import (
    GazeSample, LevelSession, ObjectPlacement, SampleColumns, load_level_csv,
)
from gazescore.pipeline import analyze_session
from gazescore.scoring import ScoringConfig

import oracles

# Short engagement thresholds, so a few samples 0-40 ms apart make periods.
CONFIG = ScoringConfig(tau_min_ms=20, tau_sustained_ms=60)

EDGE_FLOATS = [5e-324, 1e16, 1919.9999999999998, -0.0, 0.0, 0.1, 1.0, 960.0, 540.5,
               1080.0, 1920.0, 123456.789, 2.5e-7]
COORDS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0, 1920).map(lambda v: round(v, 2)),
)
# Large AoIs on either side of the screen, so many samples fall inside one.
PLACEMENTS = st.lists(
    st.builds(
        lambda t, x, y: ObjectPlacement(t, x, y, 900.0, 900.0),
        st.integers(0, 400),
        st.sampled_from([300.0, 1500.0]),
        st.sampled_from([300.0, 800.0]),
    ),
    max_size=3,
).map(lambda ps: tuple(sorted(ps, key=lambda p: p.t_ms)))


@st.composite
def levels(draw, level):
    steps = draw(st.lists(st.integers(0, 40), max_size=40))
    times = [sum(steps[: i + 1]) for i in range(len(steps))]
    samples = [GazeSample(t, draw(COORDS), draw(COORDS)) for t in times]
    return LevelSession("s", level, samples, (), draw(PLACEMENTS))


# Floats of at most 4 decimals: m / 10**d with m * 10**(4 - d) below 10**15.
SHORT_DECIMALS = st.one_of(
    st.sampled_from([0.0, 1e-4, 0.5, 960.5, 1080.0, 1920.0, 99999999999.0, 99999999999.9999]),
    st.integers(0, 4).flatmap(
        lambda d: st.integers(0, 10 ** (11 + d) - 1).map(lambda m: m / 10**d)
    ),
)


@st.composite
def short_levels(draw, level):
    """Levels whose every x and y is a short decimal, from t = 0 or later."""
    start = draw(st.sampled_from([0, 123_456, 10**15, 2**62]))
    steps = draw(st.lists(st.integers(0, 40), max_size=40))
    times = [start + sum(steps[: i + 1]) for i in range(len(steps))]
    samples = [GazeSample(t, draw(SHORT_DECIMALS), draw(SHORT_DECIMALS)) for t in times]
    return LevelSession("s", level, samples, (), draw(PLACEMENTS))


@st.composite
def students(draw, level_sessions=levels):
    chosen = draw(st.lists(st.sampled_from([1, 2, 3]), unique=True, max_size=3))
    return [analyze_session(draw(level_sessions(level)), CONFIG) for level in chosen]


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("chunk", [1, 2, 7, report._CHUNK_SAMPLES])
@settings(max_examples=100, deadline=None)
@given(analyses=students())
def test_plot_files_match_reference(tmp_path_factory, chunk, analyses):
    got_dir = tmp_path_factory.mktemp("got")
    want_dir = tmp_path_factory.mktemp("want")
    with mock.patch.object(report, "_CHUNK_SAMPLES", chunk):
        got = report.emit_plot_data(analyses, got_dir)
    want = oracles.emit_plot_data(analyses, want_dir)
    assert [p.name for p in got] == [p.name for p in want]
    assert _files(got_dir) == _files(want_dir)


def test_edge_floats_written_as_repr(tmp_path):
    """Every edge float in one level, written with ``repr``."""
    samples = [GazeSample(i, x, y) for i, (x, y) in enumerate(zip(EDGE_FLOATS, EDGE_FLOATS[1:]))]
    analysis = analyze_session(LevelSession("s", 2, samples, (), ()), CONFIG)
    report.emit_plot_data([analysis], tmp_path / "got")
    oracles.emit_plot_data([analysis], tmp_path / "want")
    assert _files(tmp_path / "got") == _files(tmp_path / "want")
    lines = (tmp_path / "got" / "samples_level2.csv").read_text().splitlines()
    assert lines[1] == "0,5e-324,1e+16,Q3,outside"
    assert lines[4] == "3,-0.0,0.0,Q1,outside"


def test_empty_level(tmp_path):
    analysis = analyze_session(LevelSession("s", 1, (), (), ()), CONFIG)
    report.emit_plot_data([analysis], tmp_path / "got")
    oracles.emit_plot_data([analysis], tmp_path / "want")
    assert _files(tmp_path / "got") == _files(tmp_path / "want")
    assert (tmp_path / "got" / "samples_level1.csv").read_text() == (
        "t_ms,x_px,y_px,quadrant,aoi_label\n"
    )


@contextlib.contextmanager
def _kernel_calls(chunk):
    """Emit with ``chunk`` samples per chunk; the list yielded gets, per
    samples chunk in order, whether the kernel formatted it."""
    took = []
    kernel = report._short_decimal_lines

    def spy(*columns):
        lines = kernel(*columns)
        took.append(lines is not None)
        return lines

    with mock.patch.multiple(report, _CHUNK_SAMPLES=chunk, _short_decimal_lines=spy):
        yield took


def _chunks(analyses, chunk):
    return sum(-(-len(a.session.samples) // chunk) for a in analyses)


@pytest.mark.parametrize("chunk", [1, 2, 7, report._CHUNK_SAMPLES])
@settings(max_examples=100, deadline=None)
@given(analyses=students(short_levels))
def test_short_decimals_take_the_kernel(tmp_path_factory, chunk, analyses):
    got_dir = tmp_path_factory.mktemp("got")
    want_dir = tmp_path_factory.mktemp("want")
    with _kernel_calls(chunk) as took:
        report.emit_plot_data(analyses, got_dir)
    oracles.emit_plot_data(analyses, want_dir)
    assert _files(got_dir) == _files(want_dir)
    assert took == [True] * _chunks(analyses, chunk)


@pytest.mark.parametrize(
    "column,value",
    [("x", 0.1 + 0.2), ("y", 1919.9999999999998), ("x", 540.12345), ("y", -0.0),
     ("x", math.nan), ("y", math.inf), ("x", -math.inf), ("y", 1e11), ("x", -2.5),
     ("t", -1)],
    ids=["17_digits", "17_digits_below_whole", "5_decimals", "minus_zero", "nan", "inf",
         "minus_inf", "k_at_10_15", "negative", "negative_t"],
)
def test_one_odd_value_sends_only_its_chunk_to_the_fallback(tmp_path, column, value):
    """Three chunks of 7 samples with one value the kernel must not write, in
    the middle chunk (a negative time comes first, so in the first)."""
    columns = {"t": np.arange(21) * 16, "x": np.full(21, 960.5), "y": np.full(21, 540.25)}
    at = 0 if column == "t" else 10
    columns[column][at] = value
    session = LevelSession("s", 1, SampleColumns(columns["t"], columns["x"], columns["y"]), (), ())
    analysis = analyze_session(session, CONFIG)
    with _kernel_calls(7) as took:
        report.emit_plot_data([analysis], tmp_path / "got")
    oracles.emit_plot_data([analysis], tmp_path / "want")
    assert _files(tmp_path / "got") == _files(tmp_path / "want")
    assert took == [i != at // 7 for i in range(3)]


def test_tracker_logs_take_the_kernel(tmp_path, tracker):
    """Seeded tracker-model logs (60 Hz, 2-decimal gaze, epoch-ms times),
    loaded and analysed: every samples chunk goes through the kernel, and the
    files equal the row-by-row writer's."""
    analyses = []
    for level in (1, 2, 3):
        path = tmp_path / f"t_level{level}.csv"
        tracker.write_level_log(path, seed=level)
        analyses.append(analyze_session(load_level_csv(path, level, "t"), ScoringConfig()))
    with _kernel_calls(report._CHUNK_SAMPLES) as took:
        report.emit_plot_data(analyses, tmp_path / "got")
    oracles.emit_plot_data(analyses, tmp_path / "want")
    assert _files(tmp_path / "got") == _files(tmp_path / "want")
    assert len(took) == _chunks(analyses, report._CHUNK_SAMPLES) > len(analyses)
    assert all(took)
