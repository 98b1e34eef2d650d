"""The chunked plot-CSV emitter against the row-by-row ``csv.writer`` one.

Random analyzed levels, with edge floats in the sample columns, empty
levels and levels without engagement periods, must give byte-identical
files from both emitters, whatever the emitter's chunk size.
"""
from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gazescore import report
from gazescore.ingest import GazeSample, LevelSession, ObjectPlacement
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


@st.composite
def students(draw):
    chosen = draw(st.lists(st.sampled_from([1, 2, 3]), unique=True, max_size=3))
    return [analyze_session(draw(levels(level)), CONFIG) for level in chosen]


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
