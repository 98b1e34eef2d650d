"""Pinned bytes of every CLI output on the case-study fixture.

The digests are the sha256 of each file ``gazescore analyze`` writes for
student S10 (report and plot CSVs) under three flag sets. A change that
alters any byte of these outputs fails here and must say why.
"""
from __future__ import annotations

import hashlib

import pytest

from gazescore.cli import EXIT_OK, main
from gazescore.ingest import GazeSample, load_level_csv, merge_levels
from gazescore.pipeline import analyze_student
from gazescore.report import build_report, emit_plot_data, write_report
from gazescore.scoring import ScoringConfig

FLAGS = {
    "default": [],
    "gap150": ["--gap-tolerance-ms", "150"],
    "yup_tau200": ["--y-up", "--tau-min-ms", "200"],
}

DIGESTS = {
    "default": {
        "plots/S10/periods_level1.csv":
            "b01f51666c6145b27aa5e814ca25dded143dcb3be27f2b1fa9517f49faebe919",
        "plots/S10/periods_level2.csv":
            "1047435042096221bd8eb88f9cb6a9eaad51e60d2139e6f431509ed69834fb5f",
        "plots/S10/periods_level3.csv":
            "8cb0be40cec61af639e7b8141bc61d06ec511a53f306194e919726dd2f06c88d",
        "plots/S10/samples_level1.csv":
            "e2dc62a9f9b70334feebda82bf8134408c2e9e3cb0efc35d1a52c8495561603c",
        "plots/S10/samples_level2.csv":
            "e45e13d7c324481cdebc41c0ce5ae412cd3f59a9fd11d65c224751743859b1a1",
        "plots/S10/samples_level3.csv":
            "c474fcff3081c677445bcbf930c24bf56fcf50c796fc93a63829736ed3655210",
        "plots/S10/temporal_summary.csv":
            "4b85ef8d0e16d2c7551bdb58280a870a3e37159feeb6ebbe4d44b2bb16f9fe14",
        "report_S10.json":
            "f9f2de6eee50b2ad6b3c4e805151e8c0f62a552b719b5558970c119178b2c2bd",
    },
    "gap150": {
        "plots/S10/periods_level1.csv":
            "5370d91dfeb4e39e6a7e1e71a2afe30d9871ba9ff25197d004ccb8195230f6d0",
        "plots/S10/periods_level2.csv":
            "864d0458e6b101d890748c4a884a0984f6c1e8ee33e69720992f81f0259f7ba5",
        "plots/S10/periods_level3.csv":
            "9f28aadea687a4828bf178997a7cf2d836aea10227960034e8ad9a35ac2fb463",
        "plots/S10/samples_level1.csv":
            "e2dc62a9f9b70334feebda82bf8134408c2e9e3cb0efc35d1a52c8495561603c",
        "plots/S10/samples_level2.csv":
            "e45e13d7c324481cdebc41c0ce5ae412cd3f59a9fd11d65c224751743859b1a1",
        "plots/S10/samples_level3.csv":
            "c474fcff3081c677445bcbf930c24bf56fcf50c796fc93a63829736ed3655210",
        "plots/S10/temporal_summary.csv":
            "7ddb42db88da5ffc34a9403f94164df3e3456ab708f32abbffb6830527b653ae",
        "report_S10.json":
            "31773be2c983ea4424cdad7066ba4ef26c513f0ba5edc5f9fce74b0188dbff1b",
    },
    "yup_tau200": {
        "plots/S10/periods_level1.csv":
            "b01f51666c6145b27aa5e814ca25dded143dcb3be27f2b1fa9517f49faebe919",
        "plots/S10/periods_level2.csv":
            "1047435042096221bd8eb88f9cb6a9eaad51e60d2139e6f431509ed69834fb5f",
        "plots/S10/periods_level3.csv":
            "8cb0be40cec61af639e7b8141bc61d06ec511a53f306194e919726dd2f06c88d",
        "plots/S10/samples_level1.csv":
            "35097a11e632ce5e6714a9de3ad066e6d7964a1448c553b1268a37563f03d797",
        "plots/S10/samples_level2.csv":
            "884131c889be9bfbd147466f9280056302e5af48155a2811be3bea8db33fa863",
        "plots/S10/samples_level3.csv":
            "c8833617e2c1ced56bff0e976d93ce5bfcb746fa52d7ea3566db4456737c04a6",
        "plots/S10/temporal_summary.csv":
            "246dcd62442b1cad3178b03f84c87306ca2ca8b1021db00f8667e31774d2d123",
        "report_S10.json":
            "b9d9ee955468c3100f3e05d4a0e373f854ac1a16de585fa46cd6f78807f1d7ca",
    },
}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fx")
    assert main(["synth", "--fixture", "case-study", "--out", str(path)]) == EXIT_OK
    return path


def _digests(out):
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("variant", sorted(FLAGS))
def test_cli_outputs_match_pinned_digests(fixture_dir, tmp_path, variant):
    out = tmp_path / "out"
    code = main(["analyze", "--in", str(fixture_dir), "--out", str(out), *FLAGS[variant]])
    assert code == EXIT_OK
    assert _digests(out) == DIGESTS[variant]


def test_default_outputs_after_rescoring_match_pinned_digests(fixture_dir, tmp_path):
    """Sessions first analysed under another config keep their facts, and
    the default config then gives the pinned outputs byte for byte."""
    session_set = merge_levels(
        [load_level_csv(fixture_dir / f"S10_level{lv}.csv", lv, "S10") for lv in (1, 2, 3)]
    )
    other = ScoringConfig(tau_min_ms=200, gap_tolerance_ms=150, alpha1=2.0)
    first, _ = analyze_student(session_set, "S10", other)
    analyses, validation = analyze_student(session_set, "S10", ScoringConfig())
    assert all(a.aoi_labels is b.aoi_labels for a, b in zip(first, analyses))
    out = tmp_path / "out"
    write_report(build_report("S10", analyses, validation), out / "report_S10.json")
    emit_plot_data(analyses, out / "plots" / "S10")
    assert _digests(out) == DIGESTS["default"]


def test_cli_path_builds_no_gaze_sample(fixture_dir, tmp_path, monkeypatch):
    """Loading, analysis, reports and plot CSVs all work on the columns."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a GazeSample was built")

    monkeypatch.setattr(GazeSample, "__init__", refuse)
    code = main(["analyze", "--in", str(fixture_dir), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
