"""Pinned bytes of the synthetic session CSVs.

The digests are the sha256 of each file ``write_session_set`` writes for
the case-study fixture and for ``generate_session`` profiles that cover
zero noise, clamped noise, off-grid engagement periods (2601 and 455 ms,
and a 33 ms grid), all three levels, a session with no AoI run and the
placement top-up (every profile below ends on it). A change that alters
any byte of these files fails here and must say why.
"""
from __future__ import annotations

import hashlib

import pytest

from gazescore.ingest import merge_levels
from gazescore.synth import (
    SynthProfile,
    generate_session,
    generate_table_fixture,
    write_session_set,
)

PROFILES = {
    "default": SynthProfile(),
    "noise0": SynthProfile(seed=1, noise_px=0.0),
    "periods_2601_455": SynthProfile(
        seed=3,
        duration_ms=30_000,
        engagement_period_lengths_ms=(2601, 455),
        target_aoi_dwell_share=0.15,
    ),
    "level2_sf55": SynthProfile(
        seed=4, level=2, duration_ms=90_000, target_sf_pct=55.0, target_aoi_dwell_share=0.3
    ),
    "level3_dt25": SynthProfile(
        seed=5,
        level=3,
        sample_interval_ms=25,
        duration_ms=40_000,
        n_clicks=10,
        answer_accuracy=0.95,
    ),
    "dt33_offgrid_noise0": SynthProfile(
        seed=6,
        level=2,
        sample_interval_ms=33,
        engagement_period_lengths_ms=(2601,),
        noise_px=0.0,
    ),
    "no_aoi_runs": SynthProfile(
        seed=7,
        engagement_period_lengths_ms=(),
        target_aoi_dwell_share=0.0,
        n_clicks=0,
        n_answers=0,
    ),
    "wide_noise": SynthProfile(seed=8, noise_px=100.0, student_id="NOISY"),
    "fine_grid": SynthProfile(
        seed=9,
        level=3,
        sample_interval_ms=7,
        duration_ms=20_000,
        noise_px=0.5,
        target_sf_pct=100.0,
        target_aoi_dwell_share=0.4,
    ),
}

DIGESTS = {
    "case-study": {
        "S10_level1.csv": "05f511dabdb5aa7f4cd1e46ee4e3dd33e82f064c5664ff33970788b4a8f6cec4",
        "S10_level2.csv": "1f927af788484f0f54d78884c01aebbecd0e92e58946ae8b0fa944eaaa0e2de2",
        "S10_level3.csv": "7fdefa175d1b8cf52936cdb0757fb5c2326658e15af90b40ec605a2044d1864d",
    },
    "default": {
        "SYNTH_level1.csv": "f7b3cece061de4d5f444b7a31e35b48acf56becf6c6afc642387d4ab4cc0a4bb",
    },
    "noise0": {
        "SYNTH_level1.csv": "01f23f9488ed6d39e514818e493d35d030d419d5a8a33d07586fc26aec1572d6",
    },
    "periods_2601_455": {
        "SYNTH_level1.csv": "7907a6361572fd812109a0d7f2b63ad7730eb6a680c58626e4f0806adc945905",
    },
    "level2_sf55": {
        "SYNTH_level2.csv": "6e2d97a1abaceac99ba5c321894f70c1d6ea2fb497a84c27a4658e3944d88249",
    },
    "level3_dt25": {
        "SYNTH_level3.csv": "fba704bb5e29d418b74037dd647935573230e6db7d00b18c461a300608060d0d",
    },
    "dt33_offgrid_noise0": {
        "SYNTH_level2.csv": "bf79eb8b0ed5636df6cef3968b24a92e3e7c8b2ea8377bb46809e28e4eae8ded",
    },
    "no_aoi_runs": {
        "SYNTH_level1.csv": "5fb408b4e2a26ec1fa98b101e4dbe7ee1e43fdfac2b807acd3e13622850dcdbe",
    },
    "wide_noise": {
        "NOISY_level1.csv": "b5bb816b0bb0d6dc5fe3ed1bf7e230d43a6259b9ce697a7eaa4735e1d281f8ff",
    },
    "fine_grid": {
        "SYNTH_level3.csv": "1238b69eaee607b612257964cd4564bff54e22c112c168876295c8889cbaa525",
    },
}


def _session_set(case):
    if case == "case-study":
        return generate_table_fixture()
    return merge_levels([generate_session(PROFILES[case])])


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_synthetic_csvs_match_pinned_digests(tmp_path, case):
    written = write_session_set(_session_set(case), tmp_path)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written}
    assert digests == DIGESTS[case]
