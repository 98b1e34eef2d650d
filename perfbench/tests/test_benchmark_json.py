"""BENCHMARK.json names exactly the metrics run.py prints, within the file's limits."""
import argparse
import json
import re
from pathlib import Path

import run

BENCH = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _empty_run(trace):
    args = argparse.Namespace(workload="noisy-cohort", seed=0, record_reference=False,
                              trace=trace, seconds=1)
    return run.Run(args, Path("."), {"P01": {1: {"file": "P01_level1.csv", "rows": 1, "valid": 1}}})


def test_metric_names_match_run_output():
    assert set(_empty_run(0).end_to_end()) == {m["name"] for m in BENCH["end_to_end"]}
    assert set(_empty_run(0).per_layer()) == {m["name"] for m in BENCH["per_layer"]}
    assert [w["name"] for w in BENCH["workloads"]] == list(run.MODES)


def test_limits():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])


def test_samples_per_s_sums_each_units_fastest_call():
    bench = _empty_run(0)
    bench.loop = {"units": {"P01": [30, 10, 20], "P02": [50, 40, 60]},
                  "samples": {"P01": 100, "P02": 300}}
    assert bench.end_to_end()["samples_per_s"][0] == 400 * 1e9 / 50
