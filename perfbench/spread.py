"""Run the benchmark over several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workload noisy-cohort --seeds 1-10 [--trace 0]

For each metric: the median, the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to a third of the
metric's bound from ``BENCHMARK.json``. Runs are sequential, one seed
after another, each with ``run_seconds`` from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"{'metric':52} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
        spread = (q3 - q1) / median if median else 0.0
        third = f"{bounds[name] / 3:.4f}" if bounds.get(name) is not None else "-"
        print(f"{name:52} {median:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} {third:>8}"
              f"  {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
