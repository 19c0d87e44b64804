"""Run one workload at several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload dl64 --seeds 0 1 2 3 4 [--trace 0]

Each seed is one ``run.py`` process, run one after another.  For every metric
the report gives the median, the quartiles (``statistics.quantiles(n=4)``)
and the interquartile range as a share of the median, beside the metric's
bound from ``BENCHMARK.json`` and a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':45s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'iqr/med':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            "ok" if share < bound / 3 else "within bound" if share <= bound else "OVER BOUND")
        print(f"{name:45s} {med:11.5g} {q1:11.5g} {q3:11.5g} {share:8.4f} "
              f"{'' if bound is None else bound:>6} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
