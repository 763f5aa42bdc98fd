"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3] [--seconds S] [--trace 0|1]

For every metric: the median of the runs, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the inter-quartile
distance as a share of the median -- the spread each end-to-end metric must
keep within its bound in BENCHMARK.json.  Also lists each run's median
``host.ref_loop_ms``, so host drift can be told apart from a regression.
Runs are sequential: one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    values, drift = {}, []
    for seed in (int(s) for s in args.seeds.split(",")):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
        )
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        ref = next(line for line in lines if line.startswith("host.ref_loop_ms"))
        drift.append(float(re.search(r"median=([\d.]+)", ref).group(1)))
        values_line = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} ref_loop_ms={drift[-1]:.2f} {values_line}", flush=True)
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
        share = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:<34} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} {share:>8.3f} "
              f"{'' if bound is None else bound:>6}")
    print(f"host.ref_loop_ms per run: {', '.join(f'{d:.2f}' for d in drift)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
