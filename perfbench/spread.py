"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload campaign-pool --seeds 1 2 3 4 5

Per metric it prints the median of the runs, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median
next to the bound ``BENCHMARK.json`` fixes.  A change is judged on
these figures, never on one run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds, args.trace)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        figures = " ".join(f"{name}={metric['value']:.4g}"
                           for name, metric in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{figures}", flush=True)
    for name, series in values.items():
        mid = statistics.median(series)
        if len(series) >= 2:
            q1, _q2, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = mid
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds.get(name)
        print(f"{name:<34} median {mid:<12.6g} q1 {q1:<12.6g} "
              f"q3 {q3:<12.6g} spread {spread:.3f}"
              + (f" (bound {bound})" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
