#!/usr/bin/env python3
"""Run the benchmark once per seed on one workload and report each
end-to-end metric's median and quartile spread (Q3 - Q1 as a share of the
median, as statistics.quantiles(n=4) gives them), beside the spread of the
raw, un-normalised CPU and wall seconds the benchmark prints.

    python3 perfbench/spread.py --workload legacy-grid --seeds 1-10 [--seconds 35]

Run from the root of the repository; runs are sequential.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    ap.add_argument("--seconds", default="35")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    series = {}
    for seed in range(lo, hi + 1):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            check=True, capture_output=True, text=True).stdout.splitlines()
        result = json.loads(out[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for line in out:
            if line.startswith("raw: "):
                for k, v in re.findall(r"(\w+)=([0-9.eE+-]+)", line):
                    row["raw." + k] = float(v)
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            series.setdefault(k, []).append(v)
    print(f"{args.workload}: {hi - lo + 1} runs")
    for k, values in series.items():
        if len(values) >= 2 and statistics.median(values) != 0:
            med, rel = spread(values)
            print(f"  {k:32s} median {med:12.6g}  spread {rel:7.4f}")


if __name__ == "__main__":
    sys.exit(main())
