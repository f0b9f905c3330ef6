#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload design-cold --seeds 1 2 3 4 5 [--seconds 30]

Runs the benchmark once per seed (through run.py, from the repository
root) and prints, per end-to-end metric, the median and the interquartile
range as a share of the median (statistics.quantiles, n=4), next to the
metric's bound in BENCHMARK.json.  A benchmark is steady when every spread
but setup_s's stays under a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect run: {result}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for metric in bench["end_to_end"]:
        vs = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        ok = "ok" if metric["name"] == "setup_s" or spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:22s} median {med:12.4f}  spread {spread:7.4f}  bound {metric['bound']:.2f}  {ok}")


if __name__ == "__main__":
    main()
