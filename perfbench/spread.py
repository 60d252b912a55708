#!/usr/bin/env python3
"""Run the benchmark several times on one workload, each with another seed,
and print each end-to-end metric's median and spread: the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload paper-suite --runs 10 --first-seed 1
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--log", help="append every result line to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect result: {res}")
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **res}) + "\n")
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)

    print(f"{'metric':<18} {'median':>12} {'spread':>8} {'bound':>6} {'bound/3':>8}")
    for name, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / abs(q2) if q2 else float("inf")
        flag = "" if spread < bounds[name] / 3 or name == "setup_s" else "  <-- above bound/3"
        print(f"{name:<18} {q2:>12.5g} {spread:>8.4f} {bounds[name]:>6} {bounds[name] / 3:>8.4f}{flag}")


if __name__ == "__main__":
    main()
