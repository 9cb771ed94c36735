#!/usr/bin/env python3
"""Runs one perfbench workload over several seeds and summarises each metric.

Run from the repository root:

    python3 perfbench/spread.py --workload paper-repro --seeds 1-10 --seconds 35
    python3 perfbench/spread.py --workload service-fleet --seeds 1,2,3 --trace 1 --out runs.json

For every metric it prints the median, the quartiles and the spread: the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median, the figure a metric's bound in
BENCHMARK.json is compared with. --out writes every run's values and the
summary as JSON. Exits non-zero if any run fails or reports correct=false.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(s):
    out = []
    for part in s.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="35")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()

    runs, ok = [], True
    for seed in parse_seeds(args.seeds):
        t = time.time()
        p = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines else None
        if p.returncode != 0 or not res or not res["correct"]:
            ok = False
            print(f"seed {seed}: FAILED (exit {p.returncode})\n{p.stderr[-3000:]}", file=sys.stderr)
            continue
        runs.append({"seed": seed, "seconds": round(time.time() - t, 1), **res})
        print(f"seed {seed}: {time.time() - t:.1f}s", flush=True)

    summary = {}
    names = sorted({k for r in runs for k in r["metrics"]})
    for k in names:
        xs = [r["metrics"][k]["value"] for r in runs if k in r["metrics"]]
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) >= 2 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else None
        summary[k] = {"unit": runs[0]["metrics"][k]["unit"], "median": med,
                      "q1": q[0], "q3": q[2], "spread": spread, "n": len(xs)}
        sp = "n/a" if spread is None else f"{spread:.4f}"
        print(f"{k:36s} median={med:<12.6g} q1={q[0]:<12.6g} q3={q[2]:<12.6g} spread={sp}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                       "runs": runs, "summary": summary}, f, indent=1)
    return 0 if ok and runs else 1


if __name__ == "__main__":
    sys.exit(main())
