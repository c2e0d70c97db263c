#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly and report its spread.

    python3 perfbench/steady.py --workload packet [--runs 10] [--sets 1]

Each run lasts BENCHMARK.json's run_seconds and uses another seed, from 1
up. For every end-to-end metric in BENCHMARK.json it prints the median, the
first and third quartile (statistics.quantiles, n=4), and the spread
(q3 - q1) / median against the metric's bound. With --sets 2 it makes a
second set of runs on fresh seeds and prints how far the second median
moved from the first, in the metric's worse direction. Run it from the
repository root; it exits 1 when any run fails, reports an incorrect
output or a failed unit, or a spread or median shift exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        sys.exit(f"run failed (seed {seed}, exit {p.returncode}):\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    ok = True
    medians = []
    for s in range(args.sets):
        results = []
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            r = run_once(args.workload, seed, seconds)
            if not r["correct"] or r["failed"] != 0:
                print(f"seed {seed}: correct={r['correct']}, {r['failed']} of {r['attempted']} units failed")
                ok = False
            results.append(r)
            print(f"set {s + 1} seed {seed}: " + " ".join(
                f"{m['name']}={r['metrics'][m['name']]['value']:.6g}"
                for m in metrics if m["name"] in r["metrics"]), flush=True)
        med = {}
        print(f"\nset {s + 1}: {args.workload}, {args.runs} runs of {seconds} s")
        print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            if m["name"] not in results[0]["metrics"]:
                continue
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            md, q1, q3, spread = summarize(vals)
            med[m["name"]] = md
            flag = ""
            if spread > m["bound"]:
                flag, ok = "  OVER BOUND", False
            elif spread > m["bound"] / 3:
                flag = "  above bound/3"
            print(f"{m['name']:28} {md:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6.3f}{flag}")
        medians.append(med)
    if len(medians) == 2:
        print("\nsecond median vs first (positive = worse)")
        for m in metrics:
            if m["name"] not in medians[0]:
                continue
            a, b = medians[0][m["name"]], medians[1][m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = ""
            if worse > m["bound"]:
                flag, ok = "  OVER BOUND", False
            print(f"{m['name']:28} {worse:+8.4f} (bound {m['bound']:.3f}){flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
