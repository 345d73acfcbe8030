#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Usage, from the root of the repository:

    python3 perfbench/steady.py --seeds 1-10

Runs `perfbench/run.py --trace 0 --seconds <run_seconds>` once per (seed,
workload of BENCHMARK.json), cycling through the workloads for each seed,
and prints, for every workload and end-to-end metric, the median, the
first and third quartiles (`statistics.quantiles(values, n=4)`), the
spread (third minus first quartile, as a share of the median), that
spread as a share of the metric's bound in BENCHMARK.json, and for the
host-scaled times the median and spread of the same times as measured
(the `# raw:` line of run.py).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(v):
    """First quartile, median, third quartile and spread of `v`."""
    q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    values = {w: {} for w in workloads}
    raw = {w: {} for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, check=False)
            if done.returncode != 0:
                sys.exit(f"{w} seed {seed} failed with {done.returncode}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed} reported incorrect output")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            for line in lines:
                if line.startswith("# raw: "):
                    for name, value in json.loads(line[len("# raw: "):]).items():
                        raw[w].setdefault(name, []).append(value)
            print(f"# {w} seed {seed} done", file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("| workload | metric | median | q1 | q3 | spread | spread / bound | raw median | raw spread |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for m in spec["end_to_end"]:
            q1, med, q3, spread = quartiles(values[w][m["name"]])
            unscaled = "| – | – |"
            if m["name"] in raw[w]:
                _, raw_med, _, raw_spread = quartiles(raw[w][m["name"]])
                unscaled = f"| {raw_med:.6g} | {raw_spread:.3f} |"
            print(f"| {w} | {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.3f} | {spread / bounds[m['name']]:.2f} {unscaled}")


if __name__ == "__main__":
    main()
