#!/usr/bin/env python3
"""Compares the working tree with a parent revision on the wall-clock benchmark.

Usage, from the root of the repository:

    python3 tools/ab.py --parent <rev> [--pairs 10] [--first-seed 1]
                        [--claim <workload>:<metric> ...]

Exports `<rev>` with `git archive` into `<workdir>/parent-<commit>` and
builds each side's benchmark from its own tree into its own target
directory: `<workdir>/parent-<commit>-target` for the parent and
`<workdir>/change-target` for the working tree (`<workdir>` defaults to
`.ab/`). Each parent commit gets a tree and a target directory of its
own, because an exported tree's files carry the commit's time, so cargo
would take the binaries of an earlier parent for fresh. Each pair then runs `perfbench/run.py --trace 0` on
both sides with one seed (`--first-seed`, then one more per pair) for
BENCHMARK.json's `run_seconds`; the side that runs first alternates from
pair to pair. Every workload of BENCHMARK.json runs in every pair.

For each workload and end-to-end metric it prints each side's median and
quartiles (`statistics.quantiles(values, n=4)`, as perfbench/steady.py
does), the pairs the change won (a tie counts for neither side), the
change of the medians, and a verdict against the metric's bound in
BENCHMARK.json: `worse` when the change's median is worse than the
parent's by more than the bound, `unresolved` when the parent's own
spread (its interquartile range over its median) is wider than the bound
and not every run of the change beats every run of the parent, `within`
otherwise. For each `--claim` it prints whether the claim is met: at
least 10 pairs ran, the change won at least nine tenths of them, moved
the median, in the better direction, by more than the parent's
interquartile range, and failed no larger share of the workload's
operations than the parent did. Every run's result is kept in
`<workdir>/results.json`.

It changes no workload and no bound: both sides run their own unchanged
copy of perfbench/run.py. It warns when perfbench/ or BENCHMARK.json
differ between the two sides, since the pairs then compare two
benchmarks as well as two programs.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# The fewest pairs a claim may rest on.
MIN_CLAIM_PAIRS = 10


def fail(message):
    print(f"ab.py: {message}", file=sys.stderr)
    sys.exit(1)


def export_parent(commit, tree):
    """Writes the files of `commit` into `tree`, unless an earlier run did."""
    if os.path.exists(tree):
        return
    partial = tree + ".partial"
    if os.path.exists(partial):
        shutil.rmtree(partial)
    os.makedirs(partial)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", partial], stdin=archive.stdout, check=False)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail(f"cannot export commit {commit}")
    os.rename(partial, tree)


def build(tree, target):
    """Builds the benchmark binaries of `tree` into `target`."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--bins",
           "--manifest-path", os.path.join(tree, "perfbench", "Cargo.toml")]
    if subprocess.run(cmd, cwd=tree, env=env, check=False).returncode != 0:
        fail(f"build of {tree} failed")


def run(tree, target, workload, seed, seconds):
    """One `run.py --trace 0` of `tree`; returns its metrics by name and
    its attempted and failed operations."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{tree}: {workload} seed {seed} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"ab.py: {tree}: {workload} seed {seed}: incorrect output or failed "
              f"operations ({result['failed']} of {result['attempted']})", file=sys.stderr)
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"]}


def quartiles(v):
    """First quartile, median and third quartile of `v`."""
    return tuple(statistics.quantiles(v, n=4)) if len(v) > 1 else (v[0], v[0], v[0])


def better(metric, a, b):
    """Whether value `a` of `metric` is better than `b`."""
    return a < b if metric["better"] == "lower" else a > b


def verdict(metric, parent, change):
    """`worse`, `unresolved` or `within`, against the metric's bound."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    slack = metric["bound"] * abs(p_med)
    limit = p_med + slack if metric["better"] == "lower" else p_med - slack
    if better(metric, limit, c_med):
        return "worse"
    spread = (q3 - q1) / abs(p_med) if p_med else 0.0
    if spread > metric["bound"] and not all(better(metric, c, p) for c in change for p in parent):
        return "unresolved"
    return "within"


def claim_met(metric, parent, change, failed):
    """The claim rule: at least 10 pairs, at least nine tenths of them won,
    the medians apart, in the better direction, by more than the parent's
    interquartile range, and no larger share of failed operations than the
    parent's (`failed`, per side). Returns (met, pairs won, gain, parent
    IQR)."""
    won = sum(better(metric, c, p) for p, c in zip(parent, change))
    q1, _, q3 = quartiles(parent)
    gain = statistics.median(change) - statistics.median(parent)
    if metric["better"] == "lower":
        gain = -gain
    met = (len(parent) >= MIN_CLAIM_PAIRS and won >= math.ceil(0.9 * len(parent))
           and gain > q3 - q1 and failed["change"] <= failed["parent"])
    return met, won, gain, q3 - q1


def parse_claim(text):
    workload, sep, metric = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected <workload>:<metric>, got {text}")
    return workload, metric


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--claim", action="append", type=parse_claim, default=[])
    parser.add_argument("--workdir", default=os.path.join(ROOT, ".ab"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for w, m in args.claim:
        if w not in workloads or m not in metrics:
            fail(f"claim {w}:{m} names no BENCHMARK.json workload and end-to-end metric")
    if args.pairs < 1:
        fail("--pairs must be positive")

    resolved = subprocess.run(["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"],
                              cwd=ROOT, capture_output=True, text=True, check=False)
    if resolved.returncode != 0:
        fail(f"unknown revision {args.parent}")
    commit = resolved.stdout.strip()
    workdir = os.path.abspath(args.workdir)
    parent_tree = os.path.join(workdir, f"parent-{commit[:12]}")
    trees = {"parent": parent_tree, "change": ROOT}
    targets = {"parent": parent_tree + "-target", "change": os.path.join(workdir, "change-target")}
    export_parent(commit, parent_tree)
    changed = subprocess.run(["git", "diff", "--quiet", args.parent, "--", "perfbench",
                              "BENCHMARK.json"], cwd=ROOT, check=False).returncode
    if changed:
        print("ab.py: warning: perfbench/ or BENCHMARK.json differ from the parent's",
              file=sys.stderr)
    for side in SIDES:
        build(trees[side], targets[side])

    seconds = spec["run_seconds"]
    results = {w: {side: [] for side in SIDES} for w in workloads}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                print(f"# pair {i + 1}/{args.pairs}, {w}, seed {seed}: {side}", file=sys.stderr)
                results[w][side].append(run(trees[side], targets[side], w, seed, seconds))
    with open(os.path.join(workdir, "results.json"), "w") as f:
        json.dump({"parent": commit, "first_seed": args.first_seed,
                   "seconds": seconds, "results": results}, f, indent=1)

    print(f"# {args.pairs} pairs, seeds {args.first_seed}-{args.first_seed + args.pairs - 1}, "
          f"{seconds} s runs, parent {args.parent} ({commit[:12]})")
    print("| workload | metric | parent median (q1–q3) | change median (q1–q3) | change "
          "| pairs won | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for name, metric in metrics.items():
            parent = [r["metrics"][name] for r in results[w]["parent"]]
            change = [r["metrics"][name] for r in results[w]["change"]]
            (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
            won = sum(better(metric, c, p) for p, c in zip(parent, change))
            delta = f"{(cmed - pmed) / pmed:+.1%}" if pmed else "–"
            print(f"| {w} | {name} | {pmed:.6g} ({pq1:.6g}–{pq3:.6g}) | "
                  f"{cmed:.6g} ({cq1:.6g}–{cq3:.6g}) | {delta} | {won}/{len(parent)} | "
                  f"{metric['bound']:g} | {verdict(metric, parent, change)} |")
    for w, name in args.claim:
        parent = [r["metrics"][name] for r in results[w]["parent"]]
        change = [r["metrics"][name] for r in results[w]["change"]]
        failed = {side: sum(r["failed"] for r in results[w][side])
                  / max(1, sum(r["attempted"] for r in results[w][side])) for side in SIDES}
        met, won, gain, iqr = claim_met(metrics[name], parent, change, failed)
        print(f"# claim {w} {name}: {'met' if met else 'NOT met'} "
              f"({won}/{len(parent)} pairs won, median gain {gain:.6g}, parent IQR {iqr:.6g}, "
              f"failed share {failed['parent']:.6g} -> {failed['change']:.6g})")


if __name__ == "__main__":
    main()
