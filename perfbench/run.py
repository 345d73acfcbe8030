#!/usr/bin/env python3
"""Runs one workload of the Slider wall-clock benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, which builds the
repository's crates from source), runs it, and prints one JSON object as
the last line of standard output: `correct`, `attempted`, `failed` and
`metrics` (name -> {value, unit}).

--trace 0 runs the benchmark binary untraced and reports every end-to-end
metric of BENCHMARK.json, at the reference host speed; a `# raw` line
before the result gives the same times as measured. --trace 1 reports
every per-layer metric, each pass in a fresh process: an untraced pass for
the untraced wall time and the raw times, a traced pass (the program's
deterministic trace and the benchmark's spans on, spans written under
.perfbench_out/), an allocation-counting pass (perfbench-alloc, untraced),
and for serve_tenants two untraced twins, one without cluster simulation
and one without the dcache, whose wall times give those layers' shares.
Each pass performs a quarter of the operations of --seconds; wall times
are compared per record and at the reference host speed.

Exits non-zero without printing a result when the build or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the binaries; returns the directory holding them."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    cmd = ["cargo", "build", "--release", "--offline", "--bins", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release")


def run_binary(path, args):
    """Runs one benchmark binary; returns its parsed result line."""
    done = subprocess.run([path] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{os.path.basename(path)} {' '.join(args)} exited with {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def time_per_record(result):
    """A run's measured wall time per record at the reference host speed."""
    return result["wall_s"] * result["host_factor"] / result["records"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    bindir = build()
    plain = os.path.join(bindir, "perfbench")
    # The deterministic trace keeps every span in memory (about 600 MB for
    # ten seconds of serve_tenants), and a traced run takes up to five
    # passes, so --trace 1 runs a quarter of the operations. Every
    # per-layer metric is a rate or a percentile, and walls are compared
    # per record.
    seconds = args.seconds if args.trace == 0 else max(1, args.seconds // 4)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds)]
    runs = [run_binary(plain, common)]
    if args.trace == 0:
        metrics = runs[0]["metrics"]
        print("# raw: " + json.dumps(runs[0]["raw"]))
        wanted = spec["end_to_end"]
    else:
        base = time_per_record(runs[0])
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        traced = run_binary(plain, common + ["--trace", "1", "--spans", spans])
        counting = run_binary(os.path.join(bindir, "perfbench-alloc"), common)
        runs += [traced, counting]
        metrics = dict(traced["metrics"])
        metrics.update(counting["metrics"])
        metrics["trace.overhead_ratio"] = time_per_record(traced) / base
        for name, value in runs[0]["raw"].items():
            metrics[f"raw.{name}"] = value
        metrics["host.speed_factor"] = runs[0]["host_factor"]
        for twin, name in (("nosim", "cluster.wall_share"), ("nocache", "dcache.wall_share")):
            if args.workload == "serve_tenants":
                without = run_binary(plain, common + ["--twin", twin])
                runs.append(without)
                metrics[name] = 1.0 - time_per_record(without) / base
            else:
                metrics[name] = 0.0
        wanted = spec["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not reported: {', '.join(missing)}")
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
