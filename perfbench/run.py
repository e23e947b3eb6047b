#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` package (perfbench/Cargo.toml) in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root),
then runs it from the repository root. The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; its metric
names are checked against BENCHMARK.json. `--workload all` runs every
workload in its own process (so each has its own peak memory) and ends
with one combined JSON line. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dc-large", "dc-modified", "ramext", "ctl-rpc"]


def run_timeout_s(seconds):
    """How long one workload may take: it measures for `seconds` (twice
    that for ctl-rpc, whose output checks are untimed), plus set-up."""
    return 3 * seconds + 120


def one_cpu():
    """Pins the calling process to one CPU (the last it may use). The
    benchmark runs pinned: the ctl-rpc client and daemon threads then
    share one CPU, so neither waits on a busy host to schedule the other's
    virtual CPU, which otherwise stalls the pipeline for milliseconds."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's output goes to stderr: stdout ends with the result line.
    if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target, os.path.join(target, "release", "perfbench")


def expected_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, target, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(target, "perfbench-spans", f"{workload}-{seed}.jsonl")]
    timeout = run_timeout_s(seconds)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
                              preexec_fn=one_cpu)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout:g} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"{workload} printed no result line")
    missing = expected_metrics(trace) ^ set(result["metrics"])
    if missing:
        fail(f"{workload} metrics differ from BENCHMARK.json: {sorted(missing)}")
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "crates", "simulator", "Cargo.toml")):
        fail("the repository's crates are missing; run from a full checkout")

    target, binary = build()
    if args.workload != "all":
        lines, _ = run_one(binary, target, args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        lines, result = run_one(binary, target, w, args.seed, args.seconds, args.trace)
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
