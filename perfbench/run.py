#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The benchmark crate in this directory is
built from source with cargo (offline, release profile) into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset. The last line of
standard output is the result: one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Before printing it, this script checks
that the metrics are exactly those `BENCHMARK.json` lists for the mode
(`end_to_end` untraced, `per_layer` traced), with the listed units.

Exit status 0 means a result was printed; anything else means the benchmark
could not run, and no result line is printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must finish within 180 s; the build before the first run may not.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    for crate in ("net", "sim", "core", "proto", "experiments"):
        if not os.path.isfile(os.path.join(ROOT, "crates", crate, "Cargo.toml")):
            fail(f"crates/{crate} is missing: run from the root of a full checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        # Cargo's output goes to stderr so the result stays the last stdout line.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("cargo build failed")
    exe = os.path.join(target_dir, "release", "drt-perfbench")
    if not os.path.isfile(exe):
        fail(f"{exe} was not built")
    return exe


def check(result, spec, trace):
    """Returns a list of ways `result` breaks the contract."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing:
        problems.append(f"metrics missing: {missing}")
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {extra}")
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name} has unit {m.get('unit')}, BENCHMARK.json says {want[name]}")
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            problems.append(f"{name} has no numeric value")
    return problems


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=2001)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0:
        fail("--seed must not be negative")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(os.path.join(ROOT, target_dir))
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        # One file per workload, overwritten by its next traced run.
        cmd += ["--trace-out", os.path.join(out_dir, f"trace-{a.workload}.jsonl")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"drt-perfbench exited with status {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not JSON")
    problems = check(result, spec, a.trace)
    for line in lines[:-1]:
        print(line)
    if problems:
        fail("; ".join(problems))
    sys.stdout.flush()
    print(lines[-1])


if __name__ == "__main__":
    main()
