#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload reproduce|long_trace|serve_mix \
        --seed N --seconds S --trace 0|1

prints the benchmark's stamp line and, last, its JSON result line.

    python3 perfbench/run.py --steadiness [--runs 10] [--workloads a,b]

runs every workload --runs times on the development seeds 1..runs and
again on the held-out seeds 1001..1000+runs, and prints each end-to-end
metric's median, quartiles and quartile spread per seed set, normalised
and as measured.

    python3 perfbench/run.py --check-full

renders the full-length reproduction and compares it with results_full.txt.

Run from the root of the repository. Builds go to $CARGO_TARGET_DIR
(default .bench_build); stores and span files go under
<target>/perfbench-scratch.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["reproduce", "long_trace", "serve_mix"]
# A run must end within 180 s; the benchmark itself stays far below.
RUN_TIMEOUT_S = 175
HELD_OUT_BASE = 1000


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Builds the benchmark and the release `serve` binary; False on failure."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print("perfbench: no repository to build here", file=sys.stderr)
        return False
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    commands = [
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(ROOT / "perfbench" / "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-p", "bpred-serve", "--bin", "serve"],
    ]
    for command in commands:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
            return False
    return True


def bench_command(workload, seed, seconds, trace):
    release = target_dir() / "release"
    return [
        str(release / "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--scratch", str(target_dir() / "perfbench-scratch"),
        "--serve-bin", str(release / "serve"),
    ]


def run_once(workload, seed, seconds, trace, capture):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    # A session of its own, so a timeout also takes down the `serve`
    # process the benchmark started.
    child = subprocess.Popen(
        bench_command(workload, seed, seconds, trace),
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else None,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return child.returncode, stdout


def result_of(stdout):
    """The result line and the stamp line of one run's output."""
    lines = [line for line in (stdout or "").splitlines() if line.strip()]
    if not lines:
        return None, None
    stamps = [line for line in lines if line.startswith("stamp ")]
    stamp = json.loads(stamps[-1][len("stamp "):]) if stamps else {}
    return json.loads(lines[-1]), stamp


def spread_table(workload, label, runs):
    """Median, quartiles and quartile spread of every end-to-end metric,
    of its value as measured before host-speed normalisation, and of the
    tail latencies the stamp carries."""
    columns = {name: [r["metrics"][name]["value"] for r, _ in runs] for name in runs[0][0]["metrics"]}
    for name in runs[0][0]["metrics"]:
        columns[f"{name} (measured)"] = [stamp["measured"][name] for _, stamp in runs]
    columns["host factor (stamp)"] = [stamp["host"]["factor"] for _, stamp in runs]
    for kind in ("cold_latency", "warm_latency"):
        if all(kind in stamp for _, stamp in runs):
            columns[f"{kind}.tail (stamp)"] = [stamp[kind]["tail"] for _, stamp in runs]
    print(f"{workload} ({label}, {len(runs)} runs)")
    print(f"  {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/median':>11}")
    for name, values in columns.items():
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        print(f"  {name:<26} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>11.4f}")


def steadiness(runs, workloads, seconds):
    for workload in workloads:
        for label, base in (("development seeds", 0), ("held-out seeds", HELD_OUT_BASE)):
            results = []
            for seed in range(base + 1, base + runs + 1):
                code, out = run_once(workload, seed, seconds, 0, capture=True)
                result, stamp = result_of(out)
                if code != 0 or not result or not result["correct"]:
                    print(f"perfbench: {workload} seed {seed} failed", file=sys.stderr)
                    return 1
                results.append((result, stamp))
            spread_table(workload, label, results)
            sys.stdout.flush()
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--check-full", action="store_true")
    args = parser.parse_args()
    if not build():
        return 1
    if args.check_full:
        release = target_dir() / "release"
        return subprocess.run(
            [str(release / "perfbench"), "--pin", str(ROOT / "results_full.txt")], cwd=ROOT
        ).returncode
    if args.steadiness:
        return steadiness(args.runs, args.workloads.split(","), args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
