#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload join-dram --seed 1 --seconds 10 --trace 0

Builds the benchmark binary from source (perfbench/CMakeLists.txt, which
compiles ../src) into $CARGO_TARGET_DIR/perfbench (default .bench_build),
checks the benchmark's own arithmetic (--selftest), then runs the workload,
one of the names in BENCHMARK.json; its parameters are constants in its
source file.

Everything the binary prints is echoed; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"} holding exactly the
BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1).  A per-layer metric the workload does not exercise is reported
as 0 and named on a "not exercised" line.  With --trace 1 the span trace
is written to $CARGO_TARGET_DIR/perfbench/traces/.

Exits nonzero, without a result line, when the sources or the build are
missing, and with correct=false when any output diverged from its oracle.
"""
import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "perfbench"


def build(out_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
        for cmd in steps:
            result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S)
            if result.returncode != 0:
                fail("build failed: " + " ".join(cmd))
    binary = out_dir / "amac_perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def select_metrics(found, wanted, trace, workload):
    """Keep exactly the metrics BENCHMARK.json names for this mode."""
    selected = {}
    missing = []
    for spec in wanted:
        name = spec["name"]
        if name in found:
            value = found[name]["value"]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                missing.append(name)
                continue
            selected[name] = {"value": value, "unit": spec["unit"]}
        elif trace:
            print(f"metric {name} not exercised by {workload}: reported as 0")
            selected[name] = {"value": 0.0, "unit": spec["unit"]}
        else:
            missing.append(name)
    return selected, missing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not any((ROOT / "src").rglob("*.cpp")):
        fail(f"no library sources under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    out_dir = build_dir()
    binary = build(out_dir)
    selftest = subprocess.run([str(binary), "--selftest"], stdout=sys.stderr,
                              stderr=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        fail("benchmark selftest failed")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"{args.workload} ended without a result (exit {proc.returncode})")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, missing = select_metrics(result["metrics"], wanted, args.trace,
                                      args.workload)
    correct = bool(result["correct"]) and proc.returncode == 0 and not missing
    if missing:
        print("ERROR: no valid value for " + ", ".join(missing))
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
