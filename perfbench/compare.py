#!/usr/bin/env python3
"""Steadiness and comparison helper for the repository benchmark (stdlib only).

Collect runs (one JSON line per run) on several seeds:

    python3 perfbench/compare.py collect --workload join-dram --seeds 1-10 \\
        --out runs_a.jsonl [--seconds 10] [--trace 0]

Report each metric's median and quartiles per workload, flagging any
spread ((q3 - q1) / median, quartiles as statistics.quantiles(n=4) gives
them) above the metric's BENCHMARK.json bound:

    python3 perfbench/compare.py report runs_a.jsonl

Compare two sets, additionally flagging every metric whose second median
is worse than the first by more than its bound:

    python3 perfbench/compare.py report runs_a.jsonl runs_b.jsonl

Exits 1 when anything is flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec(path=ROOT / "BENCHMARK.json"):
    spec = json.loads(Path(path).read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values):
    """(q1, median, q3) exactly as statistics.quantiles(values, n=4)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def worse_by(base_median, new_median, better):
    """How much worse `new` is than `base`, as a share of `base` (<= 0 when
    it is as good or better)."""
    if base_median == 0:
        return 0.0 if new_median == 0 else float("inf")
    change = (new_median - base_median) / abs(base_median)
    return change if better == "lower" else -change


def group(runs):
    """{workload: {metric: [values]}} over the runs of one set."""
    out = {}
    for run in runs:
        metrics = out.setdefault(run["workload"], {})
        for name, entry in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return out


def check(base_runs, spec, new_runs=None):
    """Rows of (workload, metric, summary text, flagged) for a report."""
    rows = []
    base = group(base_runs)
    new = group(new_runs) if new_runs is not None else None
    for workload in sorted(base):
        for name in sorted(base[workload]):
            values = base[workload][name]
            meta = spec.get(name, {})
            bound = meta.get("bound")
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flagged = bound is not None and s > bound
            text = (f"n={len(values)} median={med:.6g} q1={q1:.6g} "
                    f"q3={q3:.6g} spread={s:.3f}")
            if bound is not None:
                text += f" bound={bound}"
            if new is not None and name in new.get(workload, {}):
                nvalues = new[workload][name]
                nmed = statistics.median(nvalues)
                ns = spread(nvalues)
                w = worse_by(statistics.median(values), nmed,
                             meta.get("better", "lower"))
                text += (f" | new median={nmed:.6g} spread={ns:.3f} "
                         f"worse_by={w:+.3f}")
                if bound is not None:
                    flagged = flagged or w > bound or ns > bound
            rows.append((workload, name, text, flagged))
    return rows


def read_runs(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"seed {seed}: run failed (exit {proc.returncode})")
                return 1
            result = json.loads(lines[-1])
            out.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "result": result}) + "\n")
            out.flush()
            print(f"seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in ("throughput_ops_s", "latency_p50_ms",
                         "latency_p99_ms", "setup_s", "peak_rss_mb")))
    return 0


def report(args):
    spec = load_spec()
    base = read_runs(args.base)
    new = read_runs(args.new) if args.new else None
    flags = 0
    for workload, name, text, flagged in check(base, spec, new):
        flags += flagged
        print(f"{'FLAG' if flagged else 'ok  '} {workload:15s} {name:40s} "
              f"{text}")
    print(f"{flags} flagged")
    return 1 if flags else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=float)
    c.add_argument("--trace", type=int, default=0)
    c.add_argument("--out", required=True)
    r = sub.add_parser("report")
    r.add_argument("base")
    r.add_argument("new", nargs="?")
    args = parser.parse_args()
    return collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
