"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads checks topology --seeds 10 --sets 2

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints for each metric its median and its spread: the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.  For
``setup_s`` it also gives the spread of the measured child's own set-up
alone, without the set-up-only probes.  With ``--sets 2`` or more, every
set repeats the same seeds, and each later set's median is compared with
the first: the shift is the share by which it is worse (negative: better).
Each set's total of jobs attempted and failed is printed per workload; sets
of the same seeds must agree on both.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the measured child's set-up alone, without the probes
SINGLE_SETUP = "setup_s(child only)"


def run_once(workload: str, seed: int,
             seconds: int) -> tuple[dict[str, float], int, int]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        raise SystemExit(proc.returncode or 1)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    samples = next(line for line in lines if "setup_s samples" in line)
    values[SINGLE_SETUP] = float(samples.split()[-1])
    return values, result["attempted"], result["failed"]


def spread(vals: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    bounds = {name: m["bound"] for name, m in metrics.items()}
    bounds[SINGLE_SETUP] = bounds["setup_s"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    worst_spread = worst_shift = 0.0
    medians: dict[tuple, list[float]] = {}
    counts: dict[str, set] = {}
    for s in range(args.sets):
        for workload in args.workloads:
            values: dict[str, list[float]] = {name: [] for name in bounds}
            attempted = failed = 0
            for seed in seeds:
                run, a, f = run_once(workload, seed, spec["run_seconds"])
                for name, v in run.items():
                    values[name].append(v)
                attempted, failed = attempted + a, failed + f
                print(f"set {s} {workload} seed={seed} " + " ".join(
                    f"{k}={v[-1]:.6g}" for k, v in values.items())
                    + f" failed={f}/{a}", flush=True)
            counts.setdefault(workload, set()).add((attempted, failed))
            print(f"set {s} {workload:<10} failed {failed} of {attempted}",
                  flush=True)
            for name, vals in values.items():
                sp = spread(vals) / bounds[name]
                med = statistics.median(vals)
                line = (f"set {s} {workload:<10} {name:<20} median {med:12.6g}"
                        f"  spread/bound {sp:.2f}")
                if name in metrics:
                    worst_spread = max(worst_spread, sp)
                    medians.setdefault((workload, name), []).append(med)
                    first = medians[(workload, name)][0]
                    sign = 1 if metrics[name]["better"] == "lower" else -1
                    shift = sign * (med - first) / first
                    worst_shift = max(worst_shift, shift / bounds[name])
                    line += f"  shift vs set 0 {shift:+.3f}"
                print(line, flush=True)
    print(f"largest spread/bound: {worst_spread:.2f}; "
          f"largest worsening shift/bound: {worst_shift:.2f}")
    disagree = [w for w, c in counts.items() if len(c) > 1]
    print("sets disagree on jobs attempted or failed: " +
          (", ".join(disagree) if disagree else "none"))
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
