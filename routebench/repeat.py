#!/usr/bin/env python3
"""Repeat mode: run workloads several times and print each end-to-end
metric's median, quartiles and spread next to its bound.

Run from the repository root:

    python3 routebench/repeat.py --workloads paper,dense --runs 10 --sets 2

Each run is one invocation of the command in BENCHMARK.json, with its own
seed. Runs of different workloads and sets alternate, so that slow drift of
the host lands on every workload and set alike. The spread of a metric is
(q3 - q1) / median over a set's runs, with the quartiles of
`statistics.quantiles(values, n=4)`; it is shown next to the metric's
bound, marked `ok` when below a third of it. With two or more sets, the
change of the median from the first set to each later one is shown as a
share of the first, signed so that positive is worse.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", help="comma-separated; default: all")
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    bench = json.load(open(args.bench))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    # results[set][workload] = list of (result, wall)
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    seed = args.seed0
    for i in range(args.runs):
        for s in range(args.sets):
            order = workloads if (i + s) % 2 == 0 else workloads[::-1]
            for w in order:
                res, wall = run_once(bench["command"], w, seed, seconds)
                seed += 1
                results[s][w].append((res, wall))
                print(f"set {s} run {i} {w}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"wall={wall:.1f}s", file=sys.stderr)

    for w in workloads:
        print(f"== {w}")
        for s in range(args.sets):
            runs = results[s][w]
            shares = {r["failed"] / r["attempted"] for r, _ in runs}
            walls = [wall for _, wall in runs]
            print(f"  set {s}: {len(runs)} runs, correct={all(r['correct'] for r, _ in runs)}, "
                  f"failed shares={sorted(shares)}, wall max {max(walls):.1f}s")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells = []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r, _ in results[s][w]]
                med, q1, q3, sp = spread(vals)
                mark = " ok" if sp < bound / 3 else " WIDE"
                cells.append(f"med {med:.6g} [{q1:.6g}, {q3:.6g}] spread {sp:.4f}{mark}")
            line = f"  {name:<28} bound {bound!s:<6} " + " | ".join(cells)
            if args.sets > 1:
                first = statistics.median(
                    r["metrics"][name]["value"] for r, _ in results[0][w])
                sign = 1 if m["better"] == "lower" else -1
                for s in range(1, args.sets):
                    later = statistics.median(
                        r["metrics"][name]["value"] for r, _ in results[s][w])
                    worse = sign * (later - first) / first if first else 0.0
                    line += f" | set {s} worse by {worse:+.4f}" + (
                        " OVER" if worse > bound else "")
            print(line)


if __name__ == "__main__":
    main()
