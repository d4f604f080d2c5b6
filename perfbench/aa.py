#!/usr/bin/env python3
"""A/A check of the repository benchmark.

Runs every workload of BENCHMARK.json (or those named) on N seeds, in two
sets, with tracing off. For each end-to-end metric it prints the spread of
each set -- the distance between the first and third quartile as a share
of the median -- and how far the second set's median moved from the
first's, both against the metric's bound.

It applies the benchmark's acceptance rule: every spread but that of
`setup_s` must stay within its bound, and every median shift, that of
`setup_s` too. `setup_s` is a sub-second start-up whose spread is shown
(marked "exempt" when over the bound) but not held to it; its median
shift is. A spread above a third of its bound is marked "unsteady":
within the bound, but with little margin.

    python3 perfbench/aa.py [--runs N] [--sets K] [--seed0 S] [workload ...]

Run it from the repository root. It exits 1 when a spread or a median
shift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: an output check failed")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in values.items()),
          file=sys.stderr, flush=True)
    return values


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs")
    ap.add_argument("--seed0", type=int, default=1, help="first seed")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for wl in workloads:
        sets = []
        for k in range(args.sets):
            seeds = range(args.seed0 + k * args.runs, args.seed0 + (k + 1) * args.runs)
            runs = [run_once(bench["command"], wl, s, bench["run_seconds"]) for s in seeds]
            sets.append({m["name"]: [r[m["name"]] for r in runs] for m in bench["end_to_end"]})
        print(f"{wl}: {args.sets} sets of {args.runs} seeds")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = [statistics.median(s[name]) for s in sets]
            spreads = [spread(s[name]) for s in sets]
            worse = [(b - a) / a if m["better"] == "lower" else (a - b) / a
                     for a, b in zip(medians, medians[1:])]
            flag, note = "", ""
            if max(spreads) > bound:
                if name == "setup_s":
                    note = " spread>bound (exempt)"
                else:
                    flag += " SPREAD>BOUND"
            elif max(spreads) > bound / 3:
                note = " unsteady"
            if any(w > bound for w in worse):
                flag += " SHIFT>BOUND"
            ok &= not flag
            print(f"  {name:<16} bound {bound:<5} median {medians[0]:<12.5g} "
                  f"spreads {' '.join(f'{s:.3f}' for s in spreads)} "
                  f"worse {' '.join(f'{w:+.3f}' for w in worse)}{flag}{note}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
