#!/usr/bin/env python3
"""Interleaved repetition driver for the repository benchmark.

    python3 perfbench/rounds.py --rounds 10 [--seconds 10]

Runs every workload of BENCHMARK.json once per round, round-robin, untraced,
so drift in host speed lands on all workloads alike instead of on whichever
ran last. Round r uses seed r + 1. Prints, per workload and metric, the
median, the first and third quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, and the metric's bound from BENCHMARK.json, and
exits non-zero if any run failed or was incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()

    values = {w: {} for w in WORKLOADS}
    units = {}
    failures = 0
    for r in range(args.rounds):
        for w in WORKLOADS:
            seed = r + 1
            result = run_once(w, seed, args.seconds)
            if result is None:
                failures += 1
                print(f"round {r} {w} seed {seed}: FAILED", file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"round {r} {w} seed {seed}: ok", file=sys.stderr)

    print(f"{'workload':<15} {'metric':<20} {'n':>2} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6} unit")
    for w in WORKLOADS:
        for name, vs in values[w].items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{w:<15} {name:<20} {len(vs):>2} {med:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {spread:>8.3f} {BOUNDS[name]:>6} {units[name]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
