#!/usr/bin/env python3
"""Diff a fresh BENCH_smoke.json against a baseline artifact; fail on regression.

Usage:
    compare_bench.py --baseline bench/baselines/BENCH_smoke_baseline.json \
                     --candidate BENCH_smoke.json [--threshold 0.15]

Rows are matched by their identifying columns (label, index, workload, plus
whatever configuration axes both documents carry: dataset, disk, threads,
shards, durability, buffer_blocks, checkpoint_every, merge mode/threshold).
For every baseline row the candidate must contain the same key, and:

  - on a row that ran one thread with no server (``threads`` absent or 1, no
    ``clients`` column), counted reads and writes (``reads_per_op``,
    ``writes_per_op``) must equal the baseline exactly,
  - on any other row they must not grow by more than the threshold (plus a
    small absolute epsilon, so near-zero baselines do not trip on rounding),
  - modeled throughput (``tput_ops_s``) must not drop by more than the
    threshold.

One thread on a simulated device with fixed seeds counts the same blocks on
every run, to the printed digit. Several threads interleave their buffer
traffic differently from run to run, which moves the counts slightly.
Modeled throughput folds in measured CPU, which the disk model's I/O
latency dominates -- the default 15% margin absorbs runner-to-runner CPU
variance without masking a real regression. A baseline key missing from the
candidate fails too (silent coverage loss is a regression); candidate-only
keys are reported but do not fail, so adding rows never requires touching
this script.

The measured wall-clock columns (``wall_us``, ``wall_p50_us``,
``wall_p999_us``) and the ``device`` tag are deliberately NOT gated: on a
real device they reflect the CI runner's disk and page cache, which vary
run to run far beyond any useful threshold. Only the counted I/O and the
modeled throughput participate in the regression gate.

Exit status: 0 clean, 1 on any regression or malformed input. Regenerate the
baseline by running the perf-smoke commands from .github/workflows/ci.yml and
copying the resulting BENCH_smoke.json over the baseline file.
"""

import argparse
import json
import sys

KEY_COLUMNS = ("label", "index", "workload", "dataset", "disk", "device", "threads",
               "shards", "durability", "buffer_blocks", "checkpoint_every",
               "merge_mode", "merge_threshold", "clients", "batch")
COUNTED_COLUMNS = ("reads_per_op", "writes_per_op")
COUNTED_EPSILON = 0.05  # blocks/op; absolute slack for near-zero baselines


def fail(message: str) -> None:
    print(f"compare_bench: {message}", file=sys.stderr)
    sys.exit(1)


def load_rows(path: str) -> dict:
    try:
        with open(path) as f:
            document = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    rows = document.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path} has no rows")
    keyed = {}
    for row in rows:
        key = tuple((c, str(row[c])) for c in KEY_COLUMNS if c in row)
        if key in keyed:
            fail(f"{path}: duplicate row key {dict(key)}")
        for metric in COUNTED_COLUMNS + ("tput_ops_s",):
            if not isinstance(row.get(metric), (int, float)):
                fail(f"{path}: row {dict(key)} lacks numeric {metric}")
        keyed[key] = row
    return keyed


def counts_exactly(row: dict) -> bool:
    """True for a row that ran one thread with no server."""
    return str(row.get("threads", "1")) == "1" and "clients" not in row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--candidate", required=True)
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative regression budget (default 0.15 = 15%%)")
    args = parser.parse_args()

    baseline = load_rows(args.baseline)
    candidate = load_rows(args.candidate)

    failures = []
    compared = exact_rows = 0
    for key, base in baseline.items():
        new = candidate.get(key)
        name = ", ".join(f"{c}={v}" for c, v in key)
        if new is None:
            failures.append(f"missing from candidate: {name}")
            continue
        compared += 1
        exact = counts_exactly(base)
        exact_rows += exact
        for metric in COUNTED_COLUMNS:
            if exact:
                if new[metric] != base[metric]:
                    failures.append(
                        f"counted I/O changed on a one-thread row: {name}: {metric} "
                        f"{new[metric]} vs baseline {base[metric]} (must be equal)")
                continue
            limit = base[metric] * (1 + args.threshold) + COUNTED_EPSILON
            if new[metric] > limit:
                failures.append(
                    f"counted I/O regressed: {name}: {metric} {new[metric]:.3f} "
                    f"vs baseline {base[metric]:.3f} (limit {limit:.3f})")
        tput_floor = base["tput_ops_s"] * (1 - args.threshold)
        if new["tput_ops_s"] < tput_floor:
            failures.append(
                f"modeled throughput regressed: {name}: {new['tput_ops_s']:.1f} ops/s "
                f"vs baseline {base['tput_ops_s']:.1f} (floor {tput_floor:.1f})")

    extra = [k for k in candidate if k not in baseline]
    for key in extra:
        print("compare_bench: note: candidate-only row (not compared): "
              + ", ".join(f"{c}={v}" for c, v in key))

    if failures:
        for failure in failures:
            print(f"compare_bench: FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
    print(f"compare_bench: OK: {compared} row(s) within {args.threshold:.0%} of baseline,"
          f" {exact_rows} with identical counted I/O ({len(extra)} candidate-only row(s))")


if __name__ == "__main__":
    main()
