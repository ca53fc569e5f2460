#!/usr/bin/env python3
"""Convert liod bench/CLI CSV output into a machine-readable BENCH json.

Usage:
    bench_to_json.py LABEL=FILE.csv [LABEL=FILE.csv ...] [-o BENCH_smoke.json]

Each input is one CSV emitted by ``liod_cli run --csv`` or ``bench/recovery_sweep``
(both carry a ``tput_ops_s`` column; the other ``bench/*`` sweep binaries
emit per-disk throughput columns instead and are not accepted). Every data
row becomes one JSON record tagged with its label; the required columns
(``tput_ops_s``, ``reads_per_op``, ``writes_per_op``) plus the identifying
``index``/``workload``/``ops`` columns must be present and numeric where
numeric is expected. The durability columns (``wal_writes``, ``replay_ms``)
and tail-latency columns (``p50_us``, ``p999_us``) are optional but validated
just as strictly when present: non-numeric or negative values fail the
conversion. The same holds for the measured wall-clock columns
(``wall_us``, ``wall_p50_us``, ``wall_p999_us``) emitted beside the modeled
ones when liod_cli runs on a real device; the ``device`` column is a plain
string tag and passes through untouched. Any malformed input -- missing file,
empty file, missing required column, non-numeric metric, truncated row --
exits non-zero with a diagnostic, so CI fails instead of uploading garbage.

The output seeds the repo's bench trajectory: one JSON artifact per CI run,
keyed by stable labels, diffable across commits.
"""

import argparse
import csv
import json
import os
import sys

REQUIRED_COLUMNS = ("index", "workload", "ops", "tput_ops_s", "reads_per_op",
                    "writes_per_op")
NUMERIC_COLUMNS = ("ops", "tput_ops_s", "reads_per_op", "writes_per_op")
# Durability columns (liod_cli --durability, bench/recovery_sweep) and tail
# latency columns (liod_cli p50_us/p999_us): optional, but when a CSV
# declares them they must parse and be non-negative.
OPTIONAL_NUMERIC_COLUMNS = ("wal_writes", "replay_ms", "replayed_records",
                            "p50_us", "p999_us", "wall_us", "wall_p50_us",
                            "wall_p999_us")
SCHEMA = "liod-bench-smoke/1"


def fail(message: str) -> None:
    print(f"bench_to_json: {message}", file=sys.stderr)
    sys.exit(1)


def parse_csv(label: str, path: str) -> list:
    if not os.path.exists(path):
        fail(f"{label}: no such file: {path}")
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            fail(f"{label}: {path} is empty")
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            fail(f"{label}: {path} header is missing column(s) {missing}; got {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                fail(f"{label}: {path}:{lineno} has {len(row)} fields, header has "
                     f"{len(header)}")
            record = dict(zip(header, row))
            present_optional = tuple(c for c in OPTIONAL_NUMERIC_COLUMNS if c in header)
            for column in NUMERIC_COLUMNS + present_optional:
                try:
                    record[column] = float(record[column])
                except ValueError:
                    fail(f"{label}: {path}:{lineno} column '{column}' is not numeric: "
                         f"{record[column]!r}")
            for column in present_optional:
                if record[column] < 0:
                    fail(f"{label}: {path}:{lineno} column '{column}' is negative: "
                         f"{record[column]}")
            if record["ops"] <= 0:
                fail(f"{label}: {path}:{lineno} reports no operations")
            if record["tput_ops_s"] <= 0:
                fail(f"{label}: {path}:{lineno} reports non-positive throughput")
            record["label"] = label
            rows.append(record)
        if not rows:
            fail(f"{label}: {path} has a header but no data rows")
        return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("inputs", nargs="+", metavar="LABEL=FILE.csv")
    parser.add_argument("-o", "--output", default="BENCH_smoke.json")
    args = parser.parse_args()

    rows = []
    seen_labels = set()
    for spec in args.inputs:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            fail(f"input must be LABEL=FILE.csv, got {spec!r}")
        if label in seen_labels:
            fail(f"duplicate label {label!r}")
        seen_labels.add(label)
        rows.extend(parse_csv(label, path))

    document = {
        "schema": SCHEMA,
        "commit": os.environ.get("GITHUB_SHA", ""),
        "rows": rows,
    }
    with open(args.output, "w") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_to_json: wrote {len(rows)} row(s) from {len(seen_labels)} file(s) "
          f"to {args.output}")


if __name__ == "__main__":
    main()
