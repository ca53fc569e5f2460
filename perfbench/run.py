#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (and the liod library it links) from source into
.bench_build/ at the repository root on first use, runs one workload in a
fresh scratch directory under .bench_build/runs/, and removes that directory
when the run ends, whether it succeeded or not. The last line of stdout is
the result JSON; build output goes to stderr. Exits non-zero when the build
fails, when an answer is wrong, or when the run overruns its time limit.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = BUILD_ROOT / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                        "--target", "perfbench"],
                       stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def remove_stale_runs(runs):
    """Removes scratch directories left by runs whose process is gone."""
    for d in runs.iterdir():
        try:
            pid = int(d.name.split("-")[1])
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(d, ignore_errors=True)
        except (IndexError, ValueError, PermissionError):
            pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    runs = BUILD_ROOT / "runs"
    runs.mkdir(exist_ok=True)
    remove_stale_runs(runs)
    run_dir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=runs)
    # SIGTERM/SIGINT unwind through the finally below, which stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = None
    try:
        proc = subprocess.Popen([str(binary), "--workload", args.workload,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace),
                                 "--dir", run_dir,
                                 "--trace-dir", str(BUILD_ROOT / "traces")])
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
