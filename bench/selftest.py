#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 bench/selftest.py [--seed N]

1. Two traced runs of every workload with the same seed must both be
   correct and give identical count metrics (``*.calls_per_op``,
   ``rows_per_op``, ``mults_per_op``, ``pivot_ratio``), so a later change
   can cite a count as exact.  Each traced run also checks that its
   outputs equal the untraced ones and, on scan, that
   ``checks.sample_presentation``, ``algebra.build_algebra`` and
   ``algebra.rank`` each show one call per sample, which fails when a
   wrapper is bypassed through an import binding the tracer missed.
2. In a directory holding only BENCHMARK.json and bench/, the runner must
   exit non-zero without printing a result.

Exits 0 when every test passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COUNT_SUFFIXES = ("calls_per_op", "rows_per_op", "mults_per_op", "pivot_ratio")


def run(cwd: Path, workload: str, seed: int, trace: int, seconds: float = 1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def traced_counts(workload: str, seed: int) -> dict | None:
    proc = run(ROOT, workload, seed, trace=1)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(COUNT_SUFFIXES)}


def check_counts_repeat(seed: int) -> bool:
    ok = True
    for workload in WORKLOADS:
        first, second = traced_counts(workload, seed), traced_counts(workload, seed)
        if first is None or second is None:
            print(f"FAIL {workload}: traced run incorrect or crashed")
            ok = False
            continue
        differing = sorted(k for k in first if first[k] != second.get(k))
        if differing:
            print(f"FAIL {workload}: counts differ between runs: {', '.join(differing)}")
            ok = False
        else:
            print(f"PASS {workload}: {len(first)} counts repeat exactly for seed {seed}")
    return ok


def check_bare_directory_refused() -> bool:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "scan", 1, trace=0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.splitlines()
    printed_result = bool(lines) and lines[-1].startswith("{")
    if proc.returncode == 0 or printed_result:
        print(f"FAIL bare directory: exit {proc.returncode}, result printed: {printed_result}")
        return False
    print(f"PASS bare directory: exit {proc.returncode}, no result")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description="Self-tests of the saalib benchmark.")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = check_counts_repeat(args.seed)
    ok &= check_bare_directory_refused()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
