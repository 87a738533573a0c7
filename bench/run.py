#!/usr/bin/env python3
"""Layered benchmark for saalib.

    python3 bench/run.py --workload scan --seed 1 --seconds 15 --trace 0

runs one workload (scan, verify, construct or classify; ``all`` runs each
in its own process) as a closed loop, one op at a time on one thread, from
the root of a checkout.  It imports saalib from ``src/``, checks every
output, prints each metric with its unit, and prints as its last stdout
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` reports its per-layer metrics from a traced
pass.  Times are scaled to the reference machine speed (see calibrate.py).
Every run also writes a results file with the environment and the
unscaled times under ``.bench_results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_KERNEL_S, kernel_seconds
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_SAMPLES = 5  # this process plus four fresh ones
SETUP_KERNEL_RUNS = 9


def load_saalib():
    package = ROOT / "src" / "saalib"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no saalib source at {package}; run from the root of a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import saalib
    import saalib.cli

    if Path(saalib.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported saalib from {saalib.__file__}, not {package}")
    return saalib


def timed_setup(workload_name: str, seed: int, workdir: Path):
    """Import saalib and finish the first, untimed op; making inputs is not counted.

    Returns the set-up time unscaled and scaled by the kernel timed right after.
    """
    start = perf_counter()
    sl = load_saalib()
    imported = perf_counter() - start
    workload = WORKLOADS[workload_name](sl, seed, workdir)
    op = workload.warm_op()
    start = perf_counter()
    output = op.call()
    raw = imported + perf_counter() - start
    problem = op.check(output)
    if problem is not None:
        sys.exit(f"error: first op {op.label} is wrong: {problem}")
    kernel = statistics.median(kernel_seconds() for _ in range(SETUP_KERNEL_RUNS))
    return sl, workload, (raw, raw * REFERENCE_KERNEL_S / kernel)


def probe_setup(workload_name: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload_name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    raw, scaled = proc.stdout.split()[-2:]
    return float(raw), float(scaled)


class Tally:
    """Outcomes and times of the ops of a run.

    The reference kernel runs before every op and once after the last.
    Each op's time is scaled by ``REFERENCE_KERNEL_S`` over the median of
    the five kernel times nearest to it.
    """

    def __init__(self):
        self.ops = 0  # units attempted
        self.failed = 0
        self.latencies_ms: list[float] = []  # scaled, from checked passes
        self.raw_latencies_ms: list[float] = []
        self.done = 0  # units completed in checked passes
        self.busy_s = 0.0  # scaled op time of checked passes
        self.cycle_rates: list[float] = []  # scaled completed units per second, per checked pass
        self.kernel_s: list[float] = []  # every kernel time, for the results file
        self.problems: list[str] = []
        self._reported: set[str] = set()

    def run(self, op, check: bool):
        kernel = kernel_seconds()
        start = perf_counter()
        try:
            output = op.call()
            problem = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            output = ("raised", type(exc).__name__, str(exc))
            problem = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        self.ops += op.units
        if problem is None and check:
            problem = op.check(output)
            if problem is not None:
                self.problems.append(f"{op.label}: {problem}")
        if problem is not None:
            self.failed += op.units
            if op.label not in self._reported:
                self._reported.add(op.label)
                print(f"failed op {op.label}: {problem}", file=sys.stderr)
        return output, elapsed, kernel, problem is None

    def run_pass(self, ops, check: bool = True) -> tuple[list, float]:
        """Run ops in order; returns their outputs and their scaled busy time."""
        results = [self.run(op, check) for op in ops]
        kernels = [kernel for _, _, kernel, _ in results] + [kernel_seconds()]
        self.kernel_s += kernels
        scaled = [elapsed * REFERENCE_KERNEL_S / statistics.median(kernels[max(0, i - 2):i + 3])
                  for i, (_, elapsed, _, _) in enumerate(results)]
        busy = sum(scaled)
        if check:
            done = sum(op.units for op, (_, _, _, ok) in zip(ops, results) if ok)
            self.done += done
            self.busy_s += busy
            self.cycle_rates.append(done / busy)
            self.latencies_ms += [1000.0 * t for t in scaled]
            self.raw_latencies_ms += [1000.0 * elapsed for _, elapsed, _, _ in results]
        return [output for output, _, _, _ in results], busy


def run_untraced(workload, seconds: float):
    """Whole cycles until ``seconds`` have passed; cycle 0 always runs."""
    start = perf_counter()
    tally = Tally()
    cycle0 = workload.cycle(0)
    outputs0, busy0 = tally.run_pass(cycle0)
    k = 1
    while perf_counter() - start < seconds:
        tally.run_pass(workload.cycle(k))
        k += 1
    return tally, cycle0, outputs0, busy0


def end_to_end(tally: Tally, setup_samples: list[float]) -> dict[str, float]:
    lat = tally.latencies_ms
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": tally.done / tally.busy_s,
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1],
        "ok_share": (tally.ops - tally.failed) / tally.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(sl, workload, seconds: float, tally: Tally, cycle0, outputs0, untraced0: float):
    """Alternate traced and untraced passes over cycle 0 until ``seconds`` pass.

    Counts come from the first traced pass, so they depend on the seed
    alone; self times and the overhead ratio use every pass.
    """
    tracer = Tracer(sl)
    units = sum(op.units for op in cycle0)
    traced_busy = untraced_busy = 0.0
    kernels = []
    counts = None
    passes = 0
    start = perf_counter()
    while counts is None or perf_counter() - start < seconds:
        untraced_busy += untraced0 if counts is None else tally.run_pass(cycle0, False)[1]
        with tracer:
            outputs, busy = tally.run_pass(cycle0, check=False)
        kernels += tally.kernel_s[-len(cycle0) - 1:]
        passes += 1
        traced_busy += busy
        if outputs != outputs0:
            tally.problems.append("traced outputs differ from untraced outputs")
        if counts is None:
            counts = tracer.counts()
    scale = REFERENCE_KERNEL_S / statistics.median(kernels)
    self_seconds = {layer: scale * s for layer, s in tracer.self_seconds().items()}
    metrics = layer_metrics(counts, self_seconds, units, units * passes)
    metrics["tracing_overhead_ratio"] = untraced_busy / traced_busy
    if workload.name == "scan":
        # every sample goes through these once; less means a binding was missed
        for layer in ("checks.sample_presentation", "algebra.build_algebra", "algebra.rank"):
            if metrics[f"{layer}.calls_per_op"] != 1:
                tally.problems.append(f"{layer}.calls_per_op is not 1: a wrapper was bypassed")
    return metrics


def source_digest(sl) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(sl.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(sl, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    import numpy

    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "saalib_commit": commit,
        "saalib_source_sha256": source_digest(sl),
        "seed": seed,
        "reference_kernel_s": REFERENCE_KERNEL_S,
    }


def select(metrics: dict, specs: list[dict]) -> dict:
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}


def run_one(args) -> int:
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        sl, workload, own_setup = timed_setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(*own_setup)
            return 0
        setup = [own_setup]
        if not args.trace:
            setup += [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        # a traced run spends its time on the traced passes instead
        untraced_seconds = 0 if args.trace else args.seconds
        tally, cycle0, outputs0, untraced0 = run_untraced(workload, untraced_seconds)
        if args.trace:
            metrics = traced(sl, workload, args.seconds, tally, cycle0, outputs0, untraced0)
            specs = SPEC["per_layer"]
        else:
            metrics = end_to_end(tally, [scaled for _, scaled in setup])
            specs = SPEC["end_to_end"]
        tally.problems += workload.final_check()
        env = environment(sl, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not tally.problems,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": select(metrics, specs),
    }
    raw = {"setup_s": [r for r, _ in setup], "latencies_ms": tally.raw_latencies_ms,
           "kernel_s": tally.kernel_s}
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=env, problems=tally.problems, failed_share=tally.failed / tally.ops,
                  latency_samples=len(tally.latencies_ms), cycle_rates=tally.cycle_rates,
                  all_metrics=metrics, unscaled=raw)
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for problem in tally.problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} attempted={tally.ops} failed={tally.failed} "
          f"correct={result['correct']} env={json.dumps(env)} results={path.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process; metric names get the workload as prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
