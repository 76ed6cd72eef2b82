#!/usr/bin/env python3
"""Benchmark of cwlattice: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload search --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each workload is one process, one caller and a closed loop: it runs its
fixed, seeded batch of operations again and again for --seconds (at least
once), checking every output.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it runs half the time untraced and half traced
and reports per-layer metrics from the traced batches.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every check passed.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("search", "wide", "saf", "lattice")
SETUP_PROBES = 7
OUTCOMES = ("success", "detected", "wrong", "node_failure")
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# printed and kept in the meta line, not in BENCHMARK.json: on a batch of a
# few operations they are single operations, too noisy to hold a bound
LATENCY = (("trial_p50_us", "us"), ("trial_p99_us", "us"))


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every metric of a traced run, in report order, with its unit."""
    out = []
    for name, _, _ in tracing.SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
    out += [(f"{name}.calls", "count") for name, _ in tracing.COUNTED]
    out += [(name, "count") for name in tracing.HOOK_COUNTS]
    out += [(f"saf.outcome.{o}", "count") for o in OUTCOMES]
    out += [("saf.guarantee_violations", "count")]
    out += [
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.spans", "count"),
    ]
    return out


def fail(message: str, code: int = 2):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def import_package(root: Path):
    """Import cwlattice from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "cwlattice" / "__init__.py").is_file():
        fail(f"no cwlattice package under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import cwlattice

    if Path(cwlattice.__file__).resolve().parent != (src / "cwlattice").resolve():
        fail(f"imported cwlattice from {cwlattice.__file__}, not from {src}")
    return cwlattice


def prepare(name: str, seed: int):
    """Set-up: import, input generation and a checked warm-up of every layer."""
    import_package(Path.cwd())
    import workloads

    workload = workloads.build(name, seed)
    try:
        workloads.smoke(Counter())
    except Exception as exc:  # report a failed warm-up check without a traceback
        fail(f"warm-up failed: {type(exc).__name__}: {exc}", 1)
    return workload


# ---------------------------------------------------------------------------
# measuring

class Phase:
    """Samples of one stretch of batches, traced or not."""

    def __init__(self, n_ops: int):
        self.samples: list[list[float]] = [[] for _ in range(n_ops)]
        self.walls: list[float] = []
        self.counts: list[dict] = []
        self.times: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []


def run_phase(workload, seconds: float, tracer=None) -> Phase:
    """Run whole batches until ``seconds`` have passed, at least one.

    Only whole batches are run, so every operation has the same number of
    samples.  Counts and (when traced) span totals are kept per batch.
    """
    phase = Phase(len(workload.ops))
    deadline = time.perf_counter() + seconds
    while not phase.walls or time.perf_counter() < deadline:
        counts: Counter = Counter()
        mark = tracer.mark() if tracer else None
        started = time.perf_counter()
        for i, op in enumerate(workload.ops):
            if tracer:
                tracer.op_id = phase.attempted
            t0 = time.perf_counter()
            try:
                op.run(counts)
            except Exception as exc:  # a failed check or program error; keep measuring
                phase.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            phase.samples[i].append(time.perf_counter() - t0)
            phase.attempted += 1
        phase.walls.append(time.perf_counter() - started)
        if tracer:
            times, traced_counts = tracer.summary(mark)
            counts.update(traced_counts)
            phase.times.append(times)
        phase.counts.append(dict(counts))
    return phase


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh process until its set-up is done."""
    times = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        words = child.stdout.split()
        if child.returncode != 0 or len(words) != 2 or words[0] != "ready":
            fail(f"set-up probe failed:\n{child.stderr}", 1)
        times.append(float(words[1]) - spawned)
    return times


def end_to_end(phase: Phase, setup: list[float]) -> tuple[dict, dict]:
    # Each operation is deterministic and repeated once per batch; other
    # work on the machine only ever adds time, so an operation's fastest
    # repeat is its steadiest estimate.
    fastest = [min(s) for s in phase.samples]
    values = {
        "wall_s": sum(fastest),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trial_p50_us": percentile(fastest, 0.50) * 1e6,
        "trial_p99_us": percentile(fastest, 0.99) * 1e6,
    }
    n = {
        "wall_s": len(phase.walls),
        "setup_s": len(setup),
        "peak_rss_mb": 1,
        "trial_p50_us": len(fastest),
        "trial_p99_us": len(fastest),
    }
    return values, n


def per_layer(untraced: Phase, traced: Phase) -> tuple[dict, dict]:
    batches = len(traced.times)
    values = {}
    self_total = 0.0
    for name in traced.times[0]:
        busy = sum(t[name][1] for t in traced.times) / batches
        own = sum(t[name][2] for t in traced.times) / batches
        values[f"{name}.busy_s"], values[f"{name}.self_s"] = busy, own
        self_total += own
    values.update(traced.counts[0])
    wall = sum(traced.walls) / batches
    untraced_wall = sum(untraced.walls) / len(untraced.walls)
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = wall - untraced_wall
    # root spans' self times sum to the time inside any span; the rest of
    # the batch (the benchmark's own checks and loop) is unattributed
    values["trace.unattributed_s"] = wall - self_total
    values["trace.spans"] = sum(traced.counts[0][f"{name}.calls"] for name in traced.times[0])
    n = {name: batches for name in values}
    n["trace.untraced_wall_s"] = len(untraced.walls)
    return values, n


def inconsistencies(untraced: Phase, traced: Phase | None) -> list[str]:
    """Work counts must repeat exactly in every batch of one run."""
    problems = []
    if any(c != untraced.counts[0] for c in untraced.counts):
        problems.append("work counts differ between untraced batches")
    if traced is not None:
        if any(c != traced.counts[0] for c in traced.counts):
            problems.append("work counts differ between traced batches")
        shared = untraced.counts[0].items()
        if any(traced.counts[0].get(k) != v for k, v in shared):
            problems.append("tracing changed the work counts")
    return problems


# ---------------------------------------------------------------------------
# reporting

def provenance(root: Path) -> dict:
    commit = dirty = None
    if (root / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, cwd=root)
        if head.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cwlattice").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def report(args, metrics: list[tuple[str, str]], values: dict, samples: dict,
           attempted: int, failures: list[str], problems: list[str], counts=None,
           extra: tuple = ()) -> int:
    failed = len(failures)
    correct = not failures and not problems
    for line in failures[:10] + problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"{'fail_frac':<56} {failed / attempted:>18.6f} {'':<6} {failed}/{attempted} operations")
    result = {}
    for name, unit in (*metrics, *extra):
        value = values.get(name, 0)
        print(f"{name:<56} {value:>18.6f} {unit:<6} n={samples.get(name, 1)}")
        if (name, unit) in metrics:
            result[name] = {"value": value, "unit": unit}
    meta = provenance(Path.cwd())
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                fail_frac=failed / attempted, samples={m: samples.get(m, 1) for m, _ in metrics})
    meta.update({name: {"value": values[name], "unit": unit, "samples": samples[name]}
                 for name, unit in extra})
    if counts is not None:
        meta["work_counts"] = counts
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


def run_one(args) -> int:
    workload = prepare(args.workload, args.seed)
    if not args.trace:
        setup = measure_setup(args.workload, args.seed)
        phase = run_phase(workload, args.seconds)
        values, samples = end_to_end(phase, setup)
        return report(args, END_TO_END, values, samples, phase.attempted,
                      phase.failures, inconsistencies(phase, None), phase.counts[0], LATENCY)

    untraced = run_phase(workload, args.seconds / 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_phase(workload, args.seconds / 2, tracer=tracer)
    values, samples = per_layer(untraced, traced)
    return report(args, tuple(per_layer_metrics()), values, samples,
                  untraced.attempted + traced.attempted,
                  untraced.failures + traced.failures, inconsistencies(untraced, traced))


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    import_package(Path.cwd())
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode not in (0, 1) or not lines:
            fail(f"workload {name} exited with {child.returncode}", 1)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", repr(time.monotonic()))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
