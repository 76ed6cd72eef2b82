#!/usr/bin/env python3
"""Self-test of the benchmark; run from the checkout root:

    python3 bench/selftest.py

It checks that
- the work counts of a traced batch repeat exactly for a fixed seed, on
  every workload, and that another seed changes the saf and lattice counts;
- the traced self times plus the unattributed remainder add up to the
  traced batch time;
- the tracer restores every attribute it wrapped;
- the metric names and units match BENCHMARK.json;
- without the package sources the benchmark exits nonzero and prints no
  result.
It takes about 15 seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
SEEDS_CHANGE = ("saf", "lattice")


def traced_batch(name: str, seed: int):
    import workloads

    workload = workloads.build(name, seed)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.run_phase(workload, 0, tracer=tracer)
    assert not traced.failures, traced.failures
    return traced


def check_counts_and_accounting() -> None:
    for name in run.WORKLOADS:
        first = traced_batch(name, 1)
        again = traced_batch(name, 1)
        assert first.counts == again.counts, f"{name}: counts differ for one seed"
        values, _ = run.per_layer(first, first)
        self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert abs(self_total + values["trace.unattributed_s"] - values["trace.wall_s"]) < 1e-9
        assert values["trace.unattributed_s"] >= 0, f"{name}: spans exceed the batch time"
        assert values.get("saf.guarantee_violations", 0) == 0
        if name in SEEDS_CHANGE:
            other = traced_batch(name, 2)
            changed = sorted(k for k in first.counts[0] if first.counts[0][k] != other.counts[0].get(k))
            assert changed, f"{name}: seed 2 gives the same work counts as seed 1"
            print(f"{name}: counts repeat; seed 2 changes {', '.join(changed)}")
        else:
            print(f"{name}: counts repeat")


def check_restored() -> None:
    before = [tracing._resolve(t)[2] for _, targets, _ in tracing.SPANS for t in targets]
    before += [tracing._resolve(t)[2] for _, t in tracing.COUNTED]
    with tracing.Tracer().installed():
        pass
    after = [tracing._resolve(t)[2] for _, targets, _ in tracing.SPANS for t in targets]
    after += [tracing._resolve(t)[2] for _, t in tracing.COUNTED]
    assert all(a is b for a, b in zip(before, after)), "tracer left a wrapper installed"
    print("tracer restores every attribute")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    print("BENCHMARK.json matches the metrics the benchmark reports")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-empty-") as empty:
        shutil.copy(ROOT / "BENCHMARK.json", empty)
        shutil.copytree(ROOT / "bench", Path(empty) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        child = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "saf", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=180,
        )
    assert child.returncode != 0 and '"correct"' not in child.stdout, child.stdout
    print(f"without sources: exit {child.returncode}, {child.stderr.strip()}")


def main() -> int:
    run.import_package(ROOT)
    check_benchmark_json()
    check_restored()
    check_counts_and_accounting()
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
