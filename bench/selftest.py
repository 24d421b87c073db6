#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py                 # all workloads
    python3 bench/selftest.py --workloads buffer

For each workload it runs the traced pass twice in fresh interpreters and
asserts that every counter and every count-derived metric is identical, so
later changes can compare on them. It also checks that the printed metric
names and units match ``BENCHMARK.json``, and that the benchmark fails
without a result line when the package sources are missing.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_selftest"
# Per-layer metrics that are counts or ratios of counts, never times.
EXACT_SUFFIXES = ("calls_per_point", "evals_per_solve", "vertices_mean", "infeasible_frac",
                  "pinned_frac", "shortcut_frac", "search_frac")


def run(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def traced(workload: str) -> tuple[dict, dict]:
    proc = run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    counters = next(json.loads(line[9:]) for line in lines if line.startswith("counters "))
    return counters, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        first_counters, first = traced(workload)
        second_counters, second = traced(workload)
        assert first["correct"] and second["correct"], (first, second)
        assert first_counters == second_counters, f"{workload}: trace counters differ between runs"
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        assert got == per_layer, f"{workload}: per-layer names or units differ from BENCHMARK.json"
        for name in per_layer:
            if name.endswith(EXACT_SUFFIXES):
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                assert a == b, f"{workload}: {name} differs between traced runs: {a} != {b}"
        print(f"{workload}: traced counters identical across two runs "
              f"({sum(first_counters['calls'].values())} wrapped calls)", flush=True)

    proc = run(args.workloads.split(",")[0], 0)
    assert proc.returncode == 0, proc.stderr
    untraced = json.loads(proc.stdout.splitlines()[-1])
    got = {k: v["unit"] for k, v in untraced["metrics"].items()}
    assert got == end_to_end, "end-to-end names or units differ from BENCHMARK.json"
    print("end-to-end metric names and units match BENCHMARK.json")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        shutil.copytree(BENCH, SCRATCH / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        proc = run(args.workloads.split(",")[0], 0, cwd=SCRATCH)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("without the package sources the benchmark exits", proc.returncode, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
