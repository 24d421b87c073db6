#!/usr/bin/env python3
"""offloadsim benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload oneshot --seed 1 --seconds 18 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory. ``--trace 0`` times batches of the workload for
``--seconds`` seconds with nothing patched and prints the end-to-end metrics.
``--trace 1`` runs a fixed number of batches three ways (untraced, traced,
and on ``buffer`` untraced with the workload's worker pool) and prints the
per-layer metrics. Every run also checks a default-seed instance set against
``bench/reference.json``. Untraced runs also print their figures in plain
wall time, with the speed factors that scaled them, on an ``unscaled`` line;
traced runs print the raw call counters on a ``counters`` line. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. See
``bench/BENCHMARK.md`` for the workloads and metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

from speed import IMPORT_PROBE, IMPORT_REFERENCE_S, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 7
MIN_BATCHES = 10  # so every percentile has samples on both sides
_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import offloadsim; print(time.perf_counter() - t)"
)


def per_layer_unit(name: str) -> str:
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_share", "_frac")):
        return "frac"
    if name.endswith("pool_speedup"):
        return "x"
    return "count"


def _child_seconds(code: str, *args: str) -> float:
    """Run ``code`` in a fresh interpreter; it prints the seconds it measured."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout)


def setup_seconds() -> tuple[float, float]:
    """Median time for a fresh interpreter to import offloadsim, scaled and
    in wall time. Each sample is scaled by the faster of the import probes
    run just before and after it; one extra import first fills the bytecode
    cache."""
    probes = [_child_seconds(IMPORT_PROBE)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        samples.append(_child_seconds(_IMPORT_TIMER, str(SRC)))
        probes.append(_child_seconds(IMPORT_PROBE))
    scaled = [t * IMPORT_REFERENCE_S / min(a, b) for t, a, b in zip(samples, probes, probes[1:])]
    return statistics.median(scaled[1:]), statistics.median(samples[1:])


def peak_rss_mb(jobs: int) -> float:
    """Peak resident memory of this process plus, when a worker pool ran,
    ``jobs`` times the largest worker's peak (an upper bound on their sum).
    Read before any other child process is started."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * workers) / 1024.0


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    # versions from package metadata: importing scipy here would count in
    # peak_rss_mb once the package stops importing it
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
    }


def timed_run(w, seed: int, seconds: float):
    """Batches 1, 2, ... until their summed wall time reaches ``seconds``."""
    warm = w.batch(seed, 0, w.jobs)
    speed = SpeedProbe(w.jobs)
    batches = []
    try:
        while len(batches) < MIN_BATCHES or sum(b.seconds for b in batches) < seconds:
            batches.append(w.batch(seed, len(batches) + 1, w.jobs))
            speed.mark()
        # before the probe's helpers exit, so that only pool workers count
        rss = peak_rss_mb(w.jobs)
    finally:
        speed.close()
    scaled = [b.seconds * f for b, f in zip(batches, speed.factors())]
    points = sum(b.points for b in batches)
    ms = [1000.0 * t / b.points for b, t in zip(batches, scaled)]
    raw_ms = [1000.0 * b.seconds / b.points for b in batches]
    setup, raw_setup = setup_seconds()
    metrics = {
        "setup_s": setup,
        "points_per_s": points / sum(scaled),
        "solve_ms_p50": statistics.median(ms),
        "solve_ms_p90": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": rss,
    }
    # the same figures in plain wall time, with the factors that scaled them
    unscaled = {
        "setup_s": raw_setup,
        "points_per_s": points / sum(b.seconds for b in batches),
        "solve_ms_p50": statistics.median(raw_ms),
        "solve_ms_p90": statistics.quantiles(raw_ms, n=10)[8],
        "speed_factor": speed.median_factor(),
        "import_speed_factor": setup / raw_setup,
    }
    notes = {
        "points_per_s": f"{points} points in {len(batches)} batches",
        "solve_ms_p50": f"per-point ms over {len(batches)} batches",
        "setup_s": f"median of {SETUP_SAMPLES} imports",
        "speed": f"machine ran at {speed.median_factor():.3f}x the probe's reference speed",
        "unscaled": unscaled,
    }
    done = [warm] + batches
    return metrics, notes, sum(b.points for b in done), sum(b.failed for b in done)


def traced_run(w, seed: int):
    """Batches 0..K-1, each run untraced, traced and (jobs > 1) with the
    workload's pool, back to back so each comparison sees one machine phase."""
    from layers import LayerTrace

    trace = LayerTrace()
    warm = w.batch(seed, w.trace_batches, 1)
    speed = SpeedProbe()
    plain, traced, pooled = [], [], []
    for i in range(w.trace_batches):
        plain.append(w.batch(seed, i, 1))
        traced.append(w.batch(seed, i, 1, trace))
        speed.mark()
        if w.jobs > 1:
            pooled.append(w.batch(seed, i, w.jobs))
    points = sum(b.points for b in traced)
    metrics = trace.metrics(points)
    for name in metrics:
        if name.endswith("us_per_call"):
            metrics[name] *= speed.median_factor()
    metrics["partition.infeasible_frac"] = sum(b.infeasible for b in traced) / points
    metrics["sim_harness.pool_speedup"] = (
        statistics.median(p.seconds / q.seconds for p, q in zip(plain, pooled)) if pooled else 0.0
    )
    metrics["trace.overhead_frac"] = statistics.median(t.seconds / p.seconds for p, t in zip(plain, traced)) - 1.0
    # tracing and the worker pool must not change a single output
    mismatched = sum(
        b.points for other in (traced, pooled) for p, b in zip(plain, other) if b.digest != p.digest
    )
    done = [warm] + plain + traced + pooled
    notes = {
        "trace": f"{w.trace_batches} batches, {points} points per pass",
        "speed": f"machine ran at {speed.median_factor():.3f}x the probe's reference speed",
        "counters": trace.counters(),
    }
    return metrics, notes, sum(b.points for b in done), sum(b.failed for b in done) + mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "offloadsim" / "__init__.py").is_file():
        print(f"no offloadsim sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import offloadsim

    if Path(offloadsim.__file__).resolve().parent != SRC / "offloadsim":
        print(f"imported offloadsim from {offloadsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    print("meta " + json.dumps(metadata(args), sort_keys=True))
    ref_points, ref_failed = w.reference_check(workloads.load_reference()[w.name])
    if args.trace:
        metrics, notes, attempted, failed = traced_run(w, args.seed)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, notes, attempted, failed = timed_run(w, args.seed, args.seconds)
        units = END_TO_END_UNITS
    attempted += ref_points
    failed += ref_failed

    for name in sorted(metrics):
        note = notes.get(name, "")
        print(f"{name:<50} {metrics[name]:>14.6g} {units[name]:<6} {note}")
    print(f"{'failed_frac':<50} {failed / attempted:>14.6g} {'frac':<6} {failed} of {attempted} points")
    print(f"speed: {notes['speed']}")
    if args.trace:
        print(f"trace: {notes['trace']}")
        print("counters " + json.dumps(notes["counters"], sort_keys=True))
    else:
        print("unscaled " + json.dumps(notes["unscaled"], sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
