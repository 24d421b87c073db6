#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise it.

    python3 bench/record.py --seeds 1-10
    python3 bench/record.py --workloads solve-long --seeds 101-105 --out bench/results/BENCH_2.json

Runs ``bench/run.py`` once per workload and seed with tracing off, then once
per workload with tracing on (first seed). For each end-to-end metric it
prints the median, the quartiles and their distance as a share of the median,
next to the bound ``BENCHMARK.json`` allows, and the same for the unscaled
wall-time figures and speed factors each run prints. ``--out`` writes the whole
record, run metadata included, as JSON. Use seeds never used while a change
was written to confirm a claim on a held-out seed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """Metadata, result and (untraced) unscaled figures of one run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    unscaled = next((json.loads(line[9:]) for line in lines if line.startswith("unscaled ")), {})
    return meta, json.loads(lines[-1]), unscaled


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    record = {"seeds": args.seeds, "run_seconds": seconds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs, raws = [], []
        for seed in args.seeds:
            meta, result, unscaled = run_once(workload, seed, seconds, 0)
            runs.append(result)
            raws.append(unscaled)
            record.setdefault("meta", {k: v for k, v in meta.items() if k not in ("workload", "seed", "trace")})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "unscaled": {},
        }
        for name in runs[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] / 3 else "  <-- spread above bound/3"
            if name != "setup_s":
                worst = max(worst, s["spread"] / bounds[name])
            print(f"  {name:<14} median {s['median']:<12.6g} {s['unit']:<4} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
        for name in raws[0]:
            s = summarise([r[name] for r in raws])
            entry["unscaled"][name] = s
            bound = f" (bound {bounds[name]})" if name in bounds else ""
            print(f"  unscaled {name:<19} median {s['median']:<12.6g} spread {s['spread']:.4f}{bound}", flush=True)
        _, traced, _ = run_once(workload, args.seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
        print(f"  failed {entry['failed']} of {entry['attempted']} points", flush=True)
        record["workloads"][workload] = entry
    print(f"largest spread as a share of its bound: {worst:.3f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
