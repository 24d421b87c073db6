#!/usr/bin/env python3
"""Rewrite bench/reference.json from the current sources.

    python3 bench/make_reference.py

Run it only when a change is meant to alter the workloads' results, and say
so in that change: every benchmark run compares its default-seed outputs
against this file.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

reference = {"seed": workloads.REFERENCE_SEED, "rtol": workloads.RTOL}
for name, w in workloads.WORKLOADS.items():
    reference[name] = w.reference(jobs=1)
workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
print(f"wrote {workloads.REFERENCE_PATH}")
