"""Byte-for-byte regression of small seeded sweeps against stored CSV files.

After a change that is meant to move these numbers, regenerate the files with
``PYTHONPATH=src python tests/test_golden_csv.py [NAME ...]`` (only the named
files, or all of them when no name is given) and say which bytes changed and
why.
"""
import sys
from math import inf
from pathlib import Path

import pytest

from offloadsim.sim_harness import (
    SimConfig,
    format_csv,
    run_buffer_sweep,
    run_bursty_sweep,
    run_oneshot_sweep,
)

DATA = Path(__file__).parent / "data"
CFG = SimConfig(trials=40)
SWEEPS = {
    "oneshot_trials40.csv": lambda: run_oneshot_sweep(CFG),
    "buffer_trials40.csv": lambda: run_buffer_sweep(CFG, (1e4, 1e5, 7e5, inf)),
    # buffers inside the feasible range [5e5, high) of the default load
    "buffer_midrange_trials40.csv": lambda: run_buffer_sweep(CFG, (5e5, 6e5)),
    "bursty_trials40.csv": lambda: run_bursty_sweep(CFG),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_matches_stored_file(name):
    assert format_csv(SWEEPS[name]()).encode() == (DATA / name).read_bytes()


if __name__ == "__main__":
    for name in sys.argv[1:] or SWEEPS:
        if name not in SWEEPS:
            sys.exit(f"no stored sweep named {name!r}; choose from {sorted(SWEEPS)}")
        (DATA / name).write_bytes(format_csv(SWEEPS[name]()).encode())
