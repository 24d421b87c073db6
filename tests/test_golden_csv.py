"""Byte-for-byte regression of small seeded sweeps against stored CSV files.

After a change that is meant to move these numbers, regenerate the files with
``PYTHONPATH=src python tests/test_golden_csv.py [NAME ...]`` (only the named
files, or all of them when no name is given), which prints every field it
moves, and say which bytes changed and why.
"""
import sys
from itertools import zip_longest
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


def moved_fields(old: str, new: str):
    """(line, column, old, new) for each field that differs between two CSV
    texts, lines counted from 1. A comment line is one field, named ``#``;
    the other columns are named by the new text's header."""
    header = []
    for line, (a, b) in enumerate(zip_longest(old.splitlines(), new.splitlines(), fillvalue=""), 1):
        if a.startswith("#") or b.startswith("#"):
            if a != b:
                yield line, "#", a, b
            continue
        header = header or b.split(",")
        for k, (x, y) in enumerate(zip_longest(a.split(","), b.split(","), fillvalue="")):
            if x != y:
                yield line, header[k] if k < len(header) else str(k + 1), x, y


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_matches_stored_file(name):
    assert format_csv(SWEEPS[name]()).encode() == (DATA / name).read_bytes()


def test_rewrite_names_every_moved_field():
    old = "# seed=1\naxis,value,mean\nx,1,0.5\nx,2,0.25\n"
    new = "# seed=2\naxis,value,mean\nx,1,0.5\nx,2,0.3\nx,3,0\n"
    assert list(moved_fields(old, new)) == [
        (1, "#", "# seed=1", "# seed=2"),
        (4, "mean", "0.25", "0.3"),
        (5, "axis", "", "x"),
        (5, "value", "", "3"),
        (5, "mean", "", "0"),
    ]


if __name__ == "__main__":
    for name in sys.argv[1:] or SWEEPS:
        if name not in SWEEPS:
            sys.exit(f"no stored sweep named {name!r}; choose from {sorted(SWEEPS)}")
        path = DATA / name
        text = format_csv(SWEEPS[name]())
        for line, column, was, now in moved_fields(path.read_text() if path.exists() else "", text):
            print(f"{name} line {line} {column}: {was} -> {now}")
        path.write_bytes(text.encode())
