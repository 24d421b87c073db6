"""Machine-speed probe, so timings from a shared host can be compared.

The benchmark runs on a host whose CPUs are shared with other tenants: the
same sweep call runs up to twice as long for tens of seconds at a time, far
longer than a benchmark run. Taking medians inside a run cannot remove that.

So every timed batch is bracketed by a probe: a fixed mix of interpreter work
and small numpy calls, the kinds of work offloadsim does, that never
touches offloadsim. A batch's wall time is multiplied by
``REFERENCE_S / probe time`` (the median of the six probes nearest to it),
which expresses it at the machine speed at which the probe takes
``REFERENCE_S``.
A change to offloadsim moves the batch times and not the probe, so it moves
the scaled times by the same factor as the wall times.

Import time (``setup_s``) is mostly process start-up, file reads and module
execution, which contention slows differently. It is scaled the same way by
``IMPORT_PROBE``: a fresh interpreter importing a fixed set of standard
library modules, run before and after each timed import.
"""
from __future__ import annotations

import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Fastest probe time seen on the host the first record was made on
# (2 vCPU Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6). Changing it
# rescales every timing, so it stays fixed.
REFERENCE_S = 0.0036
# Fastest IMPORT_PROBE time seen on the same host.
IMPORT_REFERENCE_S = 0.049
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import asyncio, unittest, decimal, fractions, email.mime.multipart, http.client, "
    "xml.dom.minidom, sqlite3, argparse, logging, csv; print(time.perf_counter() - t)"
)
_GRID = np.linspace(0.0, 1.0, 16)
_STEPS = np.arange(8.0)


@dataclass(frozen=True)
class _Pair:
    x: float
    y: float


def probe() -> float:
    """Seconds to run the fixed probe work once.

    Four parts of roughly equal length, because contention from other
    tenants slows each kind of work differently: bytecode arithmetic and
    dict stores, searches and slices of a small array, small-array
    expressions like a tunnel build, and frozen dataclass construction.
    """
    t0 = perf_counter()
    acc = 0.0
    store = {}
    for i in range(9000):
        store[i & 63] = i
        acc += (i * 7) % 13
    for i in range(170):
        k = int(np.searchsorted(_GRID, (i % 97) / 97.0))
        if k < 14:
            acc += float(np.diff(_GRID[k : k + 3]).sum())
    for i in range(150):
        floor = np.maximum(_STEPS - 0.5, 0.0)
        cum = np.concatenate(([0.0], np.cumsum(floor)))
        acc += float(cum[-1]) + float(np.interp(0.3, _STEPS, floor))
    for i in range(1400):
        pair = _Pair(i * 0.5, i * 0.25)
        acc += pair.x - pair.y
    return perf_counter() - t0


class SpeedProbe:
    """Probe once now and once after each batch (``mark``); ``factors`` then
    gives each batch's factor from the probes nearest to it.

    With ``jobs`` > 1 the probe runs in ``jobs`` processes at once, because a
    worker pool's speed depends on how much of every core the host grants,
    and a second tenant on one core does not slow a single process. The
    probe time is then ``jobs`` over the summed probe rates, which equals the
    one-process time when every core runs at full speed. ``close`` stops the
    helper processes.
    """

    def __init__(self, jobs: int = 1):
        self._helpers = ProcessPoolExecutor(max_workers=jobs - 1) if jobs > 1 else None
        self._jobs = jobs
        self.times = [self._probe()]

    def _probe(self) -> float:
        if self._helpers is None:
            return probe()
        futures = [self._helpers.submit(probe) for _ in range(self._jobs - 1)]
        times = [probe()] + [f.result() for f in futures]
        return self._jobs / sum(1.0 / t for t in times)

    def mark(self):
        self.times.append(self._probe())

    def close(self):
        if self._helpers is not None:
            self._helpers.shutdown(wait=True)

    def factors(self) -> list[float]:
        """Factor of batch i (run between probes i and i+1): REFERENCE_S over
        the median of probes i-2 .. i+3, which ignores a probe that one
        interrupt slowed but follows the host's slower and faster phases."""
        t = self.times
        return [REFERENCE_S / statistics.median(t[max(0, i - 2) : i + 4]) for i in range(len(t) - 1)]

    def median_factor(self) -> float:
        return statistics.median(self.factors())
