"""Small reference helpers the tests check the library against.

``epoch_energy`` prices one constant-rate segment on its own, the plain
per-segment sum that ``schedule_energy`` vectorizes. ``parse_schedule``
reads back the schedule text the CLI writes (``format_schedule``).
``scan_minimize`` is a coarse grid scan with golden refinement, which needs
no convexity, and ``scanned_buffer_first`` prices buffer-first with it, as
the sweeps did before buffer-first was guided by its slope.
``matrix_local_compute_tunnel`` places each chunk at its nearest vertex
through a chunks-by-vertices distance matrix, and ``looped_min_offload_ratio``
steps through numpy scalars: the library's earlier ways of doing both.
"""
import numpy as np

from offloadsim.cpu_profile import TIME_ATOL, CapacityCurve
from offloadsim.partition import golden_section
from offloadsim.string_pull import OffloadSchedule, pull_string
from offloadsim.tunnel import _build_tunnel, bits_tol, lazy_first_tunnel


def epoch_energy(channel, bits: float, duration: float) -> float:
    """Energy to move ``bits`` at constant rate over ``duration`` seconds."""
    if bits <= 0:
        return 0.0
    if duration <= 0:
        return np.inf
    return float(channel.rate_to_power(bits / duration)) * duration


def parse_schedule(text: str) -> OffloadSchedule:
    """Schedule from ``time_s,cumulative_bits[,rate_bps]`` lines; '#' starts a comment."""
    times = []
    cum = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        times.append(float(fields[0]))
        cum.append(float(fields[1]))
    if len(times) < 2:
        raise ValueError("a schedule needs at least two records")
    return OffloadSchedule(np.array(times), np.array(cum))


def scan_minimize(fn, lo: float, hi: float, coarse: int = 17, tol: float = 1.0):
    """Coarse grid scan followed by golden refinement around the best cell;
    returns (x, fn(x))."""
    if hi <= lo + tol:
        return golden_section(fn, lo, hi, tol)
    xs = np.linspace(lo, hi, coarse).tolist()
    fs = [fn(x) for x in xs]
    k = int(np.argmin(fs))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, coarse - 1)]
    x, f = golden_section(fn, a, b, tol)
    if fs[k] < f:
        return xs[k], fs[k]
    return x, f


def scanned_buffer_first(profile, channel, local, load_bits, buffer_bits, low, high) -> float:
    """Buffer-first transmission optimized over the split by a 13-point
    ``scan_minimize`` of ``lazy_first_tunnel(profile, l, B)`` strings."""

    def fn(l):
        e = local.local_energy(load_bits - l)
        if l > bits_tol(load_bits):
            e += pull_string(lazy_first_tunnel(profile, l, buffer_bits)).energy(channel)
        return e

    if high - low <= 1.0:
        return fn(low)
    return scan_minimize(fn, low, high, coarse=13, tol=1.0)[1]


def matrix_local_compute_tunnel(arrivals, local, ratio):
    """``local_compute_tunnel`` with each chunk placed by ``argmin`` over its
    distance to every vertex: quadratic in the chunk count."""
    share = 1.0 - ratio
    rate = local.cpu_hz / local.cycles_per_bit
    horizon = arrivals.horizon
    at, sizes = arrivals.times, arrivals.sizes
    inner = at[(at > TIME_ATOL) & (at < horizon - TIME_ATOL)]
    times = np.concatenate(([0.0], inner, [horizon]))
    bits = np.zeros(len(times))
    chunks = sizes > 0
    nearest = np.argmin(np.abs(times[None, :] - at[chunks, None]), axis=1)
    np.add.at(bits, nearest, sizes[chunks])
    line = CapacityCurve(np.array([0.0, horizon]), np.array([0.0, rate * horizon]), np.array([True]), rate)
    total = share * arrivals.total
    times = times.tolist()
    values = [t * rate for t in times]
    return _build_tunnel("local", line, times, values, total, rate * horizon - total, bits=bits.tolist(), share=share)


def looped_min_offload_ratio(arrivals, local) -> float:
    """``min_offload_ratio`` looping over numpy arrays element by element."""
    if arrivals.total <= 0.0:
        return 0.0
    rate = local.cpu_hz / local.cycles_per_bit
    horizon = arrivals.horizon
    tails = np.cumsum(arrivals.sizes[::-1])[::-1]
    worst = 0.0
    for t, tail in zip(arrivals.times, tails):
        if tail <= 0.0:
            break
        room = rate * (horizon - t)
        worst = max(worst, 1.0 - room / tail)
    return float(worst)
