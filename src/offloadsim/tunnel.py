"""Feasibility tunnels for cumulative transmission curves.

A tunnel is a pair of piecewise-linear envelopes (floor, ceiling) over a
shared vertex grid. Any nondecreasing cumulative-bits curve that stays inside
the tunnel and ends at ``total`` is a schedule the serving CPU can actually
keep up with: the floor encodes "transmit early enough that the CPU never runs
out of work it still needs to finish", the ceiling encodes "never send data
the receive buffer cannot hold or that has not arrived yet".

Every tunnel family is one construction, ``_build_tunnel``, applied to a
capacity curve (the helper's idle profile, the same profile at a derated
pace, or the user's own CPU as a profile of one idle epoch, which the
local-CPU tunnel runs through the chunked families' ``_chunked_tunnel``):

- floor = max(capacity - slack, 0), where ``slack`` is the capacity the
  transfer may leave unused (zero for full utilization);
- ceiling = min(floor + buffer, total) for a receive buffer, or the
  offloaded share of the data that has already arrived for chunked
  workloads.

The families differ only in curve, slack and ceiling rule, and in how
their own parameter (a size or a share) moves the curve, the slack and the
total: scalars the tunnel keeps for ``string_pull.energy_slope``. All
envelope breakpoints are materialized as vertices (capacity-curve kinks,
the crossings of the slack and buffer levels, arrival instants), so
checking a piecewise-linear curve at the vertices alone is exact. Step-shaped
availability ceilings are stored by their left limits, which is the binding
value for a continuous curve.

The construction takes the capacity curve as ``CpuIdlingProfile.parts``
(the proportional family derates it as a float list), and the base vertices
and the curve's values there as float lists, and inserts the crossings with
``bisect``, alike for every family. Only its envelope step and a tunnel's
strict-increase check switch on size: below ``_SHORT_SPAN`` interior
vertices they run on lists, where numpy's fixed cost per call would
dominate, and above it with numpy. Each list branch does the numpy branch's
float64 operations and comparisons, so both give the same arrays and
verdicts bit for bit.

A tunnel is a list record (``cpu_profile._ListRecord``): ``_fits``, the
one feasibility rule, the string pull and the energy slopes read the float
lists the build made, so a short tunnel priced end to end makes no array;
a long one keeps the arrays its build made for the numpy steps after it.
The chunked tunnels and the share bounds read the merged timeline's and
the arrivals' lists the same way.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate
from math import fsum

import numpy as np

from .cpu_profile import (
    _SHORT_SPAN,
    TIME_ATOL,
    ArrivalProcess,
    CpuIdlingProfile,
    Epoch,
    MergedTimeline,
    _ListArray,
    _ListRecord,
    _curve_time,
    _curve_value,
    _float_lists,
    _keep,
    build_profile,
    merge_events,
)
from .errors import InfeasibleError

BITS_RTOL = 1e-9
BITS_ATOL = 1e-6


# how an effective or lazy-first tunnel moves with its size (see FeasibilityTunnel.moves)
_SIZE_SLACK = (np.inf, -1.0, 1.0)


def bits_tol(scale: float) -> float:
    """Comparison tolerance for bit quantities of the given magnitude."""
    return max(BITS_ATOL, BITS_RTOL * abs(scale))


class FeasibilityTunnel(_ListRecord):
    """Vertex grid plus envelopes and the bookkeeping verify checks need.

    ``cum_capacity`` is the computing-capacity curve the tunnel was built
    against (the derated one for proportional tunnels); ``arrival_bits[v]`` is
    data arriving exactly at vertex v (zero for one-shot tunnels).
    ``buffer_bits`` is the receive buffer size (may be inf). ``corner`` is the
    index of the vertex where the floor leaves zero: the crossing of the slack
    level (without slack, the last vertex where the curve is still zero),
    recorded by the build, because the floor computed at a crossing may round
    to just above zero. None when the floor never leaves zero.

    ``share`` is the share of arrived data the ceiling holds (None for a
    buffer), ``rate`` the curve's slope where it rises, and ``moves`` how
    the family moves per unit of its parameter, ``(scale, slack, total)``:
    each curve value ``v`` by ``v / scale`` (inf for a curve that stays
    put), the slack by ``slack``, the total by ``total`` (None: no slope).

    A list record (``cpu_profile._ListRecord``) of ``lists`` (times, floor,
    ceiling, cum_capacity, arrival_bits), which the pull and the feasibility
    check read; a long tunnel keeps the ``arrays`` (times, floor, ceiling,
    cum_capacity) its build made, and its strict-increase check reads
    ``times``. ``cpu_flip`` is derived from ``cum_capacity`` when first read.
    """

    times = _ListArray(0)
    floor = _ListArray(1)
    ceiling = _ListArray(2)
    cum_capacity = _ListArray(3)
    arrival_bits = _ListArray(4)

    def __init__(
        self, kind, times, floor, ceiling, total, cum_capacity, arrival_bits, buffer_bits,
        corner=None, share=None, moves=None, rate=None, arrays=(),
    ):
        self.kind = kind
        self.total = total
        self.buffer_bits = buffer_bits
        self.corner = corner
        self.share, self.moves, self.rate = share, moves, rate
        self.lists = _float_lists(self, (times, floor, ceiling, cum_capacity, arrival_bits))
        n = len(self.lists[0])
        if n < 2:
            raise ValueError("tunnel needs at least two vertices")
        if n - 2 < _SHORT_SPAN:
            increasing = _increasing(self.lists[0])
        else:
            for name, array in zip(("times", "floor", "ceiling", "cum_capacity"), arrays):
                _keep(self, name, array)
            times = self.times
            increasing = not np.count_nonzero(times[1:] <= times[:-1])
        if not increasing:
            raise ValueError("tunnel vertex times must be strictly increasing")

    @cached_property
    def cpu_flip(self) -> np.ndarray:
        """+1 at each interior vertex where the serving CPU turns idle, -1
        where it turns busy, 0 elsewhere. Every capacity kink is a vertex, so
        a segment is idle exactly when the capacity curve rises over it."""
        idle = (self.cum_capacity[1:] > self.cum_capacity[:-1]).astype(int)
        flips = np.zeros(len(self.times), dtype=int)
        flips[1:-1] = idle[1:] - idle[:-1]
        return flips

    @property
    def deficit(self) -> float:
        """Largest floor-over-ceiling excess; positive means infeasible."""
        gap = float(np.max(self.floor - self.ceiling))
        end = abs(float(self.floor[-1]) - self.total)
        return max(gap, end - bits_tol(self.total))

    def is_feasible(self) -> bool:
        return _fits(self.lists[1], self.lists[2], self.total, bits_tol(self.total))


def _increasing(t: list) -> bool:
    """No time at or below the one before it (a NaN passes, as in numpy)."""
    prev = t[0]
    for v in t[1:]:
        if v <= prev:
            return False
        prev = v
    return True


def _fits(floor: list, ceiling: list, total: float, tol: float) -> bool:
    """Whether a schedule fits between ``floor`` and ``ceiling`` within
    ``tol``, from 0 at the start to ``total`` at the end (a NaN passes)."""
    for lo, hi in zip(floor, ceiling):
        if lo > hi + tol:
            return False
    if floor[0] > tol or ceiling[0] > tol:
        return False
    return abs(floor[-1] - total) <= tol and abs(ceiling[-1] - total) <= tol


def _build_tunnel(
    kind: str,
    curve: tuple,
    times: list,
    values: list,
    total: float,
    slack: float,
    moves: tuple | None,
    buffer_bits: float = np.inf,
    bits: list | None = None,
    share: float | None = None,
    late: float = 0.0,
) -> FeasibilityTunnel:
    """The one tunnel construction every family goes through.

    ``curve`` is the capacity curve as ``CpuIdlingProfile.parts``. ``times``
    are the base vertices, ending where the serving CPU computes its last
    bit, ``values`` the curve there (``_curve_value``) and ``bits`` the data
    arriving at each (none by default), as float lists that the build extends
    and the tunnel keeps. The floor is ``max(curve - slack, 0)``, pinned to
    ``total`` at the end when there is slack. Without ``share`` the ceiling
    is ``min(floor + buffer_bits, total)``; with it, the ceiling is ``share``
    of the data that arrived before each vertex, and ``share`` of the
    ``late`` data (arriving at or after the last vertex, so never served)
    lifts the floor's end above ``total``. Vertices are added where the curve
    crosses ``slack`` and, for a buffer smaller than the transfer, ``capacity
    - buffer_bits``. ``moves`` is kept as ``FeasibilityTunnel.moves``.
    """
    if not buffer_bits >= 0:
        raise ValueError(f"buffer_bits must be nonnegative, got {buffer_bits}")
    capacity = curve[1][-1]
    levels = [slack]
    if share is None and buffer_bits < total:
        levels.append(capacity - buffer_bits)  # above it the ceiling is flat; crossed after the slack
    corner = None
    for level in levels:
        if 0.0 < level < capacity:
            t = _curve_time(curve, level)
            i = bisect_left(times, t)
            near_left = i > 0 and t - times[i - 1] <= TIME_ATOL
            near_right = i < len(times) and times[i] - t <= TIME_ATOL
            if not near_left and not near_right:
                times.insert(i, t)
                values.insert(i, _curve_value(curve, t))
                if bits is not None:
                    bits.insert(i, 0.0)
            if level == slack:
                corner = i - 1 if near_left else i
    if slack <= 0.0:
        corner = bisect_right(values, 0.0) - 1
    n = len(times)
    if bits is None:
        bits = [0.0] * n
    if n - 2 < _SHORT_SPAN:
        floor = [v if v > 0.0 else 0.0 for v in [c - slack for c in values]]
        if slack > 0.0:
            floor[-1] = total
        if share is None:
            ceiling = [v if v < total else total for v in [f + buffer_bits for f in floor]]
        else:
            ceiling = [0.0] + [share * a for a in accumulate(bits[:-1])]
    else:
        at, cum = np.fromiter(times, float, n), np.fromiter(values, float, n)
        floor = np.maximum(cum - slack, 0.0)
        if slack > 0.0:
            floor[-1] = total
        if share is None:
            ceiling = np.minimum(floor + buffer_bits, total)
        else:
            ceiling = share * np.concatenate(([0.0], np.fromiter(bits, float, n)[:-1].cumsum()))
    if share is None:
        ceiling[0] = 0.0
        ceiling[-1] = total
    elif share * late > bits_tol(total):
        floor[-1] = max(floor[-1], total + share * late)
    buffer_bits = float(buffer_bits)
    if type(floor) is list:
        return FeasibilityTunnel(
            kind, times, floor, ceiling, total, values, bits, buffer_bits, corner, share, moves, curve[3]
        )
    # numpy made the arrays: the tunnel keeps them for its check, the pull and the energy
    return FeasibilityTunnel(
        kind, times, floor.tolist(), ceiling.tolist(), total, values, bits, buffer_bits, corner, share, moves,
        curve[3], (at, floor, ceiling, cum),
    )


def _idle_span(profile: CpuIdlingProfile) -> int:
    """Number of profile boundaries up to the last idle instant."""
    k = profile.last_idle_index
    if k is None:
        raise InfeasibleError("helper CPU is never idle, nothing can be offloaded")
    return k + 2


def _check_transfer(profile: CpuIdlingProfile, total: float):
    if not 0 <= total < np.inf:
        raise ValueError(f"offload_bits must be nonnegative and finite, got {total}")
    tol = bits_tol(max(total, profile.capacity))
    if total > profile.capacity + tol:
        raise InfeasibleError(
            f"transfer of {total} bits exceeds helper capacity {profile.capacity}",
            deficit=total - profile.capacity,
        )
    return tol


def full_utilization_tunnel(profile: CpuIdlingProfile, buffer_bits=np.inf) -> FeasibilityTunnel:
    """Tunnel for offloading exactly the helper's whole spare capacity.

    The helper must never starve, so the floor is the capacity curve itself;
    the ceiling adds the receive-buffer headroom, capped by the transfer size.
    It is the proportional tunnel of the largest size, and moves as one.
    """
    n = _idle_span(profile)
    curve = profile.parts
    cap = profile.capacity
    return _build_tunnel("full", curve, curve[0][:n], curve[1][:n], cap, 0.0, (cap, 0.0, 1.0), buffer_bits)


def effective_tunnel(profile: CpuIdlingProfile, offload_bits: float, buffer_bits=np.inf) -> FeasibilityTunnel:
    """Tunnel for a transfer smaller than capacity, buffer at least as large.

    The helper may stay idle for ``capacity - offload_bits`` worth of cycles,
    so the floor is the capacity curve shifted down by that slack and clamped.
    """
    return _slack_tunnel("effective", profile, offload_bits, buffer_bits)


def _slack_tunnel(kind: str, profile: CpuIdlingProfile, offload_bits: float, buffer_bits) -> FeasibilityTunnel:
    """The effective floor, the capacity curve less the slack ``capacity -
    offload_bits``, under the buffer's ceiling; the effective family's
    buffer must hold the whole transfer."""
    total = float(offload_bits)
    tol = _check_transfer(profile, total)
    if kind == "effective" and buffer_bits < total - tol:
        raise ValueError(f"effective tunnel assumes buffer_bits holds the whole transfer, got {buffer_bits}")
    n = _idle_span(profile)
    curve = profile.parts
    slack = profile.capacity - total
    return _build_tunnel(kind, curve, curve[0][:n], curve[1][:n], total, slack, _SIZE_SLACK, buffer_bits)


def proportional_tunnel(profile: CpuIdlingProfile, offload_bits: float, buffer_bits) -> FeasibilityTunnel:
    """Small-buffer tunnel: the helper computes at a proportionally derated pace.

    Scaling the idle rate by ``offload_bits / capacity`` and requiring full
    utilization of the scaled curve keeps the buffer constraint honest for
    buffers smaller than the transfer. A buffer holding the whole transfer
    leaves the ceiling flat at the transfer size, so the tunnel is then
    ``full_utilization_tunnel(profile, inf)`` scaled by ``offload_bits /
    capacity``.
    """
    total = float(offload_bits)
    _check_transfer(profile, total)
    n = _idle_span(profile)
    factor = min(total / profile.capacity, 1.0)
    if not factor > 0.0:
        raise ValueError(f"offload_bits must be positive, got {offload_bits}")
    rate = profile.helper_hz * factor / profile.cycles_per_bit
    durations, idle, edges, _ = profile.lists
    # the derated curve's values, summed in order as build_profile sums the profile's own
    pieces = zip(durations, idle)
    cum = [0.0, *accumulate([d * rate if rising else 0.0 for d, rising in pieces])]
    curve, total = (edges, cum, idle, rate), cum[-1]
    return _build_tunnel("proportional", curve, edges[:n], cum[:n], total, 0.0, (total, 0.0, 1.0), buffer_bits)


def lazy_first_tunnel(profile: CpuIdlingProfile, offload_bits: float, buffer_bits) -> FeasibilityTunnel:
    """Tunnel for the policy that lets the helper compute as late as possible.

    The helper's computing curve is pinned to the latest feasible one (the
    effective floor), and the buffer constraint is taken relative to it.
    """
    return _slack_tunnel("lazy", profile, offload_bits, buffer_bits)


def _chunked_tunnel(kind, profile, arrivals, ratio, timeline, effective) -> FeasibilityTunnel:
    """Share ``ratio`` of every chunk offloaded; ``effective`` leaves the
    helper's unused capacity as slack, otherwise the floor is its full curve."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"offload ratio must be in [0, 1], got {ratio}")
    tl = timeline if timeline is not None else merge_events(profile, arrivals)
    if tl.idle_end_index is None:
        raise InfeasibleError("helper CPU is never idle, nothing can be offloaded")
    end = tl.idle_end_index + 1
    times, bits, values = (seq[:end] for seq in tl.lists)
    late = fsum(tl.lists[1][end - 1 :])
    bits[-1] = 0.0  # data arriving at the last idle instant cannot be served
    served = fsum(bits)
    total = ratio * served
    slack = profile.capacity - total if effective else 0.0
    moves = (np.inf, -served if effective else 0.0, served)
    return _build_tunnel(kind, profile.parts, times, values, total, slack, moves, bits=bits, share=ratio, late=late)


def bursty_effective_tunnel(
    profile: CpuIdlingProfile,
    arrivals: ArrivalProcess,
    ratio: float,
    timeline: MergedTimeline | None = None,
) -> FeasibilityTunnel:
    """Tunnel for offloading a fixed share of each arriving data chunk.

    The floor is the capacity curve minus the helper's total slack, clamped at
    zero; the ceiling is the offloaded share of data that has already arrived.
    Chunks arriving at or after the last idle instant make every positive
    share infeasible, which shows up as a floor/ceiling conflict, not an error.
    """
    return _chunked_tunnel("bursty-effective", profile, arrivals, ratio, timeline, True)


def bursty_tunnel(
    profile: CpuIdlingProfile,
    arrivals: ArrivalProcess,
    ratio: float,
    timeline: MergedTimeline | None = None,
) -> FeasibilityTunnel:
    """Full-utilization tunnel for chunked arrivals: floor is the capacity curve.

    Only consistent (feasible) when the offloaded share equals the whole
    capacity; otherwise the endpoint mismatch reports as infeasible.
    """
    return _chunked_tunnel("bursty", profile, arrivals, ratio, timeline, False)


def local_compute_tunnel(arrivals: ArrivalProcess, local, ratio: float) -> FeasibilityTunnel:
    """Feasibility tunnel for the user computing its own share of each chunk.

    The user CPU runs at a constant rate through the whole window, so it is
    the chunked construction of ``bursty_effective_tunnel`` over the user's
    own profile of one idle epoch, with the kept share ``1 - ratio``.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"offload ratio must be in [0, 1], got {ratio}")
    horizon = arrivals.horizon
    own = build_profile([Epoch(horizon, True)], local.cpu_hz, local.cycles_per_bit, horizon)
    return _chunked_tunnel("local", own, arrivals, 1.0 - ratio, None, True)


def max_offload_ratio(
    profile: CpuIdlingProfile,
    arrivals: ArrivalProcess,
    timeline: MergedTimeline | None = None,
) -> float:
    """Largest per-chunk offload share the helper can absorb.

    For every instant, the offloaded part of data arriving from then on must
    fit into the capacity remaining after it.
    """
    tl = timeline if timeline is not None else merge_events(profile, arrivals)
    if arrivals.total <= 0.0:
        return 1.0
    if tl.idle_end_index is None:
        return 0.0
    cap = profile.capacity
    _, bits, cum = tl.lists
    tails = [*accumulate(reversed(bits))][::-1]  # bits arriving at or after each vertex, as np.cumsum adds
    best = 1.0
    for used, tail in zip(cum, tails):
        if tail <= 0.0:
            break
        best = min(best, max(cap - used, 0.0) / tail)
    return best


def min_offload_ratio(arrivals: ArrivalProcess, local) -> float:
    """Smallest per-chunk offload share the user's own CPU can tolerate.

    The kept share of data arriving from any instant on must fit into the
    local computing capacity left before the deadline.
    """
    if arrivals.total <= 0.0:
        return 0.0
    rate = local.cpu_hz / local.cycles_per_bit
    horizon = arrivals.horizon
    times, sizes = arrivals.lists
    tails = [*accumulate(reversed(sizes))][::-1]  # bits arriving at or after each chunk, as np.cumsum adds
    worst = 0.0
    for t, tail in zip(times, tails):
        if tail <= 0.0:
            break
        room = rate * (horizon - t)
        worst = max(worst, 1.0 - room / tail)
    return float(worst)


def format_tunnel(tunnel: FeasibilityTunnel) -> str:
    lines = [f"# kind={tunnel.kind} total={tunnel.total:.12g} buffer={tunnel.buffer_bits:.12g}"]
    lines.append("# time_s,floor_bits,ceiling_bits")
    for t, lo, hi in zip(*tunnel.lists[:3]):
        lines.append(f"{t:.12g},{lo:.12g},{hi:.12g}")
    return "\n".join(lines) + "\n"
