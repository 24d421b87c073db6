"""Feasibility tunnels for cumulative transmission curves.

A tunnel is a pair of piecewise-linear envelopes (floor, ceiling) over a
shared vertex grid. Any nondecreasing cumulative-bits curve that stays inside
the tunnel and ends at ``total`` is a schedule the serving CPU can actually
keep up with: the floor encodes "transmit early enough that the CPU never runs
out of work it still needs to finish", the ceiling encodes "never send data
the receive buffer cannot hold or that has not arrived yet".

Every tunnel family is one construction, ``_build_tunnel``, applied to a
capacity curve (the helper's idle profile, the same profile at a derated
pace, or the user's own CPU as the line ``rate * t``):

- floor = max(capacity - slack, 0), where ``slack`` is the capacity the
  transfer may leave unused (zero for full utilization);
- ceiling = min(floor + buffer, total) for a receive buffer, or the
  offloaded share of the data that has already arrived for chunked
  workloads.

The families differ only in curve, slack and ceiling rule. All envelope
breakpoints are materialized as vertices (capacity-curve kinks, the
crossings of the slack and buffer levels, arrival instants), so checking a
piecewise-linear curve at the vertices alone is exact. Step-shaped
availability ceilings are stored by their left limits, which is the binding
value for a continuous curve.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cpu_profile import (
    TIME_ATOL,
    ArrivalProcess,
    CapacityCurve,
    CpuIdlingProfile,
    MergedTimeline,
    merge_events,
)
from .errors import InfeasibleError

BITS_RTOL = 1e-9
BITS_ATOL = 1e-6


def bits_tol(scale: float) -> float:
    """Comparison tolerance for bit quantities of the given magnitude."""
    return max(BITS_ATOL, BITS_RTOL * abs(scale))


@dataclass(frozen=True, eq=False)
class FeasibilityTunnel:
    """Vertex grid plus envelopes and the bookkeeping verify checks need.

    ``cum_capacity`` is the computing-capacity curve the tunnel was built
    against (the derated one for proportional tunnels); ``arrival_bits[v]`` is
    data arriving exactly at vertex v (zero for one-shot tunnels).
    ``buffer_bits`` is the receive buffer size (may be inf). ``cpu_flip`` is
    derived from ``cum_capacity`` when first read.
    """

    kind: str
    times: np.ndarray
    floor: np.ndarray
    ceiling: np.ndarray
    total: float
    cum_capacity: np.ndarray
    arrival_bits: np.ndarray
    buffer_bits: float

    def __post_init__(self):
        n = len(self.times)
        if n < 2:
            raise ValueError("tunnel needs at least two vertices")
        if (self.times[1:] <= self.times[:-1]).any():
            raise ValueError("tunnel vertex times must be strictly increasing")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

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

    def is_feasible(self, tol: float | None = None) -> bool:
        tol = bits_tol(self.total) if tol is None else tol
        if np.any(self.floor > self.ceiling + tol):
            return False
        if self.floor[0] > tol or self.ceiling[0] > tol:
            return False
        return (
            abs(float(self.floor[-1]) - self.total) <= tol
            and abs(float(self.ceiling[-1]) - self.total) <= tol
        )


def _build_tunnel(
    kind: str,
    curve: CapacityCurve,
    times: np.ndarray,
    total: float,
    slack: float,
    buffer_bits: float = np.inf,
    bits: np.ndarray | None = None,
    share: float | None = None,
    late: float = 0.0,
) -> FeasibilityTunnel:
    """The one tunnel construction every family goes through.

    ``times`` are the base vertices, ending where the serving CPU computes its
    last bit, and ``bits`` the data arriving at each (none by default). The
    floor is ``max(curve - slack, 0)``, pinned to ``total`` at the end when
    there is slack. Without ``share`` the ceiling is ``min(floor +
    buffer_bits, total)``; with it, the ceiling is ``share`` of the data that
    arrived before each vertex, and ``share`` of the ``late`` data (arriving
    at or after the last vertex, so never served) lifts the floor's end above
    ``total``. Vertices are added where the curve crosses ``slack`` and, for
    a buffer smaller than the transfer, ``capacity - buffer_bits``.
    """
    if not buffer_bits >= 0:
        raise ValueError(f"buffer_bits must be nonnegative, got {buffer_bits}")
    capacity = float(curve.cum_bits[-1])
    levels = [slack]
    if share is None and buffer_bits < total:
        levels.append(capacity - buffer_bits)  # above it the ceiling is flat
    for level in levels:
        if 0.0 < level < capacity:
            t = curve.time_at(level)
            i = int(times.searchsorted(t))
            near_left = i > 0 and t - times[i - 1] <= TIME_ATOL
            near_right = i < len(times) and times[i] - t <= TIME_ATOL
            if not near_left and not near_right:
                times = np.concatenate((times[:i], [t], times[i:]))
                if bits is not None:
                    bits = np.concatenate((bits[:i], [0.0], bits[i:]))
    bits = np.zeros(len(times)) if bits is None else bits
    cum = curve.at(times)
    floor = np.maximum(cum - slack, 0.0)
    if slack > 0.0:
        floor[-1] = total
    if share is None:
        ceiling = np.minimum(floor + buffer_bits, total)
        ceiling[0] = 0.0
        ceiling[-1] = total
    else:
        ceiling = share * np.concatenate(([0.0], bits[:-1].cumsum()))
        if share * late > bits_tol(total):
            floor[-1] = max(floor[-1], total + share * late)
    return FeasibilityTunnel(kind, times, floor, ceiling, total, cum, bits, float(buffer_bits))


def _idle_span(profile: CpuIdlingProfile) -> np.ndarray:
    """Profile boundaries up to the last idle instant."""
    k = profile.last_idle_index
    if k is None:
        raise InfeasibleError("helper CPU is never idle, nothing can be offloaded")
    return profile.boundaries[: k + 2].copy()


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
    """
    times = _idle_span(profile)
    return _build_tunnel("full", profile.curve, times, profile.capacity, 0.0, buffer_bits)


def effective_tunnel(profile: CpuIdlingProfile, offload_bits: float, buffer_bits=np.inf) -> FeasibilityTunnel:
    """Tunnel for a transfer smaller than capacity, buffer at least as large.

    The helper may stay idle for ``capacity - offload_bits`` worth of cycles,
    so the floor is the capacity curve shifted down by that slack and clamped.
    """
    total = float(offload_bits)
    tol = _check_transfer(profile, total)
    if buffer_bits < total - tol:
        raise ValueError(f"effective tunnel assumes buffer_bits holds the whole transfer, got {buffer_bits}")
    times = _idle_span(profile)
    return _build_tunnel("effective", profile.curve, times, total, profile.capacity - total, buffer_bits)


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
    times = _idle_span(profile)
    factor = min(total / profile.capacity, 1.0)
    if not factor > 0.0:
        raise ValueError(f"offload_bits must be positive, got {offload_bits}")
    rate = profile.helper_hz * factor / profile.cycles_per_bit
    curve = CapacityCurve.from_durations(profile.durations, profile.curve.idle, rate, profile.horizon)
    return _build_tunnel("proportional", curve, times, float(curve.cum_bits[-1]), 0.0, buffer_bits)


def lazy_first_tunnel(profile: CpuIdlingProfile, offload_bits: float, buffer_bits) -> FeasibilityTunnel:
    """Tunnel for the policy that lets the helper compute as late as possible.

    The helper's computing curve is pinned to the latest feasible one (the
    effective floor), and the buffer constraint is taken relative to it.
    """
    total = float(offload_bits)
    _check_transfer(profile, total)
    times = _idle_span(profile)
    return _build_tunnel("lazy", profile.curve, times, total, profile.capacity - total, buffer_bits)


def _chunked_tunnel(kind, profile, arrivals, ratio, timeline, effective) -> FeasibilityTunnel:
    """Share ``ratio`` of every chunk offloaded; ``effective`` leaves the
    helper's unused capacity as slack, otherwise the floor is its full curve."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"offload ratio must be in [0, 1], got {ratio}")
    tl = timeline if timeline is not None else merge_events(profile, arrivals)
    if tl.idle_end_index is None:
        raise InfeasibleError("helper CPU is never idle, nothing can be offloaded")
    k_end = tl.idle_end_index
    bits = tl.arrival_bits[: k_end + 1].copy()
    bits[-1] = 0.0  # data arriving at the last idle instant cannot be served
    total = ratio * float(bits.sum())
    slack = profile.capacity - total if effective else 0.0
    late = float(tl.arrival_bits[k_end:].sum())
    return _build_tunnel(
        kind, profile.curve, tl.times[: k_end + 1].copy(), total, slack, bits=bits, share=ratio, late=late
    )


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

    The user CPU runs at a constant rate through the whole window, so the
    capacity curve is the line ``rate * t``; otherwise the construction
    mirrors the chunked-arrival transfer tunnel.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"offload ratio must be in [0, 1], got {ratio}")
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
    return _build_tunnel("local", line, times, total, rate * horizon - total, bits=bits, share=share)


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
    tails = np.cumsum(tl.arrival_bits[::-1])[::-1]  # bits arriving at or after each vertex
    best = 1.0
    for k in range(len(tl.times)):
        if tails[k] <= 0.0:
            break
        best = min(best, max(cap - tl.cum_capacity[k], 0.0) / tails[k])
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
    tails = np.cumsum(arrivals.sizes[::-1])[::-1]
    worst = 0.0
    for t, tail in zip(arrivals.times, tails):
        if tail <= 0.0:
            break
        room = rate * (horizon - t)
        worst = max(worst, 1.0 - room / tail)
    return worst


def format_tunnel(tunnel: FeasibilityTunnel) -> str:
    lines = [f"# kind={tunnel.kind} total={tunnel.total:.12g} buffer={tunnel.buffer_bits:.12g}"]
    lines.append("# time_s,floor_bits,ceiling_bits")
    for t, lo, hi in zip(tunnel.times, tunnel.floor, tunnel.ceiling):
        lines.append(f"{t:.12g},{lo:.12g},{hi:.12g}")
    return "\n".join(lines) + "\n"
