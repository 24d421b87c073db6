"""Minimum-energy transmission schedules via string pulling.

Transmit power is strictly convex in rate, so among all cumulative curves
through a feasibility tunnel the one minimizing energy is the shortest path,
the taut string between the pinned endpoints. ``pull_string`` computes it by
divide and conquer: test the straight chord, bend it at the worst-violated
vertex (onto the floor or ceiling, whichever is hit harder), recurse on both
halves. ``envelope_slope`` reads off a pulled string how its energy moves
with any parameter that moves the tunnel, from the multipliers at its
contacts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cpu_profile import ArrivalProcess, CpuIdlingProfile, MergedTimeline
from .energy import ChannelParams, schedule_energy
from .errors import InfeasibleError
from .tunnel import (
    FeasibilityTunnel,
    bits_tol,
    bursty_effective_tunnel,
    effective_tunnel,
    full_utilization_tunnel,
    proportional_tunnel,
)


@dataclass(frozen=True, eq=False)
class OffloadSchedule:
    """Piecewise-constant-rate transmission plan as a cumulative curve."""

    times: np.ndarray
    cumulative: np.ndarray

    @property
    def bits(self) -> np.ndarray:
        return np.diff(self.cumulative)

    @property
    def rates(self) -> np.ndarray:
        return np.diff(self.cumulative) / np.diff(self.times)

    @property
    def total(self) -> float:
        return float(self.cumulative[-1])

    def energy(self, channel: ChannelParams) -> float:
        return schedule_energy(self.times, self.cumulative, channel)


def _taut_values(times, floor, ceiling, tol):
    """Vertex values of the shortest path between the envelopes.

    Endpoints are pinned to the envelope midpoints (equal there for any
    consistent tunnel). Each recursion step fixes the chord's worst-violating
    vertex onto the envelope it breaches, preferring the floor on ties and the
    earliest vertex among equals, then splits.
    """
    n = len(times) - 1
    y = np.empty(n + 1)
    y[0] = 0.5 * (floor[0] + ceiling[0])
    y[n] = 0.5 * (floor[n] + ceiling[n])
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        slope = (y[hi] - y[lo]) / (times[hi] - times[lo])
        seg = y[lo] + slope * (times[lo + 1 : hi] - times[lo])
        below = floor[lo + 1 : hi] - seg
        above = seg - ceiling[lo + 1 : hi]
        viol = np.maximum(below, above)
        k = int(np.argmax(viol))
        if viol[k] <= tol:
            y[lo + 1 : hi] = seg
            continue
        idx = lo + 1 + k
        y[idx] = floor[idx] if below[k] >= above[k] else ceiling[idx]
        stack.append((idx, hi))
        stack.append((lo, idx))
    return y


def pull_string(tunnel: FeasibilityTunnel) -> OffloadSchedule:
    """Minimum-energy schedule through a feasible tunnel."""
    tol = bits_tol(tunnel.total)
    if not tunnel.is_feasible(tol):
        raise InfeasibleError(
            f"tunnel admits no schedule (deficit {tunnel.deficit:.6g} bits)",
            deficit=tunnel.deficit,
        )
    y = _taut_values(tunnel.times, tunnel.floor, tunnel.ceiling, 1e-3 * tol)
    return OffloadSchedule(tunnel.times.copy(), y)


def envelope_slope(schedule: OffloadSchedule, channel: ChannelParams, d_floor, d_ceiling, d_total: float) -> float:
    """Slope of a taut string's energy in a parameter that moves its tunnel.

    With ``m`` the marginal power ``p'(rate)`` of each segment, the string
    is held at interior vertex k by the multiplier ``w_k = m_{k-1} - m_k``:
    positive where it bends down onto the floor, negative where it bends up
    under the ceiling, zero where it runs straight. By the envelope theorem
    the energy then moves by ``sum max(w, 0) * d_floor + sum min(w, 0) *
    d_ceiling + m_last * d_total`` per unit of the parameter, given the
    per-vertex slopes of the floor and ceiling and the slope of the total.

    A marginal power that overflows makes the slope ``+inf`` (the energy is
    infinite there too); a NaN rate makes it NaN.
    """
    m = channel.marginal_energy_per_bit(schedule.rates)
    top = float(np.max(m))
    if not 0.0 < top < np.inf:
        return top
    m = m / top  # so no sum below can overflow into inf - inf
    w = m[:-1] - m[1:]
    s = np.maximum(w, 0.0) @ d_floor[1:-1] + np.minimum(w, 0.0) @ d_ceiling[1:-1] + m[-1] * d_total
    return top * float(s)


def floor_following_schedule(tunnel: FeasibilityTunnel) -> OffloadSchedule:
    """Benchmark policy: transmit as late as the tunnel floor allows."""
    tol = bits_tol(tunnel.total)
    if not tunnel.is_feasible(tol):
        raise InfeasibleError(
            f"tunnel admits no schedule (deficit {tunnel.deficit:.6g} bits)",
            deficit=tunnel.deficit,
        )
    return OffloadSchedule(tunnel.times.copy(), tunnel.floor.copy())


@dataclass(frozen=True)
class BufferTrace:
    """Helper-side replay of a schedule: greedy computing, vertex snapshots."""

    times: np.ndarray
    computed: np.ndarray
    backlog: np.ndarray
    overflow_bits: float
    completed: bool


def simulate_buffer(times, cumulative, capacity, buffer_bits, total) -> BufferTrace:
    """Replay a cumulative schedule against a computing-capacity curve.

    The helper computes received-but-uncomputed bits as fast as the capacity
    curve allows, so at each vertex the backlog is the worst-case shortfall
    ``max over earlier vertices of received-since minus capacity-since``.
    """
    y = np.asarray(cumulative, dtype=float)
    u = np.asarray(capacity, dtype=float)
    head = np.maximum.accumulate(u - y)
    backlog = np.maximum(0.0, (y - u) + head)
    computed = y - backlog
    tol = bits_tol(total)
    overflow = float(np.max(backlog - buffer_bits)) if np.isfinite(buffer_bits) else -np.inf
    completed = computed[-1] >= total - tol
    return BufferTrace(np.asarray(times, dtype=float), computed, backlog, overflow, completed)


@dataclass
class OptimalityReport:
    """Outcome of checking a schedule against taut-string optimality."""

    ok: bool
    feasible: bool
    notes: list[str] = field(default_factory=list)


_FLOOR_PHYSICAL = {"full", "effective", "proportional", "lazy", "bursty", "bursty-effective"}
_CEIL_BUFFER = {"full", "proportional"}
_CEIL_ARRIVAL = {"bursty", "bursty-effective"}


def verify_optimality(tunnel: FeasibilityTunnel, schedule: OffloadSchedule, tol=None) -> OptimalityReport:
    """Check feasibility and the bend structure of a schedule.

    A minimum-energy schedule changes rate only where a constraint binds:
    upward only against the ceiling (buffer full just before extra computing
    capacity opens, or new data arriving), downward only against the floor
    (backlog empty where the helper's capacity curve flattens). Every bend of
    the given schedule is checked against the matching contact, and for tunnel
    kinds with a physical computing curve the replayed backlog must agree.
    """
    tol = bits_tol(tunnel.total) if tol is None else tol
    notes: list[str] = []
    own = np.diff(schedule.cumulative)
    if own.min(initial=0.0) < -tol:
        notes.append("cumulative curve decreases")
    y = np.interp(tunnel.times, schedule.times, schedule.cumulative)
    if abs(y[0]) > tol:
        notes.append(f"schedule starts at {y[0]:.6g} bits, expected 0")
    if abs(y[-1] - tunnel.total) > tol:
        notes.append(f"schedule ends at {y[-1]:.6g} bits, expected {tunnel.total:.6g}")
    fv = float(np.max(tunnel.floor - y))
    cv = float(np.max(y - tunnel.ceiling))
    if fv > tol:
        notes.append(f"floor violated by {fv:.6g} bits")
    if cv > tol:
        notes.append(f"ceiling violated by {cv:.6g} bits")
    feasible = not notes

    trace = simulate_buffer(tunnel.times, y, tunnel.cum_capacity, tunnel.buffer_bits, tunnel.total)
    if feasible and not trace.completed:
        notes.append("helper cannot finish the offloaded bits by the deadline")
        feasible = False
    if feasible and trace.overflow_bits > tol:
        notes.append(f"receive buffer overflows by {trace.overflow_bits:.6g} bits")
        feasible = False

    tau = np.diff(tunnel.times)
    rates = np.diff(y) / tau
    for k in range(1, len(tunnel.times) - 1):
        dr = rates[k] - rates[k - 1]
        thr = tol * (1.0 / tau[k - 1] + 1.0 / tau[k])
        if abs(dr) <= thr:
            continue
        if dr > 0:
            if y[k] < tunnel.ceiling[k] - tol:
                notes.append(f"rate rises at t={tunnel.times[k]:.6g} without ceiling contact")
                continue
            buffer_bound = (
                tunnel.kind in _CEIL_BUFFER
                and np.isfinite(tunnel.buffer_bits)
                and tunnel.ceiling[k] < tunnel.total - tol
            )
            if buffer_bound:
                if tunnel.cpu_flip[k] != 1:
                    notes.append(f"rate rises at t={tunnel.times[k]:.6g} without the CPU turning idle")
                if abs(trace.backlog[k] - tunnel.buffer_bits) > tol:
                    notes.append(f"rate rises at t={tunnel.times[k]:.6g} with buffer not full")
            elif tunnel.kind in _CEIL_ARRIVAL and tunnel.arrival_bits[k] <= 0:
                notes.append(f"rate rises at t={tunnel.times[k]:.6g} without a data arrival")
        else:
            if y[k] > tunnel.floor[k] + tol:
                notes.append(f"rate drops at t={tunnel.times[k]:.6g} without floor contact")
                continue
            if tunnel.kind in _FLOOR_PHYSICAL:
                if tunnel.cpu_flip[k] != -1:
                    notes.append(f"rate drops at t={tunnel.times[k]:.6g} without the CPU turning busy")
                if trace.backlog[k] > tol:
                    notes.append(f"rate drops at t={tunnel.times[k]:.6g} with backlog {trace.backlog[k]:.6g}")
    return OptimalityReport(ok=not notes, feasible=feasible, notes=notes)


def _zero_solution(profile: CpuIdlingProfile, buffer_bits) -> tuple[OffloadSchedule, FeasibilityTunnel]:
    end = profile.idle_end if profile.idle_end is not None else profile.horizon
    times = np.array([0.0, end])
    zeros = np.zeros(2)
    tunnel = FeasibilityTunnel(
        "effective", times, zeros.copy(), zeros.copy(), 0.0,
        np.array([0.0, profile.capacity_at(end)]),
        zeros.copy(), float(buffer_bits),
    )
    return OffloadSchedule(times, zeros.copy()), tunnel


def min_energy_offload(
    profile: CpuIdlingProfile,
    offload_bits: float,
    buffer_bits=np.inf,
) -> tuple[OffloadSchedule, FeasibilityTunnel]:
    """Optimal one-shot transfer schedule for a given transfer size.

    Picks the tunnel family by how the transfer compares to the helper's
    capacity and the receive buffer, then pulls the string through it.
    """
    if not 0 <= offload_bits < np.inf:
        raise ValueError(f"offload_bits must be nonnegative and finite, got {offload_bits}")
    if not buffer_bits >= 0:
        raise ValueError(f"buffer_bits must be nonnegative, got {buffer_bits}")
    cap = profile.capacity
    tol = bits_tol(max(offload_bits, cap))
    if offload_bits <= tol:
        return _zero_solution(profile, buffer_bits)
    if offload_bits > cap + tol:
        raise InfeasibleError(
            f"transfer of {offload_bits} bits exceeds helper capacity {cap}",
            deficit=offload_bits - cap,
        )
    if offload_bits >= cap - tol:
        tunnel = full_utilization_tunnel(profile, buffer_bits)
    elif buffer_bits >= offload_bits:
        tunnel = effective_tunnel(profile, offload_bits, buffer_bits)
    else:
        tunnel = proportional_tunnel(profile, offload_bits, buffer_bits)
    return pull_string(tunnel), tunnel


def min_energy_offload_bursty(
    profile: CpuIdlingProfile,
    arrivals: ArrivalProcess,
    ratio: float,
    timeline: MergedTimeline | None = None,
) -> tuple[OffloadSchedule, FeasibilityTunnel]:
    """Optimal transfer schedule when a fixed share of each chunk is offloaded."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"offload ratio must be in [0, 1], got {ratio}")
    if ratio * arrivals.total <= bits_tol(arrivals.total):
        return _zero_solution(profile, np.inf)
    tunnel = bursty_effective_tunnel(profile, arrivals, ratio, timeline)
    return pull_string(tunnel), tunnel


def offload_energy(profile, offload_bits, buffer_bits, channel: ChannelParams) -> float:
    """Energy of the optimal one-shot transfer of ``offload_bits``."""
    schedule, _ = min_energy_offload(profile, offload_bits, buffer_bits)
    return schedule.energy(channel)


def bursty_offload_energy(profile, arrivals, ratio, channel: ChannelParams, timeline=None) -> float:
    """Energy of the optimal chunk-share transfer at the given ratio."""
    schedule, _ = min_energy_offload_bursty(profile, arrivals, ratio, timeline)
    return schedule.energy(channel)


def format_schedule(schedule: OffloadSchedule) -> str:
    lines = ["# time_s,cumulative_bits,rate_bps"]
    rates = np.append(schedule.rates, 0.0)
    for t, c, r in zip(schedule.times, schedule.cumulative, rates):
        lines.append(f"{t:.12g},{c:.12g},{r:.12g}")
    return "\n".join(lines) + "\n"
