"""Minimum-energy transmission schedules via string pulling.

Transmit power is strictly convex in rate, so among all cumulative curves
through a feasibility tunnel the one minimizing energy is the shortest path,
the taut string between the pinned endpoints. ``pull_string`` computes it by
divide and conquer: test the straight chord, bend it at the worst-violated
vertex (onto the floor or ceiling, whichever is hit harder), recurse on both
halves. A chord over fewer than ``_SHORT_SPAN`` interior vertices is checked
in a plain Python loop over float lists, where numpy's cost per call would
dominate; a longer one with numpy slices. The two scans do the same float64
arithmetic and break ties alike, so they pull the same string bit for bit.
The feasibility check before the pull switches at the same size, onto the
arrays a long build keeps: at 106 vertices they take 3.1 us against 4.5 on
the lists, and the two break even near 70, below which the arrays lose at
most 1 us (2-core Xeon, Python 3.11.7, numpy 2.4.6). The schedule the pull
returns is a list record (``cpu_profile._ListRecord``), as a tunnel is: the
slopes and a short schedule's energy read its lists; a long schedule takes
its tunnel's ``times`` array and prices its energy on arrays.
``energy_slope`` reads off a pulled string how its energy moves with its
tunnel family's parameter (a transfer size or a share), from the
multipliers at its contacts and the scalars the tunnel recorded
(``FeasibilityTunnel.moves``), or in closed form where that sum
telescopes; ``_scaled_slope`` is the slope of a string scaled to a size.
Below ``_SHORT_SPAN`` interior vertices both sum in Python floats, from
the schedule's lists and per-vertex slopes derived from the tunnel's
lists; this module alone decides the branch.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, expm1, inf, nan

import numpy as np

from .cpu_profile import (
    _SHORT_SPAN,
    ArrivalProcess,
    CpuIdlingProfile,
    MergedTimeline,
    _ListArray,
    _ListRecord,
    _float_lists,
    _keep,
)
from .energy import _LN2, ChannelParams, schedule_energy
from .errors import InfeasibleError
from .tunnel import (
    _SIZE_SLACK,
    FeasibilityTunnel,
    _build_tunnel,
    _check_transfer,
    _fits,
    bits_tol,
    bursty_effective_tunnel,
    effective_tunnel,
    full_utilization_tunnel,
    proportional_tunnel,
)


class OffloadSchedule(_ListRecord):
    """Piecewise-constant-rate transmission plan as a cumulative curve.

    A list record (``cpu_profile._ListRecord``) of ``lists`` (times,
    cumulative), which the energy and the slopes read.
    """

    times = _ListArray(0)
    cumulative = _ListArray(1)

    def __init__(self, times, cumulative):
        self.lists = _float_lists(self, (times, cumulative))

    @property
    def bits(self) -> np.ndarray:
        return np.diff(self.cumulative)

    @property
    def rates(self) -> np.ndarray:
        return np.diff(self.cumulative) / np.diff(self.times)

    @property
    def total(self) -> float:
        return float(self.lists[1][-1])

    def energy(self, channel: ChannelParams) -> float:
        if len(self.lists[0]) - 2 < _SHORT_SPAN:
            return schedule_energy(*self.lists, channel)
        return schedule_energy(self.times, self.cumulative, channel)  # arrays made once, not per call


def _taut_values(tunnel: FeasibilityTunnel, tol: float) -> list:
    """Vertex values of the shortest path through the tunnel, as a float list.

    Endpoints are pinned to the envelope midpoints (equal there for any
    consistent tunnel). Each recursion step fixes the chord's worst-violating
    vertex onto the envelope it breaches, preferring the floor on ties and the
    earliest vertex among equals, then splits. A short chord is scanned on the
    tunnel's float lists, a long one on its arrays; both evaluate the chord as
    ``y_lo + slope * (t - t_lo)`` in float64, so they give the same bits.
    """
    t, f, c = tunnel.lists[:3]
    n = len(t) - 1
    y = [0.0] * (n + 1)
    y[0] = 0.5 * (f[0] + c[0])
    y[n] = 0.5 * (f[n] + c[n])
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        y_lo, t_lo = y[lo], t[lo]
        slope = (y[hi] - y_lo) / (t[hi] - t_lo)
        if hi - lo - 1 < _SHORT_SPAN:
            worst, idx = tol, 0  # strict > keeps the earliest of equal violations
            for i in range(lo + 1, hi):
                s = y_lo + slope * (t[i] - t_lo)
                viol = f[i] - s  # the larger of the floor and ceiling breaches
                above = s - c[i]
                if above > viol:
                    viol = above
                if viol > worst:
                    worst, idx = viol, i
            if not idx:
                for i in range(lo + 1, hi):
                    y[i] = y_lo + slope * (t[i] - t_lo)
                continue
            s = y_lo + slope * (t[idx] - t_lo)
            y[idx] = f[idx] if f[idx] - s >= s - c[idx] else c[idx]
        else:
            seg = y_lo + slope * (tunnel.times[lo + 1 : hi] - t_lo)
            below = tunnel.floor[lo + 1 : hi] - seg
            above = seg - tunnel.ceiling[lo + 1 : hi]
            viol = np.maximum(below, above)
            k = int(viol.argmax())
            if viol[k] <= tol:
                y[lo + 1 : hi] = seg.tolist()
                continue
            idx = lo + 1 + k
            y[idx] = f[idx] if below[k] >= above[k] else c[idx]
        stack.append((idx, hi))
        stack.append((lo, idx))
    return y


def _check_feasible(tunnel: FeasibilityTunnel, floor: list, ceiling: list) -> float:
    """The tunnel's bit tolerance; raises ``InfeasibleError`` if no schedule
    fits through the tunnel within it. ``floor`` and ``ceiling`` are its
    envelopes as float lists; a long tunnel's are compared on its arrays (a
    NaN passes either way) and its ends by ``_fits``."""
    tol = bits_tol(tunnel.total)
    if len(floor) - 2 < _SHORT_SPAN:
        if _fits(floor, ceiling, tunnel.total, tol):
            return tol
    elif not np.count_nonzero(tunnel.floor > tunnel.ceiling + tol):
        if _fits(floor[:: len(floor) - 1], ceiling[:: len(floor) - 1], tunnel.total, tol):
            return tol
    raise InfeasibleError(f"tunnel admits no schedule (deficit {tunnel.deficit:.6g} bits)", deficit=tunnel.deficit)


def pull_string(tunnel: FeasibilityTunnel) -> OffloadSchedule:
    """Minimum-energy schedule through a feasible tunnel."""
    times, floor, ceiling = tunnel.lists[:3]
    tol = _check_feasible(tunnel, floor, ceiling)
    schedule = OffloadSchedule(times, _taut_values(tunnel, 1e-3 * tol))
    if len(times) - 2 >= _SHORT_SPAN:
        _keep(schedule, "times", tunnel.times)  # a long tunnel made this array at construction
    return schedule


def energy_slope(schedule: OffloadSchedule, tunnel: FeasibilityTunnel, channel: ChannelParams, corner=None) -> float:
    """Slope of the energy of the taut string ``schedule`` through
    ``tunnel`` in the family's own parameter, read off its ``moves``.

    With ``m`` the marginal power ``p'(rate)`` of each segment, the string
    is held at interior vertex k by the multiplier ``w_k = m_{k-1} - m_k``:
    positive where it bends down onto the floor, negative where it bends up
    under the ceiling. By the envelope theorem the energy moves by ``sum
    max(w, 0) * d_floor + sum min(w, 0) * d_ceiling + m_last * d_total``:
    where positive, the floor ``curve - slack`` moves by the curve's move
    less the slack's; a buffer's ceiling ``min(floor + buffer, total)`` with
    the floor below the total and with the total at it; a share's ceiling
    ``share * arrived`` by the data arrived, ``ceiling / share``.

    Where the curve stays put under a buffer's ceiling and the slack falls
    as the total rises (effective and lazy-first tunnels), every envelope
    past the corner vertex c, where the floor leaves zero, moves with the
    total, and none the string meets before it does: the sum telescopes to
    ``m_c * d_total``. The corner moves in time by ``d_slack /
    tunnel.rate``, which adds ``(h(r_{c-1}) - h(r_c)) * d_slack /
    tunnel.rate``, with ``h(r) = p(r) - r p'(r)`` the change of a segment's
    energy with its duration at fixed bits. Only these two segments are
    read, in Python floats. ``corner`` puts the corner at another vertex:
    at a busy epoch's start it gives the slope toward larger sizes, at its
    end toward smaller.

    An overflowing marginal power makes the slope ``+inf``, as the energy
    is; a NaN rate makes the multiplier sum NaN.
    """
    scale, d_slack, d_total = tunnel.moves
    if tunnel.share is not None or scale != inf or d_slack != -d_total:
        _, floor, ceiling, values = tunnel.lists[:4]
        d_floor = [v / scale - d_slack if f > 0.0 else 0.0 for f, v in zip(floor, values)]
        if tunnel.share is None:
            d_ceiling = [d_total if c >= tunnel.total else d for c, d in zip(ceiling, d_floor)]
        else:
            d_ceiling = [c / tunnel.share for c in ceiling]
        return _multiplier_sum(schedule, channel, d_floor, d_ceiling, d_total)
    times, cumulative = schedule.lists
    n = len(times) - 1
    c = tunnel.corner if corner is None else corner
    c = n if c is None else c
    lo, hi = max(c - 1, 0), min(c + 1, n)
    t = times[lo : hi + 1]
    y = cumulative[lo : hi + 1]
    w, power = channel.bandwidth_hz, channel.noise_w / channel.gain
    # with x = r ln2 / w: p(r) = power * expm1(x), p'(r) = power * ln2 / w * e^x
    xs = [(y[k + 1] - y[k]) / (t[k + 1] - t[k]) / w * _LN2 for k in range(len(t) - 1)]
    if max(xs) > 709.0:
        return inf  # exp overflows past ln(DBL_MAX)
    slope = power * _LN2 / w * exp(xs[-1]) * d_total  # m_c, or at c = n the last segment's
    if 0 < c < n:  # the first and last vertices stay put in time
        h_before, h_after = (power * (expm1(x) - x * exp(x)) for x in xs)
        slope += (h_before - h_after) * d_slack / tunnel.rate
    return slope


def _multiplier_sum(schedule: OffloadSchedule, channel: ChannelParams, d_floor, d_ceiling, d_total: float) -> float:
    """The multiplier sum of ``energy_slope``, given the envelopes' slopes
    as float lists: in Python floats below ``_SHORT_SPAN`` interior
    vertices, with numpy above. The two agree to rounding, not bit for bit
    (another summation order, another power function)."""
    t, c = schedule.lists
    if len(t) - 2 >= _SHORT_SPAN:
        m = channel.marginal_energy_per_bit(schedule.rates)
        top = float(np.max(m))
        if not 0.0 < top < np.inf:
            return top
        m = m / top  # so no sum below can overflow into inf - inf
        w = m[:-1] - m[1:]
        s = np.maximum(w, 0.0) @ d_floor[1:-1] + np.minimum(w, 0.0) @ d_ceiling[1:-1] + m[-1] * d_total
        return top * float(s)
    m = _marginal_powers(channel, [(c1 - c0) / (t1 - t0) for t0, t1, c0, c1 in zip(t, t[1:], c, c[1:])])
    top = max(m)
    if not 0.0 < top < inf:
        return nan if any(v != v for v in m) else top  # max keeps a NaN only where it comes first
    m = [v / top for v in m]
    on_floor = on_ceiling = 0.0
    for before, after, df, dc in zip(m, m[1:], d_floor[1:], d_ceiling[1:]):
        w = before - after
        if w > 0.0:
            on_floor += w * df
        else:
            on_ceiling += w * dc
    return top * float(on_floor + on_ceiling + m[-1] * d_total)


def _scaled_slope(full: OffloadSchedule, channel: ChannelParams, offload_bits: float) -> float:
    """Slope in the transfer size of the energy of ``full`` scaled to
    ``offload_bits``: ``sum over segments of p'(s r) * bits / C`` with ``s =
    offload_bits / C``, ``r`` and ``bits`` the segments' rates and bits and
    ``C`` the string's total, in Python floats below ``_SHORT_SPAN`` interior
    vertices and with numpy above, as ``energy_slope``. An overflowing
    ``p'`` only meets positive bits, so the slope is then ``+inf``, never
    NaN."""
    t, c = full.lists
    total = c[-1]
    s = offload_bits / total
    if len(t) - 2 >= _SHORT_SPAN:
        return float(channel.marginal_energy_per_bit(s * full.rates) @ full.bits) / total
    bits = [c1 - c0 for c0, c1 in zip(c, c[1:])]
    rates = [b / (t1 - t0) for b, t0, t1 in zip(bits, t, t[1:])]
    slope = 0.0
    for m, b in zip(_marginal_powers(channel, rates, s), bits):
        slope += m * b
    return slope / total


def _marginal_powers(channel: ChannelParams, rates, scale: float = 1.0) -> list:
    """``channel.marginal_energy_per_bit(scale * rate)`` of each of
    ``rates``, in Python floats: ``+inf`` where the power of two overflows,
    as numpy gives it and Python's ``**`` would raise."""
    w = channel.bandwidth_hz
    base = channel.noise_w * _LN2 / (w * channel.gain)
    return [inf if x >= 1024.0 else base * 2.0 ** x for x in [scale * r / w for r in rates]]


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
    """The empty transfer, over [0, the last idle instant or the horizon]."""
    end = profile.idle_end if profile.idle_end is not None else profile.horizon
    cap = profile.capacity
    tunnel = _build_tunnel("effective", profile.parts, [0.0, end], [0.0, cap], 0.0, cap, _SIZE_SLACK, buffer_bits)
    return OffloadSchedule(tunnel.lists[0], [0.0, 0.0]), tunnel


def min_energy_offload(
    profile: CpuIdlingProfile,
    offload_bits: float,
    buffer_bits=np.inf,
) -> tuple[OffloadSchedule, FeasibilityTunnel]:
    """Optimal one-shot transfer schedule for a given transfer size.

    Picks the tunnel family by how the transfer compares to the helper's
    capacity and the receive buffer, then pulls the string through it.
    The buffer is checked first, then ``tunnel._check_transfer`` rejects a
    transfer that is not finite or does not fit the capacity, so a bad
    buffer is a configuration error whatever the transfer. A transfer within
    the size tolerance of zero is the empty one.
    """
    if not buffer_bits >= 0:
        raise ValueError(f"buffer_bits must be nonnegative, got {buffer_bits}")
    tol = _check_transfer(profile, offload_bits)
    if offload_bits <= tol:
        return _zero_solution(profile, buffer_bits)
    if offload_bits >= profile.capacity - tol:
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


def offload_energy(profile, offload_bits, buffer_bits, channel: ChannelParams, pulled=None) -> float:
    """Energy of the optimal one-shot transfer of ``offload_bits``. A list
    ``pulled`` is set to the schedule and tunnel the energy was read off."""
    schedule, tunnel = min_energy_offload(profile, offload_bits, buffer_bits)
    if pulled is not None:
        pulled[:] = schedule, tunnel
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
