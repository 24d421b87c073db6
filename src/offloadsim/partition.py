"""Splitting work between local computing and offloading.

For a one-shot load the only coupling between the two sides is the split
size ``l``. Local energy is linear in the kept bits. Transfer energy is
convex in ``l`` on each tunnel family, because the family's tunnels scale
into each other under convex combinations of the split:

- a buffer holding every transfer leaves effective tunnels, searched with
  golden section;
- a buffer below every transfer leaves proportional tunnels, whose floor
  ``(l/C) c(t)`` is linear in ``l`` and whose ceiling ``min((l/C) c(t) + B,
  l)`` is concave in it. One string pull gives the energy's slope in ``l``
  (``string_pull.energy_slope``, from the scalars by which the tunnel says
  its family moves with ``l``), so the split is the root of that slope
  minus the local energy per bit, found by safeguarded regula falsi;
- a buffer inside the feasible range splits it at ``l = B`` into an
  effective piece (golden section) and a proportional piece (root), and the
  better of the two optima is the optimum.

A closed-form marginal test handles the common case where offloading more
than strictly necessary can never pay off, skipping the search entirely.

For chunked arrivals the variable is the share ``r`` of every chunk that is
offloaded, and the energy is convex in it. One string pull gives its slope
in ``r`` (``_share_slope``, through the same ``energy_slope``): the ceiling
``r A(t)`` moves by the arrived data ``A(t)``, the floor and the total by
the servable data ``T`` where the floor is positive. The share is the root
of that slope minus the local energy of the whole load per unit share,
found by the same regula falsi.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import ceil, fsum, inf, isnan, log2, nextafter, sqrt

import numpy as np

from .cpu_profile import ArrivalProcess, CpuIdlingProfile, MergedTimeline, merge_events
from .energy import ChannelParams, LocalComputeParams
from .errors import InfeasibleError, NumericError
from .string_pull import (
    OffloadSchedule,
    bursty_offload_energy,
    energy_slope,
    min_energy_offload,
    min_energy_offload_bursty,
    offload_energy,
)
from .tunnel import FeasibilityTunnel, bits_tol, max_offload_ratio, min_offload_ratio

_INVPHI = (sqrt(5.0) - 1.0) / 2.0
_GOLDEN_MAX_ITER = 200  # golden-section steps before a search gives up narrowing
_RATIO_TOL = 1e-9  # bracket width at which the per-chunk share root stops
# share by which a requested or local-side share may pass the helper's largest
# one before it counts as infeasible (shares are scale-free, so absolute)
SHARE_SLACK = 1e-12


def golden_section(fn, lo: float, hi: float, tol: float):
    """Minimize a unimodal function on [lo, hi]; returns (x, fn(x)).

    Endpoints are always evaluated, so a minimum sitting on the boundary is
    found exactly even when the interior probes cannot see it.
    """
    if hi < lo:
        raise ValueError("need lo <= hi")
    best = [lo, np.inf]

    def ev(x):
        f = fn(x)
        if f < best[1]:
            best[0], best[1] = x, f
        return f

    ev(lo)
    ev(hi)
    if hi - lo <= tol:
        return best[0], best[1]
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = ev(c), ev(d)
    for _ in range(_GOLDEN_MAX_ITER):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = ev(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = ev(d)
    return best[0], best[1]


_SPARE_PROBES = 4  # secant probes a root search may spend beyond bisection's count


def split_root(slope, lo: float, hi: float, tol: float = 1.0) -> float:
    """Offload size in [lo, hi] where a nondecreasing ``slope`` changes sign,
    to within ``tol`` bits: ``lo`` if ``slope(lo) >= 0``, ``hi`` if
    ``slope(hi) <= 0``, else the secant root inside the final bracket.

    Illinois regula falsi: each probe is the secant root through the
    bracket's ends, kept ``tol / 2`` inside them, and an end kept for a
    second probe in a row has its value halved. A bracket with an infinite
    end is bisected, and so is every bracket once the probes left only
    cover bisection, so a search takes at most ``_SPARE_PROBES`` probes
    more than bisection. A NaN slope raises ``NumericError``.
    """

    def g(x):
        v = slope(x)
        if isnan(v):
            raise NumericError(f"energy slope is NaN at an offload of {x} bits")
        return v

    g_lo = g(lo)
    if g_lo >= 0.0:
        return lo
    g_hi = g(hi)
    if g_hi <= 0.0:
        return hi
    left = ceil(log2((hi - lo) / tol)) + _SPARE_PROBES if hi - lo > tol else 0
    moved = 0  # +1 if the last probe replaced the right end, -1 the left
    while hi - lo > tol:
        if g_hi < inf and left > ceil(log2((hi - lo) / tol)):
            x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        else:
            x = 0.5 * (lo + hi)
        left -= 1
        g_x = g(x)
        if g_x == 0.0:
            return x
        if g_x > 0.0:
            hi, g_hi = x, g_x
            if moved == 1:
                g_lo *= 0.5
            moved = 1
        else:
            lo, g_lo = x, g_x
            if moved == -1:
                g_hi *= 0.5
            moved = -1
    return lo - g_lo * (hi - lo) / (g_hi - g_lo)


def partition_bounds(profile: CpuIdlingProfile, local: LocalComputeParams, load_bits: float):
    """Feasible offload sizes: at least what the local CPU cannot finish,
    at most what the helper can compute and never more than the load."""
    low = local.min_offload(load_bits, profile.horizon)
    high = min(profile.capacity, load_bits)
    return low, high


@dataclass(frozen=True)
class PartitionResult:
    offload_bits: float
    local_bits: float
    energy: float
    offload_energy: float
    local_energy: float
    schedule: OffloadSchedule
    tunnel: FeasibilityTunnel
    method: str  # "pinned", "shortcut", or "search"


def minimal_offload_is_best(
    profile: CpuIdlingProfile,
    channel: ChannelParams,
    local: LocalComputeParams,
    load_bits: float,
) -> bool:
    """Marginal test: if transmitting at the forced transfer's average rate
    already costs at least as much per bit as computing locally, then any
    extra offloaded bit costs more than it saves, and the smallest feasible
    transfer is optimal.

    Sound because transfer energy is convex in the transfer size and zero at
    zero, so its slope is at least the average energy per bit of the straight
    transfer, at every size above the forced minimum.
    """
    t_end = profile.idle_end
    if t_end is None:
        return True
    low, _ = partition_bounds(profile, local, load_bits)
    return channel.energy_per_bit(low / t_end) >= local.bit_energy


def _split_slope(profile, channel, local, buffer_bits, offload_bits) -> float:
    """Slope in ``offload_bits`` of the split objective (local energy of the
    kept bits plus the optimal transfer's energy) for a transfer above the
    buffer, whose optimal transfer pulls a proportional tunnel."""
    schedule, tunnel = min_energy_offload(profile, offload_bits, buffer_bits)
    return energy_slope(schedule, tunnel, channel) - local.bit_energy


def optimize_partition(
    profile: CpuIdlingProfile,
    channel: ChannelParams,
    local: LocalComputeParams,
    load_bits: float,
    buffer_bits=np.inf,
    use_shortcut: bool = True,
) -> PartitionResult:
    """Minimum-energy split of a one-shot load between local CPU and helper.

    The split is pinned when the feasible range is under a bit wide, and the
    smallest feasible transfer when the marginal test says so (``method`` is
    ``"pinned"`` or ``"shortcut"``). Otherwise (``"search"``) the range is
    searched on its tunnel families: golden section on effective tunnels up
    to the buffer, a root of the envelope slope on proportional tunnels
    above it, and the better of the two where the buffer splits the range.
    Every search stops at a 1-bit bracket. The result keeps the string its
    search pulled at the chosen size; a root, which no probe priced, and a
    pinned or shortcut split are pulled once more.
    """
    if not 0 <= load_bits < np.inf:
        raise ValueError(f"load_bits must be nonnegative and finite, got {load_bits}")
    if not buffer_bits >= 0:
        raise ValueError(f"buffer_bits must be nonnegative, got {buffer_bits}")
    low, high = partition_bounds(profile, local, load_bits)
    tol = bits_tol(max(load_bits, 1.0))
    if low > high + tol:
        raise InfeasibleError(
            f"load of {load_bits} bits cannot be finished by the deadline",
            deficit=low - high,
        )
    high = max(high, low)
    kept = None  # the cheapest evaluation yet: energy, size, transfer energy, schedule, tunnel
    if high - low <= 1.0:
        best, method = low, "pinned"
    elif use_shortcut and minimal_offload_is_best(profile, channel, local, load_bits):
        best, method = low, "shortcut"
    else:
        def objective(l):
            nonlocal kept
            pulled = []
            e_off = offload_energy(profile, l, buffer_bits, channel, pulled)
            e = local.local_energy(load_bits - l) + e_off
            if kept is None or e < kept[0]:  # strict, as golden_section keeps its best
                kept = e, l, e_off, *pulled
            return e

        slope = partial(_split_slope, profile, channel, local, buffer_bits)  # for l > buffer_bits
        if buffer_bits >= high:
            best, _ = golden_section(objective, low, high, tol=1.0)
        elif buffer_bits < low:
            best = split_root(slope, low, high)
        else:
            # effective tunnels up to the buffer, proportional ones above it:
            # two convex pieces, each with its own optimum
            best, e_eff = golden_section(objective, low, buffer_bits, tol=1.0)
            above = split_root(slope, nextafter(buffer_bits, inf), high)
            if objective(above) < e_eff:
                best = above
        method = "search"
    if kept is not None and kept[1] == best:  # the search priced this size: no second pull
        _, _, e_off, schedule, tunnel = kept
    else:
        schedule, tunnel = min_energy_offload(profile, best, buffer_bits)
        e_off = schedule.energy(channel)
    e_loc = local.local_energy(load_bits - best)
    return PartitionResult(
        offload_bits=float(best),
        local_bits=float(load_bits - best),
        energy=e_off + e_loc,
        offload_energy=e_off,
        local_energy=e_loc,
        schedule=schedule,
        tunnel=tunnel,
        method=method,
    )


@dataclass(frozen=True)
class RatioResult:
    ratio: float
    ratio_low: float
    ratio_high: float
    offload_bits: float
    local_bits: float
    energy: float
    offload_energy: float
    local_energy: float
    schedule: OffloadSchedule
    tunnel: FeasibilityTunnel | None
    method: str  # "pinned" or "root"


def _share_slope(profile, arrivals, channel, local, timeline, ratio) -> float:
    """Slope in the share ``ratio`` of the chunked objective: local energy of
    the kept share plus the optimal transfer's energy.

    The transfer's tunnel moves with the share by the servable data ``T``
    (chunks before the last idle instant) in its floor, where positive, and
    in its total, and by the arrived data ``A(t)`` in its ceiling
    (``energy_slope``). A transfer too small to build a tunnel for is priced
    at the marginal power of rate zero per servable bit.
    """
    local_slope = arrivals.total * local.bit_energy
    if ratio * arrivals.total <= bits_tol(arrivals.total):
        served = fsum(timeline.lists[1][: timeline.idle_end_index])  # chunks before the last idle instant
        return channel.energy_per_bit(0.0) * served - local_slope
    schedule, tunnel = min_energy_offload_bursty(profile, arrivals, ratio, timeline)
    return energy_slope(schedule, tunnel, channel) - local_slope


def optimize_ratio(
    profile: CpuIdlingProfile,
    arrivals: ArrivalProcess,
    channel: ChannelParams,
    local: LocalComputeParams,
    timeline: MergedTimeline | None = None,
) -> RatioResult:
    """Minimum-energy per-chunk offload share for chunked arrivals.

    The share must be small enough for the helper's remaining capacity and
    large enough for the local CPU's remaining time; within those bounds the
    total energy is convex in the share. A range narrower than the share
    tolerance keeps the cheaper end (``method`` is ``"pinned"``); otherwise
    (``"root"``) the share is where the objective's slope, read from the
    string's contact multipliers, changes sign, to within 1e-9.
    """
    tl = timeline if timeline is not None else merge_events(profile, arrivals)
    total = arrivals.total
    r_hi = max_offload_ratio(profile, arrivals, tl)
    r_lo = min_offload_ratio(arrivals, local)
    if total <= 0.0:
        schedule = OffloadSchedule([0.0, profile.horizon], [0.0, 0.0])
        return RatioResult(0.0, r_lo, r_hi, 0.0, 0.0, 0.0, 0.0, 0.0, schedule, None, "pinned")
    if r_lo > r_hi + SHARE_SLACK:
        raise InfeasibleError(
            f"no offload share fits: local side needs at least {r_lo:.6g}, "
            f"helper can absorb at most {r_hi:.6g}",
            deficit=(r_lo - r_hi) * total,
        )
    r_hi = min(r_hi, 1.0)
    if r_hi - r_lo <= _RATIO_TOL:

        def objective(r):
            return local.local_energy((1.0 - r) * total) + bursty_offload_energy(
                profile, arrivals, r, channel, tl
            )

        best = min((r_lo, r_hi), key=objective)  # r_lo on a tie
        method = "pinned"
    else:
        slope = partial(_share_slope, profile, arrivals, channel, local, tl)
        best = split_root(slope, r_lo, r_hi, tol=_RATIO_TOL)
        method = "root"
    schedule, tunnel = min_energy_offload_bursty(profile, arrivals, best, tl)
    e_off = schedule.energy(channel)
    e_loc = local.local_energy((1.0 - best) * total)
    return RatioResult(
        ratio=float(best),
        ratio_low=float(r_lo),
        ratio_high=float(r_hi),
        offload_bits=float(best * total),
        local_bits=float((1.0 - best) * total),
        energy=e_off + e_loc,
        offload_energy=e_off,
        local_energy=e_loc,
        schedule=schedule,
        tunnel=tunnel,
        method=method,
    )
