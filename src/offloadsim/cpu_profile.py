"""Helper-CPU availability modeling.

The helper's CPU alternates between busy epochs (serving its own work) and idle
epochs whose spare cycles can compute offloaded bits. The cumulative number of
bits the helper can have computed by time t grows at ``helper_hz /
cycles_per_bit`` during idle epochs and is flat during busy ones. This module
owns that piecewise-linear capacity curve, the workload arrival process, the
random samplers used by the simulator, and the parsers for the
line-oriented text formats the CLI reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TIME_ATOL = 1e-12  # absolute tolerance for time comparisons, seconds
MIN_EPOCH = 1e-12  # epochs shorter than this are rejected


def as_generator(seed) -> np.random.Generator:
    """Accept an int, SeedSequence, or Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class Epoch:
    """One maximal stretch of constant CPU state."""

    duration: float
    idle: bool


def normalize_epochs(epochs) -> tuple[Epoch, ...]:
    """Merge adjacent epochs with identical state; reject degenerate ones."""
    merged: list[Epoch] = []
    for ep in epochs:
        dur = float(ep.duration)
        if not np.isfinite(dur) or dur <= 0:
            raise ValueError(f"epoch duration must be positive, got {dur}")
        if merged and merged[-1].idle == ep.idle:
            merged[-1] = Epoch(merged[-1].duration + dur, ep.idle)
        else:
            merged.append(Epoch(dur, bool(ep.idle)))
    if not merged:
        raise ValueError("profile needs at least one epoch")
    for ep in merged:
        if ep.duration < MIN_EPOCH:
            raise ValueError(f"degenerate epoch of {ep.duration} s after merging")
    return tuple(merged)


@dataclass(frozen=True, eq=False)
class CapacityCurve:
    """Piecewise-linear cumulative capacity: slope ``rate`` on idle pieces, flat on busy ones.

    ``boundaries`` holds the piece edges from 0.0 to the horizon, ``cum_bits[k]``
    the capacity accumulated by ``boundaries[k]`` and ``idle[k]`` the state of
    piece k.
    """

    boundaries: np.ndarray
    cum_bits: np.ndarray
    idle: np.ndarray
    rate: float

    @classmethod
    def from_durations(cls, durations, idle, rate, horizon) -> "CapacityCurve":
        """Curve over pieces of the given durations, ending exactly at ``horizon``."""
        boundaries = np.concatenate(([0.0], np.cumsum(durations)))
        boundaries[-1] = horizon
        cum_bits = np.concatenate(([0.0], np.cumsum(np.where(idle, durations * rate, 0.0))))
        return cls(boundaries, cum_bits, idle, rate)

    @cached_property
    def _pieces(self):
        """Start time, start value and slope of every piece, padded with a flat
        piece before 0 and one after the horizon so ``at`` has no end cases."""
        starts = np.concatenate(([0.0], self.boundaries))
        values = np.concatenate(([0.0], self.cum_bits))
        slopes = np.concatenate(([0.0], np.where(self.idle, self.rate, 0.0), [0.0]))
        return starts, values, slopes

    def at(self, t):
        """Curve values at the times in ``t`` (clamped to the window)."""
        starts, values, slopes = self._pieces
        k = self.boundaries.searchsorted(t, side="right")
        return values[k] + (t - starts[k]) * slopes[k]

    def time_at(self, level: float) -> float:
        """Earliest time at which the curve reaches ``level``."""
        if level <= 0.0:
            return 0.0
        if level > self.cum_bits[-1]:
            raise ValueError("capacity level beyond the curve")
        k = int(np.searchsorted(self.cum_bits, level, side="left"))
        return float(self.boundaries[k - 1] + (level - self.cum_bits[k - 1]) / self.rate) if k > 0 else 0.0


@dataclass(frozen=True, eq=False)
class CpuIdlingProfile:
    """Normalized epoch sequence plus the cumulative capacity curve.

    ``durations`` are the epoch lengths and ``curve`` the capacity curve over
    the K+1 epoch edges. ``last_idle_index`` is the index of the last idle
    epoch (None if the CPU is never idle) and ``capacity`` the total bits
    computable for the user by the deadline.
    """

    epochs: tuple[Epoch, ...]
    helper_hz: float
    cycles_per_bit: float
    durations: np.ndarray
    curve: CapacityCurve
    last_idle_index: int | None
    capacity: float

    @property
    def boundaries(self) -> np.ndarray:
        """The K+1 epoch edges, starting at 0.0 and ending at the horizon."""
        return self.curve.boundaries

    @property
    def cum_bits(self) -> np.ndarray:
        """``cum_bits[k]`` is the capacity accumulated by ``boundaries[k]``."""
        return self.curve.cum_bits

    @property
    def horizon(self) -> float:
        return float(self.curve.boundaries[-1])

    @property
    def idle_end(self):
        """End of the last idle epoch: no offloaded bit is computable later."""
        k = self.last_idle_index
        return None if k is None else float(self.curve.boundaries[k + 1])

    def capacity_at(self, t):
        """Cumulative computable bits by time t (piecewise linear).

        ``t`` may be a scalar, which gives a float, or an array.
        """
        ts = np.asarray(t, dtype=float)
        end = self.horizon
        outside = ~((ts >= -TIME_ATOL) & (ts <= end + TIME_ATOL))
        if np.any(outside):
            raise ValueError(f"time {ts[outside].flat[0]} outside [0, {end}]")
        values = self.curve.at(ts)
        return float(values) if values.ndim == 0 else values


def build_profile(epochs, helper_hz, cycles_per_bit, horizon) -> CpuIdlingProfile:
    """Validate and normalize epochs into a capacity profile.

    Epoch durations must sum to the horizon within 1e-12 s.
    """
    if not 0 < helper_hz < np.inf:
        raise ValueError(f"helper_hz must be positive and finite, got {helper_hz}")
    if not 0 < cycles_per_bit < np.inf:
        raise ValueError(f"cycles_per_bit must be positive and finite, got {cycles_per_bit}")
    eps = normalize_epochs(epochs)
    durs = np.array([ep.duration for ep in eps], dtype=float)
    idle = np.array([ep.idle for ep in eps], dtype=bool)
    total = float(durs.sum())
    if abs(total - horizon) > TIME_ATOL:
        raise ValueError(f"epoch durations sum to {total}, expected horizon {horizon}")
    curve = CapacityCurve.from_durations(durs, idle, helper_hz / cycles_per_bit, horizon)
    idle_at = np.flatnonzero(idle)
    last = int(idle_at[-1]) if len(idle_at) else None
    capacity = 0.0 if last is None else float(curve.cum_bits[last + 1])
    return CpuIdlingProfile(eps, float(helper_hz), float(cycles_per_bit), durs, curve, last, capacity)


@dataclass(frozen=True, eq=False)
class ArrivalProcess:
    """Workload arrival instants and sizes over one deadline window.

    Times are strictly increasing; the last event sits exactly at the horizon
    and carries zero bits (data arriving at the deadline can never be served).
    """

    times: np.ndarray
    sizes: np.ndarray
    horizon: float

    @property
    def total(self) -> float:
        return float(self.sizes.sum())

    @classmethod
    def from_events(cls, events, horizon) -> "ArrivalProcess":
        horizon = float(horizon)
        if not 0 < horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {horizon}")
        pairs = [(float(t), float(s)) for t, s in events]
        for t, s in pairs:
            if not -TIME_ATOL <= t <= horizon + TIME_ATOL:
                raise ValueError(f"arrival time {t} outside [0, {horizon}]")
            if not 0 <= s < np.inf:
                raise ValueError(f"arrival size must be nonnegative and finite, got {s}")
        times: list[float] = []
        sizes: list[float] = []
        for t, s in sorted(pairs):
            if t >= horizon - TIME_ATOL:
                if s > 0:
                    raise ValueError("data arriving at the deadline cannot be served")
                continue
            t = max(t, 0.0)
            if times and t - times[-1] <= TIME_ATOL:
                sizes[-1] += s
            elif s > 0:
                times.append(t)
                sizes.append(s)
        times.append(horizon)
        sizes.append(0.0)
        return cls(np.asarray(times), np.asarray(sizes), horizon)


def epochs_from_units(idle, idle_units, busy_units, horizon, mean_idle, mean_busy) -> list[Epoch]:
    """Alternating epochs from state ``idle`` on, each lasting its state's mean
    times the next draw of that state's unit iterator (at least 1e-9 s).

    The final epoch is truncated so durations sum to the horizon exactly;
    a sub-tolerance sliver is folded into the preceding epoch instead.
    """
    out: list[Epoch] = []
    elapsed = 0.0
    while True:
        dur = max(mean_idle * next(idle_units) if idle else mean_busy * next(busy_units), 1e-9)
        if elapsed + dur >= horizon - MIN_EPOCH:
            tail = horizon - elapsed
            if tail >= MIN_EPOCH or not out:
                out.append(Epoch(tail, idle))
            else:
                prev = out[-1]
                out[-1] = Epoch(prev.duration + tail, prev.idle)
            return out
        out.append(Epoch(dur, idle))
        elapsed += dur
        idle = not idle


def arrivals_from_units(
    gap_units, size_units, horizon, mean_interarrival, size_low, size_high, size_scale=1.0
) -> ArrivalProcess:
    """Arrivals on (0, horizon) spaced ``mean_interarrival`` times successive
    gap units, each of ``size_scale * (low + (high - low) * u)`` bits for the
    next size unit ``u``."""
    events = []
    t = 0.0
    while True:
        t += mean_interarrival * next(gap_units)
        if t >= horizon - TIME_ATOL:
            return ArrivalProcess.from_events(events, horizon)
        events.append((t, size_scale * (size_low + (size_high - size_low) * next(size_units))))


def sample_cpu_process(seed, horizon, mean_idle, mean_busy, idle_start_prob=0.5):
    """Draw an alternating busy/idle epoch list with exponential durations."""
    if horizon <= 0 or mean_idle <= 0 or mean_busy <= 0:
        raise ValueError("horizon and epoch means must be positive")
    if not 0.0 <= idle_start_prob <= 1.0:
        raise ValueError("idle_start_prob must be in [0, 1]")
    rng = as_generator(seed)
    idle = bool(rng.random() < idle_start_prob)
    units = iter(rng.standard_exponential, None)  # drawn lazily, one per epoch in order
    return epochs_from_units(idle, units, units, horizon, mean_idle, mean_busy)


def sample_arrivals(seed, horizon, mean_interarrival, size_low, size_high) -> ArrivalProcess:
    """Poisson arrivals on (0, horizon) with uniform sizes in [low, high]."""
    if mean_interarrival <= 0:
        raise ValueError("mean_interarrival must be positive")
    if not 0 <= size_low <= size_high:
        raise ValueError("need 0 <= size_low <= size_high")
    rng = as_generator(seed)
    # drawn lazily from one generator: gap, size, gap, size, ..., final gap
    gaps, sizes = iter(rng.standard_exponential, None), iter(rng.random, None)
    return arrivals_from_units(gaps, sizes, horizon, mean_interarrival, size_low, size_high)


@dataclass(frozen=True, eq=False)
class MergedTimeline:
    """Union of CPU epoch edges and arrival instants over one window.

    ``arrival_bits[v]`` is the data arriving exactly at ``times[v]``;
    ``cum_capacity[v]`` is the helper capacity by then; ``idle_end_index``
    locates the end of the last idle epoch inside ``times`` (None when the CPU
    is never idle).
    """

    times: np.ndarray
    arrival_bits: np.ndarray
    cum_capacity: np.ndarray
    idle_end_index: int | None


def merge_events(profile: CpuIdlingProfile, arrivals: ArrivalProcess) -> MergedTimeline:
    """Interleave CPU boundaries and arrival instants into one timeline."""
    if abs(profile.horizon - arrivals.horizon) > TIME_ATOL:
        raise ValueError("profile and arrivals cover different horizons")
    pb = profile.boundaries
    at = arrivals.times
    times: list[float] = []
    bits: list[float] = []
    cpu_idx: list[int] = []  # profile boundary index, -1 for pure arrivals
    i = j = 0
    while i < len(pb) or j < len(at):
        tb = pb[i] if i < len(pb) else np.inf
        ta = at[j] if j < len(at) else np.inf
        if abs(tb - ta) <= TIME_ATOL:
            times.append(float(tb))
            bits.append(float(arrivals.sizes[j]))
            cpu_idx.append(i)
            i += 1
            j += 1
        elif tb < ta:
            times.append(float(tb))
            bits.append(0.0)
            cpu_idx.append(i)
            i += 1
        else:
            times.append(float(ta))
            bits.append(float(arrivals.sizes[j]))
            cpu_idx.append(-1)
            j += 1
    tarr = np.asarray(times)
    idle_end_index = None
    k_last = profile.last_idle_index
    if k_last is not None:
        idle_end_index = cpu_idx.index(k_last + 1)
    return MergedTimeline(tarr, np.asarray(bits), profile.capacity_at(tarr), idle_end_index)


# ---------------------------------------------------------------------------
# Line-oriented text formats: one record per line, comma-separated, '#' starts
# a comment. Epochs are "duration_s,idle|busy"; arrivals are "time_s,bits".


def parse_epochs(text: str) -> list[Epoch]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        dur_s, state = (field.strip() for field in line.split(","))
        if state not in ("idle", "busy", "0", "1"):
            raise ValueError(f"unknown CPU state {state!r}")
        out.append(Epoch(float(dur_s), state in ("idle", "1")))
    if not out:
        raise ValueError("no epoch records found")
    return out


def parse_arrivals(text: str, horizon: float) -> ArrivalProcess:
    events = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        t_s, s_s = (field.strip() for field in line.split(","))
        events.append((float(t_s), float(s_s)))
    return ArrivalProcess.from_events(events, horizon)
