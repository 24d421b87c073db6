"""Helper-CPU availability modeling.

The helper's CPU alternates between busy epochs (serving its own work) and idle
epochs whose spare cycles can compute offloaded bits. The cumulative number of
bits the helper can have computed by time t grows at ``helper_hz /
cycles_per_bit`` during idle epochs and is flat during busy ones. This module
owns that piecewise-linear capacity curve, the workload arrival process, the
random samplers used by the simulator, and the parsers for the
line-oriented text formats the CLI reads.

It also states the one rule by which a profile, the arrivals, a merged
timeline, a feasibility tunnel and a schedule hold their data, as list
records (``_ListRecord``): each keeps the float lists its builder made in
``lists``, and each ``_ListArray`` attribute is a read-only array of one
of them, made on its first read. A constructor keeps a list as it is and
copies anything else into such an array (``_float_lists``), so no caller
can make a list and its array disagree. A pickled record leaves the arrays
out, since pickle would bring them back writeable, and the copy makes them
read-only again on first read.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import fsum, inf, isfinite

import numpy as np

TIME_ATOL = 1e-12  # absolute tolerance for time comparisons, seconds
MIN_EPOCH = 1e-12  # epochs shorter than this are rejected
_EPS = float(np.finfo(float).eps)

# Size switch of the float-list branches: a curve over fewer than this many
# interior vertices is handled as Python float lists, where numpy's fixed
# cost per call would dominate. It bounds the taut string's chord scan and,
# for a whole tunnel or schedule, the envelopes and checks of the tunnel, the
# pull's feasibility check, the schedule energy and the multiplier sums of
# the energy slopes. Crossovers against numpy (2-core Xeon, Python 3.11.7,
# numpy 2.4.6): a chord scan at 32-50 vertices, a multiplier sum at
# 65-100; with the arrays a long build
# keeps, the schedule energy near 40, the feasibility check near 70, the
# build itself near 110 and a whole evaluation (build, pull, energy) near
# 55, which at 106 vertices takes 74 us against 102 on lists. Whole solves over
# ~100-vertex tunnels, most of whose chords are short, ran fastest at 24 of
# 24, 32 and 48. The helper profile is built on lists at any size.
_SHORT_SPAN = 24


def as_generator(seed) -> np.random.Generator:
    """Accept an int, SeedSequence, or Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _check_positive(error=ValueError, /, **fields):
    """Reject each field that is not positive and finite, by name, with an
    ``error`` (``SimConfig`` passes ``ConfigError``). This is the package's
    one positivity rule: the channel, the local CPU, the profile builder,
    the arrivals, the samplers and the sweep configuration all check their
    positive parameters here. A sampler would loop forever on a NaN or
    infinite one."""
    for name, value in fields.items():
        if not (isfinite(value) and value > 0):
            raise error(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Epoch:
    """One maximal stretch of constant CPU state."""

    duration: float
    idle: bool


def _merged_epochs(epochs) -> tuple[list, list]:
    """Durations and states of ``epochs`` with adjacent ones of identical
    state merged, as lists, with no ``Epoch`` per epoch; rejects degenerate
    ones."""
    durs: list[float] = []
    idle: list[bool] = []
    for ep in epochs:
        dur = float(ep.duration)
        if not isfinite(dur) or dur <= 0:
            raise ValueError(f"epoch duration must be positive, got {dur}")
        if idle and idle[-1] == ep.idle:
            durs[-1] += dur
        else:
            durs.append(dur)
            idle.append(bool(ep.idle))
    if not durs:
        raise ValueError("profile needs at least one epoch")
    if min(durs) < MIN_EPOCH:
        bad = next(d for d in durs if d < MIN_EPOCH)
        raise ValueError(f"degenerate epoch of {bad} s after merging")
    return durs, idle


def _curve_value(parts: tuple, t: float) -> float:
    """Value at time ``t >= 0`` of the curve with these ``parts`` (see
    ``CpuIdlingProfile.parts``): flat before the first edge it passes and
    after the last."""
    edges, cum, idle, rate = parts
    k = bisect_right(edges, t) - 1
    slope = rate if k < len(idle) and idle[k] else 0.0
    return cum[k] + (t - edges[k]) * slope


def _curve_time(parts: tuple, level: float) -> float:
    """Earliest time at which the curve with these ``parts`` reaches
    ``level``."""
    if level <= 0.0:
        return 0.0
    edges, cum, _, rate = parts
    if not level <= cum[-1]:
        raise ValueError("capacity level beyond the curve")
    k = bisect_left(cum, level)
    return edges[k - 1] + (level - cum[k - 1]) / rate


class _ListArray:
    """Class attribute for a read-only array of one of a record's lists,
    ``obj.lists[index]``. The array is made on its first read and kept in
    the object's ``__dict__``, where every later read finds it before this
    descriptor; unlike a ``functools`` cached property, whose first read
    takes a lock on Python 3.11, it adds nothing to that read."""

    def __init__(self, index: int, dtype=float):
        self.index = index
        self.dtype = dtype

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        values = obj.lists[self.index]
        return _keep(obj, self.name, np.fromiter(values, self.dtype, len(values)))


def _keep(obj, name: str, array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    obj.__dict__[name] = array
    return array


def _float_lists(obj, values: tuple) -> tuple:
    """``obj.lists`` for ``values``: a list is kept as it is; anything else
    is copied into an array of its ``_ListArray``'s dtype, which ``obj``
    hands out read-only, and read as a list."""
    for v in values:
        if type(v) is not list:
            arrays = {a.index: a for a in vars(type(obj)).values() if isinstance(a, _ListArray)}
            return tuple(
                u if type(u) is list else _keep(obj, arrays[i].name, np.array(u, arrays[i].dtype)).tolist()
                for i, u in enumerate(values)
            )
    return values


class _ListRecord:
    """A record of float lists, ``lists``, with ``_ListArray`` attributes
    (see the module docstring). Its pickled state is its ``__dict__`` less
    the arrays its ``_ListArray`` attributes made."""

    def __getstate__(self):
        cls = type(self)
        return {k: v for k, v in self.__dict__.items() if not isinstance(getattr(cls, k, None), _ListArray)}


class CpuIdlingProfile(_ListRecord):
    """Normalized epochs as the helper's cumulative capacity curve c(t).

    The curve rises at ``rate`` bits/s (``helper_hz / cycles_per_bit``) over
    idle epochs and is flat over busy ones. ``durations`` are the epoch
    lengths and ``idle`` their states; ``boundaries`` holds the K+1 epoch
    edges from 0.0 to the horizon and ``cum_bits[k]`` the capacity
    accumulated by ``boundaries[k]``. ``last_idle_index`` is the index of the
    last idle epoch (None if the CPU is never idle) and ``capacity`` the
    total bits computable for the user by the deadline.

    A list record (``_ListRecord``) of ``lists`` (durations, idle,
    boundaries, cum_bits), as ``build_profile`` made them. ``parts`` is
    ``(boundaries, cum_bits, idle, rate)`` on the same lists: the curve as
    ``_curve_value`` and ``_curve_time`` read it, and the vertex grids of
    tunnels.
    """

    durations = _ListArray(0)
    idle = _ListArray(1, bool)
    boundaries = _ListArray(2)
    cum_bits = _ListArray(3)

    def __init__(
        self, helper_hz, cycles_per_bit, durations, idle, boundaries, cum_bits, rate, last_idle_index, capacity
    ):
        self.helper_hz = helper_hz
        self.cycles_per_bit = cycles_per_bit
        self.lists = _float_lists(self, (durations, idle, boundaries, cum_bits))
        _, idle, boundaries, cum_bits = self.lists
        self.parts = boundaries, cum_bits, idle, rate
        self.rate = rate
        self.last_idle_index = last_idle_index
        self.capacity = capacity

    @property
    def horizon(self) -> float:
        return self.lists[2][-1]

    @property
    def idle_end(self):
        """End of the last idle epoch: no offloaded bit is computable later."""
        k = self.last_idle_index
        return None if k is None else self.lists[2][k + 1]

    def capacity_at(self, t):
        """Cumulative computable bits by time t (piecewise linear).

        ``t`` may be a scalar, which gives a float, or an array. Times within
        ``TIME_ATOL`` outside the window read the value at its nearer end.
        Each time is evaluated on its own by ``_curve_value``, so an array
        costs a Python call per element; the library itself reads the
        curve's ``parts`` instead.
        """
        ts = np.asarray(t, dtype=float)
        end = self.horizon
        outside = ~((ts >= -TIME_ATOL) & (ts <= end + TIME_ATOL))
        if np.any(outside):
            raise ValueError(f"time {ts[outside].flat[0]} outside [0, {end}]")
        parts = self.parts
        values = [_curve_value(parts, min(max(x, 0.0), end)) for x in ts.ravel().tolist()]
        return values[0] if ts.ndim == 0 else np.array(values).reshape(ts.shape)


def _helper_rate(helper_hz, cycles_per_bit, horizon, error=ValueError) -> float:
    """The helper's idle rate ``helper_hz / cycles_per_bit`` in bits/s, of
    positive parameters; rejects, with an ``error``, one whose capacity over
    a ``horizon`` that is all idle would overflow."""
    rate = float(helper_hz / cycles_per_bit)
    if not isfinite(rate * horizon):
        raise error(
            "the helper's capacity, helper_hz / cycles_per_bit * horizon, overflows: "
            f"{helper_hz} / {cycles_per_bit} * {horizon}"
        )
    return rate


def build_profile(epochs, helper_hz, cycles_per_bit, horizon) -> CpuIdlingProfile:
    """Validate and normalize epochs into a capacity profile.

    Epoch durations must sum to the horizon within 1e-12 s, or within the
    rounding of summing them, ``n * eps * sum`` for n epochs (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 4), if that is
    larger: one ulp of a 1e4 s horizon is already 1.8e-12 s. The sum checked
    is correctly rounded (``math.fsum``), the rest is summed in order on
    float lists.
    """
    _check_positive(helper_hz=helper_hz, cycles_per_bit=cycles_per_bit, horizon=horizon)
    epochs = list(epochs)
    durs, idle = _merged_epochs(epochs)
    total = fsum(durs)
    if abs(total - horizon) > max(TIME_ATOL, len(epochs) * _EPS * total):
        raise ValueError(f"epoch durations sum to {total}, expected horizon {horizon}")
    rate = _helper_rate(helper_hz, cycles_per_bit, horizon)
    # running sums in epoch order, as np.cumsum adds
    boundaries = [0.0, *accumulate(durs)]
    boundaries[-1] = float(horizon)
    cum_bits = [0.0, *accumulate([d * rate if rising else 0.0 for d, rising in zip(durs, idle)])]
    last = next((k for k in range(len(idle) - 1, -1, -1) if idle[k]), None)
    capacity = 0.0 if last is None else cum_bits[last + 1]
    return CpuIdlingProfile(
        float(helper_hz), float(cycles_per_bit), durs, idle, boundaries, cum_bits, rate, last, capacity
    )


class ArrivalProcess(_ListRecord):
    """Workload arrival instants and sizes over one deadline window.

    Times are strictly increasing; the last event sits exactly at the horizon
    and carries zero bits (data arriving at the deadline can never be served).
    A list record (``_ListRecord``) of ``lists`` (times, sizes); ``total`` is
    the correctly rounded sum of the sizes (``math.fsum``).
    """

    times = _ListArray(0)
    sizes = _ListArray(1)

    def __init__(self, times, sizes, horizon):
        self.lists = _float_lists(self, (times, sizes))
        self.horizon = horizon
        self.total = fsum(self.lists[1])

    @classmethod
    def from_events(cls, events, horizon) -> "ArrivalProcess":
        horizon = float(horizon)
        _check_positive(horizon=horizon)
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
        return cls(times, sizes, horizon)


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
    _check_positive(horizon=horizon, mean_idle=mean_idle, mean_busy=mean_busy)
    if not 0.0 <= idle_start_prob <= 1.0:
        raise ValueError("idle_start_prob must be in [0, 1]")
    rng = as_generator(seed)
    idle = bool(rng.random() < idle_start_prob)
    units = iter(rng.standard_exponential, None)  # drawn lazily, one per epoch in order
    return epochs_from_units(idle, units, units, horizon, mean_idle, mean_busy)


def sample_arrivals(seed, horizon, mean_interarrival, size_low, size_high) -> ArrivalProcess:
    """Poisson arrivals on (0, horizon) with uniform sizes in [low, high]."""
    _check_positive(horizon=horizon, mean_interarrival=mean_interarrival)
    if not 0 <= size_low <= size_high:
        raise ValueError("need 0 <= size_low <= size_high")
    rng = as_generator(seed)
    # drawn lazily from one generator: gap, size, gap, size, ..., final gap
    gaps, sizes = iter(rng.standard_exponential, None), iter(rng.random, None)
    return arrivals_from_units(gaps, sizes, horizon, mean_interarrival, size_low, size_high)


class MergedTimeline(_ListRecord):
    """Union of CPU epoch edges and arrival instants over one window.

    ``arrival_bits[v]`` is the data arriving exactly at ``times[v]``;
    ``cum_capacity[v]`` is the helper capacity by then; ``idle_end_index``
    locates the end of the last idle epoch inside ``times`` (None when the CPU
    is never idle). A list record (``_ListRecord``) of ``lists`` (times,
    arrival_bits, cum_capacity).
    """

    times = _ListArray(0)
    arrival_bits = _ListArray(1)
    cum_capacity = _ListArray(2)

    def __init__(self, times, arrival_bits, cum_capacity, idle_end_index):
        self.lists = _float_lists(self, (times, arrival_bits, cum_capacity))
        self.idle_end_index = idle_end_index


def merge_events(profile: CpuIdlingProfile, arrivals: ArrivalProcess) -> MergedTimeline:
    """Interleave CPU boundaries and arrival instants into one timeline.

    An arrival within ``TIME_ATOL`` of an epoch edge lands on the edge. The
    capacity at an edge is its ``cum_bits`` entry, and at any other instant
    ``_curve_value`` of the profile's curve.
    """
    if abs(profile.horizon - arrivals.horizon) > TIME_ATOL:
        raise ValueError("profile and arrivals cover different horizons")
    parts = profile.parts
    edges, cum = parts[0], parts[1]
    at, sizes = arrivals.lists
    k = profile.last_idle_index
    idle_end = None if k is None else k + 1  # the edge ending the last idle epoch
    times: list[float] = []
    bits: list[float] = []
    values: list[float] = []
    idle_end_index = None
    nb, na = len(edges), len(at)
    i = j = 0
    while i < nb or j < na:
        tb = edges[i] if i < nb else inf
        ta = at[j] if j < na else inf
        if abs(tb - ta) <= TIME_ATOL:
            bits.append(sizes[j])
            j += 1
        elif tb < ta:
            bits.append(0.0)
        else:
            times.append(ta)
            bits.append(sizes[j])
            values.append(_curve_value(parts, ta))
            j += 1
            continue
        if i == idle_end:
            idle_end_index = len(times)
        times.append(tb)
        values.append(cum[i])
        i += 1
    return MergedTimeline(times, bits, values, idle_end_index)


# ---------------------------------------------------------------------------
# Line-oriented text formats: one record per line, comma-separated, '#' starts
# a comment. Epochs are "duration_s,idle|busy"; arrivals are "time_s,bits".


def _records(text: str, form: str):
    """Yield ``(where, fields)`` for each record line: ``where`` names the
    line by number and content, and ``fields`` are its two stripped fields. A
    line without exactly two fields is rejected with the expected ``form``."""
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {no}: {raw.strip()!r}"
        fields = [part.strip() for part in line.split(",")]
        if len(fields) != 2:
            raise ValueError(f"{where} is not a {form} record")
        yield where, fields


def _number(field: str, where: str, form: str) -> float:
    try:
        return float(field)
    except ValueError:
        raise ValueError(f"{where} is not a {form} record ({field!r} is not a number)") from None


def parse_epochs(text: str) -> list[Epoch]:
    form = "duration_s,idle|busy"
    out = []
    for where, (dur_s, state) in _records(text, form):
        if state not in ("idle", "busy", "0", "1"):
            raise ValueError(f"{where} is not a {form} record (unknown CPU state {state!r})")
        out.append(Epoch(_number(dur_s, where, form), state in ("idle", "1")))
    if not out:
        raise ValueError("no epoch records found")
    return out


def parse_arrivals(text: str, horizon: float) -> ArrivalProcess:
    form = "time_s,bits"
    events = [
        (_number(t_s, where, form), _number(s_s, where, form)) for where, (t_s, s_s) in _records(text, form)
    ]
    return ArrivalProcess.from_events(events, horizon)
