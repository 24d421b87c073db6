"""Small reference helpers the tests check the library against.

``normalize_epochs`` is ``build_profile``'s epoch merge
(``cpu_profile._merged_epochs``) returned as ``Epoch``s.
``epoch_energy`` prices one constant-rate segment on its own, the plain
per-segment sum that ``schedule_energy`` vectorizes. ``parse_schedule``
reads back the schedule text the CLI writes (``format_schedule``).
``scan_minimize`` is a coarse grid scan with golden refinement, which needs
no convexity, and ``scanned_buffer_first`` prices buffer-first with it, as
the sweeps did before buffer-first was guided by its slope.
``floor_following_schedule`` is the late-transmit policy as a schedule
along the tunnel floor, which the sweeps price in closed form.
``matrix_local_compute_tunnel`` places each chunk at its nearest vertex
through a chunks-by-vertices distance matrix, and ``looped_min_offload_ratio``
steps through numpy scalars: the library's earlier ways of doing both.
``eager_merge_events`` interleaves epoch edges and arrivals by stepping
through numpy scalars and evaluates the capacity curve at every vertex at
once with ``padded_curve_at``, the library's earlier merge, which the one
that walks float lists must match byte for byte. ``eager_build_profile`` is
the library's earlier profile build on numpy arrays, which the one on float
lists must match byte for byte too.

``eager_build_tunnel`` and ``eager_pull`` are the tunnel construction and the
string pull as they made every array when they ran: ``np.fromiter`` and
``np.asarray`` at build time, envelopes and chord scans in numpy at every
size, and ``np.array`` of the string's values at pull time. The library
keeps float lists and makes each array on its first read; these give the
arrays it must read the same, byte for byte. The eager pull also keeps the
vertices its own recursion fixed, and prices its string once per chord
between them, as the library prices a pulled string. ``eager_proportional_tunnel``
derates the idle curve with numpy, and ``eager_zero_solution`` builds the
empty transfer eagerly too.
``assert_same_attributes`` compares two tunnels or schedules byte for byte.
"""
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import fsum

import numpy as np

from offloadsim.cpu_profile import TIME_ATOL, Epoch, _curve_time, _curve_value, _merged_epochs
from offloadsim.energy import schedule_energy
from offloadsim.partition import golden_section
from offloadsim.string_pull import OffloadSchedule, _check_feasible, pull_string
from offloadsim.tunnel import _build_tunnel, _fits, bits_tol, lazy_first_tunnel


def normalize_epochs(epochs) -> tuple[Epoch, ...]:
    """Merge adjacent epochs with identical state; reject degenerate ones."""
    return tuple(map(Epoch, *_merged_epochs(epochs)))


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


def floor_following_schedule(tunnel) -> OffloadSchedule:
    """The late-transmit policy: transmit as late as the tunnel floor
    allows; raises ``InfeasibleError`` where no schedule fits."""
    times, floor, ceiling = tunnel.lists[:3]
    _check_feasible(tunnel, floor, ceiling)
    return OffloadSchedule(times, floor)


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
    line = ([0.0, horizon], [0.0, rate * horizon], [True], rate)
    total = share * arrivals.total
    times = times.tolist()
    values = [t * rate for t in times]
    slack = rate * horizon - total
    return _build_tunnel("local", line, times, values, total, slack, None, bits=bits.tolist(), share=share)


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


@dataclass(frozen=True, eq=False)
class EagerProfile:
    """A helper profile with every array made when it was built."""

    helper_hz: float
    cycles_per_bit: float
    durations: np.ndarray
    idle: np.ndarray
    boundaries: np.ndarray
    cum_bits: np.ndarray
    rate: float
    last_idle_index: int | None
    capacity: float

    @property
    def parts(self) -> tuple:
        return self.boundaries.tolist(), self.cum_bits.tolist(), self.idle.tolist(), self.rate


def eager_build_profile(epochs, helper_hz, cycles_per_bit, horizon) -> EagerProfile:
    """``build_profile`` on numpy arrays: ``np.cumsum`` for the boundaries
    and the capacity, ``flatnonzero`` for the last idle epoch, and the
    horizon checked on the correctly rounded sum of the durations."""
    if not 0 < helper_hz < np.inf:
        raise ValueError(f"helper_hz must be positive and finite, got {helper_hz}")
    if not 0 < cycles_per_bit < np.inf:
        raise ValueError(f"cycles_per_bit must be positive and finite, got {cycles_per_bit}")
    if not 0 < horizon < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    epochs = list(epochs)
    eps = normalize_epochs(epochs)
    durs = np.array([ep.duration for ep in eps], dtype=float)
    idle = np.array([ep.idle for ep in eps], dtype=bool)
    total = fsum(durs.tolist())
    if abs(total - horizon) > max(TIME_ATOL, len(epochs) * np.finfo(float).eps * total):
        raise ValueError(f"epoch durations sum to {total}, expected horizon {horizon}")
    rate = helper_hz / cycles_per_bit
    boundaries = np.concatenate(([0.0], np.cumsum(durs)))
    boundaries[-1] = horizon
    cum_bits = np.concatenate(([0.0], np.cumsum(np.where(idle, durs * rate, 0.0))))
    idle_at = np.flatnonzero(idle)
    last = int(idle_at[-1]) if len(idle_at) else None
    capacity = 0.0 if last is None else float(cum_bits[last + 1])
    return EagerProfile(float(helper_hz), float(cycles_per_bit), durs, idle, boundaries, cum_bits, rate, last, capacity)


def padded_curve_at(profile, t):
    """The profile's capacity curve at the times in ``t``, on whole arrays:
    its pieces padded with a flat one before 0 and one after the horizon."""
    starts = np.concatenate(([0.0], profile.boundaries))
    values = np.concatenate(([0.0], profile.cum_bits))
    slopes = np.concatenate(([0.0], np.where(profile.idle, profile.rate, 0.0), [0.0]))
    k = profile.boundaries.searchsorted(t, side="right")
    return values[k] + (t - starts[k]) * slopes[k]


def eager_merge_events(profile, arrivals):
    """``merge_events`` stepping through numpy scalars, with the curve read
    by ``padded_curve_at``: ``(times, arrival_bits, cum_capacity,
    idle_end_index)``."""
    pb = profile.boundaries
    at = arrivals.times
    times = []
    bits = []
    cpu_idx = []  # profile boundary index, -1 for pure arrivals
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
    k_last = profile.last_idle_index
    idle_end_index = None if k_last is None else cpu_idx.index(k_last + 1)
    return tarr, np.asarray(bits), padded_curve_at(profile, tarr), idle_end_index


TUNNEL_ATTRIBUTES = ("kind", "times", "floor", "ceiling", "total", "cum_capacity", "arrival_bits", "buffer_bits", "corner")


def same_array(x, y) -> bool:
    """Whether two arrays agree in dtype, shape and every byte."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_same_attributes(a, b, names):
    """Attributes ``names`` of ``a`` and ``b`` agree: arrays byte for byte
    (``same_array``), anything else by ``==``."""
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert same_array(x, y), name
        else:
            assert x == y, name


@dataclass(frozen=True, eq=False)
class EagerTunnel:
    """A feasibility tunnel with every array made when it was built."""

    kind: str
    times: np.ndarray
    floor: np.ndarray
    ceiling: np.ndarray
    total: float
    cum_capacity: np.ndarray
    arrival_bits: np.ndarray
    buffer_bits: float
    corner: int | None


def eager_build_tunnel(
    kind, curve, times, values, total, slack, moves, buffer_bits=np.inf, bits=None, share=None, late=0.0
):
    """``tunnel._build_tunnel`` with its arrays made at build time and its
    envelopes computed with numpy at every size (``moves`` is not kept)."""
    capacity = curve[1][-1]
    levels = [slack]
    if share is None and buffer_bits < total:
        levels.append(capacity - buffer_bits)
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
    cum = np.fromiter(values, float, n)
    arrived = np.zeros(n) if bits is None else np.fromiter(bits, float, n)
    floor = np.maximum(cum - slack, 0.0)
    if slack > 0.0:
        floor[-1] = total
    if share is None:
        ceiling = np.minimum(floor + buffer_bits, total)
        ceiling[0] = 0.0
        ceiling[-1] = total
    else:
        ceiling = share * np.concatenate(([0.0], arrived[:-1].cumsum()))
        if share * late > bits_tol(total):
            floor[-1] = max(floor[-1], total + share * late)
    times = np.fromiter(times, float, n)
    return EagerTunnel(kind, times, np.asarray(floor), np.asarray(ceiling), total, cum, arrived, float(buffer_bits), corner)


def eager_proportional_tunnel(profile, offload_bits, buffer_bits):
    """``proportional_tunnel`` over the profile's curve derated with
    ``np.cumsum``, built eagerly."""
    total = float(offload_bits)
    rate = profile.helper_hz * min(total / profile.capacity, 1.0) / profile.cycles_per_bit
    cum = np.concatenate(([0.0], np.cumsum(np.where(profile.idle, profile.durations * rate, 0.0)))).tolist()
    edges = profile.boundaries.tolist()
    curve = (edges, cum, profile.idle.tolist(), rate)
    n = profile.last_idle_index + 2
    return eager_build_tunnel("proportional", curve, edges[:n], cum[:n], cum[-1], 0.0, None, buffer_bits)


def eager_zero_solution(profile, buffer_bits):
    """``string_pull._zero_solution`` built eagerly: the schedule's times and
    cumulative arrays, and the tunnel."""
    end = profile.idle_end if profile.idle_end is not None else profile.horizon
    cap = profile.capacity
    tunnel = eager_build_tunnel("effective", profile.parts, [0.0, end], [0.0, cap], 0.0, cap, None, buffer_bits)
    return (tunnel.times, np.zeros(2)), tunnel


def _eager_string(times, floor, ceiling, tol):
    """The taut string's vertex values, every chord scanned with numpy, as
    a float list, and the ends of its chords: the vertices it fixed on an
    envelope and both ends, in order."""
    t, f, c = times.tolist(), floor.tolist(), ceiling.tolist()
    n = len(t) - 1
    y = [0.0] * (n + 1)
    y[0] = 0.5 * (f[0] + c[0])
    y[n] = 0.5 * (f[n] + c[n])
    fixed = [0, n]
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        y_lo, t_lo = y[lo], t[lo]
        slope = (y[hi] - y_lo) / (t[hi] - t_lo)
        seg = y_lo + slope * (times[lo + 1 : hi] - t_lo)
        below = floor[lo + 1 : hi] - seg
        above = seg - ceiling[lo + 1 : hi]
        viol = np.maximum(below, above)
        k = int(viol.argmax())
        if viol[k] <= tol:
            y[lo + 1 : hi] = seg.tolist()
            continue
        idx = lo + 1 + k
        y[idx] = f[idx] if below[k] >= above[k] else c[idx]
        fixed.append(idx)
        stack.append((idx, hi))
        stack.append((lo, idx))
    return y, sorted(fixed)


def eager_taut_values(times, floor, ceiling, tol) -> np.ndarray:
    """The taut string's vertex values, every chord scanned with numpy, as
    ``np.array`` of the values."""
    return np.array(_eager_string(times, floor, ceiling, tol)[0])


@dataclass(frozen=True, eq=False)
class EagerString:
    """A pulled string's arrays and the ends of its chords; it unpacks as
    the pair ``(times, cumulative)``."""

    times: np.ndarray
    cumulative: np.ndarray
    ends: list

    def __iter__(self):
        return iter((self.times, self.cumulative))

    def energy(self, channel) -> float:
        """``schedule_energy`` of the chord ends: each chord priced once."""
        return schedule_energy(self.times[self.ends], self.cumulative[self.ends], channel)


def eager_pull(tunnel):
    """``pull_string`` making its arrays as it pulls: ``times.copy()`` and the
    taut values, with the chord ends; None for a tunnel that admits no
    schedule."""
    tol = bits_tol(tunnel.total)
    if not _fits(tunnel.floor.tolist(), tunnel.ceiling.tolist(), tunnel.total, tol):
        return None
    y, ends = _eager_string(tunnel.times, tunnel.floor, tunnel.ceiling, 1e-3 * tol)
    return EagerString(tunnel.times.copy(), np.array(y), ends)
