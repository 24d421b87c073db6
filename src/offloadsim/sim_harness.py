"""Monte Carlo harness for offloading policies over random CPU and channel draws.

Each trial owns a counter-derived seed, so runs are reproducible bit for bit
regardless of worker count, and every grid point of a sweep reuses the same
underlying draws (fading, epoch lengths, arrival pattern). That coupling makes
cross-point comparisons paired: capacity grows pointwise with the mean idle
duration, arrival sizes grow pointwise with the size scale, and so on.

Epochs and arrivals come from the loops ``sample_cpu_process`` and
``sample_arrivals`` use, fed by the trial's unit draws, which continue
without end (see ``TrialDraws``), so any horizon runs.

The unit of work is a trial at every grid value of the sweep: it draws once,
builds its profile once unless the axis moves it, and prices a buffer that
holds every feasible transfer once for all such grid values. Results go back
in trial order per grid value.

With ``jobs = N > 1`` a sweep call runs one share of the trials in the
calling process and forks ``min(N, trials) - 1`` children for the rest;
every child is reaped before the call returns or raises. Where ``os.fork``
does not exist the sweep runs in one process, with the same output.

The late-transmit benchmark sends along the tunnel floor, at the helper's
idle rate wherever it sends, so it is priced in closed form with no tunnel
(``_benchmark_energy``). Policies whose energy is convex in the offload size
are priced by one solver each, the optimal split and proportional pacing
(``_paced_energy``). Buffer-first's energy over the split is not convex, so
it is priced piece by piece between the sizes where it may not be
(``_buffer_first_energy``).
"""
from __future__ import annotations

import dataclasses
import os
import pickle
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from math import inf, isnan, nan, sqrt

import numpy as np

from .cpu_profile import (
    ArrivalProcess,
    CpuIdlingProfile,
    _check_positive,
    _helper_rate,
    arrivals_from_units,
    build_profile,
    epochs_from_units,
    merge_events,
)
from .energy import ChannelParams, LocalComputeParams, schedule_energy
from .errors import ConfigError, InfeasibleError
from .partition import _split_slope, optimize_partition, optimize_ratio, partition_bounds, split_root
from .string_pull import (
    _scaled_slope,
    energy_slope,
    offload_energy,
    pull_string,
)
from .tunnel import bits_tol, full_utilization_tunnel, lazy_first_tunnel

_TAGS = {"oneshot": 11, "buffer": 12, "bursty": 13}  # seed-sequence tag per sweep kind
_POOL = 128  # pre-drawn values per unit pool, kind and trial


@dataclass(frozen=True)
class SimConfig:
    """Scenario parameters shared by all sweeps. Units: s, Hz, W, bits, J."""

    horizon: float = 0.1
    local_hz: float = 1e9
    cycles_per_bit: float = 500.0
    switched_cap: float = 1e-28
    helper_hz: float = 5e9
    bandwidth_hz: float = 1e6
    noise_w: float = 1e-10
    mean_gain: float = 1e-6
    rayleigh_fading: bool = True
    mean_idle: float = 0.02
    mean_busy: float = 0.02
    idle_start_prob: float = 0.5
    load_bits: float = 7e5
    buffer_bits: float = inf
    mean_interarrival: float = 0.02
    size_low: float = 5e4
    size_high: float = 1.5e5
    trials: int = 2000
    seed: int = 12345

    def __post_init__(self):
        positive = (
            "horizon", "local_hz", "cycles_per_bit", "switched_cap", "helper_hz",
            "bandwidth_hz", "noise_w", "mean_gain", "mean_idle", "mean_busy",
            "mean_interarrival",
        )
        _check_positive(ConfigError, **{name: getattr(self, name) for name in positive})
        _helper_rate(self.helper_hz, self.cycles_per_bit, self.horizon, ConfigError)
        try:
            self.local_params()
        except ValueError as exc:
            raise ConfigError(f"with cpu_hz = local_hz, {exc}") from None
        if not 0.0 <= self.idle_start_prob <= 1.0:
            raise ConfigError("idle_start_prob must be in [0, 1]")
        for name in ("load_bits", "buffer_bits"):
            v = getattr(self, name)
            if not v >= 0:
                raise ConfigError(f"{name} must be nonnegative, got {v}")
        for name in ("size_low", "size_high"):
            v = getattr(self, name)
            if not 0 <= v < inf:
                raise ConfigError(f"{name} must be nonnegative and finite, got {v}")
        if self.size_low > self.size_high:
            raise ConfigError("need size_low <= size_high")
        for name in ("trials", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not isinstance(self.rayleigh_fading, (bool, np.bool_)):
            raise ConfigError(f"rayleigh_fading must be true or false, got {self.rayleigh_fading!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key not in fields:
                raise ConfigError(f"unknown configuration key {key!r}")
            if key == "rayleigh_fading":
                kwargs[key] = value
            elif key in ("trials", "seed"):
                kwargs[key] = _integer(key, value)
            else:
                try:
                    kwargs[key] = float(value)
                except (TypeError, ValueError):
                    raise ConfigError(f"configuration key {key!r} needs a number, got {value!r}")
        return cls(**kwargs)

    def channel(self, gain: float) -> ChannelParams:
        return ChannelParams(gain, self.bandwidth_hz, self.noise_w)

    def local_params(self) -> LocalComputeParams:
        return LocalComputeParams(self.local_hz, self.cycles_per_bit, self.switched_cap)


def _integer(key: str, value) -> int:
    """``value`` as an int: an integer, an integral float or a numeric string."""
    if isinstance(value, (int, np.integer, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass  # a string such as "3.0"
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = nan
    if isinstance(value, bool) or not v.is_integer():
        raise ConfigError(f"configuration key {key!r} needs an integer, got {value!r}")
    return int(v)


_AXES = {
    "mean_idle", "mean_busy", "load_bits", "buffer_bits", "mean_gain",
    "mean_interarrival", "horizon", "size_scale",
}


def _apply_axis(cfg: SimConfig, axis: str, value: float) -> SimConfig:
    if axis == "size_scale":
        _check_positive(ConfigError, size_scale=value)
        return cfg
    return dataclasses.replace(cfg, **{axis: value})


def _check_axis(axis: str, kind: str):
    if axis not in _AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose one of {sorted(_AXES)}")
    if axis == "size_scale" and kind != "bursty":
        raise ConfigError("size_scale only applies to the bursty sweep")


@dataclass(frozen=True)
class TrialDraws:
    """All randomness for one trial.

    The first ``_POOL`` values of each unit pool are drawn up front, in a fixed
    order and count. ``_units`` continues a pool past them from a child stream
    of its own, spawned from ``key``, so how far one pool runs never shifts
    another's values.
    """

    gain_unit: float
    idle_start: float
    idle_units: np.ndarray
    busy_units: np.ndarray
    gap_units: np.ndarray
    size_units: np.ndarray
    key: tuple[int, int, int]  # (seed, tag, trial)


def _units(pool, key, stream, uniform=False):
    """Endless iterator: ``pool``, then child stream ``stream`` of ``key``
    (uniform or unit-exponential draws, as the pool)."""
    yield from pool.tolist()
    # spawn_key keeps every child apart from the trial's own stream, which
    # SeedSequence(key + [stream]) would not for stream 0
    rng = np.random.default_rng(np.random.SeedSequence(key, spawn_key=(stream,)))
    draw = rng.random if uniform else rng.standard_exponential
    while True:
        yield from draw(_POOL).tolist()


def draw_trial(seed: int, tag: int, trial: int) -> TrialDraws:
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag, trial]))
    return TrialDraws(
        gain_unit=float(rng.exponential(1.0)),
        idle_start=float(rng.random()),
        idle_units=rng.exponential(1.0, _POOL),
        busy_units=rng.exponential(1.0, _POOL),
        gap_units=rng.exponential(1.0, _POOL),
        size_units=rng.random(_POOL),
        key=(seed, tag, trial),
    )


def _profile_from_draws(draws: TrialDraws, cfg: SimConfig) -> CpuIdlingProfile:
    epochs = epochs_from_units(
        draws.idle_start < cfg.idle_start_prob,
        _units(draws.idle_units, draws.key, 0),
        _units(draws.busy_units, draws.key, 1),
        cfg.horizon, cfg.mean_idle, cfg.mean_busy,
    )
    return build_profile(epochs, cfg.helper_hz, cfg.cycles_per_bit, cfg.horizon)


def _arrivals_from_draws(draws: TrialDraws, cfg: SimConfig, scale: float) -> ArrivalProcess:
    return arrivals_from_units(
        _units(draws.gap_units, draws.key, 2),
        _units(draws.size_units, draws.key, 3, uniform=True),
        cfg.horizon, cfg.mean_interarrival, cfg.size_low, cfg.size_high, scale,
    )


def _benchmark_energy(channel, local, rate, ends) -> float:
    """Best energy of the transmit-as-late-as-possible policy over the split,
    in closed form.

    That policy sends along the tunnel floor, so wherever it sends it sends
    at the helper's idle computing ``rate``, and its transfer energy is the
    bits sent times ``channel.energy_per_bit(rate)``. That is linear in the
    transfer size, so the best split sits at an end of the feasible range.
    ``ends`` pairs each end's kept bits with its sent bits, None where
    nothing is offloaded.
    """
    per_bit = channel.energy_per_bit(rate)
    best = inf
    for kept, sent in ends:
        e = local.local_energy(kept)
        if sent is not None:
            e += sent * per_bit
        best = min(best, e)
    return best


def _split_energy(transfer_energy, local, load_bits, offload_bits) -> float:
    """Local computing of the kept bits plus ``transfer_energy(offload_bits)``."""
    e = local.local_energy(load_bits - offload_bits)
    if offload_bits > bits_tol(load_bits):
        e += transfer_energy(offload_bits)
    return e


# bits to which each slope root is found: where the corner nears time 0 the
# slope can climb by 5e-10 J/bit within 4 bits, and a root one bit wide then
# left buffer-first up to 4.2e-11 relative above the scan's price (default
# buffer trial 944 at B = 3e5)
_ROOT_TOL = 1e-3


def _buffer_first_energy(profile, channel, local, load_bits, buffer_bits, low, high) -> float:
    """Buffer-first transmission, which pulls the string through
    ``lazy_first_tunnel(profile, l, B)``, optimized over the split.

    Its energy is not convex in the size ``l`` (it can have two local
    minima), but it is between the sizes ``l_j = C - c(t_j)`` at which the
    corner where the floor leaves zero reaches a profile boundary ``t_j``,
    jumping over a busy epoch. So ``[low, high]`` is split at each ``l_j``.
    One pull at each piece end gives its energy and the slope on each side,
    and each piece whose inner slopes go from negative to positive gets a
    root search (``split_root``, to ``_ROOT_TOL``). The price is the least
    energy of every size probed.
    """
    tol = bits_tol(load_bits)
    probed = {}

    def probe(l, start=None, end=None):
        """Split energy at size ``l`` and its slopes toward smaller and larger
        sizes, one pull per size, read at an ``l_j`` with the corner at the
        busy epoch's ``end`` and ``start``."""
        if l not in probed:
            if l > tol:
                tunnel = lazy_first_tunnel(profile, l, buffer_bits)
                schedule = pull_string(tunnel)
                e = local.local_energy(load_bits - l) + schedule.energy(channel)
                corners = [None] if start is None else [bisect_left(schedule.lists[0], t) for t in (end, start)]
                g = [energy_slope(schedule, tunnel, channel, c) for c in corners]
            else:  # nothing sent: the first bit goes out at a vanishing rate
                e = local.local_energy(load_bits - l)
                g = [channel.energy_per_bit(0.0)]
            probed[l] = e, g[0] - local.bit_energy, g[-1] - local.bit_energy
        return probed[l]

    if high - low <= 1.0:
        return probe(low)[0]
    busy = {}  # l_j -> the first and the last boundary time at which the curve is c(t_j)
    for t, c in zip(*profile.parts[:2]):
        l = profile.capacity - c
        if max(low, tol) < l < high:
            busy[l] = (busy[l][0] if l in busy else t), t
    for l, (start, end) in busy.items():
        probe(l, start, end)
    ends = [low, *sorted(busy), high]
    for a, b in zip(ends, ends[1:]):
        inner = {a: probe(a)[2], b: probe(b)[1]}
        if inner[a] < 0.0 < inner[b]:
            probe(split_root(lambda l: inner[l] if l in inner else probe(l)[1], a, b, tol=_ROOT_TOL))
    return min(e for e, _, _ in probed.values())


def _paced_energy(profile, channel, local, load_bits, buffer_bits, low, high) -> float:
    """Proportional pacing optimized over the split: the root of its energy
    slope minus the local energy per bit, to a thousandth of a bit. Its
    tunnel's floor ``(l/C) c(t)`` is linear in the size ``l`` and its ceiling
    ``min(floor + B, l)`` concave, so the energy is convex in ``l``. A size
    the buffer holds is priced on the pieces of the full-utilization string
    scaled by ``l / C``, pulled at most once; a larger one on its own
    tunnel."""
    if high <= bits_tol(load_bits):  # nothing to offload; a never-idle profile has no string
        return local.local_energy(load_bits - low)
    full = cache(lambda: pull_string(full_utilization_tunnel(profile, inf)))

    def slope(l):
        if l > buffer_bits:
            return _split_slope(profile, channel, local, buffer_bits, l)
        return _scaled_slope(full(), channel, l) - local.bit_energy

    def transfer_energy(l):
        if l > buffer_bits:
            return offload_energy(profile, l, buffer_bits, channel)
        times, cumulative = full().pieces
        scale = l / cumulative[-1]
        return schedule_energy(times, [scale * c for c in cumulative], channel)

    if high - low > 1.0:
        low = split_root(slope, low, high, tol=1e-3)
    return _split_energy(transfer_energy, local, load_bits, low)


def _split_case(kind, profile, channel, local, load, buffer_bits, low, high):
    """Energies of one feasible one-shot case: the optimal split, the kind's
    baseline policy (late-transmit for oneshot, in closed form at the ends
    of ``[low, high]``; proportional pacing for buffer) and buffer-first,
    plus the optimal offload size.

    A buffer below every transfer makes the optimal split's solver pace
    proportionally throughout, so the optimum prices proportional pacing;
    any other buffer prices it at its slope root (``_paced_energy``). A
    buffer holding every transfer makes the buffer-first tunnel the
    effective tunnel the optimum is searched on; below the largest transfer,
    buffer-first is priced by ``_buffer_first_energy``.
    """
    res = optimize_partition(profile, channel, local, load, buffer_bits)
    if _SCHEMAS[kind][1] == "bench_energy":
        ends = [(load - l, l if l > bits_tol(load) else None) for l in (low, high)]
        baseline = _benchmark_energy(channel, local, profile.rate, ends)
    elif buffer_bits < low:
        baseline = res.energy  # min_energy_offload(p, l, B) pulls proportional_tunnel(p, l, B) for l > B
    else:
        baseline = _paced_energy(profile, channel, local, load, buffer_bits, low, high)
    if buffer_bits >= max(high, low):
        lazy = res.energy  # lazy_first_tunnel(p, l, B) == effective_tunnel(p, l, B) for B >= l
    else:
        lazy = _buffer_first_energy(profile, channel, local, load, buffer_bits, low, high)
    return (res.energy, baseline, lazy, res.offload_bits)


# axes that change the helper's epochs, so each of their grid values needs its own profile
_PROFILE_AXES = {"mean_idle", "mean_busy", "horizon"}


def _split_trial(task):
    """One one-shot trial at every grid value: a case tuple per value.

    ``task`` is ``(configs, kind, axis, values, trial)``, with the scenario
    at each grid value in ``configs``, built once per sweep by
    ``_run_sweep``. The trial's draws are made once, and so is its profile
    unless the axis moves it. Within one profile a case depends only on the
    gain, the load and the buffer, and a buffer holding every feasible
    transfer never binds, so it is priced as no buffer at all, once for all
    such grid values.
    """
    configs, kind, axis, _, trial = task
    draws = draw_trial(configs[0].seed, _TAGS[kind], trial)
    profile = None
    cases = []
    for cfg_pt in configs:
        if profile is None or axis in _PROFILE_AXES:
            profile, priced = _profile_from_draws(draws, cfg_pt), {}
        gain = cfg_pt.mean_gain * (draws.gain_unit if cfg_pt.rayleigh_fading else 1.0)
        local = cfg_pt.local_params()
        load = cfg_pt.load_bits
        low, high = partition_bounds(profile, local, load)
        if low > min(high, load) + bits_tol(load):
            cases.append((trial, False, nan, nan, nan, nan))
            continue
        buffer_bits = cfg_pt.buffer_bits if cfg_pt.buffer_bits < max(high, low) else inf
        key = gain, load, buffer_bits
        if key not in priced:
            channel = cfg_pt.channel(gain)
            priced[key] = _split_case(kind, profile, channel, local, load, buffer_bits, low, high)
        cases.append((trial, True, *priced[key]))
    return cases


def _bursty_trial(task):
    """One chunked-arrival trial at every grid value: a case tuple per value,
    with the draws made once and the profile built once unless the axis
    moves it."""
    configs, kind, axis, values, trial = task
    draws = draw_trial(configs[0].seed, _TAGS[kind], trial)
    profile = None
    cases = []
    for cfg_pt, value in zip(configs, values):
        if profile is None or axis in _PROFILE_AXES:
            profile = _profile_from_draws(draws, cfg_pt)
        scale = value if axis == "size_scale" else 1.0
        cases.append((trial, *_bursty_case(draws, cfg_pt, profile, scale)))
    return cases


def _bursty_case(draws, cfg, profile, scale):
    gain = cfg.mean_gain * (draws.gain_unit if cfg.rayleigh_fading else 1.0)
    channel = cfg.channel(gain)
    local = cfg.local_params()
    arrivals = _arrivals_from_draws(draws, cfg, scale)
    if arrivals.total <= 0.0:
        return (True, 0.0, 0.0, 0.0, 0.0)
    timeline = merge_events(profile, arrivals)
    try:
        res = optimize_ratio(profile, arrivals, channel, local, timeline)
    except InfeasibleError:
        return (False, nan, nan, nan, nan)
    total, tol = arrivals.total, bits_tol(arrivals.total)
    ends = [((1.0 - r) * total, r * total if r * total > tol else None) for r in (res.ratio_low, res.ratio_high)]
    bench = _benchmark_energy(channel, local, profile.rate, ends)
    return (True, res.ratio, res.energy, bench, res.offload_bits)


_SCHEMAS = {
    "oneshot": ("opt_energy", "bench_energy", "lazy_energy", "offload_bits"),
    "buffer": ("opt_energy", "prop_energy", "lazy_energy", "offload_bits"),
    "bursty": ("ratio", "opt_energy", "bench_energy", "offload_bits"),
}


@dataclass(frozen=True)
class SweepResult:
    kind: str
    axis: str
    values: list
    config: SimConfig
    per_trial: list  # one list of result tuples per grid value, trial order
    rows: list  # one aggregate dict per grid value


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion.

    The low bound is exactly 0 with no successes and the high bound exactly
    1 with all ``n``, where the formula's two terms cancel only to rounding.
    """
    if n <= 0:
        raise ValueError("need at least one observation")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


def _aggregate(kind, axis, value, cases) -> dict:
    names = _SCHEMAS[kind]
    n = len(cases)
    feasible = [c for c in cases if c[1]]
    k = len(feasible)
    lo, hi = wilson_interval(k, n)
    row = {
        "axis": axis,
        "value": value,
        "trials": n,
        "feasible": k,
        "feasible_frac": k / n,
        "wilson_low": lo,
        "wilson_high": hi,
    }
    for idx, name in enumerate(names):
        vals = [c[2 + idx] for c in feasible]
        row[f"mean_{name}"] = sum(vals) / k if k else nan
    return row


def _forked_map(worker, tasks, workers) -> list:
    """``[worker(task) for task in tasks]``, spread over ``workers`` processes.

    The caller forks ``workers - 1`` children and runs tasks ``0, k, 2k, ...``
    itself (``k = workers``); child ``i`` runs tasks ``i, i + k, ...`` and
    writes its results, or the exception it raised, pickled into a pipe of
    its own. A child gets its tasks through the fork, so no task is pickled.
    The caller reaps only its own children, each by pid, and on any error
    kills and reaps every child still running before the error propagates.
    Without ``os.fork`` every task runs in the caller.
    """
    if workers < 2 or not hasattr(os, "fork"):
        return [worker(task) for task in tasks]
    running = {}  # pid -> read end of its pipe, for each child not yet reaped
    try:
        for i in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(worker, tasks[i::workers], write)
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)  # only the caller gets here: a child ends in _child
            running[pid] = read
        shares = [[worker(task) for task in tasks[::workers]]]
        for pid in list(running):
            shares.append(_receive(pid, running))
    finally:
        if running:
            import signal  # imported here: only a failed sweep has a child left to kill

            for pid, read in running.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(read)
    return [shares[t % workers][t // workers] for t in range(len(tasks))]


def _child(worker, tasks, write):
    """A forked child's whole life: run ``tasks``, write ``(True, results)``
    or ``(False, exception)`` pickled to ``write``, and exit. It never
    returns, so no code of the caller's runs twice; exit status 1 means no
    complete outcome was written."""
    status = 1
    try:
        try:
            outcome = True, [worker(task) for task in tasks]
        except BaseException as exc:  # noqa: BLE001 - the caller re-raises it
            outcome = False, exc
        data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _receive(pid, running) -> list:
    """Child ``pid``'s results: read its pipe to the end, reap it, and
    re-raise its exception if it raised one."""
    read = running[pid]
    chunks = []
    while chunk := os.read(read, 1 << 16):
        chunks.append(chunk)
    status = os.waitpid(pid, 0)[1]
    del running[pid]
    os.close(read)
    try:
        ok, outcome = pickle.loads(b"".join(chunks))
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"sweep worker process {pid} ended with exit status {code} and no complete result")
    if not ok:
        raise outcome
    return outcome


def _run_sweep(cfg, axis, values, kind, worker, jobs) -> SweepResult:
    _check_axis(axis, kind)
    values = [float(v) for v in values]
    if not values:
        raise ConfigError("sweep needs at least one grid value")
    configs = [_apply_axis(cfg, axis, v) for v in values]  # a bad grid value fails before any trial runs
    if jobs is not None and not jobs >= 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    # one task per trial, at all its grid values; the trial comes last
    tasks = [(configs, kind, axis, values, t) for t in range(cfg.trials)]
    results = _forked_map(worker, tasks, min(jobs or 1, len(tasks)))
    per_trial = [list(cases) for cases in zip(*results)]  # one list per grid value, trial order
    rows = [_aggregate(kind, axis, v, cases) for v, cases in zip(values, per_trial)]
    return SweepResult(kind, axis, values, cfg, per_trial, rows)


def run_oneshot_sweep(cfg: SimConfig, axis: str = "mean_idle", values=(0.01, 0.02, 0.04), jobs=None):
    """Sweep a scenario parameter; per trial, optimally split and schedule a
    one-shot load, and price the late-transmit and buffer-first policies."""
    return _run_sweep(cfg, axis, values, "oneshot", _split_trial, jobs)


def run_buffer_sweep(cfg: SimConfig, values=(1e4, 1e5, 1e6, inf), jobs=None):
    """Sweep the receive buffer size with everything else held per-trial fixed,
    pricing the hybrid optimum, the proportional scheme, and buffer-first."""
    return _run_sweep(cfg, "buffer_bits", values, "buffer", _split_trial, jobs)


def run_bursty_sweep(cfg: SimConfig, axis: str = "size_scale", values=(0.5, 1.0, 2.0), jobs=None):
    """Sweep chunked-arrival scenarios, optimizing the per-chunk offload share."""
    return _run_sweep(cfg, axis, values, "bursty", _bursty_trial, jobs)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def format_csv(result: SweepResult) -> str:
    """Aggregate rows as CSV text; identical inputs give identical bytes."""
    cols = list(result.rows[0].keys())
    lines = [
        f"# offloadsim sweep kind={result.kind} axis={result.axis} "
        f"seed={result.config.seed} trials={result.config.trials}",
    ]
    if "mean_prop_energy" in cols and "mean_lazy_energy" in cols:
        cross = find_crossover(
            result.values,
            [row["mean_prop_energy"] for row in result.rows],
            [row["mean_lazy_energy"] for row in result.rows],
        )
        lines.append(f"# crossover_buffer_bits={_fmt(cross) if cross is not None else 'none'}")
    lines.append(",".join(cols))
    for row in result.rows:
        lines.append(",".join(_fmt(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def write_csv(result: SweepResult, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(format_csv(result))


def find_crossover(values, series_a, series_b):
    """First grid location where series_a stops beating series_b, linearly
    interpolated; None if the sign never flips."""
    diff = [a - b for a, b in zip(series_a, series_b)]
    for i in range(1, len(diff)):
        if isnan(diff[i - 1]) or isnan(diff[i]):
            continue
        if diff[i - 1] <= 0 < diff[i] or diff[i - 1] >= 0 > diff[i]:
            span = diff[i] - diff[i - 1]
            frac = 0.0 if span == 0 else -diff[i - 1] / span
            return values[i - 1] + frac * (values[i] - values[i - 1])
    return None
