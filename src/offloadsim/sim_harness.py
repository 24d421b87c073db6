"""Monte Carlo harness for offloading policies over random CPU and channel draws.

Each trial owns a counter-derived seed, so runs are reproducible bit for bit
regardless of worker count, and every grid point of a sweep reuses the same
underlying draws (fading, epoch lengths, arrival pattern). That coupling makes
cross-point comparisons paired: capacity grows pointwise with the mean idle
duration, arrival sizes grow pointwise with the size scale, and so on.

Epochs and arrivals come from the loops ``sample_cpu_process`` and
``sample_arrivals`` use, fed by the trial's unit draws, which continue
without end (see ``TrialDraws``), so any horizon runs.
"""
from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import inf, isfinite, isnan, nan, sqrt

import numpy as np

from .cpu_profile import (
    ArrivalProcess,
    CpuIdlingProfile,
    arrivals_from_units,
    build_profile,
    epochs_from_units,
    merge_events,
)
from .energy import ChannelParams, LocalComputeParams, schedule_energy
from .errors import ConfigError, InfeasibleError
from .partition import golden_section, optimize_partition, optimize_ratio, partition_bounds, split_root
from .string_pull import floor_following_schedule, pull_string
from .tunnel import (
    bits_tol,
    bursty_effective_tunnel,
    effective_tunnel,
    full_utilization_tunnel,
    lazy_first_tunnel,
    proportional_tunnel,
)

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
        for name in positive:
            v = getattr(self, name)
            if not isfinite(v) or v <= 0:
                raise ConfigError(f"{name} must be positive and finite, got {v}")
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
        if not 0.0 < value < inf:
            raise ConfigError(f"size_scale must be positive and finite, got {value}")
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


def _benchmark_energy(channel, local, ends, tunnel_fn) -> float:
    """Best energy of the transmit-as-late-as-possible policy over the split.

    That policy always transmits at the helper's idle computing rate, so its
    transfer energy is linear in the transfer size and the best split sits at
    an end of the feasible range. ``ends`` pairs each end's kept bits with
    its offload (a size or a share), None where nothing is offloaded, and
    ``tunnel_fn`` builds the tunnel of an offload.
    """
    best = inf
    for kept, offload in ends:
        e = local.local_energy(kept)
        if offload is not None:
            e += floor_following_schedule(tunnel_fn(offload)).energy(channel)
        best = min(best, e)
    return best


def scan_minimize(fn, lo: float, hi: float, coarse: int = 17, tol: float = 1.0):
    """Coarse grid scan followed by golden refinement around the best cell.

    For objectives that are cheap but not certified unimodal, such as the
    buffer-first policy's energy over the split.
    """
    if hi <= lo + tol:
        x, f = golden_section(fn, lo, hi, tol)
        return x, f
    xs = np.linspace(lo, hi, coarse)
    fs = [fn(x) for x in xs]
    k = int(np.argmin(fs))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, coarse - 1)]
    x, f = golden_section(fn, a, b, tol)
    if fs[k] < f:
        return float(xs[k]), fs[k]
    return x, f


def _split_energy(transfer_energy, local, load_bits, offload_bits) -> float:
    """Local computing of the kept bits plus ``transfer_energy(offload_bits)``."""
    e = local.local_energy(load_bits - offload_bits)
    if offload_bits > bits_tol(load_bits):
        e += transfer_energy(offload_bits)
    return e


def _scanned_energy(tunnel_fn, profile, channel, local, load_bits, buffer_bits, low, high) -> float:
    """Best energy over the split (scanned) of the policy that pulls the
    string through ``tunnel_fn(profile, offload_bits, buffer_bits)``."""

    def transfer_energy(l):
        return pull_string(tunnel_fn(profile, l, buffer_bits)).energy(channel)

    def fn(l):
        return _split_energy(transfer_energy, local, load_bits, l)

    if high - low <= 1.0:
        return fn(low)
    _, f = scan_minimize(fn, low, high, coarse=13, tol=1.0)
    return f


def _scaled_slope(full, channel, offload_bits) -> float:
    """Slope in the transfer size of the energy of ``full`` scaled to
    ``offload_bits``: ``sum over segments of p'(s r) * bits / C`` with ``s =
    offload_bits / C``, ``r`` and ``bits`` the segments' rates and bits and
    ``C`` the string's total. An overflowing ``p'`` only meets positive bits,
    so the slope is then ``+inf``, never NaN."""
    s = offload_bits / full.total
    return float(channel.marginal_energy_per_bit(s * full.rates) @ full.bits) / full.total


def _scaled_full_energy(profile, channel, local, load_bits, low, high) -> float:
    """Proportional pacing optimized over the split when the buffer holds
    every transfer: ``proportional_tunnel(p, l, B)`` for ``B >= l`` is
    ``full_utilization_tunnel(p, inf)`` scaled by ``l / capacity``, and so is
    its taut string, so one string pull prices every transfer size, and the
    best size is the root of the scaled string's energy slope minus the local
    energy per bit. That slope is in closed form, so the root is taken to a
    thousandth of a bit."""
    if high <= bits_tol(load_bits):  # nothing to offload; a never-idle profile has no string
        return local.local_energy(load_bits - low)
    full = pull_string(full_utilization_tunnel(profile, inf))

    def transfer_energy(l):
        return schedule_energy(full.times, (l / full.total) * full.cumulative, channel)

    if high - low > 1.0:
        low = split_root(lambda l: _scaled_slope(full, channel, l) - local.bit_energy, low, high, tol=1e-3)
    return _split_energy(transfer_energy, local, load_bits, low)


def _split_case(task):
    """One one-shot trial: the optimal split plus the kind's baseline policy
    (late-transmit for oneshot, proportional pacing for buffer) and buffer-first.

    Where one tunnel family covers every candidate transfer, a policy is
    priced without a scan. A buffer below every transfer makes the optimal
    split's solver use the proportional tunnel throughout, so proportional
    pacing is priced by the optimum. A buffer holding every transfer makes
    the buffer-first tunnel the effective tunnel the optimum is searched
    on, and proportional pacing one scaled full-utilization string, priced
    at the root of its energy slope. A buffer inside the feasible range
    scans proportional tunnels per size, and every buffer below the largest
    transfer scans lazy-first tunnels: buffer-first's energy over the split
    is not known to be convex there.
    """
    cfg, kind, axis, value, trial = task
    cfg_pt = _apply_axis(cfg, axis, value)
    draws = draw_trial(cfg.seed, _TAGS[kind], trial)
    profile = _profile_from_draws(draws, cfg_pt)
    gain = cfg_pt.mean_gain * (draws.gain_unit if cfg_pt.rayleigh_fading else 1.0)
    channel = cfg_pt.channel(gain)
    local = cfg_pt.local_params()
    load, buffer_bits = cfg_pt.load_bits, cfg_pt.buffer_bits
    low, high = partition_bounds(profile, local, load)
    if low > min(high, load) + bits_tol(load):
        return (trial, False, nan, nan, nan, nan)
    res = optimize_partition(profile, channel, local, load, buffer_bits)
    whole = buffer_bits >= max(high, low)
    if _SCHEMAS[kind][1] == "bench_energy":
        ends = [(load - l, l if l > bits_tol(load) else None) for l in (low, high)]
        baseline = _benchmark_energy(channel, local, ends, lambda l: effective_tunnel(profile, l, inf))
    elif buffer_bits < low:
        baseline = res.energy  # min_energy_offload(p, l, B) pulls proportional_tunnel(p, l, B) for l > B
    elif whole:
        baseline = _scaled_full_energy(profile, channel, local, load, low, high)
    else:
        baseline = _scanned_energy(proportional_tunnel, profile, channel, local, load, buffer_bits, low, high)
    if whole:
        lazy = res.energy  # lazy_first_tunnel(p, l, B) == effective_tunnel(p, l, B) for B >= l
    else:
        lazy = _scanned_energy(lazy_first_tunnel, profile, channel, local, load, buffer_bits, low, high)
    return (trial, True, res.energy, baseline, lazy, res.offload_bits)


def _bursty_case(task):
    cfg, kind, axis, value, trial = task
    cfg_pt = _apply_axis(cfg, axis, value)
    scale = value if axis == "size_scale" else 1.0
    draws = draw_trial(cfg.seed, _TAGS[kind], trial)
    profile = _profile_from_draws(draws, cfg_pt)
    gain = cfg_pt.mean_gain * (draws.gain_unit if cfg_pt.rayleigh_fading else 1.0)
    channel = cfg_pt.channel(gain)
    local = cfg_pt.local_params()
    arrivals = _arrivals_from_draws(draws, cfg_pt, scale)
    if arrivals.total <= 0.0:
        return (trial, True, 0.0, 0.0, 0.0, 0.0)
    timeline = merge_events(profile, arrivals)
    try:
        res = optimize_ratio(profile, arrivals, channel, local, timeline)
    except InfeasibleError:
        return (trial, False, nan, nan, nan, nan)
    total = arrivals.total
    ends = [
        ((1.0 - r) * total, r if r * total > bits_tol(total) else None)
        for r in (res.ratio_low, res.ratio_high)
    ]
    bench = _benchmark_energy(
        channel, local, ends, lambda r: bursty_effective_tunnel(profile, arrivals, r, timeline)
    )
    return (trial, True, res.ratio, res.energy, bench, res.offload_bits)


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
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need at least one observation")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


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


def _run_sweep(cfg, axis, values, kind, worker, jobs) -> SweepResult:
    _check_axis(axis, kind)
    values = [float(v) for v in values]
    if not values:
        raise ConfigError("sweep needs at least one grid value")
    for v in values:
        _apply_axis(cfg, axis, v)  # reject a bad grid value before any trial runs
    tasks = [(cfg, kind, axis, v, t) for v in values for t in range(cfg.trials)]
    workers = min(jobs or 1, len(tasks))  # the executor forks every worker at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (workers * 8))
            results = list(pool.map(worker, tasks, chunksize=chunk))
    else:
        results = [worker(task) for task in tasks]
    per_trial = []
    rows = []
    for i, v in enumerate(values):
        cases = results[i * cfg.trials : (i + 1) * cfg.trials]
        per_trial.append(cases)
        rows.append(_aggregate(kind, axis, v, cases))
    return SweepResult(kind, axis, values, cfg, per_trial, rows)


def run_oneshot_sweep(cfg: SimConfig, axis: str = "mean_idle", values=(0.01, 0.02, 0.04), jobs=None):
    """Sweep a scenario parameter; per trial, optimally split and schedule a
    one-shot load, and price the late-transmit and buffer-first policies."""
    return _run_sweep(cfg, axis, values, "oneshot", _split_case, jobs)


def run_buffer_sweep(cfg: SimConfig, values=(1e4, 1e5, 1e6, inf), jobs=None):
    """Sweep the receive buffer size with everything else held per-trial fixed,
    pricing the hybrid optimum, the proportional scheme, and buffer-first."""
    return _run_sweep(cfg, "buffer_bits", values, "buffer", _split_case, jobs)


def run_bursty_sweep(cfg: SimConfig, axis: str = "size_scale", values=(0.5, 1.0, 2.0), jobs=None):
    """Sweep chunked-arrival scenarios, optimizing the per-chunk offload share."""
    return _run_sweep(cfg, axis, values, "bursty", _bursty_case, jobs)


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
