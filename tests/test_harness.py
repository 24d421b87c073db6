import os
import threading
from functools import cache
from itertools import islice

import numpy as np
import pytest

from offloadsim.cpu_profile import Epoch, build_profile, merge_events
from offloadsim.energy import schedule_energy
from offloadsim.errors import ConfigError
from offloadsim.partition import optimize_partition, optimize_ratio, partition_bounds
from offloadsim.sim_harness import (
    _TAGS,
    SimConfig,
    _arrivals_from_draws,
    _buffer_first_energy,
    _profile_from_draws,
    _run_sweep,
    _split_trial,
    _units,
    draw_trial,
    find_crossover,
    format_csv,
    run_buffer_sweep,
    run_bursty_sweep,
    run_oneshot_sweep,
    wilson_interval,
    write_csv,
)
from offloadsim.string_pull import energy_slope, offload_energy, pull_string
from offloadsim.tunnel import (
    bits_tol,
    bursty_effective_tunnel,
    effective_tunnel,
    full_utilization_tunnel,
    lazy_first_tunnel,
    proportional_tunnel,
)

from oracles import floor_following_schedule, scan_minimize, scanned_buffer_first

SMALL = SimConfig(trials=40, seed=7)


def trial_instance(cfg, kind, trial):
    """The profile, channel and local CPU a sweep trial of ``kind`` draws."""
    draws = draw_trial(cfg.seed, _TAGS[kind], trial)
    gain = cfg.mean_gain * (draws.gain_unit if cfg.rayleigh_fading else 1.0)
    return _profile_from_draws(draws, cfg), cfg.channel(gain), cfg.local_params()


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(mean_idle=0.0)
    with pytest.raises(ConfigError):
        SimConfig(trials=0)
    with pytest.raises(ConfigError):
        SimConfig(idle_start_prob=1.5)
    with pytest.raises(ConfigError):
        SimConfig(size_low=2e5, size_high=1e5)
    for name in ("load_bits", "buffer_bits"):
        for bad in (np.nan, -1.0):
            with pytest.raises(ConfigError, match=name):
                SimConfig(**{name: bad})
    assert SimConfig(buffer_bits=np.inf).buffer_bits == np.inf
    for name in ("size_low", "size_high"):
        for bad in (np.nan, np.inf, -1.0):
            with pytest.raises(ConfigError, match=name):
                SimConfig(**{name: bad})
    with pytest.raises(ConfigError, match="seed"):
        SimConfig(seed=-1)
    for name in ("trials", "seed"):
        for bad in (2.7, 3.0, "3", True):
            with pytest.raises(ConfigError, match=name):
                SimConfig(**{name: bad})
    for bad in ("false", 0, 1.0, None):
        with pytest.raises(ConfigError, match="rayleigh_fading"):
            SimConfig(rayleigh_fading=bad)
    assert SimConfig(seed=np.int64(7), rayleigh_fading=np.bool_(False)).seed == 7


def test_config_from_dict():
    cfg = SimConfig.from_dict({"mean_idle": "0.04", "trials": 10})
    assert cfg.mean_idle == 0.04 and cfg.trials == 10
    with pytest.raises(ConfigError) as exc:
        SimConfig.from_dict({"mean_idle_s": 0.04})
    assert "mean_idle_s" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        SimConfig.from_dict({"mean_idle": "fast"})
    assert "mean_idle" in str(exc.value)
    # integral numbers and numeric strings load; nothing is rounded or coerced
    cfg = SimConfig.from_dict({"trials": 7.0, "seed": "42", "rayleigh_fading": False})
    assert (cfg.trials, cfg.seed, cfg.rayleigh_fading) == (7, 42, False)
    assert type(cfg.trials) is int and type(cfg.seed) is int
    assert SimConfig.from_dict({"seed": "3.0", "trials": "12"}).seed == 3
    assert SimConfig.from_dict({"seed": 2**70}).seed == 2**70
    for key, bad in (
        ("trials", 2.7),
        ("seed", 3.9),
        ("trials", "2.5"),
        ("seed", "many"),
        ("trials", True),
        ("seed", None),
        ("seed", float("nan")),
        ("seed", -1),
        ("rayleigh_fading", "false"),
        ("rayleigh_fading", 1),
        ("size_high", float("inf")),
        ("size_low", float("nan")),
    ):
        with pytest.raises(ConfigError) as exc:
            SimConfig.from_dict({key: bad})
        assert key in str(exc.value), (key, bad)


def test_draw_trial_reproducible_and_distinct():
    a = draw_trial(7, 11, 3)
    b = draw_trial(7, 11, 3)
    assert np.array_equal(a.idle_units, b.idle_units)
    assert a.gain_unit == b.gain_unit
    c = draw_trial(7, 11, 4)
    assert not np.array_equal(a.idle_units, c.idle_units)
    d = draw_trial(8, 11, 3)
    assert a.gain_unit != d.gain_unit


def test_long_horizon_sweeps_run():
    # a 5 s horizon needs more than the pre-drawn values of some pools
    cfg = SimConfig(trials=3, seed=7)
    for run in (run_oneshot_sweep, run_bursty_sweep):
        res = run(cfg, "horizon", (0.1, 5.0))
        assert [row["value"] for row in res.rows] == [0.1, 5.0]
        assert all(row["trials"] == 3 for row in res.rows)


def test_continued_idle_draws_keep_grid_points_paired():
    # a 12 s horizon runs past the 128 pre-drawn idle units at both means
    draws = draw_trial(7, _TAGS["oneshot"], 0)
    idle = {}
    for mean_idle in (0.02, 0.04):
        prof = _profile_from_draws(draws, SimConfig(horizon=12.0, mean_idle=mean_idle))
        idle[mean_idle] = prof.durations[:-1][prof.idle[:-1]].tolist()
    n = min(len(durations) for durations in idle.values())
    assert n > 128
    assert idle[0.04][:n] == [2.0 * d for d in idle[0.02][:n]]


def test_continued_draws_do_not_replay_the_trial_stream():
    # each pool's continuation is a stream of its own, not a replay of the
    # stream its first values (and the channel gain) came from
    for trial in range(5):
        draws = draw_trial(7, _TAGS["oneshot"], trial)
        pools = (draws.idle_units, draws.busy_units, draws.gap_units, draws.size_units)
        seen = {draws.gain_unit, draws.idle_start}.union(*(pool.tolist() for pool in pools))
        continued = []
        for stream, pool in enumerate(pools):
            units = list(islice(_units(pool, draws.key, stream, uniform=stream == 3), 2 * len(pool)))
            assert units[: len(pool)] == pool.tolist()
            continued.append(units[len(pool):])
        fresh = set().union(*continued)
        assert len(fresh) == sum(map(len, continued))
        assert seen.isdisjoint(fresh)


def test_wilson_interval():
    lo, hi = wilson_interval(0, 50)
    assert lo == pytest.approx(0.0, abs=1e-12) and hi < 0.1
    lo, hi = wilson_interval(50, 50)
    assert hi == pytest.approx(1.0) and lo > 0.9
    lo, hi = wilson_interval(8, 10)
    assert 0.49 < lo < 0.51 and 0.94 < hi < 0.95  # textbook value for 80 percent


def test_oneshot_sweep_rows():
    res = run_oneshot_sweep(SMALL, "mean_idle", (0.01, 0.04), jobs=None)
    assert res.kind == "oneshot" and res.axis == "mean_idle"
    assert [row["value"] for row in res.rows] == [0.01, 0.04]
    for row in res.rows:
        assert 0 <= row["feasible"] <= SMALL.trials
        assert row["wilson_low"] <= row["feasible_frac"] <= row["wilson_high"]
        if row["feasible"]:
            assert row["mean_opt_energy"] <= row["mean_bench_energy"] * (1 + 1e-12)


def test_invalid_axis_rejected():
    with pytest.raises(ConfigError) as exc:
        run_oneshot_sweep(SMALL, "bandwidth", (1.0, 2.0))
    assert "bandwidth" in str(exc.value)
    with pytest.raises(ConfigError):
        run_oneshot_sweep(SMALL, "size_scale", (0.5, 1.0))  # chunked-arrival knob


def test_buffer_sweep_columns_and_crossover_comment():
    res = run_buffer_sweep(SMALL, (1e4, np.inf), jobs=None)
    for row in res.rows:
        if row["feasible"]:
            assert row["mean_opt_energy"] <= row["mean_prop_energy"] * (1 + 1e-12)
            assert row["mean_opt_energy"] <= row["mean_lazy_energy"] * (1 + 1e-12)
    text = format_csv(res)
    assert text.splitlines()[-len(res.rows) - 1].startswith("axis,value,")
    cross = find_crossover(
        list(res.values),
        [row["mean_prop_energy"] for row in res.rows],
        [row["mean_lazy_energy"] for row in res.rows],
    )
    if cross is not None:
        assert any("crossover_buffer_bits" in ln for ln in text.splitlines())


def test_bursty_sweep_rows():
    res = run_bursty_sweep(SMALL, "size_scale", (0.5, 2.0), jobs=None)
    fr = [row["feasible_frac"] for row in res.rows]
    assert fr[0] >= fr[1]
    for row in res.rows:
        if row["feasible"]:
            assert row["mean_opt_energy"] <= row["mean_bench_energy"] * (1 + 1e-12)


def _floor_price(channel, local, rate, ends):
    """The late-transmit price of ``ends``, pairs of kept bits and the
    tunnel of the offload (None for none), read off the schedule along each
    tunnel's floor, and the joules within which rounding leaves that
    schedule's energy: a floor vertex rounds to ulps of the capacity curve
    there, which moves the energy by ``p'(rate)`` per bit, and its time to
    ulps of itself, which moves it by ``|h(rate)|`` per second, with ``h(r)
    = p(r) - r p'(r)``."""
    m = float(channel.marginal_energy_per_bit(rate))
    h = abs(float(channel.rate_to_power(rate)) - rate * m)
    price, rounding = np.inf, 0.0
    for kept, tunnel in ends:
        e = local.local_energy(kept)
        if tunnel is not None:
            assert tunnel.is_feasible()  # the closed form checks no tunnel
            e += floor_following_schedule(tunnel).energy(channel)
            times, _, _, capacity = tunnel.lists[:4]
            rounding += sum(m * c + h * t for t, c in zip(times, capacity))
        price = min(price, e)
    return price, rounding


def test_late_transmit_is_priced_as_its_floor_schedules():
    # the late-transmit policy sends along the tunnel floor, at the helper's
    # idle rate wherever it sends, so the sweeps price it in closed form;
    # here each end of the feasible range is priced by its floor schedule.
    # The two agree within 16 eps of that schedule's rounding, not of its
    # energy: with few bits sent from a large capacity, or a short segment
    # late in the window, rounding moves the schedule's energy by up to
    # ~1e4 eps of itself (seed 7 at size scale 0.5)
    cfg = SimConfig(trials=100)
    eps = np.finfo(float).eps
    ends = {"oneshot": 0, "bursty": 0}
    oneshot = run_oneshot_sweep(cfg, "load_bits", (1.4e5, 7e5))
    for load, cases in zip(oneshot.values, oneshot.per_trial):
        for trial, ok, _, bench, _, _ in cases:
            if not ok:
                continue
            profile, channel, local = trial_instance(cfg, "oneshot", trial)
            sizes = partition_bounds(profile, local, load)
            tunnels = [effective_tunnel(profile, l) if l > bits_tol(load) else None for l in sizes]
            price, rounding = _floor_price(channel, local, profile.rate, zip([load - l for l in sizes], tunnels))
            assert abs(bench - price) <= 16 * eps * (price + rounding), (load, trial)
            ends["oneshot"] += len(tunnels) - tunnels.count(None)
    bursty = run_bursty_sweep(cfg, "size_scale", (0.5, 1.0))
    for scale, cases in zip(bursty.values, bursty.per_trial):
        for trial, ok, _, _, bench, _ in cases:
            profile, channel, local = trial_instance(cfg, "bursty", trial)
            arrivals = _arrivals_from_draws(draw_trial(cfg.seed, _TAGS["bursty"], trial), cfg, scale)
            if not ok or arrivals.total <= 0.0:
                continue
            total = arrivals.total
            timeline = merge_events(profile, arrivals)
            res = optimize_ratio(profile, arrivals, channel, local, timeline)
            shares = (res.ratio_low, res.ratio_high)
            tunnels = [
                bursty_effective_tunnel(profile, arrivals, r, timeline) if r * total > bits_tol(total) else None
                for r in shares
            ]
            kept = [(1.0 - r) * total for r in shares]
            price, rounding = _floor_price(channel, local, profile.rate, zip(kept, tunnels))
            assert abs(bench - price) <= 16 * eps * (price + rounding), (scale, trial)
            ends["bursty"] += len(tunnels) - tunnels.count(None)
    assert ends["oneshot"] > 100 and ends["bursty"] > 100


def test_results_identical_across_worker_counts():
    serial = format_csv(run_oneshot_sweep(SMALL, "mean_idle", (0.01, 0.04), jobs=None))
    parallel = format_csv(run_oneshot_sweep(SMALL, "mean_idle", (0.01, 0.04), jobs=3))
    assert serial == parallel
    again = format_csv(run_oneshot_sweep(SMALL, "mean_idle", (0.01, 0.04), jobs=2))
    assert serial == again


def test_worker_pool_no_larger_than_the_sweep(monkeypatch):
    # the calling process takes one share, so a sweep forks one child less
    # than its worker count, and never more children than it has trials
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    cfg = SimConfig(trials=1, seed=7)
    serial = format_csv(run_oneshot_sweep(cfg, "mean_idle", (0.02,), jobs=None))
    assert format_csv(run_oneshot_sweep(cfg, "mean_idle", (0.02,), jobs=500)) == serial
    run_oneshot_sweep(cfg, "mean_idle", (0.01, 0.02, 0.04), jobs=500)
    assert forks == []  # a task is one trial at every grid value, so one task runs in this process
    cfg = SimConfig(trials=3, seed=7)
    run_oneshot_sweep(cfg, "mean_idle", (0.01, 0.02, 0.04), jobs=500)
    assert len(forks) == 2
    run_oneshot_sweep(cfg, "mean_idle", (0.01, 0.02, 0.04), jobs=2)
    assert len(forks) == 3


def test_sweep_without_fork_runs_in_one_process(monkeypatch):
    cfg = SimConfig(trials=3, seed=7)
    forked = format_csv(run_oneshot_sweep(cfg, "mean_idle", (0.01, 0.04), jobs=3))
    monkeypatch.delattr(os, "fork")
    assert format_csv(run_oneshot_sweep(cfg, "mean_idle", (0.01, 0.04), jobs=3)) == forked


class TrialFailed(Exception):
    pass


class UnpicklableFailure(Exception):
    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


def failing_worker(bad_trial, error):
    def worker(task):
        if task[-1] == bad_trial:
            raise error()
        return _split_trial(task)

    return worker


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("bad_trial", [4, 5], ids=["callers_share", "childs_share"])
def test_worker_error_reaches_the_caller_with_its_type(bad_trial):
    # with 2 workers the caller runs the even trials and its child the odd ones
    cfg = SimConfig(trials=6, seed=7)
    with pytest.raises(TrialFailed):
        _run_sweep(cfg, "mean_idle", (0.02,), "oneshot", failing_worker(bad_trial, TrialFailed), 2)
    assert_no_child_left()


def test_child_error_that_cannot_be_pickled_raises_runtime_error():
    cfg = SimConfig(trials=6, seed=7)
    with pytest.raises(RuntimeError, match="exit status 1"):
        _run_sweep(cfg, "mean_idle", (0.02,), "oneshot", failing_worker(5, UnpicklableFailure), 3)
    assert_no_child_left()


def test_non_positive_worker_counts_rejected_by_name():
    cfg = SimConfig(trials=1, seed=7)
    for jobs in (0, -4):
        with pytest.raises(ConfigError, match="jobs"):
            run_oneshot_sweep(cfg, "mean_idle", (0.02,), jobs=jobs)
    assert run_oneshot_sweep(cfg, "mean_idle", (0.02,), jobs=None).rows[0]["trials"] == 1


def test_per_trial_results_hold_plain_numbers():
    # numpy scalars would show as np.float64(...) in the results' repr
    cfg = SimConfig(trials=12, seed=7)
    results = (
        run_oneshot_sweep(cfg, "mean_idle", (0.01, 0.04)),
        run_buffer_sweep(cfg, (1e4, 5e5, np.inf)),  # below, inside and above the feasible range
        run_bursty_sweep(cfg, "size_scale", (0.5, 2.0)),
    )
    for res in results:
        for cases in res.per_trial:
            for case in cases:
                assert {type(x) for x in case} <= {int, bool, float}, (res.kind, case)
        assert "np." not in repr(res.per_trial)


def test_write_csv_unix_newlines(tmp_path):
    res = run_oneshot_sweep(SMALL, "mean_idle", (0.02,), jobs=None)
    path = tmp_path / "out.csv"
    write_csv(res, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode() == format_csv(res)


def test_find_crossover():
    assert find_crossover([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) is None
    x = find_crossover([0.0, 1.0], [0.0, 1.0], [0.5, 0.5])
    assert x == pytest.approx(0.5)
    assert find_crossover([0.0, 1.0], [0.0, np.nan], [0.5, 0.5]) is None


def test_whole_buffer_prices_buffer_first_by_the_optimum():
    # with every candidate transfer inside the buffer the lazy-first tunnel is
    # the effective tunnel, so the buffer-first column is the optimum itself
    oneshot = run_oneshot_sweep(SMALL, "mean_idle", (0.01, 0.04))
    buffer = run_buffer_sweep(SMALL, (1e4, 7e5, np.inf))
    whole = oneshot.per_trial + [
        cases for v, cases in zip(buffer.values, buffer.per_trial) if v >= SMALL.load_bits
    ]
    assert len(whole) == 4
    for cases in whole:
        feasible = [c for c in cases if c[1]]
        assert feasible
        assert all(c[4] == c[2] for c in feasible)
    # below the load, a trial whose buffer is smaller than its largest
    # transfer still prices the lazy-first tunnels
    scanned = 0
    for case in buffer.per_trial[0]:
        trial, ok, opt, _, lazy, _ = case
        if not ok:
            continue
        profile, channel, local = trial_instance(SMALL, "buffer", trial)
        low, high = partition_bounds(profile, local, SMALL.load_bits)
        assert 1e4 < high
        expect = _buffer_first_energy(profile, channel, local, SMALL.load_bits, 1e4, low, high)
        assert lazy == expect
        scanned += lazy != opt
    assert scanned > 0


def test_optimum_never_loses_to_scanned_buffer_first_with_whole_buffer():
    # Both searches stop within one bit of the minimizer, so the scan may land
    # a little closer to it; it must never beat the optimum by more than the
    # objective moves within one bit of the optimum's split.
    cfg = SimConfig()
    rng = np.random.default_rng(31)
    checked = 0
    for trial in range(400):
        profile, channel, local = trial_instance(cfg, "oneshot", trial)
        load = float(rng.uniform(2e5, 1.2e6))
        low, high = partition_bounds(profile, local, load)
        if low > high:
            continue
        for buf in (high, float(rng.uniform(1.0, 2.0)) * high, np.inf):
            res = optimize_partition(profile, channel, local, load, buf)
            lazy = scanned_buffer_first(profile, channel, local, load, buf, low, high)

            def energy(l):
                return local.local_energy(load - l) + offload_energy(profile, l, buf, channel)

            x = res.offload_bits
            one_bit = max(abs(energy(min(x + 1.0, high)) - res.energy), abs(energy(max(x - 1.0, low)) - res.energy))
            assert lazy >= res.energy - one_bit
        checked += 1
        if checked == 100:
            break
    assert checked == 100


def paced_split_energy(profile, channel, local, load, buf):
    """Proportional pacing's energy over the split, one proportional tunnel
    per offload size."""

    def energy(l):
        e = local.local_energy(load - l)
        if l > bits_tol(load):
            e += pull_string(proportional_tunnel(profile, l, buf)).energy(channel)
        return e

    return energy


def test_proportional_column_is_the_optimum_or_the_slope_root():
    # below every candidate transfer the optimal split's solver already pulls
    # proportional tunnels, so the prop column is the optimum itself; for any
    # other buffer it is the root of the pacing energy's slope, equal to a
    # scan of the proportional tunnels above every transfer, and beaten
    # neither by that scan nor by a dense grid inside the range
    values = (1e4, 1e5, 6e5, 7e5, np.inf)
    buffer = run_buffer_sweep(SMALL, values)
    below = above = inside = 0
    for buf, cases in zip(values, buffer.per_trial):
        for trial, ok, opt, prop, _, _ in cases:
            if not ok:
                continue
            profile, channel, local = trial_instance(SMALL, "buffer", trial)
            low, high = partition_bounds(profile, local, SMALL.load_bits)
            if buf < low:
                assert prop == opt
                below += 1
                continue
            energy = paced_split_energy(profile, channel, local, SMALL.load_bits, buf)
            expect = energy(low) if high - low <= 1.0 else scan_minimize(energy, low, high, coarse=13, tol=1.0)[1]
            if buf >= max(high, low):
                assert prop == pytest.approx(expect, rel=1e-12, abs=0.0)
                above += 1
            else:
                assert prop <= expect * (1 + 1e-12)
                step = 1e-3 * SMALL.load_bits
                grid = np.clip(np.arange(low, high + step, step), low, high)
                assert prop <= min(energy(l) for l in grid) * (1 + 1e-9)
                inside += 1
    assert below > 0 and above > 0 and inside > 0


def test_scaled_full_string_prices_proportional_tunnel_with_whole_buffer():
    # for B >= l the proportional tunnel is full_utilization_tunnel(p, inf)
    # scaled by l / capacity, and so is its taut string
    rng = np.random.default_rng(61)
    checked = 0
    while checked < 300:
        k = int(rng.integers(1, 60))
        idle_first = bool(rng.random() < 0.5)
        durations = rng.exponential(0.1 / k, k)
        epochs = [Epoch(float(d), (i % 2 == 0) == idle_first) for i, d in enumerate(durations)]
        profile = build_profile(epochs, 5e9, 500.0, sum(e.duration for e in epochs))
        if profile.last_idle_index is None:
            continue
        channel = SMALL.channel(SMALL.mean_gain * 10 ** rng.uniform(-3, 3))
        full = pull_string(full_utilization_tunnel(profile, np.inf))
        l = float(rng.uniform(1e-6, 1.0)) * profile.capacity
        buf = float(rng.choice([l, rng.uniform(1.0, 3.0) * l, np.inf]))
        scaled = schedule_energy(full.times, (l / full.total) * full.cumulative, channel)
        expect = pull_string(proportional_tunnel(profile, l, buf)).energy(channel)
        assert scaled == pytest.approx(expect, rel=1e-12, abs=0.0)
        checked += 1


def test_one_task_per_trial_prices_each_grid_value_as_alone():
    # a trial shares its draws, its profile (unless the axis moves it) and
    # the price of every buffer that holds all its transfers across the grid
    cfg = SimConfig(trials=12, seed=7)
    buffers = (1e4, 6.8e5, 1e6, np.inf)  # below low; at or above high but below the load; 1e6; inf
    highs = []
    for trial in range(cfg.trials):
        profile, _, local = trial_instance(cfg, "buffer", trial)
        low, high = partition_bounds(profile, local, cfg.load_bits)
        if low <= high:
            assert 1e4 < low
            highs.append(high)
    assert min(highs) <= 6.8e5 < max(highs)  # 6.8e5 holds every transfer of some trials, not of others
    sweeps = (
        (run_oneshot_sweep, ("mean_idle",), (0.01, 0.02, 0.04)),  # moves the profile
        (run_oneshot_sweep, ("mean_gain",), (5e-7, 1e-6, 2e-6)),
        (run_buffer_sweep, (), buffers),
        (run_bursty_sweep, ("mean_idle",), (0.01, 0.04)),
        (run_bursty_sweep, ("mean_gain",), (5e-7, 2e-6)),
    )
    for run, axis, values in sweeps:
        alone = [repr(run(cfg, *axis, (v,)).per_trial[0]) for v in values]
        for jobs in (1, 2):
            together = run(cfg, *axis, values, jobs=jobs).per_trial
            assert [repr(cases) for cases in together] == alone, (run.__name__, axis, jobs)


@cache
def default_buffer_instances(trials=400):
    """Profile, channel, local CPU and feasible range of every feasible
    trial among the first ``trials`` of the default buffer sweep (206 of
    the first 400, 974 of the first 2000)."""
    cfg = SimConfig()
    out = []
    for trial in range(trials):
        profile, channel, local = trial_instance(cfg, "buffer", trial)
        low, high = partition_bounds(profile, local, cfg.load_bits)
        if low <= min(high, cfg.load_bits) + bits_tol(cfg.load_bits):
            out.append((profile, channel, local, low, high))
    return out


def test_lazy_first_slope_matches_central_differences():
    # past the corner where the floor leaves zero every envelope rises by a
    # bit per bit, and the corner itself moves in time by -1/rate per bit
    instances = default_buffer_instances()
    assert len(instances) == 206
    rng = np.random.default_rng(91)
    for buffer_bits in (1e4, 1e5, 3e5):
        checked = kinks = 0
        for profile, channel, _, low, high in instances:
            if high - low < 4.0:
                continue
            for l in rng.uniform(low + 2.0, high - 2.0, 2):

                def energy(x):
                    return pull_string(lazy_first_tunnel(profile, x, buffer_bits)).energy(channel)

                tunnel = lazy_first_tunnel(profile, l, buffer_bits)
                schedule = pull_string(tunnel)
                slope = energy_slope(schedule, tunnel, channel)
                e = schedule.energy(channel)
                ahead, behind = energy(l + 1.0) - e, e - energy(l - 1.0)
                if abs(ahead - behind) > 1e-4 * abs(ahead):
                    kinks += 1  # a kink within a bit, where no one slope exists
                    continue
                assert slope == pytest.approx(0.5 * (ahead + behind), rel=1e-6)
                checked += 1
        assert checked >= 350 and kinks <= 0.1 * checked, (buffer_bits, checked, kinks)


def test_buffer_first_price_never_above_the_scan_or_a_dense_grid():
    # the slope-guided search must not lose to the 13-point scan it replaced,
    # nor to a dense grid of sizes a thousandth of the load apart
    cfg = SimConfig()
    load = cfg.load_bits
    for buffer_bits in (1e4, 1e5, 3e5, 5e5):
        lower = 0
        for profile, channel, local, low, high in default_buffer_instances():
            price = _buffer_first_energy(profile, channel, local, load, buffer_bits, low, high)
            scanned = scanned_buffer_first(profile, channel, local, load, buffer_bits, low, high)
            assert price <= scanned * (1 + 1e-12)
            lower += price < scanned

            def energy(l):
                e = local.local_energy(load - l)
                if l > bits_tol(load):
                    e += pull_string(lazy_first_tunnel(profile, l, buffer_bits)).energy(channel)
                return e

            step = 1e-3 * load
            grid = np.clip(np.arange(low, high + step, step), low, high)
            assert price <= min(energy(l) for l in grid.tolist()) * (1 + 1e-9)
        assert lower > 0


def test_buffer_first_price_never_above_the_scan_on_2000_default_trials():
    # priced piece by piece between the corner breakpoints, buffer-first is
    # never above the 13-point scan but for one case 2 ulps above it (trial
    # 1243 at B = 1e4), as the slope-guided grid search before it priced it
    cfg = SimConfig()
    load = cfg.load_bits
    instances = default_buffer_instances(2000)
    assert len(instances) == 974
    for buffer_bits in (1e4, 1e5, 3e5, 5e5):
        for profile, channel, local, low, high in instances:
            price = _buffer_first_energy(profile, channel, local, load, buffer_bits, low, high)
            scanned = scanned_buffer_first(profile, channel, local, load, buffer_bits, low, high)
            assert price - scanned <= 2.3e-16 * scanned, (buffer_bits, low, high)


def test_buffer_first_root_is_found_to_a_thousandth_of_a_bit():
    # with the corner near time 0 the slope climbs by 5e-10 J/bit within 4
    # bits of the root, so a root found to one bit prices this trial 4.2e-11
    # relative above the scan
    cfg = SimConfig()
    profile, channel, local = trial_instance(cfg, "buffer", 944)
    low, high = partition_bounds(profile, local, cfg.load_bits)
    price = _buffer_first_energy(profile, channel, local, cfg.load_bits, 3e5, low, high)
    scanned = scanned_buffer_first(profile, channel, local, cfg.load_bits, 3e5, low, high)
    assert price <= scanned
