from itertools import islice

import numpy as np
import pytest

from offloadsim import sim_harness
from offloadsim.cpu_profile import Epoch, build_profile
from offloadsim.energy import schedule_energy
from offloadsim.errors import ConfigError
from offloadsim.partition import optimize_partition, partition_bounds
from offloadsim.sim_harness import (
    _TAGS,
    SimConfig,
    _profile_from_draws,
    _scanned_energy,
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
from offloadsim.string_pull import offload_energy, pull_string
from offloadsim.tunnel import full_utilization_tunnel, lazy_first_tunnel, proportional_tunnel

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
        idle[mean_idle] = [ep.duration for ep in prof.epochs[:-1] if ep.idle]
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


def test_results_identical_across_worker_counts():
    serial = format_csv(run_oneshot_sweep(SMALL, "mean_idle", (0.01, 0.04), jobs=None))
    parallel = format_csv(run_oneshot_sweep(SMALL, "mean_idle", (0.01, 0.04), jobs=3))
    assert serial == parallel
    again = format_csv(run_oneshot_sweep(SMALL, "mean_idle", (0.01, 0.04), jobs=2))
    assert serial == again


def test_worker_pool_no_larger_than_the_sweep(monkeypatch):
    # the executor forks all its workers at the first submit, so a pool
    # wider than the task list starts processes that never get work
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(sim_harness, "ProcessPoolExecutor", InProcessPool)
    cfg = SimConfig(trials=1, seed=7)
    serial = format_csv(run_oneshot_sweep(cfg, "mean_idle", (0.02,), jobs=None))
    assert format_csv(run_oneshot_sweep(cfg, "mean_idle", (0.02,), jobs=500)) == serial
    assert sizes == []  # one task runs in this process
    run_oneshot_sweep(cfg, "mean_idle", (0.01, 0.02, 0.04), jobs=500)
    run_oneshot_sweep(cfg, "mean_idle", (0.01, 0.02, 0.04), jobs=2)
    assert sizes == [3, 2]


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
    # transfer still scans the lazy-first tunnel
    scanned = 0
    for case in buffer.per_trial[0]:
        trial, ok, opt, _, lazy, _ = case
        if not ok:
            continue
        profile, channel, local = trial_instance(SMALL, "buffer", trial)
        low, high = partition_bounds(profile, local, SMALL.load_bits)
        assert 1e4 < high
        expect = _scanned_energy(lazy_first_tunnel, profile, channel, local, SMALL.load_bits, 1e4, low, high)
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
            lazy = _scanned_energy(lazy_first_tunnel, profile, channel, local, load, buf, low, high)

            def energy(l):
                return local.local_energy(load - l) + offload_energy(profile, l, buf, channel)

            x = res.offload_bits
            one_bit = max(abs(energy(min(x + 1.0, high)) - res.energy), abs(energy(max(x - 1.0, low)) - res.energy))
            assert lazy >= res.energy - one_bit
        checked += 1
        if checked == 100:
            break
    assert checked == 100


def test_proportional_column_needs_no_scan_outside_the_feasible_range():
    # below every candidate transfer the optimal split's solver already pulls
    # proportional tunnels, so the prop column is the optimum itself; above
    # every transfer it is a scan of scaled full-utilization strings, equal to
    # the tunnel-by-tunnel scan; inside the range the tunnels are scanned
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
            expect = _scanned_energy(proportional_tunnel, profile, channel, local, SMALL.load_bits, buf, low, high)
            if buf >= max(high, low):
                assert prop == pytest.approx(expect, rel=1e-12, abs=0.0)
                above += 1
            else:
                assert prop == expect
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
