"""End-to-end acceptance checks.

Each test prints one PASS line with the measured margin, so a verbose run
doubles as a small report. The Monte Carlo criteria use the default scenario
(2000 trials per grid point) and take a couple of minutes in total.
"""
import time

import numpy as np
import pytest

from offloadsim.cpu_profile import ArrivalProcess, build_profile, sample_arrivals, sample_cpu_process
from offloadsim.energy import ChannelParams, LocalComputeParams
from offloadsim.partition import minimal_offload_is_best, optimize_partition, partition_bounds
from offloadsim.sim_harness import (
    SimConfig,
    find_crossover,
    format_csv,
    run_buffer_sweep,
    run_bursty_sweep,
    run_oneshot_sweep,
)
from offloadsim.string_pull import (
    offload_energy,
    pull_string,
    verify_optimality,
)
from offloadsim.tunnel import (
    bursty_effective_tunnel,
    effective_tunnel,
    full_utilization_tunnel,
    lazy_first_tunnel,
    local_compute_tunnel,
    max_offload_ratio,
    min_offload_ratio,
    proportional_tunnel,
)

from convex_reference import convex_reference_schedule

HELPER_HZ = 5e9
CPB = 500.0
LOCAL = LocalComputeParams(1e9, CPB, 1e-28)
MEAN_GAIN = 1e-6

_CACHE = {}


def scenario_profile(rng, horizon=0.1, mean_idle=0.02, mean_busy=0.02, max_epochs=None):
    eps = sample_cpu_process(rng, horizon, mean_idle, mean_busy)
    if max_epochs is not None and len(eps) > max_epochs:
        return None
    return build_profile(eps, HELPER_HZ, CPB, horizon)


def draw_feasible_tunnel(rng):
    """One feasible tunnel of a random family under the default scenario."""
    prof = scenario_profile(rng, max_epochs=12)
    if prof is None or prof.capacity < 1e4:
        return None
    cap = prof.capacity
    kind = int(rng.integers(5))
    if kind == 0:
        tun = full_utilization_tunnel(prof, float(rng.uniform(0.05, 1.5)) * cap)
    elif kind == 1:
        tun = effective_tunnel(prof, float(rng.uniform(0.2, 0.98)) * cap)
    elif kind == 2:
        l = float(rng.uniform(0.2, 0.98)) * cap
        tun = proportional_tunnel(prof, l, float(rng.uniform(0.05, 0.9)) * l)
    elif kind == 3:
        l = float(rng.uniform(0.2, 0.98)) * cap
        tun = lazy_first_tunnel(prof, l, float(rng.uniform(0.05, 1.2)) * l)
    else:
        arr = sample_arrivals(rng, 0.1, 0.02, 5e4, 1.5e5)
        if arr.total <= 0:
            return None
        theta_max = max_offload_ratio(prof, arr)
        if theta_max <= 0.05:
            return None
        tun = bursty_effective_tunnel(prof, arr, float(rng.uniform(0.3, 1.0)) * theta_max)
    if tun.total <= 1e4 or tun.total > 1e6 or not tun.is_feasible():
        return None
    return tun


def oracle_instances():
    """Shared pool for the solver-equivalence and optimality criteria."""
    if "oracle" not in _CACHE:
        rng = np.random.default_rng(20240811)
        instances = []
        while len(instances) < 210:
            tun = draw_feasible_tunnel(rng)
            if tun is None:
                continue
            gain = MEAN_GAIN * float(rng.exponential(1.0))
            chan = ChannelParams(max(gain, 1e-9), 1e6, 1e-10)
            instances.append((tun, chan, pull_string(tun)))
        _CACHE["oracle"] = instances
    return _CACHE["oracle"]


def sweep(key, runner, *args, **kwargs):
    if key not in _CACHE:
        _CACHE[key] = runner(*args, **kwargs)
    return _CACHE[key]


def test_criterion_1_taut_schedule_matches_convex_reference():
    start = time.time()
    worst = 0.0
    instances = oracle_instances()
    for tun, chan, sched in instances:
        taut = sched.energy(chan)
        ref = convex_reference_schedule(tun, chan).energy(chan)
        rel = abs(taut - ref) / max(ref, 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-6, (tun.kind, rel)
    elapsed = time.time() - start
    assert len(instances) >= 200
    assert elapsed < 60.0
    print(
        f"criterion 1 PASS: {len(instances)} feasible tunnels, worst relative "
        f"energy gap {worst:.3g} (tolerance 1e-6), {elapsed:.1f}s"
    )


def test_criterion_2_every_taut_schedule_verifies():
    bad = []
    instances = oracle_instances()
    for tun, _, sched in instances:
        report = verify_optimality(tun, sched, tol=1e-6)
        if not report.ok:
            bad.append((tun.kind, report.notes))
    assert not bad, bad[:3]
    print(
        f"criterion 2 PASS: verify_optimality accepted {len(instances)}/"
        f"{len(instances)} taut schedules at 1e-6 bits"
    )


def test_criterion_3_transfer_energy_is_midpoint_convex():
    rng = np.random.default_rng(20240812)
    chan = ChannelParams(MEAN_GAIN, 1e6, 1e-10)
    worst = -np.inf
    checked = 0
    while checked < 100:
        prof = scenario_profile(rng)
        if prof.capacity < 1e4:
            continue
        l1, l2 = np.sort(rng.uniform(0.05, 0.95, size=2) * prof.capacity)
        e1 = offload_energy(prof, l1, np.inf, chan)
        e2 = offload_energy(prof, l2, np.inf, chan)
        mid = offload_energy(prof, 0.5 * (l1 + l2), np.inf, chan)
        slack = 0.5 * (e1 + e2) - mid  # must be nonnegative
        worst = max(worst, -slack / max(e2, 1e-300))
        assert slack >= -1e-9 * max(e2, 1e-300)
        checked += 1
    print(
        f"criterion 3 PASS: 100 size pairs midpoint-convex, worst relative "
        f"violation {max(worst, 0.0):.3g} (slack 1e-9)"
    )


def test_criterion_4_partition_search_matches_dense_grid():
    rng = np.random.default_rng(20240813)
    typical = ChannelParams(MEAN_GAIN, 1e6, 1e-10)
    faded = ChannelParams(3e-9, 1e6, 1e-10)  # deep fade, drives the marginal shortcut
    checked = 0
    shortcut_fired = 0
    worst_bits = 0.0
    worst_rel = 0.0
    while checked < 50:
        prof = scenario_profile(rng)
        load = float(rng.uniform(2e5, 9e5))
        low, high = partition_bounds(prof, LOCAL, load)
        high = min(high, load)
        if low > high:
            continue
        chan = faded if checked % 2 else typical
        buffer_bits = float(rng.choice([np.inf, 0.6 * load, 0.2 * load]))
        step = 1e-3 * load
        res = optimize_partition(prof, chan, LOCAL, load, buffer_bits)

        grid = np.arange(low, high + step, step)
        grid = np.clip(grid, low, high)
        vals = np.array([
            LOCAL.local_energy(load - l) + offload_energy(prof, l, buffer_bits, chan)
            for l in grid
        ])
        k = int(np.argmin(vals))
        worst_bits = max(worst_bits, abs(res.offload_bits - grid[k]))
        rel = (res.energy - vals[k]) / max(vals[k], 1e-300)
        worst_rel = max(worst_rel, rel)
        assert abs(res.offload_bits - grid[k]) <= step * (1 + 1e-9), (res.method, res.offload_bits, grid[k])
        assert rel <= 1e-6

        if minimal_offload_is_best(prof, chan, LOCAL, load):
            shortcut_fired += 1
            full = optimize_partition(prof, chan, LOCAL, load, buffer_bits, use_shortcut=False)
            assert res.energy == pytest.approx(full.energy, rel=1e-9)
            assert abs(res.offload_bits - full.offload_bits) <= step
        checked += 1
    assert shortcut_fired >= 5
    print(
        f"criterion 4 PASS: 50 partition instances within one 1e-3*L grid step "
        f"(worst {worst_bits:.1f} bits) and {worst_rel:.3g} relative energy; "
        f"shortcut fired {shortcut_fired} times and agreed with the full search"
    )


def test_criterion_5_small_buffer_approaches_spread_out_transmission():
    chan = ChannelParams(MEAN_GAIN, 1e6, 1e-10)

    def gap_curve(prof, load):
        idle = sum(d for d, rising in zip(prof.durations.tolist(), prof.idle.tolist()) if rising)
        e_ref = idle * float(chan.rate_to_power(load / idle))
        gaps = []
        for q in (0.1 * load, 0.01 * load, 1e-3 * load, 1.0):
            e = pull_string(proportional_tunnel(prof, load, q)).energy(chan)
            gaps.append(e_ref - e)  # buffering can only save energy
        return e_ref, gaps

    # the one-bit clause needs long windows, where a single buffered bit is
    # negligible next to the per-epoch transfer volume
    rng = np.random.default_rng(20240814)
    worst = 0.0
    for _ in range(12):
        prof = scenario_profile(rng, horizon=60.0, mean_idle=10.0, mean_busy=2.0)
        if prof.capacity <= 0:
            continue
        e_ref, gaps = gap_curve(prof, 0.5 * prof.capacity)
        worst = max(worst, abs(gaps[-1]) / e_ref)
        assert abs(gaps[-1]) <= 1e-6 * e_ref
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-9 * e_ref  # shrinking buffers close the gap

    # the monotone clause must also hold at the default short-window scale
    rng = np.random.default_rng(20240815)
    checked = 0
    while checked < 25:
        prof = scenario_profile(rng)
        if prof.capacity < 1e4:
            continue
        e_ref, gaps = gap_curve(prof, 0.5 * prof.capacity)
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-9 * e_ref
        checked += 1
    print(
        f"criterion 5 PASS: one-bit buffer within {worst:.3g} of the idle-time "
        f"reference (tolerance 1e-6) on long windows; saving monotone in the "
        f"buffer on 12 long and 25 short instances"
    )


def grid_boundary(feasible, lo, hi, step, last_feasible):
    """Boundary of a monotone feasibility predicate on a two-stage grid."""
    coarse = np.arange(lo, hi + 0.5 * 1e-2, 1e-2)
    flags = [feasible(x) for x in coarse]
    # the predicate must be monotone along the grid for a boundary to exist
    flips = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    assert flips <= 1, "feasibility is not monotone on the coarse grid"
    if last_feasible:
        if flags[-1]:
            a = coarse[-1]
        else:
            k = flips and int(np.nonzero(np.diff(np.asarray(flags)))[0][0])
            a = coarse[k] if flags[0] else lo
        fine = np.arange(max(lo, a - 1e-2), min(hi, a + 2e-2) + 0.5 * step, step)
        best = lo
        for x in fine:
            if feasible(x):
                best = x
        return best
    # first feasible point instead
    if flags[0]:
        a = coarse[0]
    else:
        k = int(np.nonzero(np.asarray(flags))[0][0]) if any(flags) else len(coarse) - 1
        a = coarse[k]
    fine = np.arange(max(lo, a - 2e-2), min(hi, a + 1e-2) + 0.5 * step, step)
    for x in fine:
        if feasible(x):
            return x
    return hi


def test_criterion_6_ratio_bounds_match_grid_search():
    rng = np.random.default_rng(20240816)
    step = 1e-4
    checked = 0
    worst_hi = 0.0
    worst_lo = 0.0
    while checked < 50:
        prof = scenario_profile(rng)
        arr = sample_arrivals(rng, 0.1, 0.02, 5e4, 1.5e5)
        if prof.capacity < 1e4 or arr.total <= 0:
            continue
        theta_hi = max_offload_ratio(prof, arr)
        if not 0.01 < theta_hi < 0.999:
            continue
        boundary = grid_boundary(
            lambda x: bursty_effective_tunnel(prof, arr, x).is_feasible(),
            0.0, 1.0, step, last_feasible=True,
        )
        worst_hi = max(worst_hi, abs(theta_hi - boundary))
        assert abs(theta_hi - boundary) <= 1.01e-4, (theta_hi, boundary)

        theta_lo = min_offload_ratio(arr, LOCAL)
        boundary = grid_boundary(
            lambda x: local_compute_tunnel(arr, LOCAL, x).is_feasible(),
            0.0, 1.0, step, last_feasible=False,
        )
        worst_lo = max(worst_lo, abs(theta_lo - boundary))
        assert abs(theta_lo - boundary) <= 1.01e-4, (theta_lo, boundary)
        checked += 1
    print(
        f"criterion 6 PASS: 50 instances, share bounds within one 1e-4 grid "
        f"step of the feasibility boundaries (worst upper {worst_hi:.2e}, "
        f"worst lower {worst_lo:.2e})"
    )


def test_criterion_7a_computing_probability_trends():
    cfg = SimConfig()
    idle = sweep("idle", run_oneshot_sweep, cfg, "mean_idle", (0.01, 0.02, 0.04), jobs=4)
    fr = [row["feasible_frac"] for row in idle.rows]
    assert fr == sorted(fr), fr
    load = sweep("load", run_oneshot_sweep, cfg, "load_bits", (4e5, 7e5, 1e6), jobs=4)
    fr2 = [row["feasible_frac"] for row in load.rows]
    assert fr2 == sorted(fr2, reverse=True), fr2
    print(
        f"criterion 7a PASS: computing probability rises with idle time "
        f"{[round(f, 3) for f in fr]} and falls with load {[round(f, 3) for f in fr2]}"
    )


def test_criterion_7b_optimal_never_loses_to_benchmark():
    cfg = SimConfig()
    idle = sweep("idle", run_oneshot_sweep, cfg, "mean_idle", (0.01, 0.02, 0.04), jobs=4)
    load = sweep("load", run_oneshot_sweep, cfg, "load_bits", (4e5, 7e5, 1e6), jobs=4)
    burst = sweep("burst", run_bursty_sweep, cfg, "size_scale", (0.5, 1.0, 2.0), jobs=4)
    for res in (idle, load, burst):
        for row in res.rows:
            if row["feasible"]:
                assert row["mean_opt_energy"] <= row["mean_bench_energy"] * (1 + 1e-12), row
    print("criterion 7b PASS: optimal mean energy <= benchmark at all 9 grid points")


def test_criterion_7c_energy_flattens_once_buffer_holds_everything():
    cfg = SimConfig()
    values = (1e4, 1e5, 3e5, 5e5, 7e5, np.inf)
    res = sweep("buffer", run_buffer_sweep, cfg, values, jobs=4)
    opt = [row["mean_opt_energy"] for row in res.rows]
    prop = [row["mean_prop_energy"] for row in res.rows]
    for series in (opt, prop):
        for a, b in zip(series, series[1:]):
            assert b <= a * (1 + 1e-12)
    # once the buffer holds the whole load the tunnels coincide exactly
    assert opt[-1] == opt[-2]
    assert prop[-1] == prop[-2]
    print(
        f"criterion 7c PASS: mean energy non-increasing in the buffer and "
        f"exactly flat from {values[-2]:.0f} bits on "
        f"({opt[0]:.4g} J down to {opt[-1]:.4g} J)"
    )


def test_criterion_7d_policy_crossover_exists():
    cfg = SimConfig()
    values = (1e4, 1e5, 3e5, 5e5, 7e5, np.inf)
    res = sweep("buffer", run_buffer_sweep, cfg, values, jobs=4)
    prop = [row["mean_prop_energy"] for row in res.rows]
    lazy = [row["mean_lazy_energy"] for row in res.rows]
    cross = find_crossover(list(res.values), prop, lazy)
    assert cross is not None and np.isfinite(cross)
    assert prop[0] < lazy[0]  # paced transfers win when the buffer is tiny
    assert lazy[-1] <= prop[-1]  # postponing wins once the buffer is large
    print(f"criterion 7d PASS: pacing/postponing crossover at a {cross:.3g}-bit buffer")


def test_criterion_7e_chunk_size_reduces_computing_probability():
    cfg = SimConfig()
    res = sweep("burst", run_bursty_sweep, cfg, "size_scale", (0.5, 1.0, 2.0), jobs=4)
    fr = [row["feasible_frac"] for row in res.rows]
    assert fr == sorted(fr, reverse=True), fr
    print(f"criterion 7e PASS: chunked computing probability falls with size {fr}")


def test_criterion_8_csv_identical_across_worker_counts():
    cfg = SimConfig(trials=40, seed=7)
    outputs = []
    for jobs in (1, 3, 1):
        parts = [
            format_csv(run_oneshot_sweep(cfg, "mean_idle", (0.01, 0.04), jobs=jobs)),
            format_csv(run_buffer_sweep(cfg, (1e5, np.inf), jobs=jobs)),
            format_csv(run_bursty_sweep(cfg, "size_scale", (0.5, 2.0), jobs=jobs)),
        ]
        outputs.append("".join(parts))
    assert outputs[0] == outputs[1] == outputs[2]
    print("criterion 8 PASS: CSV output byte-identical for 1 and 3 worker processes")
