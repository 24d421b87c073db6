import numpy as np
import pytest

from offloadsim.cpu_profile import ArrivalProcess, Epoch, build_profile, sample_cpu_process
from offloadsim.energy import ChannelParams, schedule_energy
from offloadsim.errors import InfeasibleError
from offloadsim.string_pull import (
    OffloadSchedule,
    envelope_slope,
    floor_following_schedule,
    format_schedule,
    min_energy_offload,
    min_energy_offload_bursty,
    offload_energy,
    pull_string,
    simulate_buffer,
    verify_optimality,
)
from offloadsim.tunnel import (
    bursty_effective_tunnel,
    effective_tunnel,
    full_utilization_tunnel,
    lazy_first_tunnel,
    proportional_tunnel,
)

from convex_reference import convex_reference_schedule
from oracles import parse_schedule

HELPER_HZ = 5e9
CPB = 500.0
CHAN = ChannelParams(1e-6, 1e6, 1e-10)


def oneshot_profile():
    return build_profile(
        [Epoch(0.05, True), Epoch(0.03, False), Epoch(0.02, True)], HELPER_HZ, CPB, 0.1
    )


def random_profile(rng, horizon=0.1):
    eps = sample_cpu_process(rng, horizon, 0.02, 0.02)
    return build_profile(eps, HELPER_HZ, CPB, horizon)


def random_feasible_tunnel(rng):
    """Draw a feasible one-shot tunnel of a random family, or None."""
    prof = random_profile(rng)
    cap = prof.capacity
    if cap < 1e4:
        return None
    kind = rng.integers(4)
    if kind == 0:
        tun = full_utilization_tunnel(prof, rng.uniform(0.05, 1.5) * cap)
    elif kind == 1:
        tun = effective_tunnel(prof, rng.uniform(0.2, 0.98) * cap)
    elif kind == 2:
        l = rng.uniform(0.2, 0.98) * cap
        tun = proportional_tunnel(prof, l, rng.uniform(0.05, 0.9) * l)
    else:
        l = rng.uniform(0.2, 0.98) * cap
        tun = lazy_first_tunnel(prof, l, rng.uniform(0.05, 1.2) * l)
    return tun if tun.is_feasible() else None


def random_feasible_path(rng, tunnel):
    """Monotone curve through the tunnel with pinned endpoints."""
    raw = rng.uniform(tunnel.floor, tunnel.ceiling)
    y = np.maximum(tunnel.floor, np.minimum(tunnel.ceiling, np.maximum.accumulate(raw)))
    y[0] = 0.0
    y[-1] = tunnel.total
    return y


def test_pull_string_full_utilization_pinned():
    sched = pull_string(full_utilization_tunnel(oneshot_profile()))
    assert np.allclose(sched.times, [0.0, 0.05, 0.08, 0.1])
    assert np.allclose(sched.bits, [5e5, 1.2e5, 0.8e5])
    assert np.allclose(sched.rates, [1e7, 4e6, 4e6])
    assert sched.total == pytest.approx(7e5)
    report = verify_optimality(full_utilization_tunnel(oneshot_profile()), sched)
    assert report.feasible and report.ok, report.notes


def test_pull_string_finite_buffer_pinned():
    tun = full_utilization_tunnel(oneshot_profile(), 1e5)
    sched = pull_string(tun)
    assert np.allclose(sched.times, [0.0, 0.05, 0.08, 0.09, 0.1])
    assert np.allclose(sched.rates, [1e7, 1e7 / 3.0, 5e6, 5e6])
    report = verify_optimality(tun, sched)
    assert report.feasible and report.ok, report.notes


def test_pull_string_chunked_pinned():
    prof = build_profile(
        [Epoch(0.04, True), Epoch(0.03, False), Epoch(0.03, True)], HELPER_HZ, CPB, 0.1
    )
    arr = ArrivalProcess.from_events([(0.0, 4e5), (0.04, 4e5)], 0.1)
    tun = bursty_effective_tunnel(prof, arr, 0.75)
    sched = pull_string(tun)
    assert np.allclose(sched.rates, [7.5e6, 7.5e6, 5e6, 5e6])
    report = verify_optimality(tun, sched)
    assert report.feasible and report.ok, report.notes


def test_pull_string_is_shortest_and_cheapest():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 100:
        tun = random_feasible_tunnel(rng)
        if tun is None:
            continue
        sched = pull_string(tun)
        taut = np.interp(tun.times, sched.times, sched.cumulative)
        tau = np.diff(tun.times)
        taut_len = float(np.sum(np.hypot(tau, np.diff(taut))))
        taut_energy = schedule_energy(tun.times, taut, CHAN)
        y = random_feasible_path(rng, tun)
        path_len = float(np.sum(np.hypot(tau, np.diff(y))))
        assert taut_len <= path_len * (1 + 1e-12)
        assert taut_energy <= schedule_energy(tun.times, y, CHAN) * (1 + 1e-9)
        checked += 1


def test_pull_string_local_perturbations_cost_energy():
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 25:
        tun = random_feasible_tunnel(rng)
        if tun is None:
            continue
        sched = pull_string(tun)
        y = np.interp(tun.times, sched.times, sched.cumulative)
        base = schedule_energy(tun.times, y, CHAN)
        for k in range(1, len(y) - 1):
            for sign in (-1.0, 1.0):
                step = sign * 1e-3 * max(tun.total, 1.0) * rng.uniform(0.1, 1.0)
                cand = y.copy()
                cand[k] = np.clip(cand[k] + step, tun.floor[k], tun.ceiling[k])
                cand[k] = min(max(cand[k], cand[k - 1]), cand[k + 1])
                assert schedule_energy(tun.times, cand, CHAN) >= base * (1 - 1e-9)
        checked += 1


def test_verify_optimality_flags_defects():
    tun = full_utilization_tunnel(oneshot_profile())
    sched = pull_string(tun)
    bulged = sched.cumulative.copy()
    bulged[1] = tun.total * 1.2  # above the ceiling
    bad = verify_optimality(tun, type(sched)(sched.times.copy(), bulged))
    assert not bad.feasible and not bad.ok
    # feasible but with a free bend: straight chord bent at an interior vertex
    kinked = np.interp(sched.times, [0.0, 0.05, 0.1], [0.0, 6e5, 7e5])
    rep = verify_optimality(tun, type(sched)(sched.times.copy(), kinked))
    assert rep.feasible
    assert not rep.ok
    assert any("without" in note for note in rep.notes)


def test_simulate_buffer_trace():
    tun = full_utilization_tunnel(oneshot_profile(), 1e5)
    sched = pull_string(tun)
    y = np.interp(tun.times, sched.times, sched.cumulative)
    trace = simulate_buffer(tun.times, y, tun.cum_capacity, tun.buffer_bits, tun.total)
    assert trace.completed
    assert trace.overflow_bits <= 1e-6
    k = int(np.argmin(np.abs(tun.times - 0.08)))
    assert trace.backlog[k] == pytest.approx(1e5, abs=1e-6)  # buffer full at the reopen
    starved = simulate_buffer(
        tun.times, np.zeros_like(y), tun.cum_capacity, tun.buffer_bits, tun.total
    )
    assert not starved.completed


def test_convex_combination_of_schedules_stays_feasible():
    rng = np.random.default_rng(33)
    checked = 0
    while checked < 20:
        prof = random_profile(rng)
        if prof.capacity < 1e4:
            continue
        l1 = rng.uniform(0.2, 0.9) * prof.capacity
        l2 = rng.uniform(0.2, 0.9) * prof.capacity
        lam = rng.uniform(0.0, 1.0)
        s1 = pull_string(effective_tunnel(prof, l1))
        s2 = pull_string(effective_tunnel(prof, l2))
        blend_tunnel = effective_tunnel(prof, lam * l1 + (1 - lam) * l2)
        grid = blend_tunnel.times
        y = lam * np.interp(grid, s1.times, s1.cumulative) + (1 - lam) * np.interp(
            grid, s2.times, s2.cumulative
        )
        assert np.all(y >= blend_tunnel.floor - 1e-6)
        assert np.all(y <= blend_tunnel.ceiling + 1e-6)
        checked += 1


def test_reference_solver_matches_pull_string():
    rng = np.random.default_rng(34)
    checked = 0
    while checked < 15:
        tun = random_feasible_tunnel(rng)
        if tun is None:
            continue
        taut = pull_string(tun).energy(CHAN)
        ref = convex_reference_schedule(tun, CHAN).energy(CHAN)
        assert taut <= ref * (1 + 1e-9)
        assert abs(taut - ref) <= 1e-6 * max(taut, 1e-12)
        checked += 1


def test_min_energy_offload_dispatch():
    prof = oneshot_profile()
    sched, tun = min_energy_offload(prof, 0.0)
    assert sched.total == 0.0 and tun.total == 0.0
    sched, tun = min_energy_offload(prof, prof.capacity)
    assert tun.kind == "full"
    sched, tun = min_energy_offload(prof, 5e5, np.inf)
    assert tun.kind == "effective"
    sched, tun = min_energy_offload(prof, 5e5, 2e5)
    assert tun.kind == "proportional"
    with pytest.raises(InfeasibleError) as exc:
        min_energy_offload(prof, 8e5)
    assert exc.value.deficit == pytest.approx(1e5)
    for q in (np.inf, 2e5):
        s, t = min_energy_offload(prof, 5e5, q)
        rep = verify_optimality(t, s)
        assert rep.ok, rep.notes


def test_offload_energy_monotone_in_size():
    prof = oneshot_profile()
    sizes = np.linspace(5e4, prof.capacity, 12)
    energies = [offload_energy(prof, l, np.inf, CHAN) for l in sizes]
    assert all(a < b for a, b in zip(energies, energies[1:]))
    # a tighter buffer can never help
    assert offload_energy(prof, 5e5, 1e5, CHAN) >= offload_energy(prof, 5e5, np.inf, CHAN)


def test_single_chunk_matches_oneshot_energy():
    rng = np.random.default_rng(35)
    checked = 0
    while checked < 10:
        prof = random_profile(rng)
        if prof.capacity < 1e4:
            continue
        size = rng.uniform(0.3, 1.0) * prof.capacity
        theta = rng.uniform(0.3, 1.0) * min(1.0, prof.capacity / size)
        arr = ArrivalProcess.from_events([(0.0, size)], 0.1)
        s1, _ = min_energy_offload_bursty(prof, arr, theta)
        s2, _ = min_energy_offload(prof, theta * size, np.inf)
        assert s1.energy(CHAN) == pytest.approx(s2.energy(CHAN), rel=1e-12)
        checked += 1


def test_floor_following_schedule_traces_floor():
    tun = effective_tunnel(oneshot_profile(), 5e5)
    sched = floor_following_schedule(tun)
    y = np.interp(tun.times, sched.times, sched.cumulative)
    assert np.allclose(y, tun.floor, atol=1e-6)
    assert verify_optimality(tun, sched).feasible
    # lazier computing is never cheaper than the taut schedule
    assert pull_string(tun).energy(CHAN) <= sched.energy(CHAN) * (1 + 1e-12)


def test_schedule_text_round_trip():
    sched = pull_string(full_utilization_tunnel(oneshot_profile(), 1e5))
    back = parse_schedule(format_schedule(sched))
    assert np.allclose(back.times, sched.times)
    assert np.allclose(back.cumulative, sched.cumulative)


def test_envelope_slope_survives_marginal_powers_near_overflow():
    # p'(rate) just below overflow, alternating floor and ceiling contacts:
    # the unscaled sums would each overflow, to inf - inf
    chan = ChannelParams(1e-6, 1e3, 1.0)
    rates = np.array([1014.0, 0.0, 1014.0, 0.0, 1014.0]) * chan.bandwidth_hz
    schedule = OffloadSchedule(np.arange(6.0), np.concatenate(([0.0], np.cumsum(rates))))
    top = float(chan.marginal_energy_per_bit(rates[0]))
    assert np.isfinite(top) and 2.0 * top == np.inf
    ones = np.ones(6)
    assert envelope_slope(schedule, chan, ones, ones, 1.0) == pytest.approx(top, rel=1e-12)
    # past overflow the slope is +inf; a NaN rate makes it NaN
    faster = OffloadSchedule(schedule.times, 1.01 * schedule.cumulative)
    assert envelope_slope(faster, chan, ones, ones, 1.0) == np.inf
    broken = OffloadSchedule(schedule.times, np.where(np.arange(6) == 3, np.nan, schedule.cumulative))
    assert np.isnan(envelope_slope(broken, chan, ones, ones, 1.0))
