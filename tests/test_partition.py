import numpy as np
import pytest

from offloadsim.cpu_profile import (
    ArrivalProcess,
    Epoch,
    build_profile,
    merge_events,
    sample_arrivals,
    sample_cpu_process,
)
from offloadsim.cli import main
from offloadsim.energy import ChannelParams, LocalComputeParams, schedule_energy
from offloadsim.errors import InfeasibleError, NumericError
from offloadsim.partition import (
    _RATIO_TOL,
    _share_slope,
    golden_section,
    minimal_offload_is_best,
    optimize_partition,
    optimize_ratio,
    partition_bounds,
)
from offloadsim.sim_harness import (
    _TAGS,
    SimConfig,
    _arrivals_from_draws,
    _profile_from_draws,
    _scaled_slope,
    draw_trial,
)
from offloadsim.string_pull import (
    bursty_offload_energy,
    energy_slope,
    min_energy_offload,
    offload_energy,
    pull_string,
)
from offloadsim.tunnel import (
    full_utilization_tunnel,
    local_compute_tunnel,
    max_offload_ratio,
    min_offload_ratio,
)

from oracles import scan_minimize

HELPER_HZ = 5e9
CPB = 500.0
CHAN = ChannelParams(1e-6, 1e6, 1e-10)
LOCAL = LocalComputeParams(1e9, CPB, 1e-28)


def offload_energy_slope(profile, offload_bits, buffer_bits, channel, delta=None):
    """Central-difference slope of the optimal transfer energy in the size."""
    if delta is None:
        delta = max(1.0, 1e-6 * offload_bits)
    lo = max(offload_bits - delta, 0.0)
    hi = min(offload_bits + delta, profile.capacity)
    if hi <= lo:
        raise ValueError("no room to difference the transfer energy")
    e_lo = offload_energy(profile, lo, buffer_bits, channel)
    e_hi = offload_energy(profile, hi, buffer_bits, channel)
    return (e_hi - e_lo) / (hi - lo)


def oneshot_profile():
    return build_profile(
        [Epoch(0.05, True), Epoch(0.03, False), Epoch(0.02, True)], HELPER_HZ, CPB, 0.1
    )


def random_profile(rng, horizon=0.1):
    eps = sample_cpu_process(rng, horizon, 0.02, 0.02)
    return build_profile(eps, HELPER_HZ, CPB, horizon)


def epoch_profile(rng):
    """Random profile of 10-100 epochs spanning about 0.1 s, idle somewhere."""
    while True:
        k = int(rng.integers(10, 101))
        idle_first = bool(rng.random() < 0.5)
        durations = rng.exponential(0.1 / k, k)
        epochs = [Epoch(float(d), (i % 2 == 0) == idle_first) for i, d in enumerate(durations)]
        prof = build_profile(epochs, HELPER_HZ, CPB, sum(e.duration for e in epochs))
        if prof.last_idle_index is not None:
            return prof


def grid_best(fn, lo, hi, step):
    xs = np.arange(lo, hi + step, step)
    xs = np.clip(xs, lo, hi)
    vals = [fn(x) for x in xs]
    k = int(np.argmin(vals))
    return float(xs[k]), float(vals[k])


def test_golden_section_parabola_and_endpoints():
    x, f = golden_section(lambda x: (x - 3.7) ** 2, 0.0, 10.0, tol=1e-8)
    assert x == pytest.approx(3.7, abs=1e-6)
    assert f == pytest.approx(0.0, abs=1e-10)
    # decreasing objective: the boundary itself must be returned
    x, f = golden_section(lambda x: -x, 0.0, 5.0, tol=1e-8)
    assert x == 5.0 and f == -5.0
    x, _ = golden_section(lambda x: x, 2.0, 2.0, tol=1e-8)
    assert x == 2.0


def test_scan_minimize_handles_two_dips():
    def bumpy(x):
        return min((x - 1.0) ** 2, 0.5 + 0.2 * (x - 7.0) ** 2)

    x, f = scan_minimize(bumpy, 0.0, 10.0, coarse=21, tol=1e-6)
    assert x == pytest.approx(1.0, abs=1e-4)
    assert f == pytest.approx(0.0, abs=1e-8)


def test_partition_bounds():
    prof = oneshot_profile()
    low, high = partition_bounds(prof, LOCAL, 7e5)
    assert low == pytest.approx(5e5)
    assert high == pytest.approx(7e5)
    low, high = partition_bounds(prof, LOCAL, 1e5)
    assert low == 0.0 and high == pytest.approx(1e5)


def test_optimize_partition_accounting():
    res = optimize_partition(oneshot_profile(), CHAN, LOCAL, 7e5, np.inf)
    assert res.offload_bits + res.local_bits == pytest.approx(7e5)
    assert res.energy == pytest.approx(res.offload_energy + res.local_energy, rel=1e-12)
    assert res.method in ("pinned", "shortcut", "search")
    assert res.schedule.total == pytest.approx(res.offload_bits, abs=1.0)
    assert res.offload_bits >= 5e5 - 1e-6  # local CPU cannot finish more


def test_nan_bit_quantities_rejected():
    prof = oneshot_profile()
    with pytest.raises(ValueError, match="buffer_bits"):
        optimize_partition(prof, CHAN, LOCAL, 7e5, np.nan)
    with pytest.raises(ValueError, match="load_bits"):
        optimize_partition(prof, CHAN, LOCAL, np.nan)
    with pytest.raises(ValueError, match="buffer_bits"):
        min_energy_offload(prof, 5e5, np.nan)
    with pytest.raises(ValueError, match="offload_bits"):
        min_energy_offload(prof, np.nan)


def test_optimize_partition_matches_grid():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 12:
        prof = random_profile(rng)
        load = rng.uniform(2e5, 9e5)
        low, high = partition_bounds(prof, LOCAL, load)
        if low > high:  # infeasible draw
            continue
        buffer_bits = float(rng.choice([np.inf, 0.6 * load, 0.2 * load]))
        step = 1e-3 * load

        def objective(l):
            return LOCAL.local_energy(load - l) + offload_energy(prof, l, buffer_bits, CHAN)

        res = optimize_partition(prof, CHAN, LOCAL, load, buffer_bits)
        gx, gf = grid_best(objective, low, min(high, load), step)
        assert res.energy <= gf * (1 + 1e-9)
        assert abs(res.offload_bits - gx) <= step * (1 + 1e-9) or res.energy <= gf
        checked += 1


def closed_form_split(profile, channel, local, load_bits):
    """Optimal split for a buffer that holds every transfer, in closed form.

    Offloading one more bit raises every floor contact after the taut
    string's first segment, so only the first-segment rate ``r1(l) = max_t
    floor(t) / t`` moves and the transfer energy's slope is ``p'(r1)``.
    Setting ``p'(r*)`` to the local energy per bit gives ``r* =
    W log2(e_bit W h / (N0 ln 2))``, and ``r1(l) <= r*`` holds while ``l <=
    r* t + C - c(t)`` at every profile boundary up to the last idle instant.
    """
    low, high = partition_bounds(profile, local, load_bits)
    w, n0 = channel.bandwidth_hz, channel.noise_w
    rate = w * np.log2(local.bit_energy * w * channel.gain / (n0 * np.log(2.0)))
    t = profile.boundaries[1 : profile.last_idle_index + 2]
    l = np.min(rate * t + profile.capacity - profile.capacity_at(t))
    return float(np.clip(l, low, max(high, low)))


def test_search_matches_closed_form_split():
    rng = np.random.default_rng(51)
    checked = interior = 0
    while checked < 300:
        k = int(rng.integers(10, 101))
        idle_first = bool(rng.random() < 0.5)
        durations = rng.exponential(0.1 / k, k)
        epochs = [Epoch(float(d), (i % 2 == 0) == idle_first) for i, d in enumerate(durations)]
        prof = build_profile(epochs, HELPER_HZ, CPB, sum(e.duration for e in epochs))
        if prof.last_idle_index is None:
            continue
        chan = ChannelParams(CHAN.gain * 10 ** rng.uniform(-3, 3), CHAN.bandwidth_hz, CHAN.noise_w)
        load = rng.uniform(0.3, 1.0) * (prof.capacity + LOCAL.cpu_hz / CPB * prof.horizon)
        low, high = partition_bounds(prof, LOCAL, load)
        if low > high:
            continue
        l_star = closed_form_split(prof, chan, LOCAL, load)
        e_star = LOCAL.local_energy(load - l_star) + offload_energy(prof, l_star, np.inf, chan)
        res = optimize_partition(prof, chan, LOCAL, load, np.inf)
        assert abs(res.offload_bits - l_star) <= 1.0
        assert res.energy <= e_star * (1 + 1e-9)
        interior += low + 1.0 < l_star < high - 1.0
        checked += 1
    assert interior >= 30  # the formula, not only the clip, is exercised


def central_slope(energy, x, delta):
    """Central difference of ``energy`` at ``x``, or None where the forward
    and backward differences disagree (an envelope kink within ``delta``)."""
    e = energy(x)
    fwd = (energy(x + delta) - e) / delta
    bwd = (e - energy(x - delta)) / delta
    mid = 0.5 * (fwd + bwd)
    return mid if abs(fwd - bwd) <= 1e-4 * abs(mid) else None


def test_envelope_slope_matches_central_differences():
    # dE/dl = sum over contacts of the multiplier times the envelope's slope,
    # plus the last segment's marginal power (sensitivity from multipliers)
    rng = np.random.default_rng(81)
    checked = kinks = 0
    while checked < 150:
        prof = epoch_profile(rng)
        chan = ChannelParams(CHAN.gain * 10 ** rng.uniform(-3, 3), CHAN.bandwidth_hz, CHAN.noise_w)
        l = float(rng.uniform(0.05, 0.95)) * prof.capacity
        delta = 1e-6 * l
        full = pull_string(full_utilization_tunnel(prof, np.inf))
        scaled = central_slope(
            lambda x: schedule_energy(full.times, (x / full.total) * full.cumulative, chan), l, delta
        )
        assert _scaled_slope(full, chan, l) == pytest.approx(scaled, rel=1e-6)
        buffer_bits = float(rng.choice([0.0, rng.uniform(0.0, 0.999)])) * l
        slope = energy_slope(*min_energy_offload(prof, l, buffer_bits), chan)
        diff = central_slope(lambda x: offload_energy(prof, x, buffer_bits, chan), l, delta)
        if diff is None:
            kinks += 1
            continue
        assert slope == pytest.approx(diff, rel=1e-6)
        checked += 1
    assert kinks <= 15


def test_envelope_slope_in_the_chunk_share_matches_central_differences():
    # in the share r the ceiling r A(t) moves by A(t) and the floor by the
    # servable data where it is positive: both envelopes count
    rng = np.random.default_rng(83)
    checked = zero_ends = 0
    while checked < 60:
        prof = random_profile(rng)
        arr = sample_arrivals(rng, 0.1, 0.02, 5e4, 1.5e5)
        if arr.total <= 0 or max_offload_ratio(prof, arr) < 1e-3:
            continue
        chan = ChannelParams(CHAN.gain * 10 ** rng.uniform(-3, 3), CHAN.bandwidth_hz, CHAN.noise_w)
        tl = merge_events(prof, arr)

        def objective(x):
            return LOCAL.local_energy((1 - x) * arr.total) + bursty_offload_energy(prof, arr, x, chan)

        if zero_ends < 20:
            # no tunnel at a zero share: each servable bit costs p'(0)
            delta = 1e-7
            diff = (objective(delta) - objective(0.0)) / delta
            assert _share_slope(prof, arr, chan, LOCAL, tl, 0.0) == pytest.approx(diff, rel=1e-5)
            zero_ends += 1
        r = float(rng.uniform(0.05, 0.95)) * max_offload_ratio(prof, arr)
        slope = _share_slope(prof, arr, chan, LOCAL, tl, r)
        diff = central_slope(objective, r, 1e-6 * r)
        if diff is not None:
            assert slope == pytest.approx(diff, rel=1e-6)
            checked += 1


def test_zero_share_slope_charges_only_the_servable_bits():
    # chunks at or after the last idle instant (0.05 s) are never served, so
    # at a zero share the first bit's p'(0) is paid on the servable total T
    # only, while the local side saves the energy of the whole arrived total A
    prof = build_profile([Epoch(0.05, True), Epoch(0.05, False)], HELPER_HZ, CPB, 0.1)
    arr = ArrivalProcess.from_events([(0.0, 3e5), (0.05, 1e5), (0.07, 1e5)], 0.1)
    served, arrived = 3e5, arr.total
    assert arrived == 5e5
    m0 = float(CHAN.marginal_energy_per_bit(0.0))
    slope = _share_slope(prof, arr, CHAN, LOCAL, merge_events(prof, arr), 0.0)
    assert slope == m0 * served - arrived * LOCAL.bit_energy
    assert slope != m0 * arrived - arrived * LOCAL.bit_energy


def test_arrivals_and_timeline_make_their_arrays_only_on_first_read():
    # the merge, the share bounds, the chunked tunnels and the share slope
    # read the float lists, so a short share solve makes none of the arrays
    prof = build_profile([Epoch(0.05, True), Epoch(0.03, False), Epoch(0.02, True)], HELPER_HZ, CPB, 0.1)
    arr = ArrivalProcess.from_events([(0.0, 1e5), (0.02, 1e5), (0.04, 1e5), (0.06, 1e5)], 0.1)
    tl = merge_events(prof, arr)

    def arrays(record):
        return [name for name, value in vars(record).items() if isinstance(value, np.ndarray)]

    assert arrays(arr) == arrays(tl) == []
    res = optimize_ratio(prof, arr, ChannelParams(1e-8, CHAN.bandwidth_hz, CHAN.noise_w), LOCAL, tl)
    assert res.method == "root" and res.ratio_low < res.ratio < res.ratio_high
    assert arrays(arr) == arrays(tl) == []
    assert not tl.times.flags.writeable and arrays(tl) == ["times"]


def test_share_root_never_above_the_golden_search():
    # the share solved at the root of its slope costs no more than the
    # golden-section search it replaced, over every kind of range
    rng = np.random.default_rng(84)
    cases = {"deep fade": 0, "zero low": 0, "interior": 0, "narrow": 0, "late": 0}

    def check(prof, arr, chan, local):
        r_lo, r_hi = min_offload_ratio(arr, local), min(max_offload_ratio(prof, arr), 1.0)
        try:
            res = optimize_ratio(prof, arr, chan, local)
        except InfeasibleError:
            assert r_lo > r_hi
            return False
        tl = merge_events(prof, arr)

        def objective(r):
            return local.local_energy((1 - r) * arr.total) + bursty_offload_energy(prof, arr, r, chan)

        def slope(r):
            return _share_slope(prof, arr, chan, local, tl, r)

        _, golden = golden_section(objective, r_lo, max(r_hi, r_lo), 1e-6)
        assert res.energy <= golden * (1 + 1e-12)
        if r_hi == 0.0:
            cases["late"] += 1
        if r_hi - r_lo <= _RATIO_TOL:
            assert res.method == "pinned" and res.ratio in (r_lo, r_hi)
            cases["narrow"] += 1
            return True
        assert res.method == "root"
        cases["zero low"] += r_lo == 0.0
        if res.ratio == r_lo:
            assert slope(r_lo) >= 0.0
            cases["deep fade"] += 1
        elif res.ratio < r_hi:
            assert slope(res.ratio - _RATIO_TOL) <= 0.0 <= slope(res.ratio + _RATIO_TOL)
            cases["interior"] += 1
        else:
            assert slope(r_hi) <= 0.0
        return True

    solved = 0
    while solved < 200:
        prof = random_profile(rng)
        arr = sample_arrivals(rng, 0.1, 0.02, 5e4, 1.5e5)
        if arr.total <= 0:
            continue
        chan = ChannelParams(CHAN.gain * 10 ** rng.uniform(-4, 2), CHAN.bandwidth_hz, CHAN.noise_w)
        local = LocalComputeParams(10 ** rng.uniform(8.5, 10), CPB, 1e-28)
        solved += check(prof, arr, chan, local)
    # one chunk at 0 on an always-idle helper: the helper takes at most C/L
    # of it and the local CPU leaves at least 1 - c/L, 5e-10 apart
    idle = build_profile([Epoch(0.1, True)], HELPER_HZ, CPB, 0.1)
    both = idle.capacity + LOCAL.local_capacity(0.1)
    one_chunk = ArrivalProcess.from_events([(0.0, both / (1 + 5e-10))], 0.1)
    for gain, end in ((1e-2, "ratio_high"), (1e-9, "ratio_low")):  # offloading cheap, then dear
        chan = ChannelParams(gain, CHAN.bandwidth_hz, CHAN.noise_w)
        assert check(idle, one_chunk, chan, LOCAL)
        res = optimize_ratio(idle, one_chunk, chan, LOCAL)
        assert res.ratio == getattr(res, end)
    # default-seed sweep trials (trial, size_scale) that a root stopped at a
    # 1e-6 share bracket prices 3e-12 to 8e-11 above the golden search
    cfg = SimConfig()
    for trial, scale in ((195, 0.5), (1335, 0.5), (1911, 0.5), (1814, 2.0)):
        draws = draw_trial(cfg.seed, _TAGS["bursty"], trial)
        chan = cfg.channel(cfg.mean_gain * draws.gain_unit)
        arr = _arrivals_from_draws(draws, cfg, scale)
        assert check(_profile_from_draws(draws, cfg), arr, chan, cfg.local_params())
    assert min(cases.values()) >= 2, cases


def test_root_split_brackets_the_slope_sign_change():
    # below the buffer the split is a root of g = dE/dl - local energy per bit
    rng = np.random.default_rng(82)
    interior = 0
    while interior < 40:
        prof = epoch_profile(rng)
        chan = ChannelParams(CHAN.gain * 10 ** rng.uniform(-3, 0), CHAN.bandwidth_hz, CHAN.noise_w)
        load = rng.uniform(0.3, 1.0) * (prof.capacity + LOCAL.cpu_hz / CPB * prof.horizon)
        low, high = partition_bounds(prof, LOCAL, load)
        if low > high:
            continue
        buffer_bits = float(rng.uniform(0.0, 1.0)) * low
        res = optimize_partition(prof, chan, LOCAL, load, buffer_bits)
        l_star = res.offload_bits
        if res.method != "search" or not low + 1.0 < l_star < high - 1.0:
            continue

        def g(l):
            return energy_slope(*min_energy_offload(prof, l, buffer_bits), chan) - LOCAL.bit_energy

        assert g(l_star - 1.0) <= 0.0 <= g(l_star + 1.0)
        interior += 1


def test_overflowing_marginal_power_reads_as_an_infinite_slope():
    # a narrow band and a very costly local CPU push the search into rates
    # above 1024 bandwidths, where p'(rate) and the power overflow to inf
    chan = ChannelParams(1e-6, 5.5e3, 1e-10)
    local = LocalComputeParams(1e9, CPB, 4e268)
    prof = oneshot_profile()
    load, buffer_bits = 5e5, 1e3
    low, high = partition_bounds(prof, local, load)
    assert energy_slope(*min_energy_offload(prof, high, buffer_bits), chan) == np.inf
    with np.errstate(invalid="raise"):  # no inf - inf or 0 * inf on the way
        res = optimize_partition(prof, chan, local, load, buffer_bits)
    assert res.method == "search"

    def objective(l):
        return local.local_energy(load - l) + offload_energy(prof, l, buffer_bits, chan)

    step = 1e-3 * load
    gx, gf = grid_best(objective, low, high, step)
    assert np.isfinite(gf) and res.energy <= gf * (1 + 1e-9)
    assert abs(res.offload_bits - gx) <= step


def test_nan_slope_raises_numeric_error(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr("offloadsim.partition.energy_slope", lambda *args: np.nan)
    prof = oneshot_profile()
    low, _ = partition_bounds(prof, LOCAL, 7e5)
    with pytest.raises(NumericError, match=f"offload of {low} bits"):
        optimize_partition(prof, CHAN, LOCAL, 7e5, 1e4)
    path = tmp_path / "profile.txt"
    path.write_text("0.05,idle\n0.03,busy\n0.02,idle\n")
    assert main(["solve", "--profile", str(path), "--load", "7e5", "--buffer", "1e4"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_root_search_below_the_buffer_matches_a_bracketing_scan():
    # a buffer below every candidate transfer leaves one tunnel family, the
    # proportional one, over the whole range, so the objective is convex and
    # the root search needs no bracketing scan
    rng = np.random.default_rng(71)
    searched = 0
    for _ in range(200):
        prof = random_profile(rng)
        chan = ChannelParams(CHAN.gain * 10 ** rng.uniform(-1, 2), CHAN.bandwidth_hz, CHAN.noise_w)
        load = rng.uniform(4e5, 9e5)
        low, high = partition_bounds(prof, LOCAL, load)
        if low > high:
            continue
        buffer_bits = float(rng.uniform(0.0, 1.0)) * low

        def objective(l):
            return LOCAL.local_energy(load - l) + offload_energy(prof, l, buffer_bits, chan)

        res = optimize_partition(prof, chan, LOCAL, load, buffer_bits)
        if res.method != "search":
            continue
        _, scanned = scan_minimize(objective, low, high, tol=1.0)
        assert res.energy <= scanned * (1 + 1e-9)
        searched += 1
    assert searched >= 30


def test_shortcut_agrees_with_search_in_deep_fade():
    # a nearly dead channel makes any extra transmitted bit a bad trade
    fade = ChannelParams(3e-9, 1e6, 1e-10)
    rng = np.random.default_rng(42)
    fired = 0
    for _ in range(20):
        prof = random_profile(rng)
        load = rng.uniform(2e5, 8e5)
        low, high = partition_bounds(prof, LOCAL, load)
        if low > high:
            continue
        if not minimal_offload_is_best(prof, fade, LOCAL, load):
            continue
        fired += 1
        res = optimize_partition(prof, fade, LOCAL, load, np.inf)
        full = optimize_partition(prof, fade, LOCAL, load, np.inf, use_shortcut=False)
        assert res.method in ("shortcut", "pinned")
        assert res.energy == pytest.approx(full.energy, rel=1e-9)
        assert abs(res.offload_bits - full.offload_bits) <= 2.0
    assert fired >= 3


def test_interior_optimum_balances_marginal_costs():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 8:
        prof = random_profile(rng)
        load = rng.uniform(3e5, 9e5)
        low, high = partition_bounds(prof, LOCAL, load)
        if low > high:
            continue
        res = optimize_partition(prof, CHAN, LOCAL, load, np.inf)
        margin = 50.0
        if not (low + margin < res.offload_bits < min(high, load) - margin):
            continue  # optimum pinned at a boundary, nothing to balance
        slope = offload_energy_slope(prof, res.offload_bits, np.inf, CHAN)
        assert abs(slope - LOCAL.bit_energy) <= 1e-3 * LOCAL.bit_energy
        checked += 1


def test_optimize_ratio_accounting_and_grid():
    rng = np.random.default_rng(44)
    checked = 0
    while checked < 6:
        prof = random_profile(rng)
        arr = sample_arrivals(rng, 0.1, 0.02, 5e4, 1.5e5)
        if arr.total <= 0 or prof.capacity < 1e4:
            continue
        try:
            res = optimize_ratio(prof, arr, CHAN, LOCAL)
        except InfeasibleError:
            continue
        assert res.ratio_low - 1e-9 <= res.ratio <= res.ratio_high + 1e-9
        assert res.offload_bits == pytest.approx(res.ratio * arr.total, rel=1e-9)
        assert res.energy == pytest.approx(res.offload_energy + res.local_energy, rel=1e-12)

        def objective(r):
            return LOCAL.local_energy((1 - r) * arr.total) + bursty_offload_energy(
                prof, arr, r, CHAN
            )

        gx, gf = grid_best(objective, res.ratio_low, res.ratio_high, 2e-3)
        assert res.energy <= gf * (1 + 1e-9)
        checked += 1


def test_optimize_ratio_edge_cases():
    prof = oneshot_profile()
    empty = ArrivalProcess.from_events([], 0.1)
    res = optimize_ratio(prof, empty, CHAN, LOCAL)
    assert res.ratio == 0.0 and res.energy == 0.0 and res.tunnel is None
    # overload: local side cannot absorb what the helper must refuse
    slow = LocalComputeParams(1e7, CPB, 1e-28)
    heavy = ArrivalProcess.from_events([(0.0, 6e5), (0.05, 6e5)], 0.1)
    never_idle = build_profile([Epoch(0.1, False)], HELPER_HZ, CPB, 0.1)
    with pytest.raises(InfeasibleError) as exc:
        optimize_ratio(never_idle, heavy, CHAN, slow)
    assert exc.value.deficit is not None and exc.value.deficit > 0


def test_single_chunk_ratio_matches_partition():
    rng = np.random.default_rng(45)
    checked = 0
    while checked < 5:
        prof = random_profile(rng)
        load = rng.uniform(3e5, 7e5)
        low, high = partition_bounds(prof, LOCAL, load)
        if low > high or prof.capacity < load * 0.5:
            continue
        arr = ArrivalProcess.from_events([(0.0, load)], 0.1)
        by_ratio = optimize_ratio(prof, arr, CHAN, LOCAL)
        by_bits = optimize_partition(prof, CHAN, LOCAL, load, np.inf)
        assert by_ratio.energy == pytest.approx(by_bits.energy, rel=1e-9)
        checked += 1


def test_minimal_offload_is_best_limits():
    prof = oneshot_profile()
    assert not minimal_offload_is_best(prof, CHAN, LOCAL, 7e5)
    dead = ChannelParams(1e-12, 1e6, 1e-10)
    assert minimal_offload_is_best(prof, dead, LOCAL, 7e5)
    never_idle = build_profile([Epoch(0.1, False)], HELPER_HZ, CPB, 0.1)
    assert minimal_offload_is_best(never_idle, CHAN, LOCAL, 1e5)


def test_replay_local_computing():
    arr = ArrivalProcess.from_events([(0.0, 4e5), (0.04, 4e5)], 0.1)
    # the local CPU finishes 2e5 bits in the window: a 0.25 share of 8e5
    assert local_compute_tunnel(arr, LOCAL, 0.75).is_feasible()
    assert not local_compute_tunnel(arr, LOCAL, 0.74).is_feasible()
