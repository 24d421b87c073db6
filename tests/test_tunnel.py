import pickle

import numpy as np
import pytest

from offloadsim.cpu_profile import (
    _SHORT_SPAN,
    TIME_ATOL,
    ArrivalProcess,
    Epoch,
    _curve_time,
    build_profile,
    merge_events,
    sample_arrivals,
    sample_cpu_process,
)
from offloadsim.energy import LocalComputeParams
from offloadsim.errors import InfeasibleError
from offloadsim.sim_harness import _TAGS, SimConfig, _arrivals_from_draws, draw_trial
from offloadsim.string_pull import min_energy_offload, pull_string
from offloadsim.tunnel import (
    FeasibilityTunnel,
    bursty_effective_tunnel,
    bursty_tunnel,
    effective_tunnel,
    format_tunnel,
    full_utilization_tunnel,
    lazy_first_tunnel,
    local_compute_tunnel,
    max_offload_ratio,
    min_offload_ratio,
    proportional_tunnel,
)

from oracles import (
    TUNNEL_ATTRIBUTES,
    assert_same_attributes,
    looped_min_offload_ratio,
    matrix_local_compute_tunnel,
    same_array,
)

HELPER_HZ = 5e9
CPB = 500.0
LOCAL = LocalComputeParams(1e9, CPB, 1e-28)


def oneshot_profile():
    return build_profile(
        [Epoch(0.05, True), Epoch(0.03, False), Epoch(0.02, True)], HELPER_HZ, CPB, 0.1
    )


def chunked_profile():
    # idle span ends exactly where the second chunk lands
    return build_profile(
        [Epoch(0.04, True), Epoch(0.03, False), Epoch(0.03, True)], HELPER_HZ, CPB, 0.1
    )


def two_chunks():
    return ArrivalProcess.from_events([(0.0, 4e5), (0.04, 4e5)], 0.1)


def random_profile(rng, horizon=0.1):
    eps = sample_cpu_process(rng, horizon, 0.02, 0.02)
    return build_profile(eps, HELPER_HZ, CPB, horizon)


def test_time_at_capacity():
    prof = oneshot_profile()
    assert _curve_time(prof.parts, 0.0) == 0.0
    assert _curve_time(prof.parts, 2e5) == pytest.approx(0.02)
    assert _curve_time(prof.parts, 5e5) == pytest.approx(0.05)
    assert _curve_time(prof.parts, 6e5) == pytest.approx(0.09)
    assert _curve_time(prof.parts, 7e5) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        _curve_time(prof.parts, 7e5 + 1.0)


def test_full_utilization_tunnel_unbounded_buffer():
    tun = full_utilization_tunnel(oneshot_profile())
    assert tun.kind == "full"
    assert tun.total == 7e5
    assert np.allclose(tun.times, [0.0, 0.05, 0.08, 0.1])
    assert np.allclose(tun.floor, [0.0, 5e5, 5e5, 7e5])
    assert np.allclose(tun.ceiling, [0.0, 7e5, 7e5, 7e5])
    assert tun.is_feasible()


def test_full_utilization_tunnel_finite_buffer():
    tun = full_utilization_tunnel(oneshot_profile(), 1e5)
    # extra vertex where capacity-plus-buffer meets the transfer size
    assert np.allclose(tun.times, [0.0, 0.05, 0.08, 0.09, 0.1])
    assert np.allclose(tun.floor, [0.0, 5e5, 5e5, 6e5, 7e5])
    assert np.allclose(tun.ceiling, [0.0, 6e5, 6e5, 7e5, 7e5])
    assert tun.is_feasible()
    zero_buf = full_utilization_tunnel(oneshot_profile(), 0.0)
    assert np.allclose(zero_buf.floor[1:], zero_buf.ceiling[1:])
    assert zero_buf.is_feasible()


def test_effective_tunnel_shifted_floor():
    tun = effective_tunnel(oneshot_profile(), 5e5)
    assert tun.kind == "effective"
    assert np.allclose(tun.times, [0.0, 0.02, 0.05, 0.08, 0.1])
    assert np.allclose(tun.floor, [0.0, 0.0, 3e5, 3e5, 5e5])
    assert np.allclose(tun.ceiling, [0.0, 5e5, 5e5, 5e5, 5e5])
    assert tun.is_feasible()
    with pytest.raises(InfeasibleError) as exc:
        effective_tunnel(oneshot_profile(), 8e5)
    assert exc.value.deficit == pytest.approx(1e5)
    with pytest.raises(ValueError):
        effective_tunnel(oneshot_profile(), 5e5, buffer_bits=1e5)


def test_proportional_tunnel_is_scaled_full_utilization():
    prof = oneshot_profile()
    tun = proportional_tunnel(prof, 3.5e5, 1e5)
    assert tun.kind == "proportional"
    assert tun.total == pytest.approx(3.5e5)
    # floor follows the half-rate capacity curve
    assert np.interp(0.05, tun.times, tun.floor) == pytest.approx(2.5e5)
    assert tun.is_feasible()
    assert np.all(tun.ceiling <= tun.floor + 1e5 + 1e-6)


def test_lazy_first_tunnel_buffer_relative_to_floor():
    tun = lazy_first_tunnel(oneshot_profile(), 5e5, 1e5)
    assert tun.kind == "lazy"
    # interior vertices keep exactly one buffer of headroom over the floor
    assert np.allclose(tun.ceiling[1:], np.minimum(tun.floor + 1e5, 5e5)[1:])
    assert tun.ceiling[0] == 0.0
    assert tun.is_feasible()
    wide = lazy_first_tunnel(oneshot_profile(), 5e5, np.inf)
    eff = effective_tunnel(oneshot_profile(), 5e5)
    assert np.interp(0.05, wide.times, wide.floor) == pytest.approx(
        np.interp(0.05, eff.times, eff.floor)
    )


def assert_same_geometry(a, b):
    for name in ("times", "floor", "ceiling", "cum_capacity", "cpu_flip"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.total == b.total


def test_one_shot_builders_reject_nan_or_negative_buffer():
    prof = oneshot_profile()
    builders = (
        lambda buf: full_utilization_tunnel(prof, buf),
        lambda buf: effective_tunnel(prof, 5e5, buf),
        lambda buf: proportional_tunnel(prof, 5e5, buf),
        lambda buf: lazy_first_tunnel(prof, 5e5, buf),
    )
    for build in builders:
        for bad in (np.nan, -1.0):
            with pytest.raises(ValueError, match="buffer_bits"):
                build(bad)
        assert build(np.inf).is_feasible()


def test_one_shot_builders_and_the_solver_reject_a_bad_transfer_alike():
    # the solver checks each transfer once, the builders on their own too
    prof = oneshot_profile()
    for bad in (np.nan, np.inf, -1.0, prof.capacity + 1e3):
        errors = []
        for build in (effective_tunnel, lazy_first_tunnel, proportional_tunnel, min_energy_offload):
            with pytest.raises((ValueError, InfeasibleError)) as exc:
                build(prof, bad, 1e5)
            errors.append((type(exc.value), str(exc.value), getattr(exc.value, "deficit", None)))
        assert errors[1:] == errors[:-1], bad


def test_lazy_first_with_whole_buffer_is_effective_tunnel():
    # a buffer holding the whole transfer never binds, so buffer-first
    # scheduling sees exactly the effective tunnel
    rng = np.random.default_rng(24)
    for _ in range(40):
        prof = random_profile(rng)
        if prof.capacity <= 0:
            continue
        l = rng.uniform(0.05, 1.0) * prof.capacity
        for buf in (l, rng.uniform(1.0, 3.0) * l, np.inf):
            assert_same_geometry(lazy_first_tunnel(prof, l, buf), effective_tunnel(prof, l, buf))


def test_full_utilization_is_lazy_first_at_capacity():
    rng = np.random.default_rng(25)
    for _ in range(40):
        prof = random_profile(rng)
        if prof.capacity <= 0:
            continue
        for buf in (0.0, rng.uniform(0.05, 1.2) * prof.capacity, np.inf):
            full = full_utilization_tunnel(prof, buf)
            assert_same_geometry(full, lazy_first_tunnel(prof, prof.capacity, buf))
            assert full.total == prof.capacity


def test_busy_sliver_after_last_idle_epoch():
    # a busy tail shorter than the time tolerance must not add a vertex
    prof = build_profile([Epoch(0.05, True), Epoch(1e-12, False)], HELPER_HZ, CPB, 0.05 + 1e-12)
    tun = effective_tunnel(prof, 2e5)
    assert tun.times[-1] == prof.idle_end == 0.05
    assert tun.is_feasible()


def test_floor_nesting_in_transfer_size():
    # a larger transfer leaves less slack, so its floor sits higher everywhere
    rng = np.random.default_rng(21)
    for _ in range(20):
        prof = random_profile(rng)
        if prof.capacity <= 0:
            continue
        l2 = rng.uniform(0.5, 1.0) * prof.capacity
        l1 = rng.uniform(0.1, 1.0) * l2
        small = effective_tunnel(prof, l1)
        big = effective_tunnel(prof, l2)
        grid = np.union1d(small.times, big.times)
        f1 = np.interp(grid, small.times, small.floor)
        f2 = np.interp(grid, big.times, big.floor)
        assert np.all(f1 <= f2 + 1e-6)


def test_larger_buffer_admits_smaller_buffer_schedules():
    # region nesting: any schedule legal for a small buffer stays legal
    # when the buffer grows
    rng = np.random.default_rng(22)
    for _ in range(20):
        prof = random_profile(rng)
        if prof.capacity <= 0:
            continue
        q1, q2 = np.sort(rng.uniform(0.05, 1.2, size=2)) * prof.capacity
        t1 = full_utilization_tunnel(prof, q1)
        t2 = full_utilization_tunnel(prof, q2)
        sched = pull_string(t1)
        y = np.interp(t2.times, sched.times, sched.cumulative)
        assert np.all(y <= t2.ceiling + 1e-6)
        assert np.all(y >= t2.floor - 1e-6)


def test_chunked_share_tunnel_pinned_example():
    tun = bursty_effective_tunnel(chunked_profile(), two_chunks(), 0.75)
    assert tun.kind == "bursty-effective"
    assert tun.total == pytest.approx(6e5)
    assert np.allclose(tun.times, [0.0, 0.01, 0.04, 0.07, 0.1])
    assert np.allclose(tun.floor, [0.0, 0.0, 3e5, 3e5, 6e5])
    assert np.allclose(tun.ceiling, [0.0, 3e5, 3e5, 6e5, 6e5])
    assert tun.is_feasible()
    # the pinch at 0.04 is exactly tight, so any larger share must fail
    above = bursty_effective_tunnel(chunked_profile(), two_chunks(), 0.7501)
    assert not above.is_feasible()
    assert above.deficit == pytest.approx(40.0, rel=1e-6)
    way_above = bursty_effective_tunnel(chunked_profile(), two_chunks(), 0.875)
    assert not way_above.is_feasible()
    assert way_above.deficit == pytest.approx(5e4, rel=1e-6)


def test_max_offload_ratio_matches_pinch():
    prof, arr = chunked_profile(), two_chunks()
    theta = max_offload_ratio(prof, arr)
    assert theta == pytest.approx(0.75, abs=1e-12)
    assert bursty_effective_tunnel(prof, arr, theta).is_feasible()
    never_idle = build_profile([Epoch(0.1, False)], HELPER_HZ, CPB, 0.1)
    assert max_offload_ratio(never_idle, arr) == 0.0
    no_data = ArrivalProcess.from_events([], 0.1)
    assert max_offload_ratio(prof, no_data) == 1.0


def test_min_offload_ratio_matches_local_capacity():
    arr = two_chunks()
    theta = min_offload_ratio(arr, LOCAL)
    # local CPU finishes 2e5 bits in the window; it must shed the rest
    assert theta == pytest.approx(0.75, abs=1e-12)
    assert local_compute_tunnel(arr, LOCAL, theta).is_feasible()
    below = local_compute_tunnel(arr, LOCAL, theta - 1e-3)
    assert not below.is_feasible()
    fast = LocalComputeParams(1e12, CPB, 1e-28)
    assert min_offload_ratio(arr, fast) == 0.0
    assert min_offload_ratio(ArrivalProcess.from_events([], 0.1), LOCAL) == 0.0


def test_bursty_full_rate_tunnel():
    # helper computes whenever idle, so the floor is the raw capacity curve
    prof, arr = chunked_profile(), two_chunks()
    tun = bursty_tunnel(prof, arr, 0.875)
    assert tun.kind == "bursty"
    assert not tun.is_feasible()  # first chunk alone cannot feed the idle span
    assert np.interp(0.04, tun.times, tun.floor) == pytest.approx(4e5)
    assert np.interp(0.04, tun.times, tun.ceiling) == pytest.approx(0.875 * 4e5)


def test_local_compute_tunnel_geometry():
    arr = two_chunks()
    tun = local_compute_tunnel(arr, LOCAL, 0.8)
    assert tun.total == pytest.approx(0.2 * 8e5)
    assert tun.is_feasible()
    rate = LOCAL.cpu_hz / LOCAL.cycles_per_bit
    k = int(np.argmin(np.abs(tun.times - 0.05)))
    assert tun.cum_capacity[k] == pytest.approx(rate * tun.times[k])


def default_seed_arrivals(horizon=0.1, trials=40):
    cfg = SimConfig(horizon=horizon)
    for trial in range(trials):
        draws = draw_trial(cfg.seed, _TAGS["bursty"], trial)
        yield _arrivals_from_draws(draws, cfg, 1.0)


def assert_same_tunnel(a, b):
    assert_same_attributes(a, b, TUNNEL_ATTRIBUTES)


def test_local_compute_tunnel_matches_the_distance_matrix():
    edges = ArrivalProcess.from_events(
        [(0.0, 1e5), (0.5e-12, 2e5), (0.03, 3e5), (0.06, 0.0), (0.099, 4e5)], 0.1
    )
    nothing = ArrivalProcess.from_events([], 0.1)  # the horizon event alone
    near_zero = ArrivalProcess.from_events([(0.5 * TIME_ATOL, 2e5), (0.05, 1e5)], 0.1)
    at_zero = ArrivalProcess([TIME_ATOL, 0.05, 0.1], [2e5, 1e5, 0.0], 0.1)  # a chunk TIME_ATOL after 0
    samples = (*default_seed_arrivals(), *default_seed_arrivals(2.0, 5))
    for arr in (two_chunks(), edges, nothing, near_zero, at_zero, *samples):
        for ratio in (0.0, 0.4, 1.0):
            assert_same_tunnel(local_compute_tunnel(arr, LOCAL, ratio), matrix_local_compute_tunnel(arr, LOCAL, ratio))


def test_local_compute_tunnel_builds_for_100000_chunks():
    # the distance matrix would hold 1e10 entries; the merge of arrivals is linear
    n = 100_000
    arr = ArrivalProcess(np.append(np.linspace(0.0, 100.0, n, endpoint=False), 100.0), np.append(np.full(n, 1e3), 0.0), 100.0)
    tun = local_compute_tunnel(arr, LOCAL, 0.5)
    assert len(tun.times) == n + 1
    assert tun.arrival_bits.sum() == pytest.approx(n * 1e3)
    assert tun.total == pytest.approx(0.5 * n * 1e3)


def test_min_offload_ratio_matches_the_numpy_loop():
    slow = LocalComputeParams(2e8, CPB, 1e-28)  # sheds a share of most arrivals
    for arr in (two_chunks(), *default_seed_arrivals(), *default_seed_arrivals(20.0, 3)):
        for local in (LOCAL, slow):
            theta = min_offload_ratio(arr, local)
            assert type(theta) is float
            assert theta == looped_min_offload_ratio(arr, local)


def test_single_chunk_at_zero_matches_oneshot_tunnel():
    rng = np.random.default_rng(23)
    for _ in range(20):
        prof = random_profile(rng)
        if prof.capacity <= 1e4:
            continue
        size = rng.uniform(0.2, 1.0) * prof.capacity
        theta = rng.uniform(0.3, min(1.0, prof.capacity / size))
        arr = ArrivalProcess.from_events([(0.0, size)], 0.1)
        chunked = bursty_effective_tunnel(prof, arr, theta)
        oneshot = effective_tunnel(prof, theta * size)
        grid = np.union1d(chunked.times, oneshot.times)
        for a, b in ((chunked.floor, oneshot.floor), (chunked.ceiling, oneshot.ceiling)):
            fa = np.interp(grid, chunked.times, a)
            fb = np.interp(grid, oneshot.times, b)
            assert np.max(np.abs(fa - fb)) <= 1e-6


def test_format_tunnel_lists_vertices():
    tun = effective_tunnel(oneshot_profile(), 5e5)
    text = format_tunnel(tun)
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert len(lines) == len(tun.times)
    t0, f0, c0 = (float(x) for x in lines[0].split(","))
    assert (t0, f0, c0) == (0.0, 0.0, 0.0)


def idle_mask_flips(tunnel, profile):
    """Oracle for ``cpu_flip``: the state of the capacity-curve piece that
    holds each segment's midpoint, differenced at the interior vertices."""
    mids = 0.5 * (tunnel.times[:-1] + tunnel.times[1:])
    idle = profile.idle[profile.boundaries.searchsorted(mids, side="right") - 1].astype(int)
    flips = np.zeros(len(tunnel.times), dtype=int)
    flips[1:-1] = idle[1:] - idle[:-1]
    return flips


def test_cpu_flip_matches_idle_mask_of_the_capacity_curve():
    rng = np.random.default_rng(57)
    kinds = set()
    for i in range(240):
        horizon = (0.1, 1.0)[i % 2]
        helper_hz = (1e6, 1e10, 10.0 ** rng.uniform(6.0, 10.0))[i % 3]
        prof = build_profile(sample_cpu_process(rng, horizon, 0.02, 0.02), helper_hz, CPB, horizon)
        if prof.last_idle_index is None:
            continue
        cap = prof.capacity
        arr = sample_arrivals(rng, horizon, 0.2 * horizon, 0.0, 0.5 * cap)
        size = rng.uniform(1e-3, 1.0) * cap
        buf = rng.choice([0.0, 0.01, 0.3, 1.0, np.inf]) * cap
        ratio = rng.uniform(0.0, 1.0)
        for tun in (
            full_utilization_tunnel(prof, buf),
            effective_tunnel(prof, size, max(buf, size)),
            proportional_tunnel(prof, size, buf),
            lazy_first_tunnel(prof, size, buf),
            bursty_tunnel(prof, arr, ratio),
            bursty_effective_tunnel(prof, arr, ratio),
        ):
            assert np.array_equal(tun.cpu_flip, idle_mask_flips(tun, prof)), (i, tun.kind)
            kinds.add(tun.kind)
        # the user's own CPU never idles
        local = local_compute_tunnel(arr, LOCAL, ratio)
        assert not local.cpu_flip.any()
        kinds.add(local.kind)
    assert len(kinds) == 7


def test_tunnel_and_schedule_arrays_are_read_only():
    # the pull and the energy read the float lists the arrays are made from,
    # so no caller may write to the arrays and make the two disagree
    tun = effective_tunnel(oneshot_profile(), 5e5)
    sched = pull_string(tun)
    with pytest.raises(ValueError):
        tun.floor[0] = 1.0
    with pytest.raises(ValueError):
        sched.cumulative[0] = 1.0
    # an array handed to a constructor is copied, so writing to it later
    # changes neither what the tunnel reads nor the array it hands out
    floor = np.array(tun.floor)
    copy = FeasibilityTunnel("x", tun.times, floor, tun.ceiling, tun.total, tun.cum_capacity, tun.arrival_bits, np.inf)
    floor[1] += 1e5
    assert copy.lists[1] == tun.lists[1]
    assert np.array_equal(copy.floor, tun.floor)


def test_pickled_tunnels_and_schedules_make_read_only_arrays_again():
    # pickle brings an array back writeable, so a tunnel or a schedule leaves
    # the arrays of its lists out and the copy makes them again on first read
    long_profile = random_profile(np.random.default_rng(5), horizon=1.0)
    arrays = ("times", "floor", "ceiling", "cum_capacity", "arrival_bits")
    for tun in (effective_tunnel(oneshot_profile(), 5e5), effective_tunnel(long_profile, 0.5 * long_profile.capacity)):
        sched = pull_string(tun)
        for obj, names in ((tun, arrays), (sched, ("times", "cumulative"))):
            made = {name: getattr(obj, name) for name in names}
            copy = pickle.loads(pickle.dumps(obj))
            assert [np.array(v).tobytes() for v in copy.lists] == [np.array(v).tobytes() for v in obj.lists]
            for name, array in made.items():
                assert not getattr(copy, name).flags.writeable, name
                assert getattr(copy, name).tobytes() == array.tobytes(), name
    assert len(tun.lists[0]) - 2 >= _SHORT_SPAN  # the long tunnel made its arrays with numpy
    # a profile, arrivals and a timeline leave out the arrays of their lists
    # as well
    arr = ArrivalProcess.from_events([(0.01, 4e5), (0.06, 2e5)], 0.1)
    tl = merge_events(long_profile, ArrivalProcess.from_events([(0.3, 4e5), (0.6, 2e5)], 1.0))
    profile_arrays = ("durations", "idle", "boundaries", "cum_bits")
    for obj, names, dropped in (
        (long_profile, (*profile_arrays, "parts"), profile_arrays),
        (arr, ("times", "sizes", "total"), ("times", "sizes")),
        (tl, ("times", "arrival_bits", "cum_capacity", "lists"), ("times", "arrival_bits", "cum_capacity")),
    ):
        made = {name: getattr(obj, name) for name in names}
        copy = pickle.loads(pickle.dumps(obj))
        assert not set(dropped) & set(copy.__dict__)
        for name, value in made.items():
            got = getattr(copy, name)
            if isinstance(value, np.ndarray):
                assert not got.flags.writeable and same_array(got, value), name
            else:
                assert repr(got) == repr(value), name
