"""Property tests over generated inputs, bounded so the suite stays fast.

Under the default ``ci`` hypothesis profile (tests/conftest.py) every run
draws the same examples; ``--hypothesis-profile=fuzz`` draws new ones."""
import sys
import warnings
from math import fsum

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from offloadsim import energy, string_pull, tunnel as tunnel_module
from offloadsim.cpu_profile import (
    TIME_ATOL,
    ArrivalProcess,
    Epoch,
    build_profile,
    merge_events,
    sample_arrivals,
    sample_cpu_process,
)
from offloadsim.energy import ChannelParams, LocalComputeParams, schedule_energy
from offloadsim.errors import InfeasibleError
from offloadsim.partition import _share_slope, optimize_partition, partition_bounds
from offloadsim.string_pull import (
    _scaled_slope,
    _taut_values,
    _zero_solution,
    energy_slope,
    min_energy_offload,
    min_energy_offload_bursty,
    offload_energy,
    pull_string,
)
from offloadsim.tunnel import (
    FeasibilityTunnel,
    bits_tol,
    bursty_effective_tunnel,
    bursty_tunnel,
    effective_tunnel,
    full_utilization_tunnel,
    lazy_first_tunnel,
    local_compute_tunnel,
    max_offload_ratio,
    proportional_tunnel,
)

from convex_reference import convex_reference_schedule
from oracles import (
    TUNNEL_ATTRIBUTES,
    assert_same_attributes,
    eager_build_profile,
    eager_build_tunnel,
    eager_merge_events,
    eager_proportional_tunnel,
    eager_pull,
    eager_taut_values,
    eager_zero_solution,
    floor_following_schedule,
    normalize_epochs,
    same_array,
)

LOCAL = LocalComputeParams(1e9, 500.0, 1e-28)


def channel(gain_exp):
    return ChannelParams(1e-6 * 10.0**gain_exp, 1e6, 1e-10)


def units(n):
    return st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(np.array)


@st.composite
def corridors(draw):
    """A monotone corridor of 3-60 vertices pinned at 0 and at its total:
    the floor climbs by up to 1e4 bits per vertex, and the ceiling runs up
    to ``headroom`` bits above it, never falling and never above the total."""
    n = draw(st.integers(3, 60))
    steps = draw(st.lists(st.floats(1e-3, 1e-2), min_size=n - 1, max_size=n - 1))
    times = np.concatenate(([0.0], np.cumsum(steps)))
    floor = np.concatenate(([0.0], np.cumsum(1e4 * draw(units(n - 1)))))
    total = float(floor[-1])
    ceiling = np.minimum(np.maximum.accumulate(floor + draw(st.floats(0.0, 5e4)) * draw(units(n))), total)
    ceiling[0] = 0.0
    ceiling[-1] = total
    zeros = np.zeros(n)
    return FeasibilityTunnel("corridor", times, floor, ceiling, total, floor.copy(), zeros, np.inf)


def _stepped_corridor():
    """58 vertices 1/128 s apart; the floor steps from 0 to 1e4 bits at
    vertex 32 and the ceiling from 0 to 1 bit at vertex 23, the total being
    2e4. The L-BFGS-B reference once left its values a fraction of a bit
    out of order on it, so its energy could not be priced."""
    k = np.arange(58)
    floor = np.where(k >= 32, 1e4, 0.0)
    ceiling = np.select([k >= 46, k >= 32, k >= 23], [10000.5, 1e4, 1.0], 0.0)
    floor[-1] = ceiling[-1] = 2e4
    return FeasibilityTunnel("corridor", k / 128.0, floor, ceiling, 2e4, floor.copy(), np.zeros(58), np.inf)


@settings(max_examples=50)
@given(tunnel=corridors(), gain_exp=st.floats(-2.0, 2.0))
@example(tunnel=_stepped_corridor(), gain_exp=0.0)
def test_taut_string_matches_convex_reference_on_corridors(tunnel, gain_exp):
    assume(tunnel.total > 1.0)
    chan = channel(gain_exp)
    taut = pull_string(tunnel).energy(chan)
    ref = convex_reference_schedule(tunnel, chan).energy(chan)
    assert taut <= ref * (1 + 1e-9)
    assert abs(taut - ref) <= 1e-6 * taut


@settings(max_examples=20)
@given(
    durations=st.lists(st.floats(2e-3, 3e-2), min_size=1, max_size=12),
    idle_first=st.booleans(),
    load_frac=st.floats(0.3, 1.0),
    buffer_frac=st.floats(0.0, 0.999),
    gain_exp=st.floats(-2.0, 2.0),
    cap_exp=st.floats(-30.0, -27.0),
)
def test_split_below_the_transfers_never_loses_to_a_dense_grid(
    durations, idle_first, load_frac, buffer_frac, gain_exp, cap_exp
):
    # a buffer below the largest transfer puts the proportional tunnels, and
    # with them the root search, on all or part of the range
    epochs = [Epoch(d, (i % 2 == 0) == idle_first) for i, d in enumerate(durations)]
    prof = build_profile(epochs, 5e9, 500.0, sum(durations))
    local = LocalComputeParams(1e9, 500.0, 10.0**cap_exp)
    load = load_frac * (prof.capacity + local.local_capacity(prof.horizon))
    low, high = partition_bounds(prof, local, load)
    assume(low + 1.0 < high)
    buffer_bits = buffer_frac * high
    chan = channel(gain_exp)
    res = optimize_partition(prof, chan, local, load, buffer_bits)
    step = 1e-3 * load
    grid = np.clip(np.arange(low, high + step, step), low, high)
    best = min(local.local_energy(load - l) + offload_energy(prof, l, buffer_bits, chan) for l in grid)
    assert res.energy <= best * (1 + 1e-9)


@settings(max_examples=40)
@given(
    durations=st.lists(st.floats(2e-3, 3e-2), min_size=1, max_size=12),
    idle_first=st.booleans(),
    top_frac=st.floats(0.3, 1.0),
    buffer_frac=st.floats(0.01, 0.5),
    bottom_frac=st.floats(0.0, 1.0),
    gain_exp=st.floats(-2.0, 2.0),
)
def test_paced_energy_is_midpoint_convex_across_the_buffer(
    durations, idle_first, top_frac, buffer_frac, bottom_frac, gain_exp
):
    # proportional pacing's floor (l/C) c(t) is linear in the size l and its
    # ceiling min(floor + B, l) concave, so its energy is convex in l on both
    # sides of l = B; a buffer far below the largest size makes the ceiling
    # bind there
    epochs = [Epoch(d, (i % 2 == 0) == idle_first) for i, d in enumerate(durations)]
    prof = build_profile(epochs, 5e9, 500.0, sum(durations))
    assume(prof.capacity > 1e3)
    top = top_frac * prof.capacity
    buffer_bits = buffer_frac * top
    bottom = max(bottom_frac * buffer_bits, 1.0)
    chan = channel(gain_exp)

    def energy(l):
        return pull_string(proportional_tunnel(prof, l, buffer_bits)).energy(chan)

    mid = 0.5 * (bottom + top)
    assert energy(mid) <= 0.5 * (energy(bottom) + energy(top)) * (1 + 1e-9)


@settings(max_examples=50)
@given(
    n=st.integers(5, 100),
    seed=st.integers(0, 2**32 - 1),
    idle_first=st.booleans(),
    load_frac=st.floats(0.3, 1.0),
    buffer_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    gain_exp=st.floats(-2.0, 2.0),
)
def test_buffer_first_energy_is_convex_between_its_corner_breakpoints(
    n, seed, idle_first, load_frac, buffer_frac, gain_exp
):
    # buffer-first's floor corner, where the floor leaves zero, sits at level
    # C - l of the capacity curve; it jumps over a busy epoch only at the
    # sizes l_j = C - c(t_j), so its split energy, which the sweeps price
    # piece by piece, must be convex on each piece between them. Checked by
    # second differences on 17 evenly spaced sizes per piece, to 1e-12 of the
    # piece's largest energy.
    durations = np.random.default_rng(seed).uniform(1e-3, 3e-2, n).tolist()
    epochs = [Epoch(d, (i % 2 == 0) == idle_first) for i, d in enumerate(durations)]
    prof = build_profile(epochs, 5e9, 500.0, sum(durations))
    load = load_frac * (prof.capacity + LOCAL.local_capacity(prof.horizon))
    low, high = partition_bounds(prof, LOCAL, load)
    assume(low + 1.0 < high)
    buffer_bits = buffer_frac * high
    chan = channel(gain_exp)

    def energy(l):
        return LOCAL.local_energy(load - l) + pull_string(lazy_first_tunnel(prof, l, buffer_bits)).energy(chan)

    start = max(low, 1.0)
    breaks = sorted(l for l in {prof.capacity - c for c in prof.cum_bits.tolist()} if start < l < high)
    ends = [start, *breaks, high]
    for a, b in zip(ends, ends[1:]):
        es = [energy(l) for l in np.linspace(a, b, 17).tolist()]
        worst = min(es[k - 1] - 2.0 * es[k] + es[k + 1] for k in range(1, len(es) - 1))
        assert worst >= -1e-12 * max(es), (a, b, worst)


def _by_each_branch(fn, *args):
    """``fn(*args)`` with every size switch at 0, so every curve takes the
    numpy branches, then at 1e9, so every curve takes the float-list ones.
    An ``InfeasibleError`` or ``ValueError`` is returned, not raised, and a
    ``RuntimeWarning`` fails the test."""
    out = []
    for span in (0, 10**9):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for module in (tunnel_module, string_pull, energy):
                mp.setattr(module, "_SHORT_SPAN", span)
            try:
                out.append(fn(*args))
            except (InfeasibleError, ValueError) as exc:
                out.append(exc)
    return out


def _eager(build, *args):
    """``build(*args)`` with every array made at build time."""
    if build is proportional_tunnel:
        return eager_proportional_tunnel(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tunnel_module, "_build_tunnel", eager_build_tunnel)
        return build(*args)


def _pulled(build, *args):
    """The tunnel ``build(*args)``, the string pulled through it (or the
    refusal) and that string's energy."""
    tunnel = build(*args)
    try:
        schedule = pull_string(tunnel)
    except InfeasibleError as exc:
        return tunnel, exc, None
    return tunnel, schedule, schedule.energy(channel(0.0))


def _same_as_eager(build, *args):
    """On both sides of every size switch, ``build(*args)`` refuses alike or
    reads the eager oracle's arrays byte for byte, and so does the string
    pulled through it, at the same energy. Returns the tunnel, or None."""
    by_numpy, by_lists = _by_each_branch(_pulled, build, *args)
    if isinstance(by_numpy, Exception):
        assert _same_error(by_numpy, by_lists), build.__name__
        return None
    eager = _eager(build, *args)
    for tunnel, schedule, joules in (by_numpy, by_lists):
        assert_same_attributes(tunnel, eager, TUNNEL_ATTRIBUTES)
        pulled = eager_pull(eager)
        if pulled is None:
            assert isinstance(schedule, InfeasibleError), build.__name__
            continue
        assert same_array(schedule.times, pulled[0]) and same_array(schedule.cumulative, pulled[1])
        want = schedule_energy(*pulled, channel(0.0))
        assert joules == want or (np.isnan(joules) and np.isnan(want)), build.__name__
    return by_numpy[0]


def _same_zero_solution(prof, buffer_bits):
    """The empty transfer reads the eager oracle's arrays on both sides of
    every size switch."""
    for out in _by_each_branch(_zero_solution, prof, buffer_bits):
        schedule, tunnel = out
        (times, cumulative), eager = eager_zero_solution(prof, buffer_bits)
        assert_same_attributes(tunnel, eager, TUNNEL_ATTRIBUTES)
        assert same_array(schedule.times, times) and same_array(schedule.cumulative, cumulative)


@settings(max_examples=50)
@given(tunnel=corridors())
def test_both_chord_scans_pull_the_same_string(tunnel):
    by_numpy, by_loop = _by_each_branch(pull_string, tunnel)
    times, cumulative = eager_pull(tunnel)
    for schedule in (by_numpy, by_loop):
        assert same_array(schedule.times, times) and same_array(schedule.cumulative, cumulative)


def _envelopes(floor, ceiling):
    """A tunnel over the times 0, 1, 2, ... between the given envelopes,
    which may cross."""
    n = len(floor)
    return FeasibilityTunnel("x", np.arange(float(n)), floor, ceiling, floor[-1], floor, np.zeros(n), np.inf)


def test_both_chord_scans_break_ties_alike():
    # chord y = t; vertices 2 and 3 breach it by 4 each, and the earliest is
    # fixed first (the rule shows only where the envelopes cross)
    for floor, ceiling, tol, want in (
        ([0.0, 0.0, 6.0, 7.0, 4.0], [0.0, 5.0, 2.0, 3.0, 4.0], 0.0, [0.0, 3.0, 6.0, 7.0, 4.0]),
        # vertex 1 is 0.5 under its floor and 0.5 over its ceiling: the floor wins
        ([0.0, 1.5, 2.0], [0.0, 0.5, 2.0], 0.0, [0.0, 1.5, 2.0]),
        # a breach of exactly the tolerance leaves the chord straight
        ([0.0, 1.25, 2.0], [0.0, 2.0, 2.0], 0.25, [0.0, 1.0, 2.0]),
    ):
        tunnel = _envelopes(floor, ceiling)
        for y in _by_each_branch(_taut_values, tunnel, tol):
            assert y == want
        assert same_array(eager_taut_values(tunnel.times, tunnel.floor, tunnel.ceiling, tol), np.array(want))


def _same_error(a, b):
    return type(a) is type(b) and str(a) == str(b) and getattr(a, "deficit", None) == getattr(b, "deficit", None)


@settings(max_examples=200)
@given(
    start=st.sampled_from([0.0, 1e-6, 5e4]),
    # rates up to 2e7 bits/s keep the segments' energies within a few decades,
    # so the order of the sum shows
    bits=st.lists(st.floats(0.0, 2e4), min_size=1, max_size=40),
    steps=st.lists(st.floats(1e-3, 1e-2), min_size=40, max_size=40),
    # up to two segments of nothing, of the largest drop still read as
    # nondecreasing, of a drop past it or at a rate past expm1's overflow,
    # and maybe one segment of no time
    odd_bits=st.lists(st.tuples(st.integers(0, 39), st.sampled_from([0.0, -1e-6, -2e-6, 1e9])), max_size=2),
    stalled=st.one_of(st.none(), st.integers(0, 39)),
    gain_exp=st.floats(-2.0, 2.0),
)
def test_both_branches_price_the_same_energy(start, bits, steps, odd_bits, stalled, gain_exp):
    n = len(bits)
    for k, b in odd_bits:
        bits[k % n] = b
    if stalled is not None:
        steps[stalled % n] = 0.0
    cum = np.concatenate(([start], start + np.cumsum(bits)))
    times = np.concatenate(([0.0], np.cumsum(steps[:n])))
    chan = channel(gain_exp)
    by_numpy, by_lists = _by_each_branch(schedule_energy, times, cum, chan)
    as_lists = _by_each_branch(schedule_energy, times.tolist(), cum.tolist(), chan)
    for other in (by_lists, *as_lists):
        if isinstance(by_numpy, Exception):
            assert _same_error(by_numpy, other)
        else:
            assert type(other) is float
            assert by_numpy == other or (np.isnan(by_numpy) and np.isnan(other))


def test_both_energy_branches_agree_on_edge_segments():
    chan = channel(0.0)
    cases = [
        ([0.0, 0.01, 0.02], [0.0, 0.0, 0.0], 0.0),  # nothing sent
        # a -1e-6-bit segment is not a drop, and sends nothing
        ([0.0, 0.01, 0.02], [0.0, 1e-6, 0.0], schedule_energy([0.0, 0.01], [0.0, 1e-6], chan)),
        ([0.0, 0.01, 0.01, 0.02], [0.0, 1e4, 2e4, 3e4], np.inf),  # bits in no time
        ([0.0, 0.01, 0.02], [0.0, 1e4, 1e12], np.inf),  # rate past expm1's overflow
        ([0.0, 0.01, 0.02], [0.0, 1e-6, -1e-6], ValueError),
        ([0.0, np.nan, 0.02], [0.0, 1e4, 2e4], np.nan),  # a NaN duration makes the sum NaN
        # at 1.2e10 bits one ulp is 1.9e-6 bits: a drop of an ulp is rounding,
        # one of 1e-4 bits is a decrease
        ([0.0, 1e4, 2e4], [0.0, 1.2e10, 1.2e10 - 2**-19], schedule_energy([0.0, 1e4], [0.0, 1.2e10], chan)),
        ([0.0, 1e4, 2e4], [0.0, 1.2e10, 1.2e10 - 1e-4], ValueError),
    ]
    for times, cum, want in cases:
        by_numpy, by_lists = _by_each_branch(schedule_energy, np.array(times), np.array(cum), chan)
        if want is ValueError:
            assert isinstance(by_numpy, ValueError) and _same_error(by_numpy, by_lists)
        elif np.isnan(want):
            assert np.isnan(by_numpy) and np.isnan(by_lists)
        else:
            assert by_numpy == by_lists == want


def test_both_energy_branches_price_a_power_past_dbl_max_as_inf():
    # a rate expm1 still takes, whose power overflows: inf, with no overflow warning
    faint = ChannelParams(1e-300, 1e6, 1e-10)
    times, cum = np.array([0.0, 0.01, 0.02]), np.array([0.0, 1e4, 2e6])
    assert _by_each_branch(schedule_energy, times, cum, faint) == [np.inf] * 2


PROFILE_ATTRIBUTES = (
    "helper_hz", "cycles_per_bit", "durations", "idle", "boundaries", "cum_bits", "rate", "last_idle_index", "capacity",
)


def _same_profile_as_eager(epochs, horizon):
    """``build_profile`` of ``epochs`` refuses them as the eager oracle does,
    or reads its arrays byte for byte and its lists, ``parts`` and scalars
    to the last bit and type. Returns the profile, or None."""
    try:
        eager = eager_build_profile(epochs, 5e9, 500.0, horizon)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            build_profile(epochs, 5e9, 500.0, horizon)
        assert str(refused.value) == str(exc)
        return None
    prof = build_profile(epochs, 5e9, 500.0, horizon)
    arrays = (eager.durations, eager.idle, eager.boundaries, eager.cum_bits)
    assert repr(prof.lists) == repr(tuple(a.tolist() for a in arrays))
    assert repr(prof.parts) == repr(eager.parts)
    for name in PROFILE_ATTRIBUTES:
        got, want = getattr(prof, name), getattr(eager, name)
        assert same_array(got, want) if isinstance(want, np.ndarray) else repr(got) == repr(want), name
    return prof


def test_profile_build_checks_the_horizon_on_the_eager_sum():
    # the horizon check reads the correctly rounded sum of the durations,
    # which the running sums of the boundaries can miss by a few ulps: at
    # each horizon a few ulps either side of both edges of the tolerance the
    # build accepts or refuses the epochs as the eager build does, and some
    # of them a check on the running sum would decide the other way
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    split = 0
    for scale in (1e-1, 1e4):
        for n in (3, 7, 9, 40, 300):
            durations = (scale / n * rng.uniform(0.5, 1.5, n)).tolist()
            epochs = [Epoch(d, k % 3 != 0) for k, d in enumerate(durations)]  # some neighbours merge
            merged = [ep.duration for ep in normalize_epochs(epochs)]
            rounded, running = fsum(merged), sum(merged)
            for total in (rounded, running):
                tol = max(TIME_ATOL, n * eps * total)
                for edge in (total - tol, total + tol):
                    for ulps in range(-4, 5):
                        horizon = edge + ulps * np.spacing(edge)
                        accepted = _same_profile_as_eager(epochs, horizon) is not None
                        split += accepted == (abs(running - horizon) > max(TIME_ATOL, n * eps * running))
    assert split > 0


def _tunnel_arrays(t):
    if isinstance(t, Exception):
        return t
    return (t.kind, t.total, t.buffer_bits, t.corner, t.times, t.floor, t.ceiling, t.cum_capacity, t.arrival_bits)


def _size(capacity, cum_bits, pick):
    """``pick`` of the capacity, or for an integer pick the capacity less
    the curve's value at a boundary, so a crossing falls on that boundary."""
    if isinstance(pick, int):
        return capacity - float(cum_bits[pick % len(cum_bits)])
    return pick * capacity


@settings(max_examples=150)
@given(
    durations=st.lists(st.floats(1e-3, 3e-2), min_size=1, max_size=40),
    idle_first=st.booleans(),
    scale_exp=st.integers(-3, 6),
    size_pick=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.integers(0, 40)),
    buffer_pick=st.one_of(st.just(np.inf), st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.5), st.integers(0, 40)),
)
def test_both_branches_build_the_same_one_shot_tunnels(durations, idle_first, scale_exp, size_pick, buffer_pick):
    # long horizons make a crossing's time round by more than the vertex
    # tolerance, so one placed on a boundary can land just past it
    durations = np.array(durations) * 10.0**scale_exp
    epochs = [Epoch(d, (i % 2 == 0) == idle_first) for i, d in enumerate(durations)]
    prof = _same_profile_as_eager(epochs, float(durations.sum()))
    size = _size(prof.capacity, prof.cum_bits, size_pick)
    if isinstance(buffer_pick, int):
        buffer_bits = _size(prof.capacity, prof.cum_bits, buffer_pick)
    else:
        buffer_bits = buffer_pick * size if np.isfinite(buffer_pick) else np.inf
    for build, args in (
        (full_utilization_tunnel, (prof, buffer_bits)),
        (effective_tunnel, (prof, size, buffer_bits if buffer_bits >= size else np.inf)),
        (lazy_first_tunnel, (prof, size, buffer_bits)),
        (proportional_tunnel, (prof, size, buffer_bits)),
    ):
        _same_as_eager(build, *args)
    _same_zero_solution(prof, buffer_bits)


def test_both_branches_value_a_crossing_rounded_past_its_boundary():
    # over this ~82000 s profile the slack level equal to the capacity at
    # boundary 3 is reached, after rounding, 7.3e-12 s past that boundary: the
    # crossing becomes a vertex on the busy piece after it, so its value is
    # the flat capacity there, not the idle piece's line extended
    durations = [18134.047392586435, 13192.552050035156, 9584.271110297668, 19371.84142550097, 21887.206919601784]
    epochs = [Epoch(d, i % 2 == 0) for i, d in enumerate(durations)]
    prof = build_profile(epochs, 5e9, 500.0, float(np.sum(durations)))
    size = prof.capacity - float(prof.cum_bits[3])
    by_numpy, by_lists = _by_each_branch(effective_tunnel, prof, size)
    assert len(by_numpy.times) == len(prof.boundaries) + 1
    for a, b in zip(_tunnel_arrays(by_numpy)[3:], _tunnel_arrays(by_lists)[3:]):
        assert np.array_equal(a, b)


def test_both_branches_add_no_vertex_where_the_curve_stops_rising():
    # with no buffer the buffer level is the whole capacity, which this
    # ~66000 s profile reaches, after rounding, 7.3e-12 s past its last rising
    # boundary; the tunnel still ends on that boundary
    durations = [9523.803423262169, 23261.915829520734, 17549.858789925474, 3721.5094495658805, 12350.032362835262]
    epochs = [Epoch(d, i % 2 == 1) for i, d in enumerate(durations)]
    prof = build_profile(epochs, 5e9, 500.0, float(np.sum(durations)))
    by_numpy, by_lists = _by_each_branch(full_utilization_tunnel, prof, 0.0)
    assert len(by_numpy.times) == prof.last_idle_index + 2
    for a, b in zip(_tunnel_arrays(by_numpy), _tunnel_arrays(by_lists)):
        assert np.array_equal(a, b)


def test_both_branches_reject_times_that_do_not_rise():
    for times in ([0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]):
        t = np.array(times)
        by_numpy, by_lists = _by_each_branch(FeasibilityTunnel, "x", t, t, t, 3.0, t, t, np.inf)
        assert isinstance(by_numpy, ValueError) and _same_error(by_numpy, by_lists)


@st.composite
def chunked_instances(draw):
    """A profile of 1-40 epochs at a time scale of 1e-3 to 1e4, and up to 60
    chunks, each anywhere in the window, after the last idle instant, or
    within half the vertex tolerance of an epoch edge; up to three chunks are
    then emptied, which ``from_events`` alone never leaves."""
    scale = 10.0 ** draw(st.integers(-3, 4))
    n = draw(st.integers(1, 40))
    durations = scale * np.array(draw(st.lists(st.floats(1e-3, 3e-2), min_size=n, max_size=n)))
    idle_first = draw(st.booleans())
    epochs = [Epoch(d, (i % 2 == 0) == idle_first) for i, d in enumerate(durations)]
    prof = _same_profile_as_eager(epochs, float(durations.sum()))
    edges, end = prof.boundaries, prof.idle_end or 0.0
    at = st.one_of(
        st.floats(0.0, 1.0).map(lambda u: u * prof.horizon),
        st.floats(0.0, 1.0).map(lambda u: end + u * (prof.horizon - end)),
        st.tuples(st.integers(0, 40), st.sampled_from([-0.5, 0.0, 0.5])).map(
            lambda p: max(edges[p[0] % len(edges)] + p[1] * TIME_ATOL, 0.0)
        ),
    )
    m = draw(st.integers(0, 60))
    times = [t for t in draw(st.lists(at, min_size=m, max_size=m)) if t < prof.horizon - 2 * TIME_ATOL]
    sizes = draw(st.lists(st.floats(0.0, 1e5 * scale), min_size=len(times), max_size=len(times)))
    arr = ArrivalProcess.from_events(zip(times, sizes), prof.horizon)
    emptied = arr.sizes.copy()
    for k in draw(st.lists(st.integers(0, 40), max_size=3)):
        emptied[k % len(emptied)] = 0.0
    arr = ArrivalProcess(arr.times, emptied, arr.horizon)
    ratio = draw(st.one_of(st.sampled_from([0.0, 1.0, "max"]), st.floats(0.0, 1.0)))
    if ratio == "max":
        ratio = min(max_offload_ratio(prof, arr), 1.0)
    return prof, arr, ratio


def _same_chunked_tunnels(prof, arr, ratio):
    """Both branches build the chunked and local-CPU tunnels of the eager
    oracle, and data arriving at or after the last idle instant lifts the
    floor's end to the total plus its offloaded share when that is the
    higher. The timeline is the eager merge's, byte for byte."""
    tl = merge_events(prof, arr)
    times, bits, values, idle_end_index = eager_merge_events(prof, arr)
    assert same_array(tl.times, times)
    assert same_array(tl.arrival_bits, bits)
    assert same_array(tl.cum_capacity, values)
    assert tl.idle_end_index == idle_end_index
    for build, args in (
        (bursty_effective_tunnel, (prof, arr, ratio, tl)),
        (bursty_tunnel, (prof, arr, ratio, tl)),
        (local_compute_tunnel, (arr, LOCAL, ratio)),
    ):
        tunnel = _same_as_eager(build, *args)
        if tunnel is None or build is local_compute_tunnel:
            continue
        total = tunnel.total
        lift = ratio * fsum(tl.lists[1][tl.idle_end_index :])
        slack = prof.capacity - total if build is bursty_effective_tunnel else 0.0
        end = total if slack > 0.0 else max(prof.capacity - slack, 0.0)
        want = max(end, total + lift) if lift > bits_tol(total) else end
        assert tunnel.floor[-1] == want, build.__name__


@settings(max_examples=200)
@given(instance=chunked_instances())
def test_both_branches_build_the_same_chunked_tunnels(instance):
    _same_chunked_tunnels(*instance)


def test_both_branches_build_the_same_long_chunked_tunnels():
    # about 3300 epochs and 1000 chunks over a 10 s window
    epochs = sample_cpu_process(3, 10.0, 0.003, 0.003)
    prof = build_profile(epochs, 5e9, 500.0, 10.0)
    arr = sample_arrivals(4, 10.0, 0.01, 1e3, 1e4)
    assert len(merge_events(prof, arr).times) > 4000
    for ratio in (0.3, min(max_offload_ratio(prof, arr), 1.0)):
        _same_chunked_tunnels(prof, arr, ratio)


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    load_frac=st.one_of(st.floats(0.05, 1.0), st.floats(1.0, 1.4)),
    gain_exp=st.floats(-2.0, 2.0),
)
def test_a_whole_split_solve_is_the_same_on_both_sides_of_the_size_switch(seed, load_frac, gain_exp):
    # about 100 epochs over 1 s, so the real switch sends every tunnel,
    # string and energy of the search through numpy; loads above the
    # helper's capacity leave the local CPU a forced share
    prof = build_profile(sample_cpu_process(seed, 1.0, 0.01, 0.01), 5e9, 500.0, 1.0)
    assume(prof.capacity > 0.0)
    load = load_frac * prof.capacity
    solves = []
    for span in (None, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            if span is not None:
                for name, module in list(sys.modules.items()):
                    if name.startswith("offloadsim.") and hasattr(module, "_SHORT_SPAN"):
                        mp.setattr(module, "_SHORT_SPAN", span)
            try:
                res = optimize_partition(prof, channel(gain_exp), LOCAL, load)
            except InfeasibleError as exc:
                solves.append(repr(exc))
                continue
        assert len(res.tunnel.lists[0]) - 2 >= 24 or res.method != "search"
        solves.append(repr((res.energy, res.offload_bits, res.method, res.schedule.lists, res.tunnel.lists)))
    assert solves[0] == solves[1]


def _slope_magnitude(schedule, chan, d_floor, d_ceiling, d_total) -> float:
    """Sum of the magnitudes that the multiplier sum of ``energy_slope``
    over ``schedule`` adds up: each multiplier's two marginal powers times
    its vertex's slope, and the last marginal power times the total's.
    Rounding moves the slope by a few ulps of each, whatever cancels."""
    m = chan.marginal_energy_per_bit(schedule.rates)
    d = np.where(m[:-1] >= m[1:], np.asarray(d_floor)[1:-1], np.asarray(d_ceiling)[1:-1])
    return float(((m[:-1] + m[1:]) * np.abs(d)).sum() + m[-1] * abs(d_total))


def _agree_to_rounding(by_numpy, by_lists, n, magnitude):
    """The two slope branches agree within ``8 n eps`` of the magnitude of
    what they add, the bound of an n-term float64 sum with a few ulps of
    error in each term (Higham, ch. 3); an error or a NaN on both sides."""
    if isinstance(by_numpy, Exception):
        assert _same_error(by_numpy, by_lists)
    elif np.isnan(by_numpy):
        assert np.isnan(by_lists)
    else:
        assert by_numpy == by_lists or abs(by_numpy - by_lists) <= 8 * n * np.finfo(float).eps * magnitude


@settings(max_examples=100)
@given(
    durations=st.lists(st.floats(1e-3, 3e-2), min_size=1, max_size=40),
    idle_first=st.booleans(),
    size_frac=st.floats(0.0, 1.0),
    buffer_frac=st.floats(0.0, 1.0),
    gain_exp=st.floats(-2.0, 2.0),
)
def test_both_branches_read_the_same_split_slopes(durations, idle_first, size_frac, buffer_frac, gain_exp):
    # the slope of a transfer above its buffer (a proportional or full
    # tunnel's string) and of the full string scaled to a size, in Python
    # floats and with numpy
    epochs = [Epoch(d, (i % 2 == 0) == idle_first) for i, d in enumerate(durations)]
    prof = build_profile(epochs, 5e9, 500.0, float(np.sum(durations)))
    size = size_frac * prof.capacity
    assume(size > bits_tol(prof.capacity))
    chan = channel(gain_exp)
    schedule, tunnel = min_energy_offload(prof, size, buffer_frac * size)
    n = len(schedule.lists[0])
    share = tunnel.floor / tunnel.total
    magnitude = _slope_magnitude(schedule, chan, share, np.where(tunnel.ceiling >= tunnel.total, 1.0, share), 1.0)
    _agree_to_rounding(*_by_each_branch(energy_slope, schedule, tunnel, chan), n, magnitude)
    full = pull_string(full_utilization_tunnel(prof, np.inf))
    s = size / full.total
    magnitude = float((chan.marginal_energy_per_bit(s * full.rates) * full.bits).sum()) / full.total
    _agree_to_rounding(*_by_each_branch(_scaled_slope, full, chan, size), len(full.lists[0]), magnitude)


@settings(max_examples=100)
@given(instance=chunked_instances(), gain_exp=st.floats(-2.0, 2.0))
def test_both_branches_read_the_same_share_slope(instance, gain_exp):
    prof, arr, ratio = instance
    tl = merge_events(prof, arr)
    chan = channel(gain_exp)
    by_numpy, by_lists = _by_each_branch(_share_slope, prof, arr, chan, LOCAL, tl, ratio)
    n, magnitude = 1, arr.total * LOCAL.bit_energy
    if ratio * arr.total > bits_tol(arr.total) and not isinstance(by_numpy, Exception):
        schedule, tunnel = min_energy_offload_bursty(prof, arr, ratio, tl)
        served = float(tl.arrival_bits[: tl.idle_end_index].sum())
        d_floor = np.where(tunnel.floor > 0.0, served, 0.0)
        n = len(schedule.lists[0])
        magnitude += _slope_magnitude(schedule, chan, d_floor, tunnel.ceiling / ratio, served)
    _agree_to_rounding(by_numpy, by_lists, n, magnitude)


_SIZE_FAMILIES = {"effective": effective_tunnel, "lazy": lazy_first_tunnel, "proportional": proportional_tunnel}


def _corner_sum(schedule, tunnel, chan):
    """The multiplier sum of a slack family's string (both branches) with
    every envelope past the corner moving with the total, plus the corner's
    time term, and the magnitude of what they add up."""
    floor, ceiling = tunnel.lists[1:3]
    n = len(floor) - 1
    c = n if tunnel.corner is None else tunnel.corner
    d_floor = [1.0 if k > c else 0.0 for k in range(n + 1)]
    d_ceiling = [1.0 if k > c or ceiling[k] >= tunnel.total else 0.0 for k in range(n + 1)]
    magnitude = _slope_magnitude(schedule, chan, d_floor, d_ceiling, 1.0)
    time_term = 0.0
    if 0 < c < n:  # h(r) = p(r) - r p'(r) on each side of the corner, which moves by -1/rate
        r = schedule.rates[c - 1 : c + 1]
        h = chan.rate_to_power(r) - r * chan.marginal_energy_per_bit(r)
        time_term = float(h[1] - h[0]) / tunnel.rate
        magnitude += float(np.abs(h).sum()) / tunnel.rate
    sums = _by_each_branch(string_pull._multiplier_sum, schedule, chan, d_floor, d_ceiling, 1.0)
    return [s + time_term for s in sums], magnitude


@pytest.mark.parametrize("family", [*_SIZE_FAMILIES, "full", "bursty-effective"])
@settings(max_examples=40)
@given(
    durations=st.lists(st.floats(1e-3, 3e-2), min_size=1, max_size=40),
    idle_first=st.booleans(),
    frac=st.floats(0.05, 0.95),
    buffer_frac=st.floats(0.0, 0.999),
    gain_exp=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_energy_slope_matches_central_differences_on_every_family(
    family, durations, idle_first, frac, buffer_frac, gain_exp, seed
):
    # away from kinks, the slope read off one string in the family's own
    # parameter (a size, the capacity of a full tunnel, or a share) matches
    # a central difference of the pulled energy, on both size branches
    epochs = [Epoch(d, (i % 2 == 0) == idle_first) for i, d in enumerate(durations)]
    horizon = float(np.sum(durations))
    prof = build_profile(epochs, 5e9, 500.0, horizon)
    assume(prof.capacity > 1e3)
    if family == "bursty-effective":
        arr = sample_arrivals(seed, horizon, horizon / 8, 5e4, 1.5e5)
        tl = merge_events(prof, arr)
        x = frac * min(max_offload_ratio(prof, arr), 1.0)
        assume(x * arr.total > 1e3)

        def tunnel_at(r):
            return bursty_effective_tunnel(prof, arr, r, tl)

    elif family == "full":  # the capacity moves with the helper's clock
        x, buffer_bits = prof.capacity, buffer_frac * prof.capacity

        def tunnel_at(cap):
            return full_utilization_tunnel(build_profile(epochs, 5e9 * cap / x, 500.0, horizon), buffer_bits)

    else:
        x = frac * prof.capacity
        buffer_bits = np.inf if family == "effective" else buffer_frac * x

        def tunnel_at(l):
            return _SIZE_FAMILIES[family](prof, l, buffer_bits)

    chan = channel(gain_exp)
    tunnel = tunnel_at(x)
    schedule = pull_string(tunnel)
    e, delta = schedule.energy(chan), 1e-6 * x
    ahead = (pull_string(tunnel_at(x + delta)).energy(chan) - e) / delta
    behind = (e - pull_string(tunnel_at(x - delta)).energy(chan)) / delta
    mid = 0.5 * (ahead + behind)
    if abs(ahead - behind) <= 1e-4 * abs(mid):  # no kink within delta
        for slope in _by_each_branch(energy_slope, schedule, tunnel, chan):
            assert slope == pytest.approx(mid, rel=1e-6), family
    if family in ("effective", "lazy"):
        # the closed form is the telescoped multiplier sum plus the corner's time term
        closed = energy_slope(schedule, tunnel, chan)
        sums, magnitude = _corner_sum(schedule, tunnel, chan)
        for general in sums:
            _agree_to_rounding(closed, general, len(schedule.lists[0]), magnitude)


def _verdict(schedule, tunnel):
    """Whether ``schedule`` takes the tunnel, which it checks as float lists
    (``_fits``), not with ``is_feasible``; a refusal must carry the tunnel's
    deficit."""
    try:
        schedule(tunnel)
    except InfeasibleError as exc:
        assert exc.deficit == tunnel.deficit
        return False
    return True


def test_both_feasibility_checks_read_ties_alike():
    # with total 0 the tolerance is exactly 1e-6 and every push below is exact
    times = np.arange(3.0)
    push = bits_tol(0.0)
    for envelope, k, by, feasible in (
        ("floor", 0, push, True),
        ("ceiling", 0, push, True),
        ("floor", 0, 2 * push, False),
        ("floor", -1, push, True),
        ("ceiling", -1, -push, True),
        ("ceiling", -1, -2 * push, False),
        ("floor", 1, push, True),  # floor over ceiling by exactly the tolerance
        ("floor", 1, 2 * push, False),
    ):
        env = {"floor": np.zeros(3), "ceiling": np.zeros(3)}
        env[envelope][k] += by
        tunnel = FeasibilityTunnel("tie", times, env["floor"], env["ceiling"], 0.0, np.zeros(3), np.zeros(3), np.inf)
        assert tunnel.is_feasible() == feasible, (envelope, k, by)
        assert _verdict(pull_string, tunnel) == feasible, (envelope, k, by)


def test_the_pull_reads_ties_alike_on_each_branch():
    # the cases above, with the pull's check also on the arrays a long tunnel keeps
    assert _by_each_branch(test_both_feasibility_checks_read_ties_alike) == [None, None]


@st.composite
def perturbed_corridors(draw):
    """A corridor, feasible or pushed out of feasibility at its start, its
    end, an interior vertex or its total, by a few multiples of the tolerance
    or less."""
    t = draw(corridors())
    floor, ceiling, total = t.floor.copy(), t.ceiling.copy(), t.total
    push = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0, 1e3])) * bits_tol(total)
    where = draw(st.sampled_from(["none", "start", "end", "cross", "total"]))
    if where == "start":
        draw(st.sampled_from([floor, ceiling]))[0] += push
    elif where == "end":
        draw(st.sampled_from([floor, ceiling]))[-1] -= push
    elif where == "cross":
        k = draw(st.integers(1, len(floor) - 2))
        floor[k] = ceiling[k] + push
    elif where == "total":
        total += draw(st.sampled_from([-1.0, 1.0])) * push
    return FeasibilityTunnel("corridor", t.times, floor, ceiling, total, floor.copy(), t.arrival_bits, np.inf)


@settings(max_examples=200)
@given(tunnel=perturbed_corridors())
def test_both_feasibility_checks_give_the_same_verdict(tunnel):
    for schedule in (pull_string, floor_following_schedule):
        assert _verdict(schedule, tunnel) == tunnel.is_feasible()


@settings(max_examples=200)
@given(tunnel=perturbed_corridors())
def test_the_pull_gives_the_same_verdict_on_each_branch(tunnel):
    assert _by_each_branch(_verdict, pull_string, tunnel) == [tunnel.is_feasible()] * 2
