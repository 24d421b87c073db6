"""Property tests over generated inputs, derandomized so every run draws the
same examples and bounded so the suite stays fast."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from offloadsim import string_pull
from offloadsim.cpu_profile import Epoch, build_profile
from offloadsim.energy import ChannelParams, LocalComputeParams
from offloadsim.partition import optimize_partition, partition_bounds
from offloadsim.string_pull import _taut_values, offload_energy, pull_string
from offloadsim.tunnel import FeasibilityTunnel, proportional_tunnel

from convex_reference import convex_reference_schedule

LOCAL = LocalComputeParams(1e9, 500.0, 1e-28)
PROPERTY = settings(derandomize=True, deadline=None, database=None)


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


@settings(PROPERTY, max_examples=50)
@given(tunnel=corridors(), gain_exp=st.floats(-2.0, 2.0))
def test_taut_string_matches_convex_reference_on_corridors(tunnel, gain_exp):
    assume(tunnel.total > 1.0)
    chan = channel(gain_exp)
    taut = pull_string(tunnel).energy(chan)
    ref = convex_reference_schedule(tunnel, chan).energy(chan)
    assert taut <= ref * (1 + 1e-9)
    assert abs(taut - ref) <= 1e-6 * taut


@settings(PROPERTY, max_examples=20)
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


@settings(PROPERTY, max_examples=40)
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


def _pulled_by_each_scan(pull, *args):
    """``pull(*args)`` with every chord scanned by numpy slices, then by the
    Python loop."""
    out = []
    for span in (0, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(string_pull, "_SHORT_SPAN", span)
            out.append(pull(*args))
    return out


@settings(PROPERTY, max_examples=50)
@given(tunnel=corridors())
def test_both_chord_scans_pull_the_same_string(tunnel):
    by_numpy, by_loop = _pulled_by_each_scan(pull_string, tunnel)
    assert np.array_equal(by_numpy.cumulative, by_loop.cumulative)


def test_both_chord_scans_break_ties_alike():
    times = np.arange(5.0)
    # chord y = t; vertices 2 and 3 breach it by 4 each, and the earliest is
    # fixed first (the rule shows only where the envelopes cross)
    floor = np.array([0.0, 0.0, 6.0, 7.0, 4.0])
    ceiling = np.array([0.0, 5.0, 2.0, 3.0, 4.0])
    for y in _pulled_by_each_scan(_taut_values, times, floor, ceiling, 0.0):
        assert np.array_equal(y, [0.0, 3.0, 6.0, 7.0, 4.0])
    # vertex 1 is 0.5 under its floor and 0.5 over its ceiling: the floor wins
    times = np.arange(3.0)
    for y in _pulled_by_each_scan(_taut_values, times, np.array([0.0, 1.5, 2.0]), np.array([0.0, 0.5, 2.0]), 0.0):
        assert np.array_equal(y, [0.0, 1.5, 2.0])
    # a breach of exactly the tolerance leaves the chord straight
    for y in _pulled_by_each_scan(_taut_values, times, np.array([0.0, 1.25, 2.0]), np.array([0.0, 2.0, 2.0]), 0.25):
        assert np.array_equal(y, [0.0, 1.0, 2.0])
