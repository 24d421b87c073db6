"""Property tests over generated inputs, derandomized so every run draws the
same examples and bounded so the suite stays fast."""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from offloadsim.cpu_profile import Epoch, build_profile
from offloadsim.energy import ChannelParams, LocalComputeParams
from offloadsim.partition import optimize_partition, partition_bounds
from offloadsim.string_pull import offload_energy, pull_string
from offloadsim.tunnel import FeasibilityTunnel

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
