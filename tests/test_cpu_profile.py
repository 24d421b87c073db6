import numpy as np
import pytest

from offloadsim.cpu_profile import (
    ArrivalProcess,
    Epoch,
    build_profile,
    merge_events,
    parse_arrivals,
    parse_epochs,
    sample_arrivals,
    sample_cpu_process,
)
from oracles import normalize_epochs

HELPER_HZ = 5e9
CPB = 500.0  # cycles per bit, so the idle rate is 1e7 bits/s


def three_epoch_profile():
    epochs = [Epoch(0.05, True), Epoch(0.03, False), Epoch(0.02, True)]
    return build_profile(epochs, HELPER_HZ, CPB, 0.1)


def test_normalize_merges_adjacent_same_state():
    eps = normalize_epochs([Epoch(0.01, True), Epoch(0.02, True), Epoch(0.03, False)])
    assert len(eps) == 2
    assert eps[0] == Epoch(0.03, True)
    assert eps[1] == Epoch(0.03, False)
    # idempotent
    assert normalize_epochs(eps) == eps


def test_normalize_rejects_bad_epochs():
    with pytest.raises(ValueError):
        normalize_epochs([])
    with pytest.raises(ValueError):
        normalize_epochs([Epoch(0.0, True)])
    with pytest.raises(ValueError):
        normalize_epochs([Epoch(-0.01, False)])
    with pytest.raises(ValueError):
        normalize_epochs([Epoch(float("nan"), True)])


def test_build_profile_capacity_curve():
    prof = three_epoch_profile()
    assert prof.horizon == 0.1
    assert prof.rate == 1e7
    assert np.allclose(prof.boundaries, [0.0, 0.05, 0.08, 0.1])
    assert np.allclose(prof.cum_bits, [0.0, 5e5, 5e5, 7e5])
    assert prof.capacity == 7e5
    assert prof.capacity_at(0.0) == 0.0
    assert prof.capacity_at(0.06) == 5e5
    assert prof.capacity_at(0.09) == pytest.approx(6e5, abs=1e-6)
    assert prof.capacity_at(0.1) == 7e5


def test_capacity_at_rejects_times_outside_window():
    prof = three_epoch_profile()
    with pytest.raises(ValueError):
        prof.capacity_at(-0.01)
    with pytest.raises(ValueError):
        prof.capacity_at(0.1001)


def capacity_by_epoch(prof, t):
    """Reference: walk to t's epoch and add the idle slope on idle epochs."""
    b = prof.boundaries
    if t >= b[-1]:
        return float(prof.cum_bits[-1])
    if t <= 0.0:
        return 0.0
    k = int(np.searchsorted(b, t, side="right")) - 1
    base = float(prof.cum_bits[k])
    if prof.idle[k]:
        base += (t - float(b[k])) * prof.rate
    return base


def test_capacity_at_array_matches_scalar_calls():
    rng = np.random.default_rng(31)
    for _ in range(50):
        eps = sample_cpu_process(rng, 0.1, 0.02, 0.02)
        prof = build_profile(eps, HELPER_HZ, CPB, 0.1)
        ts = np.concatenate((
            [0.0, -1e-13, 0.1, 0.1 + 1e-13],
            prof.boundaries,
            rng.uniform(0.0, 0.1, size=40),
        ))
        values = prof.capacity_at(ts)
        assert values.shape == ts.shape
        scalars = np.array([prof.capacity_at(float(t)) for t in ts])
        assert values.tobytes() == scalars.tobytes()
        by_epoch = np.array([capacity_by_epoch(prof, float(t)) for t in ts])
        assert values.tobytes() == by_epoch.tobytes()
    with pytest.raises(ValueError):
        prof.capacity_at(np.array([0.05, 0.2]))


def test_build_profile_rejects_bad_rate_by_name():
    epochs = [Epoch(0.05, True), Epoch(0.05, False)]
    for bad in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="helper_hz"):
            build_profile(epochs, bad, CPB, 0.1)
        with pytest.raises(ValueError, match="cycles_per_bit"):
            build_profile(epochs, HELPER_HZ, bad, 0.1)
        # a NaN horizon would pass the check against the durations' sum
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            build_profile(epochs, HELPER_HZ, CPB, bad)


def test_build_profile_rejects_horizon_mismatch():
    with pytest.raises(ValueError):
        build_profile([Epoch(0.05, True)], HELPER_HZ, CPB, 0.1)
    with pytest.raises(ValueError):
        build_profile([Epoch(0.05, True)], 0.0, CPB, 0.05)


def test_samplers_reject_non_finite_or_non_positive_inputs_by_name():
    # a NaN passes a ``<= 0`` check, and a sampler given a NaN or infinite
    # horizon or mean never reaches the end of its window
    for bad in (np.nan, np.inf, 0.0):
        for field, args in (
            ("horizon", (bad, 0.02, 0.02)),
            ("mean_idle", (0.1, bad, 0.02)),
            ("mean_busy", (0.1, 0.02, bad)),
        ):
            with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
                sample_cpu_process(1, *args)
        for field, args in (("horizon", (bad, 0.02)), ("mean_interarrival", (0.1, bad))):
            with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
                sample_arrivals(1, *args, 5e4, 1.5e5)


def test_idle_bookkeeping():
    prof = three_epoch_profile()
    assert prof.idle_end == 0.1
    trail_busy = build_profile(
        [Epoch(0.06, True), Epoch(0.04, False)], HELPER_HZ, CPB, 0.1
    )
    assert trail_busy.idle_end == pytest.approx(0.06)
    never = build_profile([Epoch(0.1, False)], HELPER_HZ, CPB, 0.1)
    assert never.idle_end is None
    assert never.capacity == 0.0


def test_sample_cpu_process_shape_and_determinism():
    rng_draws = sample_cpu_process(42, 0.1, 0.02, 0.02)
    again = sample_cpu_process(42, 0.1, 0.02, 0.02)
    assert again == rng_draws
    total = sum(ep.duration for ep in rng_draws)
    assert total == pytest.approx(0.1, abs=1e-12)
    for a, b in zip(rng_draws, rng_draws[1:]):
        assert a.idle != b.idle  # alternating after normalization
    other = sample_cpu_process(43, 0.1, 0.02, 0.02)
    assert other != rng_draws


def test_samplers_reproduce_recorded_draws():
    # values these seeds gave before the samplers shared their loops with the harness
    eps = sample_cpu_process(42, 0.1, 0.02, 0.02)
    assert [(ep.duration, ep.idle) for ep in eps] == [
        (0.04672379311648907, False),
        (0.0476952199974851, True),
        (0.005580986886025846, False),
    ]
    arr = sample_arrivals(11, 0.1, 0.02, 5e4, 1.5e5)
    assert arr.times.tolist() == [
        0.004591848626348808, 0.02704000225035579, 0.02937168972907718, 0.030799826934330272,
        0.0366383619299126, 0.043559550978091874, 0.06388395499588094, 0.09329390043467266, 0.1,
    ]
    assert arr.sizes.tolist() == [
        99927.7862440115, 52868.90083719445, 142821.10229603696, 62977.3949399298,
        86899.3123729791, 116284.29525167993, 63796.80728669553, 117036.05841024838, 0.0,
    ]


def test_sample_cpu_process_mean_durations():
    # one long trajectory gives tens of thousands of exponential draws
    eps = sample_cpu_process(7, 2000.0, 0.02, 0.05)
    idle = [ep.duration for ep in eps[1:-1] if ep.idle]
    busy = [ep.duration for ep in eps[1:-1] if not ep.idle]
    assert len(idle) > 1e4 and len(busy) > 1e4
    assert abs(np.mean(idle) - 0.02) < 0.05 * 0.02
    assert abs(np.mean(busy) - 0.05) < 0.05 * 0.05


def test_sample_cpu_process_idle_start_prob():
    starts = [sample_cpu_process((1000 + i), 0.1, 0.02, 0.02, 0.8)[0].idle for i in range(400)]
    frac = np.mean(starts)
    assert 0.7 < frac < 0.9
    all_idle = sample_cpu_process(5, 0.1, 0.02, 0.02, 1.0)
    assert all_idle[0].idle


def test_arrival_process_from_events():
    arr = ArrivalProcess.from_events([(0.04, 2e5), (0.0, 1e5), (0.04, 5e4)], 0.1)
    assert np.allclose(arr.times, [0.0, 0.04, 0.1])
    assert np.allclose(arr.sizes, [1e5, 2.5e5, 0.0])  # coincident chunks merge
    assert arr.total == pytest.approx(3.5e5)
    with pytest.raises(ValueError):
        ArrivalProcess.from_events([(0.1, 100.0)], 0.1)  # at the deadline
    with pytest.raises(ValueError):
        ArrivalProcess.from_events([(0.02, -5.0)], 0.1)
    empty = ArrivalProcess.from_events([], 0.1)
    assert empty.total == 0.0
    assert np.allclose(empty.times, [0.1])


def test_arrival_events_reject_non_finite_fields_by_name():
    # a NaN passes "s < 0" and "t > horizon" alike, so each needs its own check
    for events, field in (
        ([(0.0, np.nan), (0.04, 4e5)], "size"),
        ([(0.01, np.inf)], "size"),
        ([(0.02, -np.inf)], "size"),
        ([(np.nan, 4e5)], "time"),
        ([(0.0, 1e5), (np.nan, 0.0)], "time"),
        ([(np.inf, 4e5)], "time"),
    ):
        with pytest.raises(ValueError, match=f"arrival {field}"):
            ArrivalProcess.from_events(events, 0.1)
    for horizon in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="horizon"):
            ArrivalProcess.from_events([(0.0, 1e5)], horizon)


def test_sample_arrivals_ranges_and_mean():
    arr = sample_arrivals(11, 0.1, 0.02, 5e4, 1.5e5)
    assert arr.times[-1] == 0.1
    assert np.all(arr.times[:-1] < 0.1)
    sizes = arr.sizes[arr.sizes > 0]
    assert np.all(sizes >= 5e4) and np.all(sizes <= 1.5e5)
    # long run: interarrival mean within 5 percent
    big = sample_arrivals(13, 3000.0, 0.02, 1.0, 1.0)
    gaps = np.diff(np.concatenate(([0.0], big.times[:-1])))
    assert len(gaps) > 1e4
    assert abs(np.mean(gaps) - 0.02) < 0.05 * 0.02
    assert sample_arrivals(11, 0.1, 0.02, 5e4, 1.5e5).total == arr.total


def test_merge_events_grid_and_totals():
    prof = three_epoch_profile()
    arr = ArrivalProcess.from_events([(0.0, 4e5), (0.04, 4e5)], 0.1)
    tl = merge_events(prof, arr)
    assert tl.times[0] == 0.0 and tl.times[-1] == 0.1
    assert np.all(np.diff(tl.times) > 0)
    for b in (0.04, 0.05, 0.08):
        assert np.any(np.isclose(tl.times, b))
    assert tl.arrival_bits.sum() == pytest.approx(8e5)
    assert tl.arrival_bits[: tl.idle_end_index].sum() == pytest.approx(8e5)
    for t, u in zip(tl.times, tl.cum_capacity):
        assert u == pytest.approx(prof.capacity_at(t), abs=1e-6)
    # chunks after the last idle second are not offloadable
    trail_busy = build_profile([Epoch(0.06, True), Epoch(0.04, False)], HELPER_HZ, CPB, 0.1)
    late = ArrivalProcess.from_events([(0.02, 1e5), (0.07, 2e5)], 0.1)
    tl2 = merge_events(trail_busy, late)
    assert tl2.arrival_bits[: tl2.idle_end_index].sum() == pytest.approx(1e5)


def test_profile_arrival_and_timeline_arrays_are_read_only():
    # their cached views (``parts``, ``lists``, ``total``) could go stale
    prof = three_epoch_profile()
    arr = ArrivalProcess.from_events([(0.0, 4e5), (0.04, 4e5)], 0.1)
    tl = merge_events(prof, arr)
    arrays = (prof.durations, prof.idle, prof.boundaries, prof.cum_bits, arr.times, arr.sizes)
    for a in (*arrays, tl.times, tl.arrival_bits, tl.cum_capacity):
        with pytest.raises(ValueError):
            a[0] = a[-1]


def test_epoch_text_round_trip():
    eps = [Epoch(0.05, True), Epoch(0.03, False), Epoch(0.02, True)]
    back = parse_epochs("# duration_s,state\n0.05,idle\n0.03,busy\n0.02, 1\n")
    assert normalize_epochs(back) == normalize_epochs(eps)
    assert parse_epochs("# comment\n0.1,idle\n") == [Epoch(0.1, True)]
    with pytest.raises(ValueError):
        parse_epochs("0.05,unknown\n")


def test_malformed_record_lines_are_named():
    for text, line, form in (
        ("0.05,idle\n0.05,idle,x\n", "line 2: '0.05,idle,x'", "duration_s,idle|busy"),
        ("# header\n0.0\n", "line 2: '0.0'", "duration_s,idle|busy"),
        ("fast,idle\n", "line 1: 'fast,idle'", "duration_s,idle|busy"),
    ):
        with pytest.raises(ValueError) as err:
            parse_epochs(text)
        assert line in str(err.value) and form in str(err.value), text
    for text, line in (
        ("0.0,4e5\n0.04\n", "line 2: '0.04'"),
        ("0.0,4e5,1\n", "line 1: '0.0,4e5,1'"),
        ("0.0,4e5\n\n0.04,lots  # second\n", "line 3: '0.04,lots  # second'"),
    ):
        with pytest.raises(ValueError) as err:
            parse_arrivals(text, 0.1)
        assert line in str(err.value) and "time_s,bits" in str(err.value), text


def test_arrival_text_round_trip():
    arr = ArrivalProcess.from_events([(0.0, 4e5), (0.04, 4e5)], 0.1)
    back = parse_arrivals("# time_s,bits\n0,4e5\n0.04, 400000  # second chunk\n0.1,0\n", 0.1)
    assert np.allclose(back.times, arr.times)
    assert np.allclose(back.sizes, arr.sizes)
