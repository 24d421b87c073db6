import numpy as np
import pytest

from offloadsim.energy import ChannelParams, LocalComputeParams, schedule_energy

from oracles import epoch_energy

# Section-style defaults: 1 MHz band, -70 dBm noise, 60 dB mean attenuation
CHAN = ChannelParams(gain=1e-6, bandwidth_hz=1e6, noise_w=1e-10)
UNIT = ChannelParams(gain=1.0, bandwidth_hz=1e6, noise_w=1e-10)
LOCAL = LocalComputeParams(cpu_hz=1e9, cycles_per_bit=500.0, switched_cap=1e-28)


def test_rate_to_power_pinned_values():
    # at one band-width of rate the exponential term is exactly 2^1 - 1
    assert UNIT.rate_to_power(1e6) == pytest.approx(1e-10)
    assert UNIT.rate_to_power(2e6) == pytest.approx(3e-10)
    assert UNIT.rate_to_power(0.0) == 0.0
    # attenuation scales the needed transmit power up
    assert CHAN.rate_to_power(1e6) == pytest.approx(1e-4)


def test_power_rate_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = rng.uniform(1e4, 2e7)
        p = CHAN.rate_to_power(r)
        # Shannon rate at power p, the closed-form inverse of rate_to_power
        back = CHAN.bandwidth_hz * np.log2(1.0 + p * CHAN.gain / CHAN.noise_w)
        assert back == pytest.approx(r, rel=1e-12)


def test_rate_to_power_is_convex_and_increasing():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a, b = np.sort(rng.uniform(0.0, 1.5e7, size=2))
        mid = 0.5 * (a + b)
        fa, fb = CHAN.rate_to_power(a), CHAN.rate_to_power(b)
        assert CHAN.rate_to_power(mid) <= 0.5 * (fa + fb) * (1 + 1e-12)
        assert fa <= fb


def test_marginal_energy_matches_finite_difference():
    for r in (1e5, 1e6, 5e6, 1.2e7):
        h = 1e-5 * r
        num = (CHAN.rate_to_power(r + h) - CHAN.rate_to_power(r - h)) / (2 * h)
        assert CHAN.marginal_energy_per_bit(r) == pytest.approx(num, rel=1e-6)


def test_energy_per_bit_zero_rate_limit():
    limit = CHAN.noise_w * np.log(2.0) / (CHAN.bandwidth_hz * CHAN.gain)
    assert CHAN.energy_per_bit(0.0) == pytest.approx(limit)
    assert CHAN.energy_per_bit(1e-6) == pytest.approx(limit, rel=1e-9)
    # average J/bit grows with the rate
    assert CHAN.energy_per_bit(1e6) > limit


def test_epoch_energy_pinned_value():
    # 1e4 bits in 10 ms is one band-width of rate: power 1e-4 W for 0.01 s
    assert schedule_energy([0.0, 0.01], [0.0, 1e4], CHAN) == pytest.approx(1e-6, rel=1e-12)
    assert schedule_energy([0.0, 0.01], [0.0, 0.0], CHAN) == 0.0
    assert schedule_energy([0.0, 0.0], [0.0, 100.0], CHAN) == np.inf


def test_channel_rejects_nonpositive_parameters():
    good = dict(gain=1e-6, bandwidth_hz=1e6, noise_w=1e-10)
    for name in good:
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                ChannelParams(**{**good, name: bad})


def test_local_compute_rejects_bad_parameters_by_name():
    good = dict(cpu_hz=1e9, cycles_per_bit=500.0, switched_cap=1e-28)
    for name in good:
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                LocalComputeParams(**{**good, name: bad})


def test_local_compute_energies():
    assert LOCAL.cycle_energy == pytest.approx(1e-10)
    assert LOCAL.bit_energy == pytest.approx(5e-8)
    assert LOCAL.local_energy(7e5) == pytest.approx(0.035)
    assert LOCAL.local_energy(0.0) == 0.0
    with pytest.raises(ValueError):
        LOCAL.local_energy(-1.0)
    assert LOCAL.local_capacity(0.1) == pytest.approx(2e5)
    assert LOCAL.min_offload(7e5, 0.1) == pytest.approx(5e5)
    assert LOCAL.min_offload(1e5, 0.1) == 0.0


def test_schedule_energy_sums_epochs():
    times = np.array([0.0, 0.05, 0.08, 0.1])
    cum = np.array([0.0, 5e5, 6.2e5, 7e5])
    by_hand = sum(
        epoch_energy(CHAN, cum[i + 1] - cum[i], times[i + 1] - times[i])
        for i in range(3)
    )
    assert schedule_energy(times, cum, CHAN) == pytest.approx(by_hand, rel=1e-12)
    with pytest.raises(ValueError):
        schedule_energy(times, np.array([0.0, 5e5, 4e5, 7e5]), CHAN)


def test_schedule_energy_matches_epoch_by_epoch_sum():
    # the vectorized sum adds epochs in order, so it equals the plain loop
    rng = np.random.default_rng(41)
    for _ in range(300):
        n = int(rng.integers(2, 30))
        times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 0.1, n - 1))))
        steps = rng.uniform(0.0, 2e5, n - 1) * (rng.random(n - 1) < 0.7)
        cum = np.concatenate(([0.0], np.cumsum(steps)))
        total = 0.0
        for k in range(n - 1):
            if cum[k + 1] - cum[k] > 0:
                total += epoch_energy(CHAN, cum[k + 1] - cum[k], times[k + 1] - times[k])
        assert schedule_energy(times, cum, CHAN) == total
    assert schedule_energy([0.0, 0.1], [0.0, 0.0], CHAN) == 0.0
    assert schedule_energy([0.0, 0.0, 0.1], [0.0, 5.0, 5.0], CHAN) == np.inf
