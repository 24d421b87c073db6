"""Transmit and compute energy models.

Transmission over a bandwidth-W channel with gain h and noise power N0 costs
``N0 * (2**(r/W) - 1) / h**2`` watts to sustain rate r; the cost of a schedule
is the sum of that power times duration over its constant-rate stretches.
Local computation costs a fixed energy per cycle set by the switched
capacitance and the local CPU frequency.

``schedule_energy`` prices a schedule over fewer than ``_SHORT_SPAN`` interior
vertices on Python float lists, calling numpy only for ``expm1``; a longer one
with array arithmetic. Both do the same float64 operations per segment and
add the segments in order, so they give the same energy bit for bit. It
reads two short lists as they are, which is how ``OffloadSchedule.energy``
passes its own, and makes arrays of anything else, or of longer lists. On a
fresh ``OffloadSchedule`` the arrays overtake the lists near 40 vertices
(``cpu_profile._SHORT_SPAN``); at 106 they take 17.2 us against 38.4.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import expm1, isfinite

import numpy as np

from .cpu_profile import _EPS, _SHORT_SPAN, _check_positive

_LN2 = float(np.log(2.0))
# expm1 cannot overflow below ln(DBL_MAX) = 709.78..., so a short schedule
# whose exponents all stay below this skips np.errstate, which adds about
# 40% to the call: 8.6 vs 6.2 us for a 10-vertex schedule (min of
# 5x5 rounds of 5000 calls, 2-core Xeon, Python 3.11.7, numpy 2.4.6)
_EXPM1_SAFE = 709.0
_POWER_SAFE = 1e307  # a bound on a long schedule's powers, far enough below overflow to round
# A drop of the cumulative curve is a decrease only past 1e-6 bits and past a
# few ulps of the value it drops from: two vertices at one level, computed
# along different paths, can round an ulp apart, which at 1e10 bits is 2e-6
_DROP_ULPS = 4.0


@dataclass(frozen=True)
class ChannelParams:
    """Static link between the user and the helper."""

    gain: float  # squared channel magnitude |h|^2, includes path loss
    bandwidth_hz: float
    noise_w: float  # noise power over the band, watts

    def __post_init__(self):
        _check_positive(gain=self.gain, bandwidth_hz=self.bandwidth_hz, noise_w=self.noise_w)

    def rate_to_power(self, rate):
        """Transmit power (W) needed to sustain ``rate`` bits/s."""
        with np.errstate(over="ignore"):
            return self.noise_w * np.expm1(np.asarray(rate) / self.bandwidth_hz * _LN2) / self.gain

    def marginal_energy_per_bit(self, rate: float) -> float:
        """d(power)/d(rate) at ``rate``: J per extra bit when stretching rate.

        Overflows to ``inf`` once ``rate`` passes about 1024 bandwidths, where
        the power itself does.
        """
        base = self.noise_w * _LN2 / (self.bandwidth_hz * self.gain)
        with np.errstate(over="ignore"):
            return base * 2.0 ** (np.asarray(rate) / self.bandwidth_hz)

    def energy_per_bit(self, rate: float) -> float:
        """Average J/bit at constant ``rate``; limit N0*ln2/(W*h^2) as rate->0."""
        if rate <= 0:
            return float(self.noise_w * _LN2 / (self.bandwidth_hz * self.gain))
        return float(self.rate_to_power(rate)) / rate


@dataclass(frozen=True)
class LocalComputeParams:
    """User-side processor model."""

    cpu_hz: float
    cycles_per_bit: float
    switched_cap: float  # effective switched capacitance, J*s^2

    def __post_init__(self):
        _check_positive(cpu_hz=self.cpu_hz, cycles_per_bit=self.cycles_per_bit, switched_cap=self.switched_cap)
        try:
            finite = isfinite(self.bit_energy)
        except OverflowError:  # a Python float's ** raises where numpy's gives inf
            finite = False
        if not finite:
            raise ValueError(
                "the local energy per bit, switched_cap * cpu_hz**2 * cycles_per_bit, overflows: "
                f"{self.switched_cap} * {self.cpu_hz}**2 * {self.cycles_per_bit}"
            )

    @property
    def cycle_energy(self) -> float:
        """Energy per CPU cycle at the configured frequency."""
        return self.switched_cap * self.cpu_hz**2

    @property
    def bit_energy(self) -> float:
        return self.cycle_energy * self.cycles_per_bit

    def local_energy(self, bits: float) -> float:
        """Energy to compute ``bits`` locally."""
        if bits < 0:
            raise ValueError("bits must be nonnegative")
        return bits * self.bit_energy

    def local_capacity(self, seconds: float) -> float:
        """Bits the local CPU can finish in ``seconds``."""
        return self.cpu_hz * seconds / self.cycles_per_bit

    def min_offload(self, load_bits: float, horizon: float) -> float:
        """Bits that must be offloaded because the local CPU cannot finish them."""
        return max(load_bits - self.local_capacity(horizon), 0.0)


def schedule_energy(times, cumulative, channel: ChannelParams) -> float:
    """Energy of a piecewise-constant-rate schedule given its cumulative curve.

    Two short lists, as ``OffloadSchedule`` keeps them, are read as they
    are; anything else goes through ``np.asarray`` first.
    """
    if type(times) is list and type(cumulative) is list and len(times) == len(cumulative):
        if 0 <= len(times) - 2 < _SHORT_SPAN:
            try:
                return _list_energy(times, cumulative, channel)
            except TypeError:
                pass  # not lists of numbers: priced as arrays, like any other input
    times = np.asarray(times, dtype=float)
    cum = np.asarray(cumulative, dtype=float)
    if times.shape != cum.shape or times.ndim != 1 or len(times) < 2:
        raise ValueError("times and cumulative must be matching 1-D arrays")
    if len(times) - 2 < _SHORT_SPAN:
        return _list_energy(times.tolist(), cum.tolist(), channel)
    bits = cum[1:] - cum[:-1]
    low = bits.min()  # NaN if any segment is
    if not low >= -1e-6:
        drop = bits < -1e-6
        if (bits[drop] < -_DROP_ULPS * _EPS * np.abs(cum[:-1][drop])).any():
            raise ValueError("cumulative curve must be nondecreasing")
    tau = times[1:] - times[:-1]
    if not low > 0:  # some segment sends nothing: price the others
        sent = bits > 0
        if not sent.any():
            return 0.0
        bits, tau = bits[sent], tau[sent]
    if tau.min() <= 0:
        return np.inf  # bits to send in no time
    # rate_to_power's operations, in np.errstate only where they can overflow, as in _list_energy
    noise, gain = float(channel.noise_w), float(channel.gain)  # so the bound below cannot warn
    x = bits / tau / channel.bandwidth_hz * _LN2
    top = x.max()
    if top <= _EXPM1_SAFE and noise * expm1(top) / gain < _POWER_SAFE:
        power = noise * np.expm1(x) / gain
    else:
        with np.errstate(over="ignore"):
            power = noise * np.expm1(x) / gain
    # summed in segment order, so it equals a plain loop adding one segment at a time
    return float((power * tau).cumsum()[-1])


def _list_energy(t: list, c: list, channel: ChannelParams) -> float:
    """``schedule_energy`` on float lists: each sent segment's ``rate_to_power``
    exponent and power in the same operations, summed in segment order."""
    w = channel.bandwidth_hz
    xs, taus, stalled = [], [], []
    for i in range(len(t) - 1):
        b = c[i + 1] - c[i]
        if b > 0:
            d = t[i + 1] - t[i]
            if d > 0:
                xs.append(b / d / w * _LN2)
                taus.append(d)
            else:
                stalled.append(d)
        elif b < -1e-6 and b < -_DROP_ULPS * _EPS * abs(c[i]):
            raise ValueError("cumulative curve must be nondecreasing")
    if stalled:
        # bits to send in no time; a NaN duration makes the array sum NaN instead
        return np.nan if any(d != d for d in stalled) else np.inf
    if not xs:
        return 0.0
    if max(xs) > _EXPM1_SAFE:
        with np.errstate(over="ignore"):
            grown = np.expm1(xs).tolist()
    else:
        grown = np.expm1(xs).tolist()
    noise, gain = channel.noise_w, channel.gain
    total = 0.0
    for g, d in zip(grown, taus):
        total += noise * g / gain * d
    return total


__all__ = [
    "ChannelParams",
    "LocalComputeParams",
    "schedule_energy",
]
