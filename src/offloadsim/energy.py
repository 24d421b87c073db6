"""Transmit and compute energy models.

Transmission over a bandwidth-W channel with gain h and noise power N0 costs
``N0 * (2**(r/W) - 1) / h**2`` watts to sustain rate r; the cost of a schedule
is the sum of that power times duration over its constant-rate stretches.
Local computation costs a fixed energy per cycle set by the switched
capacitance and the local CPU frequency.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Static link between the user and the helper."""

    gain: float  # squared channel magnitude |h|^2, includes path loss
    bandwidth_hz: float
    noise_w: float  # noise power over the band, watts

    def __post_init__(self):
        if not 0 < self.gain < inf:
            raise ValueError(f"gain must be positive and finite, got {self.gain}")
        if not 0 < self.bandwidth_hz < inf:
            raise ValueError(f"bandwidth_hz must be positive and finite, got {self.bandwidth_hz}")
        if not 0 < self.noise_w < inf:
            raise ValueError(f"noise_w must be positive and finite, got {self.noise_w}")

    def rate_to_power(self, rate):
        """Transmit power (W) needed to sustain ``rate`` bits/s."""
        with np.errstate(over="ignore"):
            return self.noise_w * np.expm1(np.asarray(rate) / self.bandwidth_hz * np.log(2.0)) / self.gain

    def marginal_energy_per_bit(self, rate: float) -> float:
        """d(power)/d(rate) at ``rate``: J per extra bit when stretching rate.

        Overflows to ``inf`` once ``rate`` passes about 1024 bandwidths, where
        the power itself does.
        """
        base = self.noise_w * np.log(2.0) / (self.bandwidth_hz * self.gain)
        with np.errstate(over="ignore"):
            return base * 2.0 ** (np.asarray(rate) / self.bandwidth_hz)

    def energy_per_bit(self, rate: float) -> float:
        """Average J/bit at constant ``rate``; limit N0*ln2/(W*h^2) as rate->0."""
        if rate <= 0:
            return self.noise_w * np.log(2.0) / (self.bandwidth_hz * self.gain)
        return float(self.rate_to_power(rate)) / rate


@dataclass(frozen=True)
class LocalComputeParams:
    """User-side processor model."""

    cpu_hz: float
    cycles_per_bit: float
    switched_cap: float  # effective switched capacitance, J*s^2

    def __post_init__(self):
        if not 0 < self.cpu_hz < inf:
            raise ValueError(f"cpu_hz must be positive and finite, got {self.cpu_hz}")
        if not 0 < self.cycles_per_bit < inf:
            raise ValueError(f"cycles_per_bit must be positive and finite, got {self.cycles_per_bit}")
        if not 0 < self.switched_cap < inf:
            raise ValueError(f"switched_cap must be positive and finite, got {self.switched_cap}")

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
    """Energy of a piecewise-constant-rate schedule given its cumulative curve."""
    times = np.asarray(times, dtype=float)
    cum = np.asarray(cumulative, dtype=float)
    if times.shape != cum.shape or times.ndim != 1 or len(times) < 2:
        raise ValueError("times and cumulative must be matching 1-D arrays")
    bits = cum[1:] - cum[:-1]
    if (bits < -1e-6).any():
        raise ValueError("cumulative curve must be nondecreasing")
    sent = bits > 0
    if not sent.any():
        return 0.0
    bits, tau = bits[sent], (times[1:] - times[:-1])[sent]
    if tau.min() <= 0:
        return np.inf  # bits to send in no time
    # summed in segment order, so it equals a plain loop adding one segment at a time
    return float((channel.rate_to_power(bits / tau) * tau).cumsum()[-1])


__all__ = [
    "ChannelParams",
    "LocalComputeParams",
    "schedule_energy",
]
