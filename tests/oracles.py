"""Small reference helpers the tests check the library against.

``epoch_energy`` prices one constant-rate segment on its own, the plain
per-segment sum that ``schedule_energy`` vectorizes. ``parse_schedule``
reads back the schedule text the CLI writes (``format_schedule``).
"""
import numpy as np

from offloadsim.string_pull import OffloadSchedule


def epoch_energy(channel, bits: float, duration: float) -> float:
    """Energy to move ``bits`` at constant rate over ``duration`` seconds."""
    if bits <= 0:
        return 0.0
    if duration <= 0:
        return np.inf
    return float(channel.rate_to_power(bits / duration)) * duration


def parse_schedule(text: str) -> OffloadSchedule:
    """Schedule from ``time_s,cumulative_bits[,rate_bps]`` lines; '#' starts a comment."""
    times = []
    cum = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        times.append(float(fields[0]))
        cum.append(float(fields[1]))
    if len(times) < 2:
        raise ValueError("a schedule needs at least two records")
    return OffloadSchedule(np.array(times), np.array(cum))
