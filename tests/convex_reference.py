"""Independent oracle for the taut-string solver.

``convex_reference_schedule`` solves the minimum-energy problem through a
tunnel as a plain box-constrained convex program with scipy's L-BFGS-B, with
no string-pulling geometry, so the tests can cross-check ``pull_string``
against it (acceptance criterion 1).
"""
import numpy as np
from scipy.optimize import minimize

from offloadsim.energy import ChannelParams
from offloadsim.errors import InfeasibleError, NumericError
from offloadsim.string_pull import OffloadSchedule
from offloadsim.tunnel import FeasibilityTunnel, bits_tol

# spectral efficiency beyond which the exponential is continued linearly, so
# far-out iterates keep finite values and a gradient consistent with them
_CLIP_X = 600.0


def _clipped_power_slope(rates, channel):
    x = np.minimum(rates / channel.bandwidth_hz, _CLIP_X)
    return channel.noise_w * np.log(2.0) / (channel.bandwidth_hz * channel.gain) * 2.0**x


def _clipped_energy(tau, dy, channel):
    x = dy / tau / channel.bandwidth_hz
    xc = np.minimum(x, _CLIP_X)
    ramp = np.maximum(x - _CLIP_X, 0.0) * np.log(2.0) * 2.0**_CLIP_X
    return float(np.sum(tau * channel.noise_w * (np.expm1(xc * np.log(2.0)) + ramp) / channel.gain))


def convex_reference_schedule(
    tunnel: FeasibilityTunnel,
    channel: ChannelParams,
    max_iter: int = 3000,
) -> OffloadSchedule:
    """Minimum-energy schedule by direct box-constrained minimization.

    Independent of the string-pulling geometry: minimizes the summed epoch
    energies over the interior vertex values, each boxed between its floor
    and ceiling, with L-BFGS-B. The objective is a shifted log of the energy,
    which leaves the minimizer unchanged but keeps the gradient usefully
    scaled even when an iterate wants hundreds of bits per channel use.
    """
    times = tunnel.times
    tau = np.diff(times)
    n = len(times) - 1
    y = np.empty(n + 1)
    y[0] = 0.5 * (tunnel.floor[0] + tunnel.ceiling[0])
    y[n] = 0.5 * (tunnel.floor[n] + tunnel.ceiling[n])
    if n < 2:
        return OffloadSchedule(times.copy(), y)
    lo = tunnel.floor[1:n].copy()
    hi = tunnel.ceiling[1:n].copy()
    if np.any(lo > hi + bits_tol(tunnel.total)):
        raise InfeasibleError("tunnel admits no schedule")
    hi = np.maximum(hi, lo)
    chord = y[0] + (y[n] - y[0]) * (times[1:n] - times[0]) / (times[n] - times[0])
    y[1:n] = np.clip(chord, lo, hi)

    y_scale = max(tunnel.total, 1.0)
    # segments with negative slope contribute at worst -tau*N0/g each, so this
    # shift keeps the log argument positive for every point in the box
    shift = float(np.sum(tau)) * channel.noise_w / channel.gain + 1e-300

    def objective(u):
        yv = y.copy()
        yv[1:n] = u * y_scale
        r = np.diff(yv) / tau
        p = _clipped_power_slope(r, channel)
        f = _clipped_energy(tau, np.diff(yv), channel)
        g = (p[:-1] - p[1:]) * (y_scale / (f + shift))
        return np.log(f + shift), g

    res = minimize(
        objective,
        y[1:n] / y_scale,
        jac=True,
        method="L-BFGS-B",
        bounds=np.column_stack((lo, hi)) / y_scale,
        options={"maxiter": max_iter, "maxfun": 5 * max_iter, "ftol": 1e-13, "gtol": 1e-11},
    )
    if not res.success and "ROUNDING ERRORS" not in str(res.message).upper():
        raise NumericError(f"reference solver failed: {res.message}")
    y[1:n] = np.clip(res.x * y_scale, lo, hi)
    # the solver may leave consecutive values a fraction of a bit out of
    # order where the rate is near zero; no family's floor or ceiling ever
    # falls, so the running maximum keeps every value inside its box
    np.maximum.accumulate(y, out=y)
    return OffloadSchedule(times.copy(), y)
