"""Command-line front end.

Five subcommands: ``solve`` and ``tunnel`` work on explicit instances read
from small text files; ``oneshot``, ``buffer``, and ``bursty`` run Monte Carlo
sweeps and emit CSV. Exit codes: 0 success, 1 bad configuration (usage
errors included), 2 infeasible instance, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from math import inf
from pathlib import Path

from .cpu_profile import build_profile, parse_arrivals, parse_epochs
from .energy import ChannelParams, LocalComputeParams
from .errors import ConfigError, InfeasibleError, NumericError
from .partition import SHARE_SLACK, optimize_partition, optimize_ratio
from .sim_harness import (
    SimConfig,
    format_csv,
    run_buffer_sweep,
    run_bursty_sweep,
    run_oneshot_sweep,
    write_csv,
)
from .string_pull import (
    format_schedule,
    min_energy_offload,
    min_energy_offload_bursty,
    pull_string,
    verify_optimality,
)
from .tunnel import (
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


def _bits(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return inf
    return float(text)


def _values(text: str) -> list[float]:
    try:
        return [_bits(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"could not parse grid values from {text!r}")


_DEFAULT = SimConfig()  # the instance flags default to the sweeps' scenario


def _add_instance_flags(p: argparse.ArgumentParser):
    p.add_argument("--profile", required=True, help="epoch file: duration_s,idle|busy per line")
    p.add_argument("--helper-hz", type=float, default=_DEFAULT.helper_hz, help="helper CPU frequency")
    p.add_argument("--cycles-per-bit", type=float, default=_DEFAULT.cycles_per_bit, help="CPU cycles per bit of work")
    p.add_argument("--buffer", type=_bits, help="helper receive buffer in bits (default inf); one-shot only")
    p.add_argument("--arrivals", help="arrival file: time_s,bits per line (chunked workload)")


def _add_channel_flags(p: argparse.ArgumentParser):
    p.add_argument("--gain", type=float, default=_DEFAULT.mean_gain, help="squared channel gain incl. path loss")
    p.add_argument("--bandwidth-hz", type=float, default=_DEFAULT.bandwidth_hz)
    p.add_argument("--noise-w", type=float, default=_DEFAULT.noise_w, help="noise power over the band, W")


def _add_local_flags(p: argparse.ArgumentParser):
    p.add_argument("--local-hz", type=float, default=_DEFAULT.local_hz, help="user CPU frequency")
    p.add_argument("--switched-cap", type=float, default=_DEFAULT.switched_cap, help="switched capacitance, J*s^2")


def _add_sweep_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with SimConfig fields")
    p.add_argument("--trials", type=int, help="trials per grid value")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument(
        "--jobs",
        type=int,
        help="worker processes: the calling process runs one share and forks JOBS-1 "
        "children per sweep (one process where os.fork does not exist)",
    )
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument(
        "--policy",
        choices=["optimal", "benchmark", "proportional", "lazy-first"],
        help="restrict the energy columns to one policy (default: all computed)",
    )


_POLICY_COLUMNS = {
    "optimal": {"mean_opt_energy", "mean_offload_bits", "mean_ratio"},
    "benchmark": {"mean_bench_energy"},
    "proportional": {"mean_prop_energy"},
    "lazy-first": {"mean_lazy_energy"},
}


def _filter_policy(result, policy):
    if policy is None:
        return result
    keep = _POLICY_COLUMNS[policy]
    kept_means = [c for c in result.rows[0] if c in keep]
    if not kept_means:
        raise ConfigError(f"the {result.kind} sweep does not price the {policy!r} policy")
    rows = [
        {c: v for c, v in row.items() if not c.startswith("mean_") or c in keep}
        for row in result.rows
    ]
    return dataclasses.replace(result, rows=rows)


def _check_buffer(args, chunked: bool):
    """Default ``--buffer`` to inf; the chunked-arrival models have no
    receive buffer, so there the flag is a configuration error."""
    if args.buffer is None:
        args.buffer = inf
    elif chunked:
        raise ConfigError("--buffer does not apply to chunked arrivals, which have no receive buffer model")


def _load_instance(args):
    """The helper's profile, the arrivals (if given) and the user's CPU."""
    epochs = parse_epochs(Path(args.profile).read_text())
    horizon = sum(e.duration for e in epochs)
    profile = build_profile(epochs, args.helper_hz, args.cycles_per_bit, horizon)
    arrivals = None
    if args.arrivals:
        arrivals = parse_arrivals(Path(args.arrivals).read_text(), horizon)
    return profile, arrivals, LocalComputeParams(args.local_hz, args.cycles_per_bit, args.switched_cap)


def _load_config(args) -> SimConfig:
    data = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    overrides = {key: getattr(args, key) for key in ("trials", "seed") if getattr(args, key) is not None}
    return SimConfig.from_dict({**data, **overrides})


def _emit(pairs):
    for key, value in pairs:
        if isinstance(value, float):
            print(f"{key} = {value:.12g}")
        else:
            print(f"{key} = {value}")


def _cmd_solve(args) -> int:
    _check_buffer(args, bool(args.arrivals))
    profile, arrivals, local = _load_instance(args)
    channel = ChannelParams(args.gain, args.bandwidth_hz, args.noise_w)
    if arrivals is not None:
        if args.ratio is not None:
            r_hi = max_offload_ratio(profile, arrivals)
            if args.ratio > r_hi + SHARE_SLACK:
                raise InfeasibleError(
                    f"helper cannot absorb a {args.ratio:g} share of every chunk (at most {r_hi:.6g})",
                    deficit=(args.ratio - r_hi) * arrivals.total,
                )
            r_lo = min_offload_ratio(arrivals, local)
            if args.ratio < r_lo - SHARE_SLACK:
                raise InfeasibleError(
                    f"local CPU cannot finish its {1.0 - args.ratio:g} share by the deadline",
                    deficit=(r_lo - args.ratio) * arrivals.total,
                )
            schedule, tunnel = min_energy_offload_bursty(profile, arrivals, args.ratio)
            e_off = schedule.energy(channel)
            e_loc = local.local_energy((1.0 - args.ratio) * arrivals.total)
            pairs = [("ratio", args.ratio)]
        else:
            res = optimize_ratio(profile, arrivals, channel, local)
            schedule, tunnel = res.schedule, res.tunnel
            e_off, e_loc = res.offload_energy, res.local_energy
            pairs = [
                ("ratio", res.ratio),
                ("ratio_low", res.ratio_low),
                ("ratio_high", res.ratio_high),
                ("method", res.method),
            ]
        pairs += [
            ("offload_bits", schedule.total),
            ("local_bits", arrivals.total - schedule.total),
            ("offload_energy_j", e_off),
            ("local_energy_j", e_loc),
            ("total_energy_j", e_off + e_loc),
        ]
    elif args.offload is not None:
        schedule, tunnel = min_energy_offload(profile, args.offload, args.buffer)
        e_off = schedule.energy(channel)
        pairs = [
            ("offload_bits", schedule.total),
            ("offload_energy_j", e_off),
            ("tunnel_kind", tunnel.kind),
        ]
    elif args.load is not None:
        res = optimize_partition(profile, channel, local, args.load, args.buffer)
        schedule = res.schedule
        pairs = [
            ("offload_bits", res.offload_bits),
            ("local_bits", res.local_bits),
            ("offload_energy_j", res.offload_energy),
            ("local_energy_j", res.local_energy),
            ("total_energy_j", res.energy),
            ("method", res.method),
        ]
    else:
        raise ConfigError("solve needs --load, --offload, or --arrivals")
    if args.schedule_out:
        Path(args.schedule_out).write_text(format_schedule(schedule))
        pairs.append(("schedule_file", args.schedule_out))
    _emit(pairs)
    return 0


# tunnel kind -> (flags it needs, builder from profile, arrivals, local CPU and flags)
_TUNNEL_KINDS = {
    "full": ((), lambda p, a, loc, args: full_utilization_tunnel(p, args.buffer)),
    "effective": (("offload",), lambda p, a, loc, args: effective_tunnel(p, args.offload, args.buffer)),
    "proportional": (("offload",), lambda p, a, loc, args: proportional_tunnel(p, args.offload, args.buffer)),
    "lazy": (("offload",), lambda p, a, loc, args: lazy_first_tunnel(p, args.offload, args.buffer)),
    "bursty": (("arrivals", "ratio"), lambda p, a, loc, args: bursty_tunnel(p, a, args.ratio)),
    "bursty-effective": (
        ("arrivals", "ratio"),
        lambda p, a, loc, args: bursty_effective_tunnel(p, a, args.ratio),
    ),
    "local": (("arrivals", "ratio"), lambda p, a, loc, args: local_compute_tunnel(a, loc, args.ratio)),
}


def _cmd_tunnel(args) -> int:
    needs, build = _TUNNEL_KINDS[args.kind]
    _check_buffer(args, "arrivals" in needs)
    profile, arrivals, local = _load_instance(args)
    for flag in needs:
        if getattr(args, flag) is None:
            raise ConfigError(f"tunnel kind {args.kind} needs --{flag}")
    tunnel = build(profile, arrivals, local, args)
    pairs = [
        ("kind", tunnel.kind),
        ("vertices", len(tunnel.times)),
        ("total_bits", tunnel.total),
        ("feasible", "yes" if tunnel.is_feasible() else "no"),
    ]
    if not tunnel.is_feasible():
        pairs.append(("deficit_bits", tunnel.deficit))
    if arrivals is not None:
        pairs.append(("ratio_low", min_offload_ratio(arrivals, local)))
        pairs.append(("ratio_high", max_offload_ratio(profile, arrivals)))
    if args.schedule_out and tunnel.is_feasible():
        schedule = pull_string(tunnel)
        report = verify_optimality(tunnel, schedule)
        Path(args.schedule_out).write_text(format_schedule(schedule))
        pairs.append(("schedule_file", args.schedule_out))
        pairs.append(("schedule_verified", "yes" if report.ok else "no"))
    if args.out:
        Path(args.out).write_text(format_tunnel(tunnel))
        pairs.append(("tunnel_file", args.out))
    else:
        sys.stdout.write(format_tunnel(tunnel))
    _emit(pairs)
    return 0


def _run_sweep_cmd(args) -> int:
    """Run ``args.runner`` with only the grid flags given, so that the runner's
    own defaults fill in the rest."""
    cfg = _load_config(args)
    grid = {}
    if getattr(args, "axis", None):
        grid["axis"] = args.axis
    if args.values:
        grid["values"] = _values(args.values)
    result = args.runner(cfg, jobs=args.jobs, **grid)
    result = _filter_policy(result, args.policy)
    if args.out:
        write_csv(result, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(format_csv(result))
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, the code for bad input: 2 means infeasible."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="offloadsim",
        description="Energy-optimal peer-to-peer computation offloading: "
        "schedule solvers and Monte Carlo sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="optimal schedule and split for one instance")
    _add_instance_flags(p)
    _add_channel_flags(p)
    _add_local_flags(p)
    p.add_argument("--load", type=_bits, help="total one-shot load to split, bits")
    p.add_argument("--offload", type=_bits, help="fixed transfer size, bits (skip the split search)")
    p.add_argument("--ratio", type=float, help="fixed per-chunk offload share (with --arrivals)")
    p.add_argument("--schedule-out", help="write the transmission schedule here")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("tunnel", help="construct a feasibility tunnel")
    _add_instance_flags(p)
    _add_local_flags(p)  # the local kind and the share bounds; a tunnel needs no channel
    p.add_argument(
        "--kind",
        default="effective",
        choices=list(_TUNNEL_KINDS),
    )
    p.add_argument("--offload", type=_bits, help="transfer size, bits")
    p.add_argument("--ratio", type=float, help="per-chunk offload share")
    p.add_argument("--out", help="write tunnel vertices here (default: stdout)")
    p.add_argument("--schedule-out", help="also pull the string and write the schedule")
    p.set_defaults(fn=_cmd_tunnel)

    p = sub.add_parser("oneshot", help="Monte Carlo sweep over a scenario parameter")
    _add_sweep_flags(p)
    p.add_argument("--axis", help="SimConfig field to sweep")
    p.add_argument("--values", help="comma-separated grid, e.g. 0.01,0.02,0.04")
    p.set_defaults(fn=_run_sweep_cmd, runner=run_oneshot_sweep)

    p = sub.add_parser("buffer", help="Monte Carlo sweep over the receive buffer size")
    _add_sweep_flags(p)
    p.add_argument("--values", help="comma-separated buffer sizes, inf allowed")
    p.set_defaults(fn=_run_sweep_cmd, runner=run_buffer_sweep)

    p = sub.add_parser("bursty", help="Monte Carlo sweep for chunked arrivals")
    _add_sweep_flags(p)
    p.add_argument("--axis", help="SimConfig field to sweep, or size_scale")
    p.add_argument("--values", help="comma-separated grid, e.g. 0.5,1,2")
    p.set_defaults(fn=_run_sweep_cmd, runner=run_bursty_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
