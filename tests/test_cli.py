import json
import subprocess
import sys

import numpy as np
import pytest

from offloadsim.cli import build_parser, main
from offloadsim.cpu_profile import parse_arrivals, parse_epochs
from offloadsim.energy import LocalComputeParams
from offloadsim.sim_harness import SimConfig, format_csv, run_buffer_sweep, run_bursty_sweep, run_oneshot_sweep
from offloadsim.tunnel import min_offload_ratio

from oracles import parse_schedule

PROFILE = "0.05,idle\n0.03,busy\n0.02,idle\n"
ARRIVALS = "0.0,4e5\n0.04,4e5\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    pairs = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            pairs[key.strip()] = val.strip()
    return pairs


@pytest.fixture
def profile_file(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text(PROFILE)
    return str(path)


@pytest.fixture
def arrivals_file(tmp_path):
    path = tmp_path / "arrivals.txt"
    path.write_text(ARRIVALS)
    return str(path)


def test_instance_flags_default_to_the_sweep_scenario():
    args = build_parser().parse_args(["solve", "--profile", "p.txt"])
    cfg = SimConfig()
    fields = {
        "helper_hz": "helper_hz",
        "cycles_per_bit": "cycles_per_bit",
        "gain": "mean_gain",
        "bandwidth_hz": "bandwidth_hz",
        "noise_w": "noise_w",
        "local_hz": "local_hz",
        "switched_cap": "switched_cap",
    }
    for flag, field in fields.items():
        assert getattr(args, flag) == getattr(cfg, field), flag


def test_solve_split(capsys, profile_file):
    code, out, _ = run_cli(capsys, "solve", "--profile", profile_file, "--load", "7e5")
    assert code == 0
    pairs = kv(out)
    off = float(pairs["offload_bits"])
    loc = float(pairs["local_bits"])
    assert off + loc == pytest.approx(7e5)
    assert off >= 5e5 - 1e-6
    total = float(pairs["total_energy_j"])
    assert total == pytest.approx(
        float(pairs["offload_energy_j"]) + float(pairs["local_energy_j"]), rel=1e-9
    )
    assert pairs["method"] in ("pinned", "shortcut", "search")


def test_solve_fixed_transfer_writes_schedule(capsys, profile_file, tmp_path):
    sched_path = tmp_path / "sched.txt"
    code, out, _ = run_cli(
        capsys,
        "solve", "--profile", profile_file, "--offload", "7e5",
        "--schedule-out", str(sched_path),
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["tunnel_kind"] == "full"
    sched = parse_schedule(sched_path.read_text())
    assert sched.total == pytest.approx(7e5)
    assert np.allclose(sched.rates, [1e7, 4e6, 4e6])


def test_solve_chunked(capsys, profile_file, arrivals_file, tmp_path):
    code, out, _ = run_cli(
        capsys, "solve", "--profile", profile_file, "--arrivals", arrivals_file
    )
    assert code == 0
    pairs = kv(out)
    assert 0.0 <= float(pairs["ratio"]) <= 1.0
    assert float(pairs["ratio_low"]) <= float(pairs["ratio"]) + 1e-9
    # both sides are full at a 0.75 share, so the range is a single point
    assert pairs["method"] == "pinned"
    half = tmp_path / "half.txt"
    half.write_text("0.0,2e5\n0.04,2e5\n")
    code, out, _ = run_cli(capsys, "solve", "--profile", profile_file, "--arrivals", str(half))
    assert code == 0
    pairs = kv(out)
    assert (pairs["ratio_low"], pairs["ratio_high"], pairs["method"]) == ("0.5", "1", "root")
    fixed_code, fixed_out, _ = run_cli(
        capsys,
        "solve", "--profile", profile_file, "--arrivals", arrivals_file,
        "--ratio", "0.75",
    )
    assert fixed_code == 0
    assert float(kv(fixed_out)["offload_bits"]) == pytest.approx(0.75 * 8e5)
    # a share above what the helper can absorb must be reported, not scheduled
    bad_code, _, err = run_cli(
        capsys,
        "solve", "--profile", profile_file, "--arrivals", arrivals_file,
        "--ratio", "0.9",
    )
    assert bad_code == 2
    assert "infeasible" in err
    assert "helper cannot absorb a 0.9 share of every chunk" in err


def test_solve_error_paths(capsys, profile_file):
    code, _, err = run_cli(capsys, "solve", "--profile", profile_file)
    assert code == 1
    assert "solve needs" in err
    code, _, err = run_cli(
        capsys, "solve", "--profile", profile_file, "--offload", "9e5"
    )
    assert code == 2
    assert "infeasible" in err
    code, _, err = run_cli(capsys, "solve", "--profile", "/no/such/file", "--load", "1e5")
    assert code == 1


def test_nan_bit_quantities_rejected(capsys, profile_file):
    for argv in (
        ("solve", "--profile", profile_file, "--load", "7e5", "--buffer", "nan"),
        ("tunnel", "--profile", profile_file, "--kind", "lazy", "--offload", "5e5", "--buffer", "nan"),
        ("buffer", "--values", "nan", "--trials", "5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert "buffer_bits" in err, argv
        assert "nan" not in out, argv
    for argv, field in (
        (("solve", "--profile", profile_file, "--load", "inf"), "load_bits"),
        (("bursty", "--values", "nan", "--trials", "5"), "size_scale"),
        (("solve", "--profile", profile_file, "--offload", "inf"), "offload_bits"),
        (("solve", "--profile", profile_file, "--offload", "nan"), "offload_bits"),
        (("tunnel", "--profile", profile_file, "--kind", "effective", "--offload", "nan"), "offload_bits"),
        (("tunnel", "--profile", profile_file, "--kind", "lazy", "--offload", "inf"), "offload_bits"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert field in err, argv


def test_nan_or_infinite_physical_parameters_rejected(capsys, profile_file):
    for flag, field in (
        ("--gain", "gain"),
        ("--noise-w", "noise_w"),
        ("--bandwidth-hz", "bandwidth_hz"),
        ("--helper-hz", "helper_hz"),
        ("--local-hz", "cpu_hz"),
        ("--cycles-per-bit", "cycles_per_bit"),
        ("--switched-cap", "switched_cap"),
    ):
        for bad in ("nan", "inf"):
            argv = ("solve", "--profile", profile_file, "--load", "7e5", flag, bad)
            code, out, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert field in err, argv
            assert "total_energy_j" not in out, argv


def test_tunnel_subcommand(capsys, profile_file, tmp_path):
    code, out, _ = run_cli(
        capsys, "tunnel", "--profile", profile_file, "--kind", "full",
        "--buffer", "1e5",
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["kind"] == "full"
    assert pairs["feasible"] == "yes"
    assert int(pairs["vertices"]) == 5
    data_lines = [ln for ln in out.splitlines() if "," in ln and "=" not in ln and not ln.startswith("#")]
    assert len(data_lines) == 5

    out_path = tmp_path / "tunnel.txt"
    sched_path = tmp_path / "sched.txt"
    code, out, _ = run_cli(
        capsys, "tunnel", "--profile", profile_file, "--kind", "effective",
        "--offload", "5e5", "--out", str(out_path), "--schedule-out", str(sched_path),
    )
    assert code == 0
    assert kv(out)["schedule_verified"] == "yes"
    assert out_path.exists() and sched_path.exists()


def test_tunnel_takes_no_channel_flags(capsys, profile_file):
    # a tunnel never reads the channel, so its flags are usage errors there
    argv = ["tunnel", "--profile", profile_file, "--kind", "effective", "--offload", "5e5"]
    for flag in ("--gain", "--bandwidth-hz", "--noise-w"):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "1"])
        assert exc.value.code == 1, flag
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err, flag
    # the local CPU flags it keeps build the LocalComputeParams that checks them
    for flag, field in (("--local-hz", "cpu_hz"), ("--switched-cap", "switched_cap")):
        for bad in ("nan", "inf", "-1"):
            code, out, err = run_cli(capsys, *argv, flag, bad)
            assert code == 1, (flag, bad)
            assert field in err, (flag, bad)
            assert "kind" not in out, (flag, bad)


def test_tunnel_chunked_kinds(capsys, profile_file, arrivals_file):
    code, out, _ = run_cli(
        capsys,
        "tunnel", "--profile", profile_file, "--kind", "bursty-effective",
        "--arrivals", arrivals_file, "--ratio", "0.6",
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["kind"] == "bursty-effective"
    assert float(pairs["ratio_high"]) <= 1.0
    code, _, err = run_cli(
        capsys, "tunnel", "--profile", profile_file, "--kind", "bursty-effective",
        "--ratio", "0.6",
    )
    assert code == 1
    assert "--arrivals" in err


def test_sweep_csv_and_determinism(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 30, "seed": 5}))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, err = run_cli(
            capsys,
            "oneshot", "--config", str(cfg), "--values", "0.01,0.04",
            "--jobs", "2", "--out", str(out),
        )
        assert code == 0
        assert "wrote" in err
    assert out1.read_bytes() == out2.read_bytes()
    header = [ln for ln in out1.read_text().splitlines() if ln.startswith("axis,")][0]
    assert "mean_opt_energy" in header and "mean_bench_energy" in header


def test_sweep_to_stdout_with_policy(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 20, "seed": 5}))
    code, out, _ = run_cli(
        capsys, "buffer", "--config", str(cfg), "--values", "1e5,inf",
        "--policy", "proportional",
    )
    assert code == 0
    header = [ln for ln in out.splitlines() if ln.startswith("axis,")][0]
    means = [c for c in header.split(",") if c.startswith("mean_")]
    assert means == ["mean_prop_energy"]
    # the one-shot sweep never prices the proportional-share policy
    code, _, err = run_cli(
        capsys, "oneshot", "--config", str(cfg), "--values", "0.02",
        "--policy", "proportional",
    )
    assert code == 1
    assert "proportional" in err


def test_bursty_sweep_smoke(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 20, "seed": 9}))
    code, out, _ = run_cli(
        capsys, "bursty", "--config", str(cfg), "--values", "0.5,2",
    )
    assert code == 0
    assert len([ln for ln in out.splitlines() if not ln.startswith(("#", "axis,"))]) == 2


def test_long_horizon_sweeps_run(capsys, tmp_path):
    # epochs summed one at a time miss a 1e4 s horizon by more than 1e-12 s;
    # every time and bit quantity is scaled alike, so every rate stays put
    path = tmp_path / "cfg.json"
    for horizon in (1e4, 1e5):
        k = horizon / 0.1
        path.write_text(json.dumps({
            "horizon": horizon, "mean_idle": 0.02 * k, "mean_busy": 0.02 * k, "load_bits": 7e5 * k,
            "mean_interarrival": 0.02 * k, "size_low": 5e4 * k, "size_high": 1.5e5 * k,
            "trials": 200, "seed": 7,
        }))
        for argv in (
            ("oneshot", "--values", f"{0.02 * k}"),
            ("buffer", "--values", f"{1e4 * k},{1e6 * k},inf"),
            ("bursty",),
        ):
            code, out, err = run_cli(capsys, *argv, "--config", str(path))
            assert code == 0, (horizon, argv, err)
            rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith(("#", "axis,"))]
            assert rows and all(int(row[3]) > 0 for row in rows), (horizon, argv)


def test_sweep_defaults_are_the_runners(capsys):
    # without --axis or --values each sweep command runs its runner's defaults
    cfg = SimConfig(trials=2, seed=3)
    for command, runner in (
        ("oneshot", run_oneshot_sweep),
        ("buffer", run_buffer_sweep),
        ("bursty", run_bursty_sweep),
    ):
        code, out, _ = run_cli(capsys, command, "--trials", "2", "--seed", "3")
        assert code == 0, command
        assert out == format_csv(runner(cfg)), command


def test_solve_rejects_share_the_local_cpu_cannot_finish(capsys, profile_file, arrivals_file):
    # the user's CPU finishes 2e5 of the 8e5 bits in the window, so a 0.74
    # share leaves it too much; the helper could absorb that share
    code, out, err = run_cli(
        capsys, "solve", "--profile", profile_file, "--arrivals", arrivals_file, "--ratio", "0.74"
    )
    assert code == 2
    assert "local CPU cannot finish its 0.26 share" in err
    assert "energy" not in out


def test_solve_takes_the_smallest_share_the_local_cpu_can_finish(capsys, profile_file, tmp_path):
    # the user's CPU computes 8e4 bits after the second chunk arrives, so it
    # keeps at most two thirds of that chunk
    text = "0.0,1e5\n0.06,1.2e5\n"
    path = tmp_path / "arrivals.txt"
    path.write_text(text)
    horizon = sum(ep.duration for ep in parse_epochs(PROFILE))
    r_lo = min_offload_ratio(parse_arrivals(text, horizon), LocalComputeParams(1e9, 500.0, 1e-28))
    assert 0.3 < r_lo < 0.4
    argv = ("solve", "--profile", profile_file, "--arrivals", str(path), "--ratio")
    code, out, _ = run_cli(capsys, *argv, repr(r_lo))
    assert code == 0
    assert float(kv(out)["ratio"]) == pytest.approx(r_lo)
    code, _, err = run_cli(capsys, *argv, repr(r_lo - 1e-6))
    assert code == 2
    assert "local CPU cannot finish its" in err


def test_non_finite_arrival_fields_rejected(capsys, profile_file, tmp_path):
    path = tmp_path / "bad_arrivals.txt"
    for text, field in (
        ("0.0,nan\n0.04,4e5\n", "size"),
        ("0.01,inf\n", "size"),
        ("nan,4e5\n0.04,4e5\n", "time"),
    ):
        path.write_text(text)
        code, out, err = run_cli(capsys, "solve", "--profile", profile_file, "--arrivals", str(path))
        assert code == 1, text
        assert f"arrival {field}" in err, text
        assert "energy" not in out, text


def test_malformed_input_lines_are_named(capsys, profile_file, tmp_path):
    path = tmp_path / "bad.txt"
    for text, flag, expected in (
        ("0.05,idle,x\n", "--profile", "line 1: '0.05,idle,x' is not a duration_s,idle|busy record"),
        ("0.05,idle\n0.0\n", "--profile", "line 2: '0.0' is not a duration_s,idle|busy record"),
        ("0.0,4e5\n0.04\n", "--arrivals", "line 2: '0.04' is not a time_s,bits record"),
        ("0.0,x\n", "--arrivals", "line 1: '0.0,x' is not a time_s,bits record"),
    ):
        path.write_text(text)
        if flag == "--profile":
            argv = ("solve", "--profile", str(path), "--load", "1e5")
        else:
            argv = ("solve", "--profile", profile_file, "--arrivals", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, text
        assert expected in err, text
        assert "energy" not in out, text


def test_non_positive_jobs_rejected_by_name(capsys):
    for jobs in ("0", "-4"):
        code, out, err = run_cli(capsys, "oneshot", "--trials", "3", "--values", "0.02", "--jobs", jobs)
        assert code == 1, jobs
        assert "jobs" in err, jobs
        assert out == "", jobs


def test_negative_seed_rejected_by_name(capsys):
    code, _, err = run_cli(capsys, "oneshot", "--seed", "-1", "--trials", "5")
    assert code == 1
    assert "seed" in err


def test_bad_config_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trails": 10}))
    code, _, err = run_cli(capsys, "oneshot", "--config", str(cfg))
    assert code == 1
    assert "trails" in err
    cfg.write_text("not json at all")
    code, _, err = run_cli(capsys, "oneshot", "--config", str(cfg))
    assert code == 1
    code, _, err = run_cli(capsys, "oneshot", "--values", "a,b", "--trials", "5")
    assert code == 1


def test_argparse_usage_errors(capsys):
    # a usage error is bad input, exit 1; exit 2 is kept for infeasible instances
    for argv in ([], ["frobnicate"], ["tunnel", "--kind", "bogus"], ["solve", "--load", "1e5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "usage:" in capsys.readouterr().err, argv
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0


def test_buffer_flag_rejected_for_chunked_arrivals(capsys, profile_file, arrivals_file):
    # the chunked-arrival models have no receive buffer, so --buffer (even inf)
    # is refused there instead of being ignored
    instance = ["--profile", profile_file, "--arrivals", arrivals_file]
    chunked = [
        ["solve", *instance],
        ["solve", *instance, "--ratio", "0.75"],
        *(["tunnel", *instance, "--kind", kind, "--ratio", "0.5"] for kind in ("bursty", "bursty-effective", "local")),
    ]
    for argv in chunked:
        assert run_cli(capsys, *argv)[0] == 0, argv
        for value in ("1e3", "inf"):
            code, out, err = run_cli(capsys, *argv, "--buffer", value)
            assert code == 1, (argv, value)
            assert "--buffer" in err, (argv, value)
            assert out == "", (argv, value)
    # one-shot commands keep it, with arrivals given or not
    code, out, _ = run_cli(capsys, "tunnel", *instance, "--kind", "full", "--buffer", "1e5")
    assert code == 0
    assert "buffer=100000" in out


def test_module_entry_point(tmp_path):
    prof = tmp_path / "p.txt"
    prof.write_text(PROFILE)
    proc = subprocess.run(
        [sys.executable, "-m", "offloadsim.cli", "solve", "--profile", str(prof), "--load", "6e5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "total_energy_j" in proc.stdout
