import json
import subprocess
import sys

import numpy as np
import pytest

from offloadsim.cli import main

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


def test_solve_chunked(capsys, profile_file, arrivals_file):
    code, out, _ = run_cli(
        capsys, "solve", "--profile", profile_file, "--arrivals", arrivals_file
    )
    assert code == 0
    pairs = kv(out)
    assert 0.0 <= float(pairs["ratio"]) <= 1.0
    assert float(pairs["ratio_low"]) <= float(pairs["ratio"]) + 1e-9
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


def test_solve_rejects_share_the_local_cpu_cannot_finish(capsys, profile_file, arrivals_file):
    # the user's CPU finishes 2e5 of the 8e5 bits in the window, so a 0.74
    # share leaves it too much; the helper could absorb that share
    code, out, err = run_cli(
        capsys, "solve", "--profile", profile_file, "--arrivals", arrivals_file, "--ratio", "0.74"
    )
    assert code == 2
    assert "local CPU cannot finish its 0.26 share" in err
    assert "energy" not in out


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


def test_argparse_usage_errors():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_module_entry_point(tmp_path):
    prof = tmp_path / "p.txt"
    prof.write_text(PROFILE)
    proc = subprocess.run(
        [sys.executable, "-m", "offloadsim.cli", "solve", "--profile", str(prof), "--load", "6e5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "total_energy_j" in proc.stdout
