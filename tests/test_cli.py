import json
import subprocess
import sys

import numpy as np
import pytest

from proxysim import simulator
from proxysim.cli import main
from proxysim.simulator import (SimConfig, compare_analytic,
                                write_comparison_csv)


def _gen_args(out, objects=1, requests=5, alpha=0.5, session=2, seed=7):
    return ["gen", "--objects", str(objects), "--requests", str(requests),
            "--alpha", str(alpha), "--session", str(session),
            "--seed", str(seed), "--out", str(out)]


def test_gen_single_object_trace(tmp_path):
    out = tmp_path / "t.trace"
    assert main(_gen_args(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#n_objects=1")
    assert lines[1:] == ["1"] * 5


def test_gen_session_longer_than_trace_kept_in_header(tmp_path):
    out = tmp_path / "t.trace"
    assert main(_gen_args(out, objects=10, requests=300, session=1000)) == 0
    assert out.read_text().splitlines()[0] == "#n_objects=10 session=1000"


def test_gen_subprocess_end_to_end(tmp_path):
    # one real process round-trip; everything else runs in-process
    out = tmp_path / "t.trace"
    proc = subprocess.run(
        [sys.executable, "-m", "proxysim"] + _gen_args(out),
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wrote" in proc.stdout
    assert out.read_text().splitlines()[1:] == ["1"] * 5


def test_gen_missing_out_flag(tmp_path, capsys):
    args = _gen_args(tmp_path / "t.trace")
    del args[args.index("--out"):args.index("--out") + 2]
    assert main(args) == 2
    assert "--out is required" in capsys.readouterr().err


def test_gen_deterministic_reruns(tmp_path):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    assert main(_gen_args(a, objects=30, requests=400, alpha=0.9)) == 0
    assert main(_gen_args(b, objects=30, requests=400, alpha=0.9)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_trace_hit_ratio(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    assert main(_gen_args(trace)) == 0
    out_dir = tmp_path / "run"
    assert main(["run", "--trace", str(trace), "--capacity", "1",
                 "--seed", "3", "--out-dir", str(out_dir)]) == 0
    captured = capsys.readouterr().out
    assert "hit_ratio=0.800000" in captured
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["totals"]["hit_ratio"] == 0.8
    assert summary["totals"]["total_misses"] == 1
    assert (out_dir / "report.csv").exists()


def test_run_generation_flags(tmp_path):
    out_dir = tmp_path / "run"
    assert main(["run", "--objects", "40", "--requests", "2000",
                 "--alpha", "0.75", "--capacity", "8", "--seed", "21",
                 "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["totals"]["total_requests"] == 2000
    assert summary["config"]["policy"] == "session_lfu"


def test_run_unknown_policy(tmp_path, capsys):
    rc = main(["run", "--objects", "5", "--requests", "10", "--alpha", "0.5",
               "--capacity", "2", "--seed", "1", "--policy", "nosuch",
               "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert "invalid choice" in capsys.readouterr().err


def test_run_zero_k_zeroes_bandwidth(tmp_path):
    out_dir = tmp_path / "run"
    assert main(["run", "--objects", "10", "--requests", "500",
                 "--alpha", "0.5", "--capacity", "3", "--seed", "5",
                 "--k", "0", "--out-dir", str(out_dir)]) == 0
    rows = (out_dir / "report.csv").read_text().splitlines()[1:]
    assert all(float(row.split(",")[5]) == 0.0 for row in rows)


def test_run_unreadable_trace_writes_nothing(tmp_path):
    out_dir = tmp_path / "run"
    rc = main(["run", "--trace", str(tmp_path / "missing.trace"),
               "--capacity", "1", "--seed", "3", "--out-dir", str(out_dir)])
    assert rc == 1
    assert not (out_dir / "report.csv").exists()
    assert not (out_dir / "summary.json").exists()


def test_run_compare_with_trace_rejected_before_reading(tmp_path, capsys):
    # a usage error, raised before the (missing) trace is opened
    out_dir = tmp_path / "run"
    assert main(["run", "--trace", str(tmp_path / "missing.trace"),
                 "--capacity", "1", "--seed", "3", "--compare",
                 "--out-dir", str(out_dir)]) == 2
    assert "--compare requires generation flags" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_compare_table(tmp_path):
    out_dir = tmp_path / "run"
    assert main(["run", "--objects", "50", "--requests", "2000",
                 "--alpha", "0.98", "--capacity", "50", "--seed", "2",
                 "--compare", "--out-dir", str(out_dir)]) == 0
    lines = (out_dir / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("capacity,simulated_hit_ratio,top_c_mass")
    assert len(lines) == 2


def test_run_compare_matches_compare_analytic(tmp_path):
    out_dir = tmp_path / "run"
    assert main(["run", "--objects", "80", "--requests", "3000",
                 "--alpha", "0.7", "--capacity", "10", "--seed", "4",
                 "--compare", "--out-dir", str(out_dir)]) == 0
    direct = tmp_path / "direct.csv"
    write_comparison_csv(compare_analytic(SimConfig(
        n_objects=80, alpha=0.7, total_requests=3000, cache_capacity=10,
        seed=4)), str(direct))
    assert (out_dir / "comparison.csv").read_bytes() == direct.read_bytes()


def test_sweep_explicit_alphas(tmp_path):
    out_dir = tmp_path / "swp"
    assert main(["sweep", "--objects", "60", "--requests", "600",
                 "--alphas", "0.98,0.64", "--capacities", "6",
                 "--session", "100", "--seed", "19",
                 "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["outputs"]) == 2
    assert [o["alpha"] for o in manifest["outputs"]] == [0.98, 0.64]
    for entry in manifest["outputs"]:
        assert (out_dir / entry["report_csv"]).exists()
        assert (out_dir / entry["summary_json"]).exists()


def test_sweep_default_alphas_grid(tmp_path):
    out_dir = tmp_path / "swp"
    assert main(["sweep", "--objects", "60", "--requests", "300",
                 "--capacities", "6", "--session", "100", "--seed", "19",
                 "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert [o["alpha"] for o in manifest["outputs"]] == [
        0.98, 0.75, 0.64, 0.51, 0.41, 0.31]
    assert len(list(out_dir.glob("report_*.csv"))) == 6


def test_sweep_reruns_byte_identical(tmp_path):
    dirs = [tmp_path / "s1", tmp_path / "s2"]
    for d in dirs:
        assert main(["sweep", "--objects", "40", "--requests", "400",
                     "--alphas", "0.9,0.4", "--capacities", "4,8",
                     "--session", "80", "--seed", "77",
                     "--out-dir", str(d)]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_sweep_output_independent_of_worker_count(tmp_path, monkeypatch):
    dirs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(simulator, "_available_cpus", lambda: cpus)
        dirs[cpus] = tmp_path / f"cpus{cpus}"
        assert main(["sweep", "--objects", "40", "--requests", "400",
                     "--alphas", "0.9,0.4", "--capacities", "4,8",
                     "--session", "80", "--seed", "77",
                     "--out-dir", str(dirs[cpus])]) == 0
    names = sorted(p.name for p in dirs[1].iterdir())
    assert names == sorted(p.name for p in dirs[2].iterdir())
    for name in names:
        assert (dirs[1] / name).read_bytes() == (dirs[2] / name).read_bytes()


def test_sweep_worker_error_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simulator, "_available_cpus", lambda: 2)
    out_dir = tmp_path / "swp"
    assert main(["sweep", "--objects", "40", "--requests", "400",
                 "--alphas", "0.9,0.4", "--sizes", "nan,2", "--seed", "5",
                 "--out-dir", str(out_dir)]) == 1
    _assert_one_line_error(capsys, "proxysim sweep: error:")
    assert not out_dir.exists()


def test_sweep_rejects_points_sharing_a_file_name(tmp_path, capsys):
    grids = [("0.1234567,0.1234568", "5"), ("0.5,0.5", "5"), ("0.5", "5,5")]
    for index, (alphas, capacities) in enumerate(grids):
        out_dir = tmp_path / f"swp{index}"
        assert main(["sweep", "--objects", "40", "--requests", "400",
                     "--alphas", alphas, "--capacities", capacities,
                     "--seed", "5", "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("proxysim sweep: error: ")
        assert not out_dir.exists()


def test_estimate_exact_summary(tmp_path, capsys):
    out = tmp_path / "model.csv"
    assert main(["estimate", "--objects", "3", "--alpha", "1",
                 "--capacity", "2", "--mode", "exact", "--seed", "4",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "aggregate_bandwidth=" in printed
    summary = out.read_text().splitlines()[-1]
    mass = float(summary.split("top_c_mass=")[1].split()[0])
    assert abs(mass - 9.0 / 11.0) < 1e-10


def test_estimate_zero_k(tmp_path, capsys):
    out = tmp_path / "model.csv"
    assert main(["estimate", "--objects", "10", "--alpha", "0.5",
                 "--capacity", "4", "--k", "0", "--seed", "4",
                 "--out", str(out)]) == 0
    assert "aggregate_bandwidth=0.000000e+00" in capsys.readouterr().out


def test_estimate_paper_mode_singular_alpha(tmp_path, capsys):
    out = tmp_path / "model.csv"
    rc = main(["estimate", "--objects", "10", "--alpha", "1",
               "--capacity", "4", "--mode", "paper", "--seed", "4",
               "--out", str(out)])
    assert rc == 1
    assert "singular" in capsys.readouterr().err
    assert not out.exists()  # failed command leaves no partial file


def test_estimate_corrected_mode(tmp_path, capsys):
    out = tmp_path / "model.csv"
    assert main(["estimate", "--objects", "100", "--alpha", "0.7",
                 "--capacity", "10", "--mode", "corrected", "--seed", "4",
                 "--out", str(out)]) == 0
    assert "top_c_mass_corrected=" in capsys.readouterr().out


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("objects=4\nrequests=6\nalpha=0.5\nseed=9\n"
                   f"out={tmp_path / 'c.trace'}\nsession=3\n")
    for argv in (["gen", "--config", str(cfg)], ["gen", f"--config={cfg}"]):
        (tmp_path / "c.trace").unlink(missing_ok=True)
        assert main(argv) == 0
        header = (tmp_path / "c.trace").read_text().splitlines()[0]
        assert header == "#n_objects=4 session=3"


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("objects=4\nrequests=6\nalpha=0.5\nseed=9\n"
                   f"out={tmp_path / 'c.trace'}\n")
    override = tmp_path / "o.trace"
    assert main(["gen", "--config", str(cfg), "--objects", "2",
                 "--out", str(override)]) == 0
    assert override.read_text().splitlines()[0].startswith("#n_objects=2")


def test_config_file_unknown_key(tmp_path, capsys):
    # help and config are flags, not settings a file can give
    cfg = tmp_path / "gen.cfg"
    out = tmp_path / "z.trace"
    for key, value in (("bogus", "1"), ("help", "1"),
                       ("config", "nothere.cfg")):
        cfg.write_text(f"{key}={value}\n")
        rc = main(["gen", "--config", str(cfg), "--objects", "2",
                   "--requests", "3", "--alpha", "0.5", "--seed", "1",
                   "--out", str(out)])
        assert rc == 1
        _assert_one_line_error(capsys, f"unknown config key {key!r}")
        assert not out.exists()


def test_config_file_rejects_value_outside_choices(tmp_path, capsys):
    cfg = tmp_path / "est.cfg"
    cfg.write_text("mode=bogus\n")
    out = tmp_path / "model.csv"
    assert main(["estimate", "--config", str(cfg), "--objects", "100",
                 "--alpha", "0.7", "--capacity", "10", "--seed", "4",
                 "--out", str(out)]) == 1
    _assert_one_line_error(capsys, "mode='bogus' is not one of")
    assert not out.exists()


def test_config_file_rejects_misspelt_boolean(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    run = ["run", "--config", str(cfg), "--objects", "50", "--requests",
           "200", "--alpha", "0.7", "--capacity", "5", "--seed", "4",
           "--out-dir"]
    cfg.write_text("compare=ture\n")
    assert main(run + [str(tmp_path / "ture")]) == 1
    _assert_one_line_error(capsys, "compare='ture' is not a boolean")
    assert not (tmp_path / "ture").exists()
    for value, written in (("Yes", True), ("0", False)):
        cfg.write_text(f"compare={value}\n")
        assert main(run + [str(tmp_path / value)]) == 0
        assert (tmp_path / value / "comparison.csv").exists() == written


def test_usage_errors(tmp_path, capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "gen" in capsys.readouterr().out
    assert main(["estimate", "--help"]) == 0
    helptext = capsys.readouterr().out
    assert "kb" in helptext and "ms" in helptext


def _assert_one_line_error(capsys, message):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert message in err


def test_run_trace_rejects_out_of_range_k(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    assert main(_gen_args(trace, objects=10, requests=50)) == 0
    out_dir = tmp_path / "run"
    assert main(["run", "--trace", str(trace), "--capacity", "5",
                 "--seed", "2", "--k", "5", "--out-dir", str(out_dir)]) == 1
    _assert_one_line_error(capsys, "k must be in [0, 1]")
    assert not (out_dir / "report.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("objects", "0", "n_objects must be >= 1, got 0"),
    ("requests", "0", "total_requests must be >= 1, got 0"),
    ("session", "0", "session_size must be >= 1, got 0"),
    ("alpha", "-0.5", "alpha must be finite and >= 0, got -0.5"),
    ("k", "1.5", "k must be in [0, 1], got 1.5"),
    ("capacity", "0", "cache_capacity must be >= 1, got 0")])
def test_bad_run_and_sweep_values_rejected(tmp_path, capsys, flag, value,
                                           message):
    # each value is rejected where the run consumes it: one error line,
    # exit 1 and no output directory
    values = {"objects": "20", "requests": "50", "alpha": "0.7",
              "session": "10", "k": "1", "capacity": "5", flag: value}
    plural = {"alpha": "alphas", "capacity": "capacities"}
    for command in ("run", "sweep"):
        out_dir = tmp_path / command
        names = plural if command == "sweep" else {}
        argv = [f"--{names.get(name, name)}={v}" for name, v in values.items()]
        assert main([command, *argv, "--seed", "3",
                     "--out-dir", str(out_dir)]) == 1
        _assert_one_line_error(capsys, message)
        assert not out_dir.exists()


def test_negative_seed_rejected_by_every_command(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    assert main(_gen_args(trace, objects=10, requests=50)) == 0
    point = ["--objects", "10", "--alpha", "0.7"]
    out = tmp_path / "out"
    commands = [
        _gen_args(out, objects=10, requests=50, seed=-1),
        ["run", *point, "--requests", "50", "--capacity", "5",
         "--seed", "-1", "--out-dir", str(out)],
        ["run", "--trace", str(trace), "--capacity", "5", "--seed", "-1",
         "--out-dir", str(out)],
        ["sweep", "--objects", "10", "--requests", "50", "--alphas", "0.7",
         "--capacities", "5", "--seed", "-1", "--out-dir", str(out)],
        ["estimate", *point, "--capacity", "5", "--seed", "-1",
         "--out", str(out)],
    ]
    for argv in commands:
        assert main(argv) == 1, argv
        _assert_one_line_error(capsys, "seed must be >= 0, got -1")
        assert not out.exists()


def test_non_finite_attribute_ranges_rejected(tmp_path, capsys):
    point = ["--objects", "20", "--alpha", "0.7", "--capacity", "5",
             "--seed", "1"]
    for flag, value in (("--sizes", "nan,2"), ("--sizes", "1,inf"),
                        ("--times", "nan,1")):
        out_dir, model = tmp_path / "run", tmp_path / "model.csv"
        assert main(["run", *point, "--requests", "50", flag, value,
                     "--out-dir", str(out_dir)]) == 1
        _assert_one_line_error(capsys, "must be finite")
        assert main(["estimate", *point, flag, value,
                     "--out", str(model)]) == 1
        _assert_one_line_error(capsys, "must be finite")
        assert not out_dir.exists() and not model.exists()


_POINT = ["--objects", "30", "--requests", "400", "--alpha", "0.8",
          "--session", "50", "--capacity", "4", "--seed", "6"]
_DEFAULT_MODEL = {"k": 1.0, "rate_convention": "product",
                  "size_range": [1.0, 15.0], "time_range": [1.0, 10.0]}


def _summary_config(path):
    return json.loads(path.read_text())["config"]


def test_run_summary_config_echo(tmp_path):
    assert main(["run", *_POINT, "--policy", "lru", "--k", "0.5",
                 "--rate", "ratio", "--sizes", "2,3", "--times", "4,5",
                 "--out-dir", str(tmp_path)]) == 0
    assert _summary_config(tmp_path / "summary.json") == {
        "n_objects": 30, "alpha": 0.8, "total_requests": 400,
        "session_size": 50, "cache_capacity": 4, "policy": "lru",
        "seed": 6, "workload_seed": 3153149895, "attr_seed": 4186225163,
        "k": 0.5, "rate_convention": "ratio",
        "size_range": [2.0, 3.0], "time_range": [4.0, 5.0]}


def test_run_trace_summary_config_echo(tmp_path):
    # the trace's own catalog size, length and session size win over flags
    trace = tmp_path / "t.trace"
    assert main(_gen_args(trace, objects=30, requests=400, session=50)) == 0
    assert main(["run", "--trace", str(trace), "--session", "7",
                 "--capacity", "4", "--seed", "6",
                 "--out-dir", str(tmp_path / "run")]) == 0
    _, attr_seed = _child_seeds(6, 2)
    assert _summary_config(tmp_path / "run" / "summary.json") == {
        "trace": str(trace), "n_objects": 30, "total_requests": 400,
        "session_size": 50, "cache_capacity": 4, "policy": "session_lfu",
        "seed": 6, "attr_seed": attr_seed, **_DEFAULT_MODEL}


def test_sweep_point_summary_config_echo(tmp_path):
    assert main(["sweep", "--objects", "30", "--requests", "400",
                 "--alphas", "0.9,0.4", "--capacities", "4,8",
                 "--session", "50", "--seed", "6",
                 "--out-dir", str(tmp_path)]) == 0
    _, seed = _child_seeds(6, 2)   # the second alpha's seed
    workload_seed, attr_seed = _child_seeds(seed, 2)
    assert _summary_config(tmp_path / "summary_a0.4_c8.json") == {
        "n_objects": 30, "alpha": 0.4, "total_requests": 400,
        "session_size": 50, "cache_capacity": 8, "policy": "session_lfu",
        "seed": seed, "workload_seed": workload_seed, "attr_seed": attr_seed,
        **_DEFAULT_MODEL}


def _child_seeds(seed, n):
    """The seed rule's reference: the first 32-bit word of each of the
    ``n`` children of ``SeedSequence(seed)``."""
    return [int(child.generate_state(1, np.uint32)[0])
            for child in np.random.SeedSequence(seed).spawn(n)]


def test_gen_then_run_trace_reproduces_run(tmp_path):
    # one seed rule: gen --seed S then run --trace --seed S replays the
    # requests and charges the attribute table that run --seed S draws
    point = ["--objects", "200", "--requests", "3000", "--alpha", "0.7",
             "--session", "100"]
    trace = tmp_path / "t.trace"
    assert main(["gen", *point, "--seed", "3", "--out", str(trace)]) == 0
    for policy in ("session_lfu", "lru"):
        replayed, drawn = tmp_path / f"trace_{policy}", tmp_path / policy
        common = ["--capacity", "20", "--policy", policy, "--seed", "3"]
        assert main(["run", "--trace", str(trace), *common,
                     "--out-dir", str(replayed)]) == 0
        assert main(["run", *point, *common, "--out-dir", str(drawn)]) == 0
        assert (replayed / "report.csv").read_bytes() == (
            drawn / "report.csv").read_bytes()


def test_estimate_prints_run_compare_model_bandwidth(tmp_path, capsys):
    # one seed rule: estimate --seed S charges the attribute table that
    # run --compare --seed S compares against
    point = ["--objects", "200", "--alpha", "0.7", "--capacity", "20",
             "--seed", "3"]
    assert main(["estimate", *point, "--out", str(tmp_path / "m.csv")]) == 0
    printed = capsys.readouterr().out.split()[0]
    assert main(["run", *point, "--requests", "3000", "--compare",
                 "--out-dir", str(tmp_path / "run")]) == 0
    comparison = (tmp_path / "run" / "comparison.csv").read_text()
    header, row = (line.split(",") for line in comparison.splitlines())
    model = dict(zip(header, row))
    assert printed == (f"aggregate_bandwidth="
                       f"{float(model['model_bandwidth_product']):.6e}")
    # both files write model_report's aggregate to 10 digits
    summary = (tmp_path / "m.csv").read_text().splitlines()[-1]
    assert summary.split()[-1] == (f"aggregate_bandwidth="
                                   f"{model['model_bandwidth_product']}")


def test_sweep_base_seeds_share_no_alpha_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(simulator, "_available_cpus", lambda: 1)
    seeds = {}
    for base in (0, 1):
        out_dir = tmp_path / f"base{base}"
        assert main(["sweep", "--objects", "20", "--requests", "50",
                     "--capacities", "5", "--seed", str(base),
                     "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        seeds[base] = [entry["seed"] for entry in manifest["outputs"]]
        assert seeds[base] == _child_seeds(base, 6)
    assert not set(seeds[0]) & set(seeds[1])


def test_run_trace_rejects_generation_flags(tmp_path, capsys):
    # a usage error, raised before the (missing) trace is opened
    out_dir = tmp_path / "run"
    for flag, value in (("--objects", "5"), ("--requests", "3"),
                        ("--alpha", "9")):
        assert main(["run", "--trace", str(tmp_path / "missing.trace"),
                     flag, value, "--capacity", "1", "--seed", "3",
                     "--out-dir", str(out_dir)]) == 2
        assert f"{flag} conflicts with --trace" in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize("command, key, value", [
    ("run", "sizes", "1"), ("sweep", "alphas", ""),
    ("sweep", "capacities", ""), ("estimate", "times", "1,2,3"),
    ("gen", "objects", "many")])
def test_config_file_rejects_value_its_flag_rejects(tmp_path, capsys,
                                                    command, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key}={value}\n")
    out = tmp_path / "out"
    outputs = {"gen": "--out", "estimate": "--out"}
    assert main([command, "--config", str(cfg), "--seed", "1",
                 outputs.get(command, "--out-dir"), str(out)]) == 1
    _assert_one_line_error(capsys, f"{cfg}: {key}={value!r}")
    assert not out.exists()


def test_config_flag_abbreviations_load_the_file(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("objects=4\nrequests=6\nalpha=0.5\nseed=9\n"
                   f"out={tmp_path / 'c.trace'}\n")
    for argv in (["gen", "--conf", str(cfg)], ["gen", f"--confi={cfg}"]):
        (tmp_path / "c.trace").unlink(missing_ok=True)
        assert main(argv) == 0
        assert (tmp_path / "c.trace").exists()


def test_compare_capacity_above_objects_is_usage_error(tmp_path, capsys,
                                                      monkeypatch):
    # the model's top-C mass needs C <= N: run --compare and estimate
    # share one check, made before any draw
    point = ["--objects", "100", "--alpha", "0.7", "--capacity", "200",
             "--seed", "1"]
    out_dir, model = tmp_path / "run", tmp_path / "model.csv"

    def no_draw(*args, **kwargs):
        raise AssertionError("the check must come before any draw")

    monkeypatch.setattr(simulator, "generate_workload", no_draw)
    assert main(["run", *point, "--requests", "50", "--compare",
                 "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "proxysim run: error: --capacity 200 exceeds --objects 100")
    assert not out_dir.exists()
    assert main(["estimate", *point, "--out", str(model)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "proxysim estimate: error: --capacity 200 exceeds --objects 100")
    assert not model.exists()
    # without the model a cache larger than the catalog is a valid replay
    monkeypatch.undo()
    assert main(["run", *point, "--requests", "50",
                 "--out-dir", str(out_dir)]) == 0


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_overflowing_bandwidth_is_an_error(tmp_path, capsys):
    # s*t overflows to inf and 0*inf is NaN: exit 1 with one error line,
    # never a NaN or inf total in a written file
    model = ["--sizes", "1e308,1e308", "--times", "10,10", "--seed", "1"]
    out = tmp_path / "out"
    for argv in (
            ["run", "--objects", "10", "--requests", "10", "--alpha", "0.7",
             "--capacity", "2", *model, "--out-dir", str(out)],
            ["sweep", "--objects", "10", "--requests", "10", "--alphas",
             "0.7", "--capacities", "2", *model, "--out-dir", str(out)],
            ["estimate", "--objects", "10", "--alpha", "0.7",
             "--capacity", "2", *model, "--out", str(out)]):
        assert main(argv) == 1, argv
        _assert_one_line_error(capsys, "size_range and time_range")
        assert not out.exists()


_HUGE = str(10 ** 15)   # 8 bytes each exceed the address space


@pytest.mark.parametrize("argv", [
    ["gen", "--objects", "10", "--requests", _HUGE, "--alpha", "0.7"],
    ["estimate", "--objects", _HUGE, "--alpha", "0.7", "--capacity", "5"],
    ["run", "--objects", _HUGE, "--requests", "10", "--alpha", "0.7",
     "--capacity", "5"],
    ["sweep", "--objects", _HUGE, "--requests", "10", "--alphas", "0.7"],
    ["gen", "--objects", "10", "--requests", str(10 ** 30), "--alpha", "1"]])
def test_unallocatable_sizes_are_one_line_errors(tmp_path, capsys, argv):
    # numpy refuses these sizes before allocating anything: a MemoryError
    # at 10**15, an OverflowError or ValueError at 10**30
    out = tmp_path / "out"
    flag = "--out" if argv[0] in ("gen", "estimate") else "--out-dir"
    assert main([*argv, "--seed", "1", flag, str(out)]) == 1
    _assert_one_line_error(capsys, f"proxysim {argv[0]}: error: ")
    assert not out.exists()


def test_bare_memory_error_reads_out_of_memory(tmp_path, capsys,
                                               monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("proxysim.cli.generate_workload", exhausted)
    out = tmp_path / "t.trace"
    assert main(_gen_args(out)) == 1
    _assert_one_line_error(capsys, "proxysim gen: error: out of memory")
    assert not out.exists()


def test_double_dash_flag_value_is_usage_error(tmp_path, capsys):
    # argparse stores --flag=-- as an empty list instead of calling the
    # flag's type on it
    out = tmp_path / "model.csv"
    assert main(["estimate", "--objects=10", "--alpha", "0.7",
                 "--capacity=--", "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "proxysim estimate: error: -- is not a flag value")
    assert not out.exists()
