import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def _src_env():
    """The environment with the package's source tree on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _modules_after_cli_import(*packages):
    """Top-level ``packages`` loaded by ``import proxysim.cli`` in a fresh
    interpreter."""
    probe = ("import sys, proxysim.cli; "
             f"print(sorted(m for m in sys.modules "
             f"if m.split('.')[0] in {packages!r}))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; the CLI must not pay for it
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_loads_no_process_pool():
    # only sweep() needs worker processes; it imports them when it runs
    assert _modules_after_cli_import("concurrent", "multiprocessing") == "[]"


def test_demo_imports_exist():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for demo in demos:
        for node in ast.walk(ast.parse(demo.read_text(), str(demo))):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "proxysim":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), \
                        f"{demo.name}: {node.module}.{alias.name} is missing"


def test_benchmark_tracer_records_layer_spans(tmp_path):
    # bench/tracer.py wraps package functions by name; a rename must
    # fail here rather than leave the benchmark's per-layer spans empty
    point = ["--objects", "50", "--alpha", "0.7", "--seed", "3"]
    commands = {
        "gen": ["gen", *point, "--requests", "500", "--out", "t.trace"],
        "trace": ["run", "--trace", "t.trace", "--policy", "lru",
                  "--capacity", "5", "--seed", "3", "--out-dir", "lru"],
        "compare": ["run", *point, "--requests", "500", "--capacity", "5",
                    "--compare", "--out-dir", "compare"],
    }
    spans = {}
    for name, argv in commands.items():
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "tracer.py"),
             f"{name}.json", "--", *argv],
            cwd=tmp_path, env=_src_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        spans[name] = {s["name"] for s in json.loads(
            (tmp_path / f"{name}.json").read_text())}
    assert {"simulator.simulate_workload.lru",
            "workload.load_trace"} <= spans["trace"]
    assert "simulator.simulate_workload.session_lfu" in spans["compare"]
