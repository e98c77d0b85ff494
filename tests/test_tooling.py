import ast
import importlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import proxysim
from proxysim.cli import _build_parser

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


def test_cli_import_builds_no_replay_kernel(tmp_path):
    # the replay kernel is built and loaded through ctypes by the first
    # replay, so an import pays for neither; numpy imports ctypes itself,
    # so the probe asks whether the loader ran
    probe = ("import proxysim.cli, proxysim.cache as c; "
             "print(c._kernel.cache_info().currsize, 'ctypes' in vars(c))")
    env = dict(_src_env(), XDG_CACHE_HOME=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_replay_kernel_compiles_without_warnings(tmp_path):
    # the loader captures the compiler's output and falls back to Python
    # on a failed build, so a warning would show nowhere else; -O2, as the
    # loader builds, runs the passes that warnings such as
    # -Wmaybe-uninitialized need
    proc = subprocess.run(["cc", "-O2", "-Wall", "-Wextra", "-Werror", "-c",
                           "-o", str(tmp_path / "k.o"),
                           str(ROOT / "src" / "proxysim" / "_replay.c")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_built_kernel_loads_without_subprocess(tmp_path):
    # only a build runs the compiler, so a process that finds the library
    # in its cache folder does not pay to import subprocess
    probe = ("import sys, proxysim.cache as c; "
             "print(c._kernel() is not None, 'subprocess' in sys.modules)")
    env = dict(_src_env(), XDG_CACHE_HOME=str(tmp_path))
    outputs = [subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True)
               for _ in range(2)]
    assert [proc.returncode for proc in outputs] == [0, 0], outputs
    assert outputs[0].stdout.split() == ["True", "True"]    # built it
    assert outputs[1].stdout.split() == ["True", "False"]   # loaded it


def test_package_exports_match_all():
    # __all__ and the names the package binds are one list: each entry
    # resolves, and each public name bound is listed
    assert all(hasattr(proxysim, name) for name in proxysim.__all__)
    bound = {name for name, value in vars(proxysim).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert bound == set(proxysim.__all__)


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


@pytest.mark.parametrize("demo", ["popularity_model", "zeta_tail_terms",
                                  "replacement_policies",
                                  "model_vs_simulation", "traffic_grid"])
def test_demo_runs(demo, tmp_path):
    # a demo broken by API drift must fail here, not in a reader's hands
    proc = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")],
                          cwd=tmp_path, env=_src_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


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
        spans[name] = {s["name"]: s for s in json.loads(
            (tmp_path / f"{name}.json").read_text())}
    assert {"simulator.simulate_workload.lru",
            "workload.load_trace"} <= spans["trace"].keys()
    assert "simulator.simulate_workload.session_lfu" in spans["compare"]
    # the tracer counts trace bytes from an argument named path
    size = (tmp_path / "t.trace").stat().st_size
    assert spans["gen"]["workload.save_trace"]["counts"] == {"bytes": size}
    assert spans["trace"]["workload.load_trace"]["counts"] == {"bytes": size}


_POLICIES = ("session_lfu", "lru", "lfu_classic")
_MODEL_FLAGS = [("--sizes", (1.0, 15.0), None),
                ("--times", (1.0, 10.0), None), ("--k", 1.0, None),
                ("--rate", "product", ("product", "ratio"))]
# (option string, default, choices) of every flag, in help order
_CLI_SURFACE = {
    "gen": [("--objects", None, None), ("--requests", None, None),
            ("--alpha", None, None), ("--session", 1000, None),
            ("--seed", None, None), ("--out", None, None),
            ("--config", None, None)],
    "run": [("--trace", None, None), ("--objects", None, None),
            ("--requests", None, None), ("--alpha", None, None),
            ("--session", 1000, None), ("--capacity", None, None),
            ("--policy", "session_lfu", _POLICIES), ("--seed", None, None),
            ("--out-dir", None, None), ("--compare", False, None),
            *_MODEL_FLAGS, ("--config", None, None)],
    "sweep": [("--objects", 10000, None), ("--requests", 1000000, None),
              ("--alphas", (0.98, 0.75, 0.64, 0.51, 0.41, 0.31), None),
              ("--capacities", (100,), None), ("--session", 1000, None),
              ("--policy", "session_lfu", _POLICIES), ("--seed", None, None),
              ("--out-dir", None, None), *_MODEL_FLAGS,
              ("--config", None, None)],
    "estimate": [("--objects", None, None), ("--alpha", None, None),
                 ("--capacity", None, None), ("--requests", 1000000, None),
                 ("--mode", "exact", ("exact", "paper", "corrected")),
                 ("--seed", None, None), ("--out", None, None),
                 *_MODEL_FLAGS, ("--config", None, None)],
}


def test_cli_flags_defaults_and_choices():
    # pins every subcommand's flags so that no flag is dropped, added or
    # given a new default or choice set
    _, subparsers = _build_parser()
    assert list(subparsers) == list(_CLI_SURFACE)
    for name, sub in subparsers.items():
        flags = [(*a.option_strings, a.default,
                  None if a.choices is None else tuple(a.choices))
                 for a in sub._actions if a.dest != "help"]
        assert flags == _CLI_SURFACE[name], name


def test_readme_commands_parse():
    # every command in README's "Command line" block must still parse
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("proxysim ")]
    parser, _ = _build_parser()
    assert sorted({c.split()[1] for c in commands}) == sorted(_CLI_SURFACE)
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_readme_library_block_runs():
    # README's "Library use" block must run as written and print what its
    # comment promises
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", block], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    hit_ratio, mass = map(float, proc.stdout.split())
    assert abs(hit_ratio - mass) < 0.002
