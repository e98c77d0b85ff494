import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _modules_after_cli_import(*packages):
    """Top-level ``packages`` loaded by ``import proxysim.cli`` in a fresh
    interpreter."""
    probe = ("import sys, proxysim.cli; "
             f"print(sorted(m for m in sys.modules "
             f"if m.split('.')[0] in {packages!r}))")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
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
