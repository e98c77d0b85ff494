"""Run one proxysim CLI command in this interpreter with timing spans.

Usage::

    python3 bench/tracer.py SPANS_JSON -- gen --objects 100 ...

The benchmark starts this script as a fresh process in place of
``python3 -m proxysim``. It times ``import proxysim``, then wraps the
public functions listed in ``LAYERS`` and calls ``proxysim.cli.main``.
Each wrapped call records a span (id, name, parent, start, end and
optional counts) in memory; the spans are written to ``SPANS_JSON`` when
the command ends, and the process exits with the command's exit code.

The modules bind names with ``from .x import y``, so a wrapper must
replace the name in every module that looks it up, not only where the
function is defined. Only whole calls are wrapped, never single cache
accesses, so that tracing leaves replay speed alone.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time


class Recorder:
    """In-memory span store; the open spans form the parent chain."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    result = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, reach = 0.0, lo
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        result[s["id"]] = (hi - lo) - covered
    return result


def _path_size(path: str) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


# Defining module, function, and a hook that returns the span-name
# suffix and counts from the bound arguments and the result. A span is
# named after the module without its package, then the function.
LAYERS = (
    ("popularity", "build_catalog", None),
    ("workload", "generate_workload",
     lambda a, r: ("", {"requests": r.total_requests})),
    ("workload", "assign_attributes", None),
    ("workload", "save_trace",
     lambda a, r: ("", {"bytes": _path_size(a["path"])})),
    ("workload", "load_trace",
     lambda a, r: ("", {"bytes": _path_size(a["path"])})),
    ("simulator", "simulate_workload",
     lambda a, r: ("." + a["policy"],
                   {"requests": a["workload"].total_requests})),
    ("simulator", "compare_analytic", None),
    ("simulator", "write_report_csv",
     lambda a, r: ("", {"bytes": _path_size(a["path"])})),
    ("simulator", "write_summary_json", None),
    ("analytics", "model_report", None),
    ("analytics", "write_model_report_csv", None),
)


def _wrap(recorder: Recorder, name: str, fn, hook):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if hook is not None:
            bound = signature.bind(*args, **kwargs).arguments
            suffix, counts = hook(bound, result)
            span["name"] += suffix
            span["counts"] = counts
        return result

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every layer function wherever a proxysim module binds it."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "proxysim" or n.startswith("proxysim.")]
    for module_name, attr, hook in LAYERS:
        original = getattr(sys.modules[f"proxysim.{module_name}"], attr)
        wrapper = _wrap(recorder, f"{module_name}.{attr}", original, hook)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- COMMAND [ARGS...]",
              file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[2:]
    recorder = Recorder()
    span = recorder.begin("import")
    import proxysim.cli
    recorder.end(span)
    install(recorder)
    span = recorder.begin("cli.main")
    try:
        code = proxysim.cli.main(command)
    finally:
        recorder.end(span)
        with open(spans_path, "w") as f:
            json.dump(recorder.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
