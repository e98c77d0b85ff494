"""proxysim benchmark: end-to-end CLI timings and traced per-layer figures.

Usage (from the repository root)::

    python3 bench/run.py --workload grid_lfu --seed 1 --seconds 40 --trace 0

Each run drives the real CLI (``python3 -m proxysim`` with ``src`` on
``PYTHONPATH``) as fresh subprocesses, one at a time, from this single
process. A workload is a fixed sequence of CLI commands; the run repeats
that sequence until the next repeat would pass ``--seconds`` (at least
twice) and reports medians.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median wall time of a fresh interpreter running
  ``import proxysim``, which every CLI call pays before it works;
- ``wall_s``: median wall time of the workload's whole command sequence;
- ``peak_rss_mb``: median over sequences of the largest max-RSS among
  the sequence's child processes, read from ``os.wait4``.

``--trace 1`` alternates untraced sequences with traced ones, in which
each command runs through ``bench/tracer.py``, and reports per-layer
figures summed over one sequence (median over traced sequences), plus
``trace.overhead_s``, the traced minus the untraced median wall time.

Every command's outputs are checked for invariants and digested. A
command that exits non-zero, misses an output, breaks an invariant, or
writes bytes that differ from the run's first sequence counts as failed.
The workload seed reaches the program only through ``--seed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; an earlier line
stamps the environment (``{"env": ...}``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"
sys.path.insert(0, str(BENCH))
from tracer import self_times  # noqa: E402

N_OBJECTS = 10_000
N_REQUESTS = 1_000_000
SESSION = 1000
SWEEP_DEFAULT_ALPHAS = (0.98, 0.75, 0.64, 0.51, 0.41, 0.31)
CURVE_ALPHAS = (0.98, 0.64, 0.31)
CURVE_CAPACITIES = (10, 100, 1000, 5000)
SESSION_ALPHA = 0.7
SESSION_CAPACITY = 100
# Acceptance criterion 2: an LFU hit ratio tracks the top-C mass.
MASS_TOLERANCE = 0.02
# Import timings taken before each sequence, so that set-up and the
# sequence sample the same stretch of machine load.
SETUP_SAMPLES = 2
# A run repeats its sequence until the next one would pass --seconds, but
# always runs at least this many: with tracing, one untraced and one
# traced. Kept low so that a run on a loaded machine stays short.
MIN_SEQUENCES = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
POLICIES = ("session_lfu", "lru")
COMMANDS = ("gen", "run", "sweep", "estimate")
PER_LAYER = (
    ["import.s"]
    + [f"simulator.simulate_workload.{p}.{m}" for p in POLICIES
       for m in ("ns_per_request", "s", "calls")]
    + ["workload.generate_workload.s", "workload.generate_workload.calls",
       "workload.generate_workload.requests",
       "popularity.build_catalog.s", "popularity.build_catalog.calls",
       "workload.assign_attributes.s", "workload.assign_attributes.calls",
       "workload.save_trace.s", "workload.save_trace.bytes",
       "workload.load_trace.s", "workload.load_trace.bytes",
       "simulator.compare_analytic.self_s",
       "simulator.compare_analytic.calls",
       "analytics.model_report.s", "analytics.write_model_report_csv.s",
       "simulator.write_report_csv.s", "simulator.write_report_csv.bytes",
       "simulator.write_summary_json.s",
       "cli.self_s"]
    + [f"cli.{c}.cpu_s" for c in COMMANDS]
    + ["trace.overhead_s"]
)
UNITS = {"s": "s", "self_s": "s", "cpu_s": "s", "overhead_s": "s",
         "calls": "count", "requests": "count", "bytes": "bytes",
         "ns_per_request": "ns"}

REPORT_HEADER = "rank,log100_rank,requests,hits,misses,bandwidth"
COMPARISON_HEADER = ("capacity,simulated_hit_ratio,top_c_mass,gap,"
                     "sim_bandwidth,model_bandwidth_product,"
                     "model_bandwidth_ratio")
MODEL_HEADER = "rank,p,miss_prob,bandwidth"
TIMING_KEY = re.compile(r"elapsed|timing|duration|second|wall|cpu")


# ---------------------------------------------------------------- checks

def top_c_mass(alpha: float, capacity: int, n: int) -> float:
    """Exact Zipf mass of the top ``capacity`` of ``n`` ranks."""
    weights = [i ** -alpha for i in range(1, n + 1)]
    return math.fsum(weights[:capacity]) / math.fsum(weights)


def check_report(path: Path, n: int, r: int,
                 expected_requests: list[int] | None = None
                 ) -> tuple[list[str], int]:
    """Check a per-rank report CSV; returns problems and the hit total."""
    lines = path.read_text().splitlines()
    problems = []
    if not lines or lines[0] != REPORT_HEADER:
        problems.append(f"{path.name}: bad header")
    rows = lines[1:]
    if len(rows) != n:
        problems.append(f"{path.name}: {len(rows)} rows, expected {n}")
    total = hits_total = 0
    requests_column = []
    for i, line in enumerate(rows, start=1):
        fields = line.split(",")
        try:
            rank, req, hits, misses = (int(f) for f in
                                       (fields[0], *fields[2:5]))
            bandwidth = float(fields[5])
        except (ValueError, IndexError):
            problems.append(f"{path.name}: row {i} unparsable: {line!r}")
            continue
        if rank != i:
            problems.append(f"{path.name}: row {i} has rank {rank}")
        if not 0 <= hits <= req:
            problems.append(f"{path.name}: rank {rank} hits {hits} "
                            f"outside 0..{req}")
        if hits + misses != req:
            problems.append(f"{path.name}: rank {rank} hits + misses "
                            f"!= requests")
        if not (math.isfinite(bandwidth) and bandwidth >= 0):
            problems.append(f"{path.name}: rank {rank} bandwidth "
                            f"{bandwidth}")
        total += req
        hits_total += hits
        requests_column.append(req)
    if total != r:
        problems.append(f"{path.name}: requests sum {total}, expected {r}")
    if expected_requests is not None and requests_column != expected_requests:
        problems.append(f"{path.name}: requests differ from the trace")
    return problems[:5], hits_total


def _keys(value) -> list[str]:
    if isinstance(value, dict):
        return [k for k, v in value.items() for k in (k, *_keys(v))]
    if isinstance(value, list):
        return [k for v in value for k in _keys(v)]
    return []


def check_summary(path: Path, r: int, hits: int) -> tuple[list[str], float]:
    """Check a summary JSON against its report's hit total."""
    payload = json.loads(path.read_text())
    totals = payload["totals"]
    ratio = totals["hit_ratio"]
    problems = []
    if not 0.0 <= ratio <= 1.0:
        problems.append(f"{path.name}: hit ratio {ratio} outside [0, 1]")
    if (totals["total_requests"], totals["total_hits"],
            totals["total_misses"]) != (r, hits, r - hits):
        problems.append(f"{path.name}: totals disagree with the report")
    if abs(ratio - hits / r) > 1e-12:
        problems.append(f"{path.name}: hit ratio {ratio} != hits / requests")
    timing = [k for k in _keys(payload) if TIMING_KEY.search(k)]
    if timing:
        problems.append(f"{path.name}: timing keys {timing}")
    return problems, ratio


def check_point(directory: Path, report: str, summary: str, n: int, r: int,
                expected_requests: list[int] | None = None
                ) -> tuple[list[str], float]:
    problems, hits = check_report(directory / report, n, r,
                                  expected_requests)
    more, ratio = check_summary(directory / summary, r, hits)
    return problems + more, ratio


def check_files(directory: Path, expected: set[str]) -> list[str]:
    found = {p.name for p in directory.iterdir()}
    return [] if found == expected else [
        f"{directory.name}: files {sorted(found)}, expected "
        f"{sorted(expected)}"]


def check_sweep(directory: Path, alphas, capacities, n: int, r: int
                ) -> tuple[list[str], dict]:
    """Check a sweep's manifest and every point; returns hit ratios."""
    manifest = json.loads((directory / "manifest.json").read_text())
    entries = manifest["outputs"]
    points = {(e["alpha"], e["capacity"]): e for e in entries}
    expected = {(a, c) for a in alphas for c in capacities}
    problems = []
    if set(points) != expected or len(entries) != len(expected):
        problems.append(f"manifest points {sorted(points)}, "
                        f"expected {sorted(expected)}")
    problems += check_files(directory, {"manifest.json"} | {
        e[k] for e in entries for k in ("report_csv", "summary_json")})
    ratios = {}
    for key, e in sorted(points.items()):
        more, ratio = check_point(directory, e["report_csv"],
                                  e["summary_json"], n, r)
        problems += more
        if e["hit_ratio"] != ratio:
            problems.append(f"manifest hit ratio of {key} != summary")
        ratios[key] = ratio
    return problems, ratios


def check_grid(directory: Path, n: int, r: int) -> list[str]:
    problems, ratios = check_sweep(directory, SWEEP_DEFAULT_ALPHAS, (100,),
                                   n, r)
    for (alpha, capacity), ratio in ratios.items():
        gap = abs(ratio - top_c_mass(alpha, capacity, n))
        if gap > MASS_TOLERANCE:
            problems.append(f"alpha {alpha}: hit ratio {ratio} is {gap:.4f} "
                            f"from the top-{capacity} mass")
    return problems


def check_curve(directory: Path, n: int, r: int) -> list[str]:
    problems, ratios = check_sweep(directory, CURVE_ALPHAS,
                                   CURVE_CAPACITIES, n, r)
    for alpha in CURVE_ALPHAS:
        curve = [ratios.get((alpha, c)) for c in CURVE_CAPACITIES]
        if None not in curve and any(a >= b for a, b in zip(curve,
                                                            curve[1:])):
            problems.append(f"alpha {alpha}: hit ratio not rising with "
                            f"capacity: {curve}")
    return problems


def read_trace(path: Path, n: int, r: int) -> tuple[list[str], list[int]]:
    """Check a trace file; returns problems and its per-rank counts."""
    lines = path.read_text().splitlines()
    problems = []
    if not lines or lines[0] != f"#n_objects={n} session={SESSION}":
        problems.append(f"{path.name}: bad header")
    counts = [0] * n
    for line in lines[1:]:
        rank = int(line)
        if not 1 <= rank <= n:
            problems.append(f"{path.name}: rank {rank} outside 1..{n}")
            break
        counts[rank - 1] += 1
    if len(lines) - 1 != r:
        problems.append(f"{path.name}: {len(lines) - 1} ranks, expected {r}")
    return problems, counts


def check_comparison(path: Path, capacity: int, alpha: float, n: int,
                     ratio: float) -> list[str]:
    lines = path.read_text().splitlines()
    if lines[:1] != [COMPARISON_HEADER] or len(lines) != 2:
        return [f"{path.name}: expected a header and one row"]
    cap, sim, mass, gap = lines[1].split(",")[:4]
    sim, mass, gap = float(sim), float(mass), float(gap)
    problems = []
    if int(cap) != capacity:
        problems.append(f"{path.name}: capacity {cap}")
    if not math.isclose(sim, ratio, rel_tol=1e-9):
        problems.append(f"{path.name}: simulated hit ratio {sim} != {ratio}")
    if not math.isclose(mass, top_c_mass(alpha, capacity, n), rel_tol=1e-9):
        problems.append(f"{path.name}: top-C mass {mass}")
    if not math.isclose(gap, abs(sim - mass), abs_tol=1e-9):
        problems.append(f"{path.name}: gap {gap} != |{sim} - {mass}|")
    if gap > MASS_TOLERANCE:
        problems.append(f"{path.name}: gap {gap} above {MASS_TOLERANCE}")
    return problems


def check_model(path: Path, capacity: int, alpha: float, n: int
                ) -> list[str]:
    lines = path.read_text().splitlines()
    problems = []
    if lines[:1] != [MODEL_HEADER]:
        problems.append(f"{path.name}: bad header")
    rows, last = lines[1:-1], lines[-1]
    if len(rows) != n:
        problems.append(f"{path.name}: {len(rows)} rows, expected {n}")
    p_total = 0.0
    for i, line in enumerate(rows, start=1):
        rank, p, miss = line.split(",")[:3]
        p_total += float(p)
        if int(rank) != i or not 0.0 <= float(miss) <= 1.0:
            problems.append(f"{path.name}: bad row {i}: {line!r}")
            break
    if not math.isclose(p_total, 1.0, rel_tol=1e-9):
        problems.append(f"{path.name}: probabilities sum to {p_total}")
    summary = dict(f.split("=", 1) for f in last.split()[2:]
                   if last.startswith("# summary "))
    if not summary:
        problems.append(f"{path.name}: no trailing '# summary' line")
    elif not math.isclose(float(summary["top_c_mass"]),
                          top_c_mass(alpha, capacity, n), rel_tol=1e-9):
        problems.append(f"{path.name}: summary top_c_mass "
                        f"{summary['top_c_mass']}")
    return problems


# ------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments, the outputs it must leave in the
    sequence directory, and the invariants those outputs must meet."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[Path], list[str]]

    @property
    def name(self) -> str:
        return self.argv[0]


def grid_lfu(seed: int, n: int = N_OBJECTS, r: int = N_REQUESTS
             ) -> list[Command]:
    """The paper's grid: six default alphas at C=100, session LFU."""
    return [Command(
        ("sweep", "--objects", str(n), "--requests", str(r),
         "--seed", str(seed), "--out-dir", "grid"),
        ("grid",), lambda d: check_grid(d / "grid", n, r))]


def lru_curve(seed: int, n: int = N_OBJECTS, r: int = N_REQUESTS
              ) -> list[Command]:
    """An LRU miss-ratio curve: three alphas by four capacities."""
    return [Command(
        ("sweep", "--objects", str(n), "--requests", str(r),
         "--policy", "lru", "--alphas", ",".join(map(str, CURVE_ALPHAS)),
         "--capacities", ",".join(map(str, CURVE_CAPACITIES)),
         "--seed", str(seed), "--out-dir", "curve"),
        ("curve",), lambda d: check_curve(d / "curve", n, r))]


def cli_session(seed: int, n: int = N_OBJECTS, r: int = N_REQUESTS
                ) -> list[Command]:
    """The README flow: gen, run a trace, run --compare, estimate."""
    alpha, cap = SESSION_ALPHA, SESSION_CAPACITY
    point = ("--objects", str(n), "--alpha", str(alpha))

    def check_gen(d: Path) -> list[str]:
        return read_trace(d / "zipf.trace", n, r)[0]

    def check_run_trace(d: Path) -> list[str]:
        counts = read_trace(d / "zipf.trace", n, r)[1]
        problems = check_files(d / "lru", {"report.csv", "summary.json"})
        more, _ = check_point(d / "lru", "report.csv", "summary.json", n, r,
                              counts)
        return problems + more

    def check_compare(d: Path) -> list[str]:
        out = d / "compare"
        problems = check_files(
            out, {"report.csv", "summary.json", "comparison.csv"})
        more, ratio = check_point(out, "report.csv", "summary.json", n, r)
        return problems + more + check_comparison(
            out / "comparison.csv", cap, alpha, n, ratio)

    return [
        Command(("gen", *point, "--requests", str(r), "--seed", str(seed),
                 "--out", "zipf.trace"),
                ("zipf.trace",), check_gen),
        Command(("run", "--trace", "zipf.trace", "--policy", "lru",
                 "--capacity", str(cap), "--seed", str(seed),
                 "--out-dir", "lru"),
                ("lru",), check_run_trace),
        Command(("run", *point, "--requests", str(r), "--capacity", str(cap),
                 "--compare", "--seed", str(seed), "--out-dir", "compare"),
                ("compare",), check_compare),
        Command(("estimate", *point, "--capacity", str(cap),
                 "--seed", str(seed), "--out", "model.csv"),
                ("model.csv",),
                lambda d: check_model(d / "model.csv", cap, alpha, n)),
    ]


# Why each workload is here, and which layers it stresses, is recorded
# in BENCHMARK.json and bench/BASELINE.md.
WORKLOADS = {"grid_lfu": grid_lfu, "lru_curve": lru_curve,
             "cli_session": cli_session}


# ------------------------------------------------------------- execution

@dataclass
class Outcome:
    command: Command
    code: int
    cpu_s: float
    max_rss_kb: int
    problems: list[str]
    digest: str
    spans: list[dict] | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], cwd: Path, log: Path
          ) -> tuple[int, float, float, int]:
    """Run one child to completion; returns exit code, wall s, cpu s and
    max RSS in KiB from its rusage."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss)


def digest(directory: Path, outputs: tuple[str, ...]) -> str:
    """SHA-256 over the names and bytes of every output file."""
    h = hashlib.sha256()
    for name in outputs:
        path = directory / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) \
            if path.is_dir() else [path]
        for f in files:
            h.update(str(f.relative_to(directory)).encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def run_sequence(commands: list[Command], work: Path, traced: bool
                 ) -> tuple[float, list[Outcome]]:
    """Run the commands in a fresh directory; returns the sequence's wall
    time and one checked outcome per command."""
    seq = work / "seq"
    shutil.rmtree(seq, ignore_errors=True)
    seq.mkdir()
    timings = []
    start = time.perf_counter()
    for i, cmd in enumerate(commands):
        if traced:
            argv = [sys.executable, str(TRACER),
                    str(work / f"spans{i}.json"), "--", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "proxysim", *cmd.argv]
        code, _, cpu, rss = spawn(argv, seq, work / f"log{i}.txt")
        timings.append((code, cpu, rss))
    wall = time.perf_counter() - start

    outcomes = []
    for i, (cmd, (code, cpu, rss)) in enumerate(
            zip(commands, timings)):
        problems = [] if code == 0 else [f"exit code {code}"]
        missing = [o for o in cmd.outputs if not (seq / o).exists()]
        if missing:
            problems.append(f"missing outputs {missing}")
        if not problems:
            try:
                problems = cmd.check(seq)
            except Exception as exc:  # a malformed output must not stop the run
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            log = (work / f"log{i}.txt").read_text(errors="replace")
            print(f"FAILED {' '.join(cmd.argv)}: {problems}\n{log[-2000:]}",
                  file=sys.stderr)
        spans = None
        if traced and code == 0:
            spans = json.loads((work / f"spans{i}.json").read_text())
        outcomes.append(Outcome(
            cmd, code, cpu, rss, problems,
            "" if missing else digest(seq, cmd.outputs), spans))
    return wall, outcomes


def layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Sum span durations, self times, counts and child CPU over one
    traced sequence, keyed by per-layer metric name."""
    totals: dict[str, float] = {name: 0 for name in PER_LAYER}

    def add(name: str, value: float) -> None:
        if name in totals:
            totals[name] += value

    for o in outcomes:
        add(f"cli.{o.command.name}.cpu_s", o.cpu_s)
        spans = o.spans or []
        own = self_times(spans)
        for s in spans:
            name = s["name"]
            if name == "cli.main":
                add("cli.self_s", own[s["id"]])
                continue
            add(f"{name}.s", s["end"] - s["start"])
            add(f"{name}.self_s", own[s["id"]])
            add(f"{name}.calls", 1)
            for key, value in s["counts"].items():
                add(f"{name}.{key}", value)
    for policy in POLICIES:
        stem = f"simulator.simulate_workload.{policy}"
        requests = sum(s["counts"]["requests"] for o in outcomes
                       for s in o.spans or [] if s["name"] == stem)
        if requests:
            totals[f"{stem}.ns_per_request"] = (
                totals[f"{stem}.s"] * 1e9 / requests)
    return totals


def unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def environment() -> dict:
    """Machine, interpreter, library and source identity of this run."""
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = dirty = None
    if (ROOT / ".git").exists():  # the checkout may not be a repository
        def git(*args: str) -> str:
            return subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        try:
            sha = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain"))
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "proxysim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_sha": sha, "git_dirty": dirty,
            "src_sha256": h.hexdigest()}


def time_job(argv: list[str], work: Path) -> float:
    """Wall time of one child that must succeed."""
    code, wall, _, _ = spawn(argv, work, work / "job.txt")
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {code}: "
                           f"{(work / 'job.txt').read_text()[-500:]}")
    return wall


def preflight(work: Path) -> None:
    """Fail unless proxysim imports from this checkout's source tree;
    the import also fills the bytecode cache before anything is timed."""
    if not (SRC / "proxysim" / "cli.py").is_file():
        raise RuntimeError(f"no proxysim sources under {SRC}")
    probe = subprocess.run(
        [sys.executable, "-c", "import proxysim; print(proxysim.__file__)"],
        cwd=work, env=child_env(), capture_output=True, text=True)
    if probe.returncode != 0 or Path(probe.stdout.strip()).parent != \
            SRC / "proxysim":
        raise RuntimeError(f"proxysim does not import from {SRC}: "
                           f"{probe.stderr.strip()[-500:]}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = WORKLOADS[workload](seed)
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        preflight(work)
        print(json.dumps({"env": environment()}))
        kinds = [False, True] if trace else [False]
        deadline = time.perf_counter() + seconds
        setup: list[float] = []
        sequences: list[tuple[bool, float, list[Outcome]]] = []
        while True:
            traced = kinds[len(sequences) % len(kinds)]
            started = time.perf_counter()
            if not trace:
                setup += [time_job([sys.executable, "-c", "import proxysim"],
                                   work) for _ in range(SETUP_SAMPLES)]
            wall, outcomes = run_sequence(commands, work, traced)
            sequences.append((traced, wall, outcomes))
            print(f"sequence {len(sequences)} traced={int(traced)} "
                  f"wall_s={wall:.3f} peak_rss_mb="
                  f"{max(o.max_rss_kb for o in outcomes) / 1024:.1f} "
                  f"failed={sum(bool(o.problems) for o in outcomes)}")
            took = time.perf_counter() - started
            if (len(sequences) >= MIN_SEQUENCES
                    and time.perf_counter() + took > deadline):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    # Every sequence must reproduce the first one's bytes, traced or not.
    first = [o.digest for o in sequences[0][2]]
    attempted = failed = 0
    for _, _, outcomes in sequences:
        for o, ref in zip(outcomes, first):
            attempted += 1
            if o.digest != ref and not o.problems:
                o.problems.append("outputs differ from the first sequence")
                print(f"FAILED {' '.join(o.command.argv)}: "
                      f"{o.problems[0]}", file=sys.stderr)
            failed += bool(o.problems)

    if trace:
        plain = [w for t, w, _ in sequences if not t]
        traced_runs = [(w, layer_metrics(o)) for t, w, o in sequences if t]
        values = {name: statistics.median(m[name] for _, m in traced_runs)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(w for w, _ in traced_runs)
            - statistics.median(plain))
        metrics = {name: {"value": values[name], "unit": unit(name)}
                   for name in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(w for _, w, _ in sequences),
            "peak_rss_mb": statistics.median(
                max(o.max_rss_kb for o in outcomes) / 1024
                for _, _, outcomes in sequences),
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]}
                   for name in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # Turn SIGTERM into SystemExit so that a running child is killed and
    # reaped, and the work directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
