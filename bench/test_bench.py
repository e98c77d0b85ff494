"""Self-tests of the benchmark: span arithmetic, output checks, tracing.

Run with ``python3 -m pytest bench``.
"""

import json
import shutil
from pathlib import Path

import pytest

import run as bench
from tracer import self_times

N, R = 500, 50_000


def span(id_, parent, start, end, name="x"):
    return {"id": id_, "name": name, "parent": parent, "start": start,
            "end": end, "counts": {}}


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 3.0),
        span(2, 0, 2.0, 4.0),      # overlaps span 1: [1, 4] counts once
        span(3, 1, 1.5, 2.5),      # grandchild: not subtracted from 0
        span(4, 0, 9.0, 12.0),     # clipped to the parent's end
        span(5, 0, 5.0, 5.0),      # empty
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert own[5] == 0.0


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([span(0, None, 2.0, 2.5)]) == {0: pytest.approx(0.5)}


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """A small cli_session sequence, run once untraced and once traced."""
    commands = bench.cli_session(7, N, R)
    runs = {}
    for traced in (False, True):
        work = tmp_path_factory.mktemp(f"traced{int(traced)}")
        runs[traced] = (work / "seq", *bench.run_sequence(commands, work,
                                                          traced))
    return commands, runs


def test_small_session_passes_every_check(session):
    _, runs = session
    for _, _, outcomes in runs.values():
        assert [o.problems for o in outcomes] == [[]] * len(outcomes)


def test_traced_and_untraced_outputs_are_identical(session):
    _, runs = session
    plain = [o.digest for o in runs[False][2]]
    traced = [o.digest for o in runs[True][2]]
    assert all(plain) and plain == traced


def test_traced_counts(session):
    _, runs = session
    metrics = bench.layer_metrics(runs[True][2])
    assert metrics["workload.generate_workload.calls"] == 4  # gen + 3
    assert metrics["workload.generate_workload.requests"] == 4 * R
    assert metrics["simulator.simulate_workload.lru.calls"] == 1
    assert metrics["simulator.simulate_workload.session_lfu.calls"] == 2
    assert metrics["simulator.compare_analytic.calls"] == 1
    assert metrics["workload.save_trace.bytes"] == \
        metrics["workload.load_trace.bytes"] > 0
    assert metrics["cli.sweep.cpu_s"] == 0
    assert metrics["import.s"] > 0 and metrics["cli.self_s"] > 0


def _rewrite_report(seq: Path, edit) -> None:
    path = seq / "lru" / "report.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _hits_above_requests(lines):
    rank, log100, requests, *_ = lines[1].split(",")
    hits = int(requests) + 1
    lines[1] = f"{rank},{log100},{requests},{hits},-1,0.0"
    return lines


@pytest.mark.parametrize("edit, expected", [
    (_hits_above_requests, "rank 1 hits"),
    (lambda lines: lines[:5] + lines[6:], f"{N - 1} rows, expected {N}"),
])
def test_corrupted_report_is_flagged(session, tmp_path, edit, expected):
    commands, runs = session
    seq = tmp_path / "seq"
    shutil.copytree(runs[False][0], seq)
    run_trace = commands[1]
    assert run_trace.check(seq) == []
    _rewrite_report(seq, edit)
    assert any(expected in p for p in run_trace.check(seq))


def test_summary_with_a_timing_key_is_flagged(session, tmp_path):
    _, runs = session
    summary = json.loads((runs[False][0] / "lru" / "summary.json")
                         .read_text())
    hits = summary["totals"]["total_hits"]
    summary["totals"]["elapsed"] = 1.0
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    problems, _ = bench.check_summary(path, R, hits)
    assert any("timing" in p for p in problems)


def test_metric_names_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: bench.unit(name) for name in bench.PER_LAYER}
