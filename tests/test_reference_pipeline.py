"""Every command's files and stdout against one plain-Python reference.

The per-layer oracles live with their layers: ``ReferenceCache`` and
``ReferenceLru`` replay one request at a time, ``rng.choice`` draws the
ranks that the sampler must reproduce, and row loops write the CSVs.
This module composes them into the pipeline the CLI runs: seeds from
``SeedSequence(seed).spawn``, a replay per request, a tally loop, the
config echo, alpha-major sweep order and the bytes of every file. It
reuses ``build_catalog`` and ``assign_attributes``, whose float bits it
cannot derive on its own, and takes float totals from ``np.sum``, whose
pairwise rounding the files record.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxysim.cli import main
from proxysim.popularity import build_catalog
from proxysim.workload import assign_attributes
from test_cache import ReferenceCache, ReferenceLru

SIZES, TIMES = [1.0, 15.0], [1.0, 10.0]   # the CLI's default ranges
ORACLES = {"session_lfu": ReferenceCache, "lfu_classic": ReferenceCache,
           "lru": ReferenceLru}
REPORT_HEADER = "rank,log100_rank,requests,hits,misses,bandwidth\n"
COMPARISON_HEADER = ("capacity,simulated_hit_ratio,top_c_mass,gap,"
                     "sim_bandwidth,model_bandwidth_product,"
                     "model_bandwidth_ratio\n")


def _seeds(seed, n):
    """The first 32-bit word of each of the ``n`` children of ``seed``."""
    return [int(child.generate_state(1, np.uint32)[0])
            for child in np.random.SeedSequence(seed).spawn(n)]


def _ranks(n, alpha, total, seed):
    p = build_catalog(n, alpha).probabilities
    return (np.random.default_rng(seed).choice(n, total, p=p) + 1).tolist()


def _rates(n, attr_seed, convention):
    attrs = assign_attributes(n, tuple(SIZES), tuple(TIMES), attr_seed)
    pairs = zip(attrs.sizes.tolist(), attrs.channel_times.tolist())
    return [s * t if convention == "product" else s / t for s, t in pairs]


def _json(payload):
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _point(ranks, capacity, echo):
    """One replay of ``ranks``: its report and summary bytes, and its
    hit ratio and total bandwidth."""
    n, k = echo["n_objects"], echo["k"]
    cache = ORACLES[echo["policy"]](capacity)
    requests, hits = [0] * n, [0] * n
    for rank in ranks:
        requests[rank - 1] += 1
        hits[rank - 1] += cache.access(rank)[0]
    misses = [r - h for r, h in zip(requests, hits)]
    rates = _rates(n, echo["attr_seed"], echo["rate_convention"])
    bandwidth = [k * m * b for m, b in zip(misses, rates)]
    log100 = np.log(np.arange(1, n + 1)) / np.log(100.0)
    report = REPORT_HEADER + "".join(
        f"{i + 1},{log100[i]:.6f},{requests[i]},{hits[i]},{misses[i]},"
        f"{bandwidth[i]:.10e}\n" for i in range(n))
    hit_ratio = sum(hits) / len(ranks)
    total_bandwidth = float(np.sum(bandwidth))
    summary = {"totals": {"hit_ratio": hit_ratio,
                          "miss_ratio": 1.0 - hit_ratio,
                          "total_bandwidth": total_bandwidth,
                          "total_requests": len(ranks),
                          "total_hits": sum(hits),
                          "total_misses": sum(misses)},
               "config": {**echo, "cache_capacity": capacity}}
    return report.encode(), _json(summary), hit_ratio, total_bandwidth


def _comparison(echo, capacity, hit_ratio, total_bandwidth):
    """The comparison.csv bytes of one generated replay."""
    n, k = echo["n_objects"], echo["k"]
    mass = float(build_catalog(n, echo["alpha"]).probabilities[:capacity]
                 .sum())
    model = [float(np.sum([k * mass * b
                           for b in _rates(n, echo["attr_seed"], conv)]))
             for conv in ("product", "ratio")]
    row = (capacity, hit_ratio, mass, abs(hit_ratio - mass), total_bandwidth,
           *model)
    return (COMPARISON_HEADER
            + "%d,%.10e,%.10e,%.10e,%.10e,%.10e,%.10e\n" % row).encode()


def _generated_echo(case, alpha, seed):
    workload_seed, attr_seed = _seeds(seed, 2)
    return {"alpha": alpha, "seed": seed, "workload_seed": workload_seed,
            "attr_seed": attr_seed, "size_range": SIZES, "time_range": TIMES,
            "n_objects": case["n"], "total_requests": case["r"],
            "session_size": case["session"], "policy": case["policy"],
            "k": case["k"], "rate_convention": case["rate"]}


def _run_stdout(hit_ratio, bandwidth, out_dir, files):
    return (f"hit_ratio={hit_ratio:.6f} miss_ratio={1.0 - hit_ratio:.6f} "
            f"total_bandwidth={bandwidth:.6e}\n"
            + "".join(f"wrote {os.path.join(out_dir, name)}\n"
                      for name in files))


def _reference_run(case, out_dir, compare):
    """The files and stdout of ``run`` at the first alpha and capacity."""
    echo = _generated_echo(case, case["alphas"][0], case["seed"])
    capacity = case["capacities"][0]
    ranks = _ranks(case["n"], echo["alpha"], case["r"], echo["workload_seed"])
    report, summary, hit_ratio, bandwidth = _point(ranks, capacity, echo)
    files = {"report.csv": report, "summary.json": summary}
    if compare:
        files["comparison.csv"] = _comparison(echo, capacity, hit_ratio,
                                              bandwidth)
    return files, _run_stdout(hit_ratio, bandwidth, out_dir, files)


def _reference_sweep(case, out_dir):
    """The files and stdout of ``sweep``: alpha-major, each alpha drawn
    once at its own child seed and replayed at every capacity."""
    files, entries = {}, []
    for alpha, seed in zip(case["alphas"],
                           _seeds(case["seed"], len(case["alphas"]))):
        echo = _generated_echo(case, alpha, seed)
        ranks = _ranks(case["n"], alpha, case["r"], echo["workload_seed"])
        for capacity in case["capacities"]:
            stem = f"a{alpha:g}_c{capacity}"
            report, summary, hit_ratio, _ = _point(ranks, capacity, echo)
            files[f"report_{stem}.csv"] = report
            files[f"summary_{stem}.json"] = summary
            entries.append({"alpha": alpha, "capacity": capacity,
                            "seed": seed, "hit_ratio": hit_ratio,
                            "report_csv": f"report_{stem}.csv",
                            "summary_json": f"summary_{stem}.json"})
    files["manifest.json"] = _json({"outputs": entries})
    count = f"{len(entries)} report" + "s" * (len(entries) > 1)
    return files, f"wrote {count} and manifest.json to {out_dir}\n"


def _reference_trace_run(case, trace, out_dir):
    """The trace of ``gen`` and the files and stdout of ``run --trace``:
    ``run``'s draw, echoed as the trace's path in place of the draw."""
    echo = _generated_echo(case, case["alphas"][0], case["seed"])
    ranks = _ranks(case["n"], echo.pop("alpha"), case["r"],
                   echo.pop("workload_seed"))
    echo["trace"] = trace
    trace_bytes = "".join([f"#n_objects={case['n']} "
                           f"session={case['session']}\n",
                           *(f"{rank}\n" for rank in ranks)]).encode()
    report, summary, hit_ratio, bandwidth = _point(
        ranks, case["capacities"][0], echo)
    files = {"report.csv": report, "summary.json": summary}
    stdout = (f"wrote {trace} ({case['r']} requests, N={case['n']})\n"
              + _run_stdout(hit_ratio, bandwidth, out_dir, files))
    return trace_bytes, files, stdout


def _main(*argv):
    """``main``'s exit code and stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([str(arg) for arg in argv])
    return code, stdout.getvalue()


def _files(folder):
    return {path.name: path.read_bytes() for path in Path(folder).iterdir()}


_CASES = st.fixed_dictionaries({
    "n": st.integers(1, 300),
    "r": st.integers(1, 20_000),
    "session": st.integers(1, 2_000),
    "policy": st.sampled_from(sorted(ORACLES)),
    "rate": st.sampled_from(["product", "ratio"]),
    "k": st.sampled_from([0.0, 0.37, 1.0]) | st.floats(0.0, 1.0),
    "seed": st.integers(0, 2**32),
    # sweeps of more than one alpha start a process pool; draw few
    "alphas": st.sampled_from([1, 1, 1, 1, 2, 3]).flatmap(
        lambda size: st.lists(st.integers(0, 150).map(lambda a: a / 100),
                              min_size=size, max_size=size, unique=True)),
}).flatmap(lambda case: st.lists(st.integers(1, case["n"]), min_size=1,
                                 max_size=3, unique=True).map(
    lambda capacities: {**case, "capacities": capacities}))


@settings(max_examples=25, deadline=None)
@given(case=_CASES)
@example(case={"n": 40, "r": 3000, "session": 7, "policy": "session_lfu",
               "rate": "ratio", "k": 0.37, "seed": 5,
               "alphas": [0.98, 0.31], "capacities": [10, 3]})
@example(case={"n": 1, "r": 1, "session": 1, "policy": "lru",
               "rate": "product", "k": 1.0, "seed": 0, "alphas": [0.0],
               "capacities": [1]})
def test_cli_matches_reference_pipeline(tmp_path_factory, case):
    folder = str(tmp_path_factory.mktemp("pipeline"))
    draw = ["--objects", case["n"], "--requests", case["r"],
            "--session", case["session"]]
    alpha = ["--alpha", repr(case["alphas"][0])]
    replay = ["--policy", case["policy"], "--seed", case["seed"],
              "--k", repr(case["k"]), "--rate", case["rate"]]

    for compare in (False, True):
        out_dir = os.path.join(folder, f"run{int(compare)}")
        got = _main("run", *draw, *alpha, *replay,
                    "--capacity", case["capacities"][0],
                    "--out-dir", out_dir, *["--compare"] * compare)
        files, stdout = _reference_run(case, out_dir, compare)
        assert got == (0, stdout)
        assert _files(out_dir) == files

    out_dir = os.path.join(folder, "sweep")
    got = _main("sweep", *draw, *replay, "--out-dir", out_dir,
                "--alphas", ",".join(map(repr, case["alphas"])),
                "--capacities", ",".join(map(str, case["capacities"])))
    files, stdout = _reference_sweep(case, out_dir)
    assert got == (0, stdout)
    assert _files(out_dir) == files

    trace = os.path.join(folder, "t.trace")
    out_dir = os.path.join(folder, "trace")
    gen = _main("gen", *draw, *alpha, "--seed", case["seed"], "--out", trace)
    run = _main("run", "--trace", trace, *replay,
                "--capacity", case["capacities"][0], "--out-dir", out_dir)
    trace_bytes, files, stdout = _reference_trace_run(case, trace, out_dir)
    assert (gen[0], run[0], gen[1] + run[1]) == (0, 0, stdout)
    assert Path(trace).read_bytes() == trace_bytes
    assert _files(out_dir) == files
