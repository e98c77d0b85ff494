import json

import numpy as np
import pytest
from scipy import stats

from proxysim import simulator
from proxysim.analytics import top_c_mass
from proxysim.popularity import build_catalog
from proxysim.simulator import (DEFAULT_ALPHAS, SimConfig, compare_analytic,
                                compare_run, fit_power_law, run_simulation,
                                simulate_workload, sweep, write_comparison_csv,
                                write_report_csv, write_summary_json)
from proxysim.workload import (ObjectAttributes, Workload, assign_attributes,
                               generate_workload, rank_histogram)


def _config(**overrides):
    base = dict(n_objects=100, alpha=0.75, total_requests=5000,
                cache_capacity=20, seed=55)
    base.update(overrides)
    return SimConfig(**base)


def test_single_object_single_cold_miss():
    report = run_simulation(_config(n_objects=1, alpha=0.5,
                                    total_requests=100, cache_capacity=1))
    assert report.hit_ratio == pytest.approx(0.99, abs=1e-12)
    assert int(report.misses.sum()) == 1


def test_oversized_cache_only_cold_misses():
    for alpha in (0.0, 0.98):
        for policy in ("session_lfu", "lru", "lfu_classic"):
            report = run_simulation(_config(
                n_objects=10, alpha=alpha, total_requests=100000,
                cache_capacity=10, policy=policy))
            assert int(report.misses.sum()) <= 10


def test_conservation_and_ratio_identity():
    report = run_simulation(_config())
    assert int(report.requests.sum()) == 5000
    assert np.array_equal(report.hits + report.misses, report.requests)
    assert report.hit_ratio + report.miss_ratio == pytest.approx(1.0,
                                                                 abs=1e-12)
    assert int(report.hits.sum() + report.misses.sum()) == 5000


def test_imported_bandwidth_charges_misses():
    cat = build_catalog(30, 0.64)
    workload = generate_workload(cat, 2000, 500, seed=8)
    attrs = assign_attributes(30, seed=9)
    report, = simulate_workload(workload, attrs, [5], "session_lfu",
                                0.7, "product", {})
    expected = 0.7 * report.misses * attrs.sizes * attrs.channel_times
    assert np.allclose(report.imported_bandwidth, expected,
                       rtol=1e-12, atol=0.0)
    assert report.total_bandwidth == pytest.approx(
        float(expected.sum()), rel=1e-12)
    ratio, = simulate_workload(workload, attrs, [5], "session_lfu",
                               0.7, "ratio", {})
    assert np.allclose(
        ratio.imported_bandwidth,
        0.7 * ratio.misses * attrs.sizes / attrs.channel_times,
        rtol=1e-12, atol=0.0)


def test_deterministic_reruns_match_field_for_field():
    config = _config(seed=314)
    a = run_simulation(config)
    b = run_simulation(config)
    assert np.array_equal(a.requests, b.requests)
    assert np.array_equal(a.hits, b.hits)
    assert np.array_equal(a.imported_bandwidth, b.imported_bandwidth)
    assert a.hit_ratio == b.hit_ratio
    assert a.total_bandwidth == b.total_bandwidth
    assert a.config == b.config


def test_deterministic_reruns_byte_identical_outputs(tmp_path):
    config = _config(seed=272)
    for name in ("x", "y"):
        report = run_simulation(config)
        write_report_csv(report, str(tmp_path / f"{name}.csv"))
        write_summary_json(report, str(tmp_path / f"{name}.json"))
    assert (tmp_path / "x.csv").read_bytes() == (
        tmp_path / "y.csv").read_bytes()
    assert (tmp_path / "x.json").read_bytes() == (
        tmp_path / "y.json").read_bytes()


def _child_seeds(seed, n):
    """The seed rule's reference: the first 32-bit word of each of the
    ``n`` children of ``SeedSequence(seed)``."""
    return [int(child.generate_state(1, np.uint32)[0])
            for child in np.random.SeedSequence(seed).spawn(n)]


def test_sweep_points_match_scalar_twins():
    # every capacity of the alpha at index i runs with child seed i of 55
    alpha_seeds = _child_seeds(55, 2)
    for capacities in (10, (10, 40)):
        config = _config(alpha=(0.98, 0.64), cache_capacity=capacities,
                         total_requests=3000)
        grid = [(index, alpha, capacity)
                for index, alpha in enumerate((0.98, 0.64))
                for capacity in config.capacities]
        reports = sweep(config)
        assert len(reports) == len(grid)
        for (index, alpha, capacity), report in zip(grid, reports):
            twin = run_simulation(SimConfig(
                n_objects=100, alpha=alpha, total_requests=3000,
                cache_capacity=capacity, seed=alpha_seeds[index]))
            assert np.array_equal(report.requests, twin.requests)
            assert np.array_equal(report.hits, twin.hits)
            assert report.hit_ratio == twin.hit_ratio
            assert report.config == twin.config
            assert report.config["seed"] == alpha_seeds[index]


def test_sweep_draws_one_workload_per_alpha(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return generate_workload(*args, **kwargs)

    monkeypatch.setattr(simulator, "_available_cpus", lambda: 1)
    monkeypatch.setattr(simulator, "generate_workload", counting)
    reports = sweep(_config(alpha=(0.98, 0.64, 0.31),
                            cache_capacity=(5, 10, 20, 40),
                            total_requests=1000))
    assert len(reports) == 12
    assert len(calls) == 3


def test_sweep_cross_product_shape():
    reports = sweep(_config(alpha=(0.98, 0.51, 0.31),
                            cache_capacity=(5, 10),
                            total_requests=1000))
    assert len(reports) == 6
    combos = [(r.config["alpha"], r.config["cache_capacity"])
              for r in reports]
    assert combos == [(a, c) for a in (0.98, 0.51, 0.31) for c in (5, 10)]


def test_sweep_single_cpu_matches_pool(monkeypatch):
    config = _config(alpha=(0.98, 0.51, 0.31), cache_capacity=(5, 10),
                     total_requests=2000)
    monkeypatch.setattr(simulator, "_available_cpus", lambda: 2)
    pooled = sweep(config)

    def no_pool(*args, **kwargs):
        raise AssertionError("one CPU must not start a pool")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(simulator, "_available_cpus", lambda: 1)
    serial = sweep(config)
    assert len(serial) == len(pooled) == 6
    for a, b in zip(serial, pooled):
        assert np.array_equal(a.requests, b.requests)
        assert np.array_equal(a.hits, b.hits)
        assert a.hit_ratio == b.hit_ratio
        assert a.config == b.config


def test_hit_ratio_grows_with_capacity():
    ratios = [run_simulation(_config(
        n_objects=1000, alpha=0.98, total_requests=100000,
        cache_capacity=c, policy="lfu_classic")).hit_ratio
        for c in (10, 100, 1000)]
    assert ratios[0] < ratios[1] < ratios[2]


def test_compare_analytic_full_cache():
    config = _config(n_objects=50, alpha=0.98, total_requests=20000,
                     cache_capacity=50)
    rows = compare_analytic(config)
    assert len(rows) == 1
    row = rows[0]
    # only cold misses when C = N, so the gap is at most N/R
    assert row.top_c_mass == pytest.approx(1.0, abs=1e-12)
    assert row.gap == pytest.approx(1.0 - row.simulated_hit_ratio, abs=1e-12)
    assert row.gap <= 50 / 20000
    assert row.model_bandwidth_product > 0
    assert row.model_bandwidth_ratio > 0


def test_compare_run_reads_each_report_echo(monkeypatch):
    # every sweep point is compared against its own alpha, seed and
    # capacity, as recorded in its config echo
    monkeypatch.setattr(simulator, "_available_cpus", lambda: 1)
    config = _config(alpha=(0.5, 0.9), cache_capacity=(5, 20), k=0.6,
                     total_requests=3000, rate_convention="ratio")
    reports = sweep(config)
    for report, row in zip(reports, compare_run(reports), strict=True):
        echo = report.config
        twin = compare_analytic(_config(
            alpha=echo["alpha"], cache_capacity=echo["cache_capacity"],
            seed=echo["seed"], k=0.6, total_requests=3000,
            rate_convention="ratio"))
        assert [row] == twin


def test_compare_run_rejects_trace_replay_report():
    # a trace replay's echo records no alpha, so there is no model to
    # compare it with
    workload = generate_workload(build_catalog(20, 0.7), 200, 10, seed=1)
    echo = {"trace": "t.trace", "seed": 2, "attr_seed": 2,
            "size_range": [1.0, 15.0], "time_range": [1.0, 10.0]}
    report = simulate_workload(workload, assign_attributes(20, seed=2), [5],
                               "lru", 1.0, "product", echo)[0]
    with pytest.raises(ValueError, match="alpha"):
        compare_run([report])


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_simulate_workload_rejects_non_finite_total():
    # s*t overflows to inf and a rank with no misses gives 0*inf = NaN;
    # neither may reach a report
    workload = generate_workload(build_catalog(10, 0.7), 10, 10, seed=1)
    attrs = ObjectAttributes(sizes=np.full(10, 1e308),
                             channel_times=np.full(10, 10.0))
    with pytest.raises(ValueError, match="size_range and time_range"):
        simulate_workload(workload, attrs, [2], "lru", 1.0, "product", {})


def test_compare_analytic_zero_k():
    rows = compare_analytic(_config(n_objects=50, alpha=0.5,
                                    total_requests=2000, cache_capacity=10,
                                    k=0.0))
    assert rows[0].sim_bandwidth == 0.0
    assert rows[0].model_bandwidth_product == 0.0
    assert rows[0].model_bandwidth_ratio == 0.0


def test_compare_analytic_capacity_rows():
    rows = compare_analytic(_config(cache_capacity=(5, 20, 80),
                                    total_requests=2000))
    assert [r.capacity for r in rows] == [5, 20, 80]
    masses = [r.top_c_mass for r in rows]
    assert masses[0] < masses[1] < masses[2]


def test_fit_power_law_exact_synthetic():
    counts = 1000.0 * np.arange(1, 101, dtype=np.float64) ** -0.5
    slope, r2 = fit_power_law(counts, 100)
    assert slope == pytest.approx(-0.5, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_power_law_recovers_sampled_alpha():
    cat = build_catalog(10000, 0.7)
    workload = generate_workload(cat, 1000000, 1000, seed=3)
    slope, r2 = fit_power_law(rank_histogram(workload), 100)
    assert abs(slope - (-0.7)) <= 0.05
    assert r2 > 0.9


def test_fit_power_law_uniform_slope_zero():
    cat = build_catalog(10000, 0.0)
    workload = generate_workload(cat, 1000000, 1000, seed=44)
    slope, _ = fit_power_law(rank_histogram(workload), 100)
    assert abs(slope) <= 0.05


def test_fit_power_law_matches_linregress():
    rng = np.random.default_rng(2024)
    cases = [rng.integers(1, 10000, size=int(n)).astype(np.float64)
             for n in rng.integers(3, 300, size=50)]
    for counts in cases:
        slope, r2 = fit_power_law(counts, counts.size)
        ranks = np.arange(1, counts.size + 1, dtype=np.float64)
        ref = stats.linregress(np.log(ranks), np.log(counts))
        assert abs(slope - ref.slope) <= 1e-12
        assert abs(r2 - ref.rvalue ** 2) <= 1e-12


@pytest.mark.parametrize("value", [1.0, 2.0, 3.0, 7.0, 0.3, 5e4])
def test_fit_power_law_constant_counts_flat_fit(value):
    # linregress's own result here depends on how the mean rounds
    for n in (3, 10, 100):
        assert fit_power_law(np.full(n, value), n) == (0.0, 1.0)
    with_zeros = np.array([value, 0.0, value, value, 0.0, value])
    assert fit_power_law(with_zeros, 6) == (0.0, 1.0)


def test_fit_power_law_needs_three_points():
    with pytest.raises(ValueError):
        fit_power_law(np.array([5.0, 0.0, 0.0, 0.0]), 4)
    with pytest.raises(ValueError):
        fit_power_law(np.zeros(20), 20)


def test_hot_spot_share_larger_for_high_alpha():
    top = int(100 ** 1.1)  # hot-spot cutoff: the first 100**1.1 ranks
    shares = {}
    for alpha in (0.98, 0.31):
        cat = build_catalog(10000, alpha)
        workload = generate_workload(cat, 1000000, 1000, seed=60)
        counts = rank_histogram(workload)
        shares[alpha] = counts[:top].sum() / counts.sum()
    assert shares[0.98] > shares[0.31]


def test_default_alphas_grid():
    assert DEFAULT_ALPHAS == (0.98, 0.75, 0.64, 0.51, 0.41, 0.31)


def test_config_validation():
    # SimConfig checks only that its lists are non-empty; every other
    # input is rejected where the run consumes it, before anything returns
    with pytest.raises(ValueError):
        _config(alpha=())
    with pytest.raises(ValueError):
        _config(cache_capacity=(), k=1.5)
    for bad in (dict(n_objects=0), dict(total_requests=0),
                dict(session_size=0), dict(cache_capacity=0),
                dict(alpha=-0.5), dict(policy="mystery"), dict(k=1.5),
                dict(rate_convention="per_second")):
        with pytest.raises(ValueError):
            run_simulation(_config(**bad))
    with pytest.raises(ValueError, match="k must be in"):
        sweep(_config(cache_capacity=(5, 10), k=1.5))


def test_scalar_sweep_routing():
    scalar = _config(total_requests=500)
    with pytest.raises(ValueError):
        sweep(scalar)
    listed = _config(alpha=(0.5, 0.9), total_requests=500)
    with pytest.raises(ValueError):
        run_simulation(listed)
    with pytest.raises(ValueError):
        compare_analytic(listed)


def test_report_csv_format(tmp_path):
    report = run_simulation(_config(n_objects=12, total_requests=400,
                                    cache_capacity=4))
    path = tmp_path / "report.csv"
    write_report_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,log100_rank,requests,hits,misses,bandwidth"
    assert len(lines) == 13
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == 0.0  # log100 of rank 1
    row100 = np.log(12.0) / np.log(100.0)
    assert float(lines[12].split(",")[1]) == pytest.approx(row100, abs=1e-6)
    assert int(first[2]) == int(report.requests[0])


def test_summary_json_contents(tmp_path):
    config = _config(total_requests=600)
    report = run_simulation(config)
    path = tmp_path / "summary.json"
    write_summary_json(report, str(path))
    payload = json.loads(path.read_text())
    assert payload["totals"]["total_requests"] == 600
    assert payload["totals"]["total_hits"] + \
        payload["totals"]["total_misses"] == 600
    assert payload["totals"]["hit_ratio"] == report.hit_ratio
    assert payload["config"]["seed"] == 55
    assert payload["config"]["alpha"] == 0.75
    assert "workload_seed" in payload["config"]
    assert "attr_seed" in payload["config"]
    assert "elapsed" not in payload.get("totals", {})


def test_comparison_csv_format(tmp_path):
    rows = compare_analytic(_config(cache_capacity=(5, 10),
                                    total_requests=1000))
    path = tmp_path / "cmp.csv"
    write_comparison_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("capacity,simulated_hit_ratio,top_c_mass,gap,"
                        "sim_bandwidth,model_bandwidth_product,"
                        "model_bandwidth_ratio")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "5"


def test_workload_trace_session_sizes_respected():
    config = _config(total_requests=2500, session_size=400)
    report = run_simulation(config)
    assert report.config["session_size"] == 400
    assert int(report.requests.sum()) == 2500
