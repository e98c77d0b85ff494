from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings

from proxysim.analytics import (BandwidthParams, ModelReport,
                                hit_miss_on_demand, miss_probability,
                                model_report, per_rank_rate, top_c_mass,
                                top_c_mass_asymptotic, write_model_report_csv)
from proxysim.popularity import build_catalog
from proxysim.workload import (ObjectAttributes, assign_attributes,
                               generate_workload, rank_histogram)
from tricky_numbers import FLOATS, columns


def _attrs(sizes, times):
    return ObjectAttributes(sizes=np.asarray(sizes, dtype=np.float64),
                            channel_times=np.asarray(times, dtype=np.float64))


def test_miss_probability_hand_values():
    cat2 = build_catalog(2, 1.0)  # p = [2/3, 1/3]
    assert miss_probability(cat2, 1, 2) == pytest.approx(1.0 / 9.0, rel=1e-13)
    assert miss_probability(cat2, 1, 0) == 1.0
    cat1 = build_catalog(1, 0.5)
    assert miss_probability(cat1, 1, 1) == 0.0
    with pytest.raises(ValueError):
        miss_probability(cat2, 3, 1)


def test_miss_probability_monotone():
    cat = build_catalog(20, 0.98)
    # non-increasing in R at fixed rank
    values = [miss_probability(cat, 5, r) for r in (0, 1, 10, 100, 1000)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # non-decreasing in rank at fixed R
    by_rank = [miss_probability(cat, i, 50) for i in range(1, 21)]
    assert all(a <= b for a, b in zip(by_rank, by_rank[1:]))


def test_hit_miss_on_demand_hand_values():
    cat = build_catalog(2, 1.0)
    assert hit_miss_on_demand(cat, 0, 2) == pytest.approx(1.0, abs=1e-14)
    assert hit_miss_on_demand(cat, 1, 2) == pytest.approx(4.0 / 9.0,
                                                          rel=1e-13)


def test_hit_miss_on_demand_bounds_and_limit():
    cat = build_catalog(100, 0.75)
    for r in (0, 1, 10, 1000):
        value = hit_miss_on_demand(cat, r, 60)
        assert 0.0 <= value <= top_c_mass(cat, 60) + 1e-15
    assert hit_miss_on_demand(cat, 0, 60) == pytest.approx(
        top_c_mass(cat, 60), rel=1e-13)
    large = hit_miss_on_demand(cat, 10 ** 6, 100)
    assert large <= 100 * miss_probability(cat, 100, 10 ** 6)
    assert large < 1e-12
    # geometric decay in R drives the sum to zero
    decreasing = [hit_miss_on_demand(cat, r, 100)
                  for r in (10, 100, 1000, 10000)]
    assert all(a > b for a, b in zip(decreasing, decreasing[1:]))


def test_top_c_mass_hand_values():
    cat3 = build_catalog(3, 1.0)
    assert top_c_mass(cat3, 2) == pytest.approx(9.0 / 11.0, rel=1e-13)
    assert top_c_mass(cat3, 3) == pytest.approx(1.0, abs=1e-12)
    cat5 = build_catalog(5, 0.0)
    assert top_c_mass(cat5, 2) == pytest.approx(0.4, rel=1e-13)
    with pytest.raises(ValueError):
        top_c_mass(cat3, 4)
    with pytest.raises(ValueError):
        top_c_mass(cat3, 0)


def test_asymptotic_paper_literal_hand_value():
    cat = build_catalog(100, 0.5)
    value = top_c_mass_asymptotic(cat, 4, "paper")
    assert value == pytest.approx(0.5 * 4.0 ** 0.5, rel=1e-13)
    assert value == pytest.approx(1.0, rel=1e-13)  # exceeds any true mass


def test_asymptotic_corrected_tracks_exact():
    cat = build_catalog(10000, 0.7)
    exact = top_c_mass(cat, 100)
    approx = top_c_mass_asymptotic(cat, 100, "corrected")
    assert abs(approx - exact) / exact < 0.10


def test_asymptotic_corrected_grid_within_ten_percent():
    for alpha in (0.31, 0.51, 0.75, 0.98):
        cat = build_catalog(10000, alpha)
        for c in (10, 32, 100, 316, 1000):
            exact = top_c_mass(cat, c)
            approx = top_c_mass_asymptotic(cat, c, "corrected")
            assert abs(approx - exact) / exact < 0.10, (alpha, c)


def test_asymptotic_corrected_c1_compared_not_asserted():
    # approximation-only at C=1: finite, positive, same order as exact
    cat = build_catalog(1000, 0.5)
    approx = top_c_mass_asymptotic(cat, 1, "corrected")
    exact = top_c_mass(cat, 1)
    assert np.isfinite(approx) and approx > 0.0
    assert 0.1 < approx / exact < 10.0


def test_asymptotic_singular_at_alpha_one():
    cat = build_catalog(50, 1.0)
    for mode in ("paper", "corrected"):
        with pytest.raises(ValueError):
            top_c_mass_asymptotic(cat, 10, mode)
    with pytest.raises(ValueError):
        top_c_mass_asymptotic(build_catalog(50, 0.5), 10, "nosuch")


def test_per_rank_bandwidth_hand_values():
    cat = build_catalog(1, 0.5)
    attrs = _attrs([2.0], [3.0])
    product = BandwidthParams(k=1.0, cache_capacity=1)
    assert model_report(cat, attrs, product, 10).per_rank_bandwidth[0] == (
        pytest.approx(6.0, rel=1e-13))
    ratio = BandwidthParams(k=1.0, cache_capacity=1, rate_convention="ratio")
    assert model_report(cat, attrs, ratio, 10).per_rank_bandwidth[0] == (
        pytest.approx(2.0 / 3.0, rel=1e-13))
    zero = BandwidthParams(k=0.0, cache_capacity=1)
    assert model_report(cat, attrs, zero, 10).per_rank_bandwidth[0] == 0.0


def test_aggregate_bandwidth_hand_values():
    cat = build_catalog(1, 0.5)
    attrs = _attrs([2.0], [3.0])
    params = BandwidthParams(k=1.0, cache_capacity=1)
    assert model_report(cat, attrs, params, 10).aggregate_bandwidth == (
        pytest.approx(6.0, rel=1e-13))
    assert model_report(cat, attrs, BandwidthParams(k=0.0, cache_capacity=1),
                        10).aggregate_bandwidth == 0.0


def test_aggregate_bandwidth_uniform_unit_attributes():
    # an attribute table longer than the catalog: its first N rows count
    attrs = _attrs(np.ones(40), np.ones(40))
    for n in (1, 7, 40):
        params = BandwidthParams(k=1.0, cache_capacity=n)  # mass 1
        report = model_report(build_catalog(n, 0.31), attrs, params, 10)
        assert report.per_rank_bandwidth.shape == (n,)
        assert report.aggregate_bandwidth == pytest.approx(float(n),
                                                           rel=1e-12)


def test_aggregate_bandwidth_linearity_and_factorization():
    cat = build_catalog(300, 0.64)
    attrs = assign_attributes(300, seed=6)

    def aggregate(k):
        params = BandwidthParams(k=k, cache_capacity=50)
        return model_report(cat, attrs, params, 1000).aggregate_bandwidth

    full = aggregate(1.0)
    for k in (0.0, 0.25, 0.5, 1.0):
        assert aggregate(k) == pytest.approx(k * full, rel=1e-12, abs=1e-15)
    # product convention factorizes: k * mass * sum(s_i * t_i)
    mass = top_c_mass(cat, 50)
    expected = 0.5 * mass * float((attrs.sizes * attrs.channel_times).sum())
    assert abs(aggregate(0.5) - expected) / expected < 1e-12


def test_top_c_mass_ordered_by_alpha():
    masses = [top_c_mass(build_catalog(1000, alpha), 100)
              for alpha in (0.31, 0.41, 0.51, 0.64, 0.75, 0.98)]
    assert all(a < b for a, b in zip(masses, masses[1:]))


def test_params_validation():
    with pytest.raises(ValueError):
        BandwidthParams(k=-0.1, cache_capacity=10)
    with pytest.raises(ValueError):
        BandwidthParams(k=1.5, cache_capacity=10)
    with pytest.raises(ValueError):
        BandwidthParams(k=0.5, cache_capacity=0)
    with pytest.raises(ValueError):
        BandwidthParams(k=0.5, cache_capacity=10, rate_convention="speed")


def test_model_report_fields_and_ranges():
    cat = build_catalog(200, 0.98)
    attrs = assign_attributes(200, seed=12)
    params = BandwidthParams(k=0.8, cache_capacity=30)
    report = model_report(cat, attrs, params, 10 ** 5)
    assert report.per_rank_miss.shape == (200,)
    assert np.all((report.per_rank_miss >= 0) & (report.per_rank_miss <= 1))
    assert 0.0 <= report.h_demand <= 1.0
    assert report.top_c_mass == pytest.approx(top_c_mass(cat, 30), rel=1e-13)
    assert np.all(report.per_rank_bandwidth >= 0)
    assert report.aggregate_bandwidth == pytest.approx(
        float(report.per_rank_bandwidth.sum()), rel=1e-12)
    assert report.h_demand == hit_miss_on_demand(cat, 10 ** 5, 200)


@pytest.mark.parametrize("n_objects,r_requests", [(10 ** 4, 2 * 10 ** 4),
                                                   (1000, 3000)])
def test_miss_probability_predicts_unrequested_ranks(n_objects, r_requests):
    # the ranks a draw never requests number sum(m) on average, with an
    # SD of at most sqrt(sum m(1-m)): the indicators are negatively
    # correlated, so 4 such SDs is a conservative bound
    attrs = assign_attributes(n_objects, seed=0)
    for alpha in (0.98, 0.64, 0.31):
        cat = build_catalog(n_objects, alpha)
        miss = model_report(cat, attrs, BandwidthParams(1.0, 1),
                            r_requests).per_rank_miss
        sd = np.sqrt(np.sum(miss * (1.0 - miss)))
        for seed in range(5):
            counts = rank_histogram(generate_workload(cat, r_requests, 100,
                                                      seed))
            unrequested = int(np.count_nonzero(counts == 0))
            assert abs(unrequested - miss.sum()) <= 4 * sd, (alpha, seed)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_model_report_rejects_non_finite_aggregate():
    # each rate s*t overflows to inf: an error naming the ranges, not an
    # inf aggregate
    cat = build_catalog(4, 0.7)
    attrs = _attrs([1e308] * 4, [10.0] * 4)
    with pytest.raises(ValueError, match="size_range and time_range"):
        model_report(cat, attrs, BandwidthParams(k=1.0, cache_capacity=2), 10)
    ratio = BandwidthParams(k=1.0, cache_capacity=2, rate_convention="ratio")
    assert np.isfinite(model_report(cat, attrs, ratio, 10).aggregate_bandwidth)


def test_asymptotic_corrected_overflow_is_value_error():
    # 0.5**(1 - alpha) is past the float range for large alpha
    with pytest.raises(ValueError, match="corrected mass overflows"):
        top_c_mass_asymptotic(build_catalog(10, 2000.0), 3, "corrected")
    assert top_c_mass_asymptotic(build_catalog(10, 2000.0), 3, "paper") == 0.0


def test_model_report_csv_format(tmp_path):
    cat = build_catalog(5, 0.5)
    attrs = assign_attributes(5, seed=3)
    report = model_report(cat, attrs,
                          BandwidthParams(k=1.0, cache_capacity=2), 100)
    path = tmp_path / "model.csv"
    write_model_report_csv(report, cat, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,p,miss_prob,bandwidth"
    assert len(lines) == 7  # header + 5 ranks + summary
    assert lines[-1].startswith("# summary ")
    assert "h_demand=" in lines[-1]
    assert "top_c_mass=" in lines[-1]
    assert "aggregate_bandwidth=" in lines[-1]
    rank, p, miss, bw = lines[1].split(",")
    assert rank == "1"
    # 10+ significant digits
    assert float(p) == pytest.approx(cat.probabilities[0], rel=1e-10)
    assert float(miss) == pytest.approx(report.per_rank_miss[0], rel=1e-10)
    assert float(bw) == pytest.approx(report.per_rank_bandwidth[0], rel=1e-10)


def _reference_model_report_csv(report, catalog):
    """The per-row loop write_model_report_csv once ran, formatting numpy
    scalars one f-string at a time."""
    lines = ["rank,p,miss_prob,bandwidth\n"]
    for i in range(catalog.n_objects):
        lines.append(f"{i + 1},{catalog.probabilities[i]:.10e},"
                     f"{report.per_rank_miss[i]:.10e},"
                     f"{report.per_rank_bandwidth[i]:.10e}\n")
    lines.append(f"# summary h_demand={report.h_demand:.10e} "
                 f"top_c_mass={report.top_c_mass:.10e} "
                 f"aggregate_bandwidth={report.aggregate_bandwidth:.10e}\n")
    return "".join(lines)


@settings(max_examples=200, deadline=None)
@given(columns=columns(FLOATS, FLOATS, FLOATS))
@example(columns=(build_catalog(6, 0.98).probabilities.tolist(),
                  [0.0, 1e-300, 1.0, 5e-324, 1.0 / 3.0, 0.5],
                  [1e300, np.inf, 0.0, 7.0, 1e-9, 2.5]))
def test_model_report_csv_matches_reference_row_loop(tmp_path_factory,
                                                     columns):
    p, miss, bandwidth = map(np.array, columns)
    report = ModelReport(
        per_rank_miss=miss, h_demand=np.float64(2.0 / 3.0), top_c_mass=0.0,
        per_rank_bandwidth=bandwidth, aggregate_bandwidth=np.inf)
    # the writer reads a catalog's size and probabilities alone
    catalog = SimpleNamespace(n_objects=p.size, probabilities=p)
    path = tmp_path_factory.mktemp("model") / "model.csv"
    write_model_report_csv(report, catalog, str(path))
    assert path.read_bytes() == \
        _reference_model_report_csv(report, catalog).encode()


def test_modelled_report_csv_matches_reference_row_loop(tmp_path):
    catalog = build_catalog(1000, 0.64)
    report = model_report(catalog, assign_attributes(1000, seed=5),
                          BandwidthParams(k=0.5, cache_capacity=50), 10_000)
    path = tmp_path / "model.csv"
    write_model_report_csv(report, catalog, str(path))
    assert path.read_bytes() == \
        _reference_model_report_csv(report, catalog).encode()


@pytest.mark.parametrize("rate_convention", ["product", "ratio"])
@pytest.mark.parametrize("k", [0.0, 0.5, 1.0])
def test_scalar_functions_equal_model_report_exactly(k, rate_convention):
    # one formula per term: every scalar function reads the same helper as
    # model_report, so they agree to the last bit, not within a tolerance
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        cat = build_catalog(n, float(rng.uniform(0.0, 1.5)))
        attrs = assign_attributes(n, seed=int(rng.integers(1 << 31)))
        capacity = int(rng.integers(1, n + 1))
        params = BandwidthParams(k, capacity, rate_convention)
        r_requests = int(rng.integers(0, 5000))
        report = model_report(cat, attrs, params, r_requests)
        assert report.top_c_mass == top_c_mass(cat, capacity)
        assert report.h_demand == hit_miss_on_demand(cat, r_requests, n)
        assert report.aggregate_bandwidth == float(
            report.per_rank_bandwidth.sum())
        for rank in range(1, n + 1):
            assert report.per_rank_miss[rank - 1] == miss_probability(
                cat, rank, r_requests)
            # the bandwidth model has no scalar twin: its formula, per rank
            assert report.per_rank_bandwidth[rank - 1] == (
                k * report.top_c_mass
                * per_rank_rate(attrs, n, rate_convention)[rank - 1])
