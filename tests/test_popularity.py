import math

import numpy as np
import pytest
from scipy import stats

from proxysim import cache
from proxysim.analytics import (BandwidthParams, hit_miss_on_demand,
                                miss_probability, model_report, top_c_mass,
                                top_c_mass_asymptotic)
from proxysim.cache import replay
from proxysim.popularity import (ZipfCatalog, build_catalog,
                                 generalized_harmonic, power_modulus,
                                 probability, sample_ranks,
                                 zeta_partial_terms)
from proxysim.simulator import SimConfig, fit_power_law, spawn_seeds
from proxysim.workload import Workload, assign_attributes, generate_workload

EULER_GAMMA = 0.5772156649015329
ZETA2_MINUS_ONE = math.pi ** 2 / 6.0 - 1.0


def test_harmonic_single_term():
    for alpha in (0.0, 0.5, 1.0, 2.0, -1.0):
        assert generalized_harmonic(1, alpha) == 1.0


def test_harmonic_hand_sums():
    # 1 + 1/2 + 1/3 and 1 + 2^-0.5 + 3^-0.5 + 4^-0.5, summed by hand
    assert generalized_harmonic(3, 1.0) == pytest.approx(11.0 / 6.0, rel=1e-14)
    hand = 1.0 + 2.0 ** -0.5 + 3.0 ** -0.5 + 4.0 ** -0.5
    assert generalized_harmonic(4, 0.5) == pytest.approx(hand, rel=1e-14)


def test_harmonic_alpha_zero_is_count():
    for n in (1, 7, 100, 12345):
        assert generalized_harmonic(n, 0.0) == float(n)


def test_harmonic_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        generalized_harmonic(0, 1.0)


def test_catalog_uniform():
    cat = build_catalog(5, 0.0)
    assert np.allclose(cat.probabilities, 0.2, atol=1e-15)
    assert cat.normalizer == pytest.approx(0.2, rel=1e-14)


def test_catalog_hand_computed_n3():
    cat = build_catalog(3, 1.0)
    expected = np.array([6.0, 3.0, 2.0]) / 11.0
    assert np.allclose(cat.probabilities, expected, rtol=1e-13, atol=0.0)


def test_catalog_single_object():
    cat = build_catalog(1, 0.98)
    assert cat.probabilities.shape == (1,)
    assert cat.probabilities[0] == pytest.approx(1.0, abs=1e-15)


def test_catalog_invariants_across_grid():
    # sum to 1 within 1e-10, consistent with the normalizer identity
    for n in (1, 10, 1000, 100000):
        for alpha in (0.0, 0.31, 0.41, 0.51, 0.64, 0.75, 0.98, 1.0, 2.0):
            cat = build_catalog(n, alpha)
            assert abs(cat.probabilities.sum() - 1.0) < 1e-10
            ranks = np.arange(1, n + 1, dtype=np.float64)
            expected = cat.normalizer * ranks ** -alpha
            assert np.allclose(cat.probabilities, expected,
                               rtol=1e-12, atol=0.0)
            if alpha > 0 and n > 1:
                assert np.all(np.diff(cat.probabilities) < 0)


def test_catalog_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_catalog(0, 1.0)
    with pytest.raises(ValueError):
        build_catalog(10, float("nan"))
    with pytest.raises(ValueError):
        build_catalog(10, float("inf"))
    with pytest.raises(ValueError):
        build_catalog(10, -0.5)


def test_probability_lookup_and_range_check():
    cat3 = build_catalog(3, 1.0)
    assert probability(cat3, 1) == pytest.approx(6.0 / 11.0, rel=1e-14)
    cat5 = build_catalog(5, 0.0)
    assert probability(cat5, 4) == pytest.approx(0.2, rel=1e-14)
    with pytest.raises(ValueError):
        probability(cat3, 4)
    with pytest.raises(ValueError):
        probability(cat3, 0)


def test_probability_out_of_range_message():
    # the one rank check of the package names the catalog's range
    with pytest.raises(ValueError,
                       match=r"^rank must be an int in 1\.\.5, got 7$"):
        probability(build_catalog(5, 0.7), 7)


_CAT5 = build_catalog(5, 0.7)
_SIM = dict(n_objects=20, alpha=0.7, total_requests=50, cache_capacity=5,
            seed=3)


def _replay_without_kernel(capacity):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache, "_kernel", lambda: None)
        return list(replay("lru", np.array([1, 2, 1]), [capacity]))


# (what is called, the count's name, its least value, the call)
_COUNTS = [
    ("generalized_harmonic", "n", 1, lambda v: generalized_harmonic(v, 1.0)),
    ("build_catalog", "n_objects", 1, lambda v: build_catalog(v, 0.7)),
    ("power_modulus", "n", 1, lambda v: power_modulus(v, 2.0)),
    ("zeta_partial_terms", "n_terms", 1,
     lambda v: zeta_partial_terms(2.0, v)),
    ("sample_ranks", "size", 0,
     lambda v: sample_ranks(_CAT5, v, np.random.default_rng(1))),
    ("probability", "rank", 1, lambda v: probability(_CAT5, v)),
    ("Workload.n_objects", "n_objects", 1,
     lambda v: Workload(np.ones(1, dtype=np.int64), 2, v)),
    ("Workload.session_size", "session_size", 1,
     lambda v: Workload(np.ones(1, dtype=np.int64), v, 5)),
    ("generate_workload", "total_requests", 1,
     lambda v: generate_workload(_CAT5, v, 2, seed=1)),
    ("assign_attributes", "n_objects", 1, lambda v: assign_attributes(v)),
    ("replay", "capacity", 1,
     lambda v: list(replay("lru", np.array([1, 2, 1]), [v]))),
    ("replay, no kernel", "capacity", 1, _replay_without_kernel),
    ("BandwidthParams", "cache_capacity", 1,
     lambda v: BandwidthParams(1.0, v)),
    ("miss_probability.rank", "rank", 1,
     lambda v: miss_probability(_CAT5, v, 10)),
    ("miss_probability.r_requests", "r_requests", 0,
     lambda v: miss_probability(_CAT5, 1, v)),
    ("hit_miss_on_demand", "upper_rank", 1,
     lambda v: hit_miss_on_demand(_CAT5, 10, v)),
    ("model_report", "r_requests", 0,
     lambda v: model_report(_CAT5, assign_attributes(5),
                            BandwidthParams(1.0, 2), v)),
    ("top_c_mass", "c", 1, lambda v: top_c_mass(_CAT5, v)),
    ("top_c_mass_asymptotic", "c", 1,
     lambda v: top_c_mass_asymptotic(_CAT5, v, "corrected")),
    ("spawn_seeds", "seed", 0, lambda v: spawn_seeds(v, 2)),
    ("fit_power_law", "max_rank", 1,
     lambda v: fit_power_law([5.0, 3.0, 2.0, 1.0], v)),
    *((f"SimConfig.{name}", name, 1,
       lambda v, name=name: SimConfig(**{**_SIM, name: v}))
      for name in ("n_objects", "total_requests", "session_size",
                   "cache_capacity")),
]


@pytest.mark.parametrize("name, least, call",
                         [case[1:] for case in _COUNTS],
                         ids=[case[0] for case in _COUNTS])
def test_every_count_follows_one_rule(name, least, call):
    # a count is an int or a numpy integer, never a bool, float or
    # string, and each bad one is one ValueError that names it
    call(np.int64(3))
    for bad in (2.5, True, np.float64(3.0), "3", least - 1):
        with pytest.raises(ValueError, match=f"^{name} must be an int "):
            call(bad)


def _inverse_cdf_ranks(cat, size, rng):
    """Reference sampler: each uniform located in the cumulative
    probabilities, the last edge pinned to 1."""
    cdf = np.cumsum(cat.probabilities)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(size), side="right") + 1


def test_sample_ranks_match_inverse_cdf_reference():
    # the guide-table sampler must draw the very ranks of a plain
    # inverse-CDF search over the same stream
    for n in (1, 3, 100, 10 ** 4):
        for alpha in (0.0, 0.31, 0.64, 0.98, 1.0, 2.5):
            cat = build_catalog(n, alpha)
            for seed in (0, 1, 2):
                drawn = sample_ranks(cat, 200_000, np.random.default_rng(seed))
                want = _inverse_cdf_ranks(cat, 200_000,
                                          np.random.default_rng(seed))
                assert np.array_equal(drawn, want), (n, alpha, seed)


_CHOICE_NS = [1, 2, 3, 10, 10 ** 4, 10 ** 5]
_CHOICE_ALPHAS = [0.0, 0.31, 0.64, 0.98, 2.5, 50.0]


@pytest.mark.parametrize("n", _CHOICE_NS)
@pytest.mark.parametrize("alpha", _CHOICE_ALPHAS)
def test_sample_ranks_match_numpy_weighted_choice(n, alpha):
    # bit for bit the ranks of rng.choice, which sample_ranks replaced,
    # over sizes around the draw chunk, leaving the stream where it does
    cat = build_catalog(n, alpha)
    ours, numpys = np.random.default_rng(n), np.random.default_rng(n)
    for size in (0, 1, 65535, 65536, 65537, 200001):
        drawn = sample_ranks(cat, size, ours)
        want = numpys.choice(n, size, p=cat.probabilities) + 1
        assert drawn.dtype == want.dtype and np.array_equal(drawn, want), size
        assert ours.random() == numpys.random(), size


# where no kernel loads, searchsorted locates the uniforms: the same
# references hold on that path


def test_sample_ranks_match_inverse_cdf_reference_without_kernel(
        monkeypatch):
    monkeypatch.setattr(cache, "_kernel", lambda: None)
    test_sample_ranks_match_inverse_cdf_reference()


@pytest.mark.parametrize("n", _CHOICE_NS)
@pytest.mark.parametrize("alpha", _CHOICE_ALPHAS)
def test_sample_ranks_match_numpy_weighted_choice_without_kernel(
        n, alpha, monkeypatch):
    monkeypatch.setattr(cache, "_kernel", lambda: None)
    test_sample_ranks_match_numpy_weighted_choice(n, alpha)


def test_sample_ranks_rejects_bad_catalogs():
    # a hand-built catalog skips build_catalog's checks; the sampler
    # still refuses what rng.choice refused
    good = build_catalog(4, 1.0).probabilities
    for probabilities in (np.array([0.6, -0.1, 0.3, 0.2]),
                          np.array([0.5, np.nan, 0.25, 0.25]),
                          build_catalog(3, 1.0).probabilities, good * 1.01):
        cat = ZipfCatalog(n_objects=4, alpha=1.0, normalizer=1.0,
                          probabilities=probabilities)
        with pytest.raises(ValueError):
            sample_ranks(cat, 10, np.random.default_rng(0))


def test_sample_rank_single_object():
    cat = build_catalog(1, 0.98)
    rng = np.random.default_rng(123)
    assert all(sample_ranks(cat, 1, rng).tolist() == [1] for _ in range(50))


def test_sample_rank_frequency_matches_probability():
    # binomial standard error for p = 6/11 over 1e5 draws
    cat = build_catalog(3, 1.0)
    rng = np.random.default_rng(42)
    draws = sample_ranks(cat, 100000, rng)
    freq = np.count_nonzero(draws == 1) / 100000.0
    p = 6.0 / 11.0
    se = math.sqrt(p * (1.0 - p) / 100000.0)
    assert abs(freq - p) <= 3.0 * se


def test_sample_rank_deterministic():
    cat = build_catalog(100, 0.98)
    rng1 = np.random.default_rng(99)
    rng2 = np.random.default_rng(99)
    seq1 = [int(sample_ranks(cat, 1, rng1)[0]) for _ in range(200)]
    seq2 = [int(sample_ranks(cat, 1, rng2)[0]) for _ in range(200)]
    assert seq1 == seq2


def test_bulk_sampling_matches_single_draws():
    cat = build_catalog(50, 0.75)
    bulk = sample_ranks(cat, 300, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    singles = [int(sample_ranks(cat, 1, rng)[0]) for _ in range(300)]
    assert bulk.tolist() == singles


def _chi_square_pvalue(counts, probs):
    """Chi-square GOF with tail ranks pooled so every bin expects >= 5."""
    total = counts.sum()
    expected = probs * total
    order = np.argsort(expected)[::-1]
    obs_bins, exp_bins = [], []
    obs_acc = exp_acc = 0.0
    for idx in order:
        obs_acc += counts[idx]
        exp_acc += expected[idx]
        if exp_acc >= 5.0:
            obs_bins.append(obs_acc)
            exp_bins.append(exp_acc)
            obs_acc = exp_acc = 0.0
    # leftover tail goes into the last bin
    if exp_acc > 0.0 and exp_bins:
        obs_bins[-1] += obs_acc
        exp_bins[-1] += exp_acc
    return stats.chisquare(obs_bins, exp_bins).pvalue


def test_sampler_chi_square_goodness_of_fit():
    for n in (10, 100, 1000):
        cat = build_catalog(n, 0.98)
        rng = np.random.default_rng(2024)
        draws = sample_ranks(cat, 1000000, rng)
        counts = np.bincount(draws, minlength=n + 1)[1:].astype(np.float64)
        assert _chi_square_pvalue(counts, cat.probabilities) > 0.001


def test_power_modulus_hand_values():
    assert power_modulus(4, complex(0.5, 10.0)) == pytest.approx(
        0.5, rel=1e-14)
    assert power_modulus(9, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-14)
    for s in (0.5, complex(2.0, -3.0)):
        assert power_modulus(1, s) == 1.0


def test_power_modulus_independent_of_beta():
    for n in (1, 2, 7, 100, 9999):
        for sigma in (0.31, 0.5, 1.0, 2.0):
            base = power_modulus(n, complex(sigma, 0.0))
            for beta in (-50.0, -1.0, 0.25, 3.0, 1000.0):
                assert power_modulus(n, complex(sigma, beta)) == base
            assert base == pytest.approx(float(n) ** -sigma, rel=1e-14)


def test_zeta_first_term_hand_value():
    # a_1 = 1 - integral_1^2 x^-2 dx = 1 - 1/2
    values, bounds = zeta_partial_terms(2.0, 1)
    assert values[0].real == pytest.approx(0.5, rel=1e-14)
    assert values[0].imag == 0.0
    assert bounds[0] == pytest.approx(2.0, rel=1e-14)
    assert abs(values[0]) <= bounds[0]


def test_zeta_partial_sum_matches_zeta2():
    values, _ = zeta_partial_terms(2.0, 2000)
    assert abs(values.sum().real - ZETA2_MINUS_ONE) < 1e-3
    assert abs(values.sum().imag) == 0.0


def test_zeta_log_branch_recovers_euler_gamma():
    # at s = 1 the terms are 1/n - log((n+1)/n); their sum tends to gamma
    values, _ = zeta_partial_terms(1.0, 2000)
    assert abs(values.sum().real - EULER_GAMMA) < 1e-3


def test_zeta_bound_holds_exactly_real_exponents():
    for sigma in (0.31, 0.5, 0.51, 0.75, 0.98, 1.0, 1.5, 2.0):
        values, bounds = zeta_partial_terms(sigma, 10000)
        assert np.all(np.abs(values) <= bounds)
        n = np.arange(1, 10001, dtype=np.float64)
        assert np.allclose(bounds, sigma * n ** (-1.0 - sigma),
                           rtol=1e-13, atol=0.0)


def test_zeta_bound_holds_for_complex_exponents():
    for sigma, beta in ((0.5, 10.0), (1.0, 1.0), (2.0, -4.0), (0.31, 0.5)):
        s = complex(sigma, beta)
        values, bounds = zeta_partial_terms(s, 2000)
        assert np.all(np.abs(values) <= bounds)
        assert bounds[0] == pytest.approx(math.hypot(sigma, beta), rel=1e-13)


def test_zeta_partial_sums_converge():
    # successive partial sums form a Cauchy sequence under the bound
    values, bounds = zeta_partial_terms(0.5, 10000)
    tail = np.abs(values)[5000:].sum()
    assert tail <= bounds[5000:].sum()
    assert bounds[5000:].sum() < 0.015


def test_zeta_rejects_bad_inputs():
    with pytest.raises(ValueError):
        zeta_partial_terms(0.0, 10)
    with pytest.raises(ValueError):
        zeta_partial_terms(complex(-1.0, 2.0), 10)
    with pytest.raises(ValueError):
        zeta_partial_terms(2.0, 0)
    nan, inf = float("nan"), float("inf")
    for s in (nan, -inf, complex(2.0, nan), complex(inf, 1.0)):
        with pytest.raises(ValueError, match="exponent parts must be finite"):
            zeta_partial_terms(s, 10)
        with pytest.raises(ValueError, match="exponent parts must be finite"):
            power_modulus(4, s)
    with pytest.raises(ValueError, match="n must be an int >= 1, got 0"):
        power_modulus(0, 2.0)
