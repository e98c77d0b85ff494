"""Acceptance suite: the eight release criteria, one pass/fail line each.

Each test prints `[criterion N] PASS/FAIL ...` before asserting so a run
log shows the full scoreboard. Most criteria run at production scale:
catalogs of 10^4 objects and request streams of 10^6 (100^3) unless a
criterion pins smaller bounds.
"""

import contextlib
import io
import time

import numpy as np
import pytest
from scipy import stats

from proxysim import cache
from proxysim.analytics import top_c_mass
from proxysim.cli import main as cli_main
from proxysim.popularity import build_catalog, zeta_partial_terms
from proxysim.simulator import (SimConfig, fit_power_law, run_simulation,
                                sweep, write_report_csv, write_summary_json)
from proxysim.workload import assign_attributes, generate_workload, rank_histogram

ZETA2_MINUS_ONE = np.pi ** 2 / 6.0 - 1.0


def _verdict(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_zipf_recovery():
    t0 = time.perf_counter()
    catalog = build_catalog(10000, 0.7)
    workload = generate_workload(catalog, 1000000, 1000, seed=1)
    slope, r2 = fit_power_law(rank_histogram(workload), 100)
    elapsed = time.perf_counter() - t0
    ok = abs(slope - (-0.7)) <= 0.05 and r2 >= 0.98 and elapsed < 10.0
    _verdict(1, ok, f"slope={slope:.4f} (target -0.7±0.05) r2={r2:.5f} "
                    f"(>=0.98) elapsed={elapsed:.2f}s (<10s)")


def test_criterion_2_analytic_hit_rate_match():
    t0 = time.perf_counter()
    config = SimConfig(n_objects=1000, alpha=0.98, total_requests=1000000,
                       cache_capacity=100, seed=11, policy="lfu_classic")
    report = run_simulation(config)
    mass = top_c_mass(build_catalog(1000, 0.98), 100)
    gap = abs(report.hit_ratio - mass)
    elapsed = time.perf_counter() - t0
    ok = gap <= 0.02 and elapsed < 10.0
    _verdict(2, ok, f"hit_ratio={report.hit_ratio:.4f} mass={mass:.4f} "
                    f"gap={gap:.4f} (<=0.02) elapsed={elapsed:.2f}s (<10s)")


class _Reference:
    """Brute-force replacement reference, independent of the package.

    Scans every resident entry on eviction; per-object hit counts
    persist across evictions; ties break toward the oldest insertion.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.resident = {}
        self.counts = {}
        self.seq = 0

    def access(self, rank):
        if rank in self.resident:
            self.counts[rank] += 1
            return True, None
        evicted = None
        if len(self.resident) == self.capacity:
            evicted = min(self.resident,
                          key=lambda r: (self.counts[r], self.resident[r]))
            del self.resident[evicted]
        self.counts[rank] = self.counts.get(rank, 0) + 1
        self.resident[rank] = self.seq
        self.seq += 1
        return False, evicted


def _replay_both_paths(requests, capacity):
    """``replay``'s session-LFU flags, as lists, from the compiled kernel
    and from the Python loop that runs where the kernel cannot load."""
    kernel, = cache.replay("session_lfu", requests, [capacity])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache, "_kernel", lambda: None)
        python, = cache.replay("session_lfu", requests, [capacity])
    return kernel.tolist(), python.tolist()


def test_criterion_3_oracle_equivalence():
    # replay is what run and sweep use, on either of its two paths
    kernel_mismatches = python_mismatches = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        capacity = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        total = int(rng.integers(1, 51))
        requests = rng.integers(1, n + 1, size=total)
        ref = _Reference(capacity)
        hits = [ref.access(r)[0] for r in requests.tolist()]
        kernel, python = _replay_both_paths(requests, capacity)
        kernel_mismatches += kernel != hits
        python_mismatches += python != hits
    _verdict(3, kernel_mismatches == python_mismatches == 0,
             f"traces=1000 C<=4 N<=8 R<=50 "
             f"kernel replay mismatches={kernel_mismatches} "
             f"Python replay mismatches={python_mismatches}")


def test_criterion_4_log_like_hit_ratio_growth():
    capacities = (10, 32, 100, 316, 1000)
    # one alpha: one workload, drawn from base seed 5, at every capacity
    ratios = [report.hit_ratio for report in sweep(SimConfig(
        n_objects=10000, alpha=0.98, total_requests=1000000,
        cache_capacity=capacities, seed=5, policy="lfu_classic"))]
    fit = stats.linregress(np.log10(capacities), ratios)
    r2 = float(fit.rvalue) ** 2
    ok = r2 >= 0.95 and fit.slope > 0
    _verdict(4, ok, f"ratios={[round(r, 4) for r in ratios]} "
                    f"slope={fit.slope:.4f} (>0) r2={r2:.5f} (>=0.95)")


def test_criterion_5_alpha_ordering_of_bandwidth():
    n, c = 10000, 100
    attrs = assign_attributes(n, seed=123)  # shared across both alphas
    b = attrs.sizes[:c] * attrs.channel_times[:c]
    mass_high = top_c_mass(build_catalog(n, 0.98), c)
    mass_low = top_c_mass(build_catalog(n, 0.64), c)
    high = mass_high * b
    low = mass_low * b
    strict = bool(np.all(high > low))
    _verdict(5, strict,
             f"per-rank bandwidth alpha=0.98 > alpha=0.64 at all "
             f"ranks<=C={c}: {strict} (mass {mass_high:.4f} vs "
             f"{mass_low:.4f}, exact inequality)")


def test_criterion_6_long_tail_shapes():
    failures = []
    for alpha in (0.98, 0.75, 0.64, 0.51, 0.41, 0.31):
        config = SimConfig(n_objects=10000, alpha=alpha,
                           total_requests=1000000, cache_capacity=100,
                           seed=2718, policy="session_lfu")
        report = run_simulation(config)
        req_deciles = report.requests.reshape(10, 1000).sum(axis=1)
        bw_deciles = report.imported_bandwidth.reshape(10, 1000).sum(axis=1)
        # concave cumulative bandwidth = non-increasing decile increments
        if not np.all(np.diff(req_deciles) <= 0):
            failures.append((alpha, "requests"))
        if not np.all(np.diff(bw_deciles) <= 0):
            failures.append((alpha, "bandwidth"))
    _verdict(6, not failures,
             f"six alphas, decile requests and bandwidth increments "
             f"non-increasing; failures={failures or 'none'}")


def test_criterion_7_lemma_numerics():
    worst = 0.0
    for sigma in (0.31, 0.51, 0.75, 0.98, 1.5, 2.0):
        values, bounds = zeta_partial_terms(sigma, 10000)
        if not np.all(np.abs(values) <= bounds):
            _verdict(7, False, f"bound violated at sigma={sigma}")
        worst = max(worst, float((np.abs(values) / bounds).max()))
    partial = zeta_partial_terms(2.0, 2000)[0].sum().real
    err = abs(partial - ZETA2_MINUS_ONE)
    ok = err < 1e-3
    _verdict(7, ok, f"|a_n| <= |s|*n^(-1-sigma) exact for 6 exponents, "
                    f"n<=1e4 (worst ratio {worst:.3f}); zeta(2) partial "
                    f"err={err:.2e} (<1e-3)")


def test_criterion_8_invariant_suites(tmp_path):
    problems = []

    # catalog normalization over randomized (N, alpha)
    for seed in range(100):
        rng = np.random.default_rng(10000 + seed)
        n = int(10 ** rng.uniform(0, 5))
        alpha = float(rng.uniform(0, 2.5))
        cat = build_catalog(n, alpha)
        if abs(cat.probabilities.sum() - 1.0) >= 1e-10:
            problems.append(("normalization", seed))

    # conservation across randomized simulations
    for seed in range(100):
        rng = np.random.default_rng(20000 + seed)
        config = SimConfig(
            n_objects=int(rng.integers(1, 61)),
            alpha=float(rng.uniform(0, 1.2)),
            total_requests=int(rng.integers(1, 1201)),
            cache_capacity=int(rng.integers(1, 21)),
            seed=seed,
            session_size=int(rng.integers(1, 301)),
            policy=("session_lfu", "lru", "lfu_classic")[seed % 3])
        report = run_simulation(config)
        if int((report.hits + report.misses - report.requests).sum()) != 0:
            problems.append(("conservation", seed))
        if int(report.requests.sum()) != config.total_requests:
            problems.append(("conservation-total", seed))

    # capacity safety of the LFU cache: replay, on both paths, equals a
    # reference that holds at most C residents after every access
    for seed in range(100):
        rng = np.random.default_rng(30000 + seed)
        capacity = int(rng.integers(1, 8))
        requests = rng.integers(1, 12, size=200)
        ref = _Reference(capacity)
        hits = []
        for r in requests.tolist():
            hits.append(ref.access(r)[0])
            if len(ref.resident) > capacity:
                problems.append(("capacity", seed))
                break
        if _replay_both_paths(requests, capacity) != (hits, hits):
            problems.append(("capacity-replay", seed))

    # byte-identical determinism of written reports
    for seed in range(100):
        payloads = []
        for attempt in ("a", "b"):
            report = run_simulation(SimConfig(
                n_objects=50, alpha=0.9, total_requests=800,
                cache_capacity=7, seed=seed, session_size=100))
            csv_path = tmp_path / f"det_{seed}_{attempt}.csv"
            json_path = tmp_path / f"det_{seed}_{attempt}.json"
            write_report_csv(report, str(csv_path))
            write_summary_json(report, str(json_path))
            payloads.append(csv_path.read_bytes() + json_path.read_bytes())
        if payloads[0] != payloads[1]:
            problems.append(("determinism", seed))

    # CLI leaves no partial output when a command fails; the expected
    # error messages are swallowed to keep the run log readable
    for seed in range(100):
        out = tmp_path / f"cli_{seed}.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli_main(["estimate", "--objects", "10", "--alpha", "1",
                           "--capacity", "4", "--mode", "paper",
                           "--seed", str(seed), "--out", str(out)])
        if rc == 0 or out.exists():
            problems.append(("cli-partial-output", seed))

    _verdict(8, not problems,
             f"normalization/conservation/capacity/determinism/"
             f"cli-no-partial-output x100 seeds; problems={problems or 'none'}")
