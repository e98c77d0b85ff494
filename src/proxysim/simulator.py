"""Trace-driven simulation runs, sweeps, and model-vs-measurement tables.

A run draws a workload and attribute table from its seed, replays them
through a cache policy at one or more capacities, and tallies per-rank
requests, hits, misses, and the bandwidth imported on misses. Sweeps
fan out over the alpha list, each alpha's workload serving every
capacity; :func:`spawn_seeds` is the one rule that turns a seed into
the seeds of these draws. The comparison table puts measured hit
ratios next to the closed-form top-rank mass they should track.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .analytics import (RATE_CONVENTIONS, BandwidthParams, finite_total,
                        model_report, per_rank_rate)
from .cache import replay
from .popularity import build_catalog
from .workload import (DEFAULT_SESSION_SIZE, DEFAULT_SIZE_RANGE,
                       DEFAULT_TIME_RANGE, ObjectAttributes, Workload,
                       assign_attributes, generate_workload, rank_histogram)

DEFAULT_ALPHAS = (0.98, 0.75, 0.64, 0.51, 0.41, 0.31)


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run or sweep.

    ``alpha`` and ``cache_capacity`` may be sequences, in which case the
    config describes a sweep; :func:`run_simulation` requires scalars.
    The seed is mandatory: nothing in a run draws ambient randomness.
    """

    n_objects: int
    alpha: float | tuple[float, ...]
    total_requests: int
    cache_capacity: int | tuple[int, ...]
    seed: int
    session_size: int = DEFAULT_SESSION_SIZE
    policy: str = "session_lfu"
    size_range: tuple[float, float] = DEFAULT_SIZE_RANGE
    time_range: tuple[float, float] = DEFAULT_TIME_RANGE
    k: float = 1.0
    rate_convention: str = "product"

    def __post_init__(self) -> None:
        # every other input is checked where it is consumed: the catalog,
        # the workload draw, the replay and the bandwidth parameters
        if not self.alphas:
            raise ValueError("alpha list must be non-empty")
        if not self.capacities:
            raise ValueError("cache_capacity list must be non-empty")

    @property
    def alphas(self) -> tuple[float, ...]:
        a = self.alpha
        return tuple(a) if isinstance(a, (tuple, list)) else (a,)

    @property
    def capacities(self) -> tuple[int, ...]:
        c = self.cache_capacity
        return tuple(c) if isinstance(c, (tuple, list)) else (c,)

    @property
    def is_sweep(self) -> bool:
        return (isinstance(self.alpha, (tuple, list))
                or isinstance(self.cache_capacity, (tuple, list)))


# eq=False: ndarray fields make a generated __eq__ ambiguous; compare
# written reports (CSV/JSON) or individual fields instead.
@dataclass(frozen=True, eq=False)
class SimReport:
    """Per-rank tallies and totals of one finished run."""

    requests: np.ndarray
    hits: np.ndarray
    misses: np.ndarray
    imported_bandwidth: np.ndarray
    hit_ratio: float
    miss_ratio: float
    total_bandwidth: float
    config: dict


class CapacityComparison(NamedTuple):
    capacity: int
    simulated_hit_ratio: float
    top_c_mass: float
    gap: float
    sim_bandwidth: float
    model_bandwidth_product: float
    model_bandwidth_ratio: float


def spawn_seeds(seed: int, n: int) -> list[int]:
    """The one seed rule: ``n`` independent 32-bit seeds from ``seed``.
    Every draw takes ``(workload_seed, attr_seed)`` from ``n=2``."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return [int(child.generate_state(1, np.uint32)[0])
            for child in np.random.SeedSequence(seed).spawn(n)]


def simulate_workload(workload: Workload, attrs: ObjectAttributes,
                      capacities: Sequence[int], policy: str, k: float,
                      rate_convention: str,
                      config_echo: dict) -> list[SimReport]:
    """Replay an existing workload at each capacity and tally the
    outcome; one report per capacity, in order.

    Each report's config echo is ``config_echo`` plus what the replay
    itself used: the workload's ``n_objects``, ``total_requests`` and
    ``session_size``, the ``policy``, ``k``, ``rate_convention`` and the
    report's ``cache_capacity``. This is the building block behind
    :func:`run_simulation` and :func:`sweep`, also used when a workload
    comes from a trace file instead of a seed.
    """
    for capacity in capacities:
        BandwidthParams(k, capacity, rate_convention)
    requests = rank_histogram(workload)
    rate = per_rank_rate(attrs.sizes, attrs.channel_times, rate_convention)
    total = workload.total_requests
    echo = {**config_echo, "n_objects": workload.n_objects,
            "total_requests": total, "session_size": workload.session_size,
            "policy": policy, "k": k, "rate_convention": rate_convention}
    reports = []
    for capacity, flags in zip(capacities,
                               replay(policy, workload.requests, capacities)):
        hits = np.bincount(workload.requests[flags],
                           minlength=workload.n_objects + 1)[1:]
        misses = requests - hits
        imported = k * misses * rate
        hit_ratio = float(hits.sum()) / total
        reports.append(SimReport(
            requests=requests,
            hits=hits,
            misses=misses,
            imported_bandwidth=imported,
            hit_ratio=hit_ratio,
            miss_ratio=1.0 - hit_ratio,
            total_bandwidth=finite_total(float(imported.sum())),
            config={**echo, "cache_capacity": capacity},
        ))
    return reports


def _simulate_alpha(config: SimConfig) -> list[SimReport]:
    """Draw the catalog, workload and attribute table of the config's
    scalar alpha once and replay them at each of its capacities."""
    if isinstance(config.alpha, (tuple, list)):
        raise ValueError("needs a scalar alpha; use sweep() for lists")
    workload_seed, attr_seed = spawn_seeds(config.seed, 2)
    catalog = build_catalog(config.n_objects, config.alpha)
    workload = generate_workload(catalog, config.total_requests,
                                 config.session_size, workload_seed)
    attrs = assign_attributes(config.n_objects, config.size_range,
                              config.time_range, attr_seed)
    echo = {"alpha": config.alpha, "seed": config.seed,
            "workload_seed": workload_seed, "attr_seed": attr_seed,
            "size_range": list(config.size_range),
            "time_range": list(config.time_range)}
    return simulate_workload(workload, attrs, config.capacities,
                             config.policy, config.k, config.rate_convention,
                             echo)


def run_simulation(config: SimConfig) -> SimReport:
    """Run one seeded simulation described by a scalar config."""
    if config.is_sweep:
        raise ValueError("run_simulation needs scalar alpha and capacity; "
                         "use sweep() for lists")
    return _simulate_alpha(config)[0]


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep(config: SimConfig) -> list[SimReport]:
    """Run the cross-product of the config's alpha and capacity lists.

    Each alpha draws one workload from its own seed, child ``i`` of
    :func:`spawn_seeds` for the alpha at index ``i``, and replays it at
    every capacity; every point equals :func:`run_simulation` at its
    capacity and the seed its config echo records. Alphas share
    nothing, so they run in worker processes, at most one per available
    CPU; reports come back alpha-major in the order of the config's
    lists and do not depend on the worker count. If an alpha raises,
    the pending ones are cancelled and its exception is re-raised here.
    """
    if not config.is_sweep:
        raise ValueError("sweep needs a list-valued alpha or cache_capacity")
    seeds = spawn_seeds(config.seed, len(config.alphas))
    tasks = [replace(config, alpha=alpha, seed=seed)
             for alpha, seed in zip(config.alphas, seeds)]
    workers = min(len(tasks), _available_cpus())
    if workers == 1:
        per_alpha = list(map(_simulate_alpha, tasks))
    else:
        # imported here so that importing the package does not pay for it
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers)
        try:
            per_alpha = list(pool.map(_simulate_alpha, tasks))
        finally:
            pool.shutdown(cancel_futures=True)
    return [report for reports in per_alpha for report in reports]


def compare_run(reports: list[SimReport]) -> list[CapacityComparison]:
    """Put each report next to the closed-form model, one row per report.

    A row holds the report's capacity, its hit ratio, the exact mass of
    the top ``C`` ranks, their absolute gap, and the report's total
    imported bandwidth next to the model's aggregate per rate convention,
    all read from :func:`~proxysim.analytics.model_report` over the
    catalog and attribute table that the report's config echo records.
    A trace replay's echo has no ``alpha``: a ``ValueError``.
    """
    rows = []
    for report in reports:
        echo = report.config
        if "alpha" not in echo:
            raise ValueError("a trace replay's report has no alpha to model")
        catalog = build_catalog(echo["n_objects"], echo["alpha"])
        attrs = assign_attributes(echo["n_objects"], echo["size_range"],
                                  echo["time_range"], echo["attr_seed"])
        capacity = echo["cache_capacity"]
        model = {conv: model_report(catalog, attrs,
                                    BandwidthParams(echo["k"], capacity, conv),
                                    echo["total_requests"])
                 for conv in RATE_CONVENTIONS}
        mass = model["product"].top_c_mass
        rows.append(CapacityComparison(
            capacity=capacity,
            simulated_hit_ratio=report.hit_ratio,
            top_c_mass=mass,
            gap=abs(report.hit_ratio - mass),
            sim_bandwidth=report.total_bandwidth,
            model_bandwidth_product=model["product"].aggregate_bandwidth,
            model_bandwidth_ratio=model["ratio"].aggregate_bandwidth,
        ))
    return rows


def compare_analytic(config: SimConfig) -> list[CapacityComparison]:
    """Measure hit ratios against the closed-form top-rank mass: the
    :func:`compare_run` table of one replay of the config's scalar alpha
    at each of its capacities."""
    return compare_run(_simulate_alpha(config))


def fit_power_law(counts, max_rank: int) -> tuple[float, float]:
    """Least-squares slope of log(count) against log(rank).

    Fits ranks ``1..max_rank``, skipping zero-count ranks since their
    logarithm is undefined. Intended for ``max_rank >= 10``; fewer than
    3 usable points is an error.

    Returns
    -------
    (slope, r_squared)
        ``slope`` is negative for decaying popularity; ``r_squared``
        measures how well a pure power law explains the counts.
        Constant counts are a flat fit, ``(0.0, 1.0)``.
    """
    counts = np.asarray(counts, dtype=np.float64)
    upper = min(int(max_rank), counts.size)
    ranks = np.arange(1, upper + 1, dtype=np.float64)
    y = counts[:upper]
    usable = y > 0
    if int(usable.sum()) < 3:
        raise ValueError(
            f"need at least 3 positive counts in ranks 1..{upper}, "
            f"got {int(usable.sum())}")
    x = np.log(ranks[usable])
    y = np.log(y[usable])
    if np.ptp(y) == 0:
        # constant counts: a flat fit, however the mean below would round
        return 0.0, 1.0
    dx = x - x.mean()
    dy = y - y.mean()
    sxx, sxy, syy = dx @ dx, dx @ dy, dy @ dy
    slope = sxy / sxx
    r_squared = min(sxy * sxy / (sxx * syy), 1.0)
    return float(slope), float(r_squared)


def write_report_csv(report: SimReport, path: str) -> None:
    """Write per-rank tallies with a log-100 rank axis column."""
    log100 = np.log(np.arange(1, report.requests.size + 1)) / np.log(100.0)
    with open(path, "w") as f:
        f.write("rank,log100_rank,requests,hits,misses,bandwidth\n")
        for i in range(report.requests.size):
            f.write(f"{i + 1},{log100[i]:.6f},{report.requests[i]},"
                    f"{report.hits[i]},{report.misses[i]},"
                    f"{report.imported_bandwidth[i]:.10e}\n")


def write_json(payload: dict, path: str) -> None:
    """Write ``payload`` as deterministic JSON: sorted keys, indent 2."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_summary_json(report: SimReport, path: str) -> None:
    """Write run totals and the config echo as deterministic JSON."""
    write_json({
        "totals": {
            "hit_ratio": report.hit_ratio,
            "miss_ratio": report.miss_ratio,
            "total_bandwidth": report.total_bandwidth,
            "total_requests": int(report.requests.sum()),
            "total_hits": int(report.hits.sum()),
            "total_misses": int(report.misses.sum()),
        },
        "config": report.config,
    }, path)


def write_comparison_csv(rows: list[CapacityComparison], path: str) -> None:
    """Write the model-vs-simulation table, one row per capacity."""
    with open(path, "w") as f:
        f.write("capacity,simulated_hit_ratio,top_c_mass,gap,sim_bandwidth,"
                "model_bandwidth_product,model_bandwidth_ratio\n")
        for row in rows:
            f.write(f"{row.capacity},{row.simulated_hit_ratio:.10e},"
                    f"{row.top_c_mass:.10e},{row.gap:.10e},"
                    f"{row.sim_bandwidth:.10e},"
                    f"{row.model_bandwidth_product:.10e},"
                    f"{row.model_bandwidth_ratio:.10e}\n")
