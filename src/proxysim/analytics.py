"""Closed-form estimators for cache demand and imported bandwidth.

Given a popularity catalog, these functions predict what a trace-driven
run should observe: the chance a rank is never requested in ``R`` draws,
the residual miss mass, the probability mass held by the ``C`` hottest
ranks, and the aggregate bandwidth a proxy imports when the cache
absorbs that mass. Everything here is a pure function of its inputs;
the simulator provides the measured counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .popularity import ZipfCatalog, probability
from .workload import ObjectAttributes

ASYMPTOTIC_MODES = ("paper_literal", "corrected")
RATE_CONVENTIONS = ("product", "ratio")


@dataclass(frozen=True)
class BandwidthParams:
    """Knobs of the bandwidth model.

    Attributes
    ----------
    k : float
        Packet-loss threshold factor in [0, 1]; scales every bandwidth
        figure.
    cache_capacity : int
        Capacity ``C`` whose top-rank mass weights the demand.
    rate_convention : str
        Per-rank rate ``b_i``: ``"product"`` for ``s_i * t_i`` or
        ``"ratio"`` for ``s_i / t_i``.

    This is the one place ``k`` and ``rate_convention`` are validated;
    :class:`~proxysim.simulator.SimConfig` and
    :func:`~proxysim.simulator.simulate_workload` build one to check
    them.
    """

    k: float
    cache_capacity: int
    rate_convention: str = "product"

    def __post_init__(self) -> None:
        if not 0.0 <= self.k <= 1.0:
            raise ValueError(f"k must be in [0, 1], got {self.k}")
        if self.cache_capacity < 1:
            raise ValueError(
                f"cache_capacity must be >= 1, got {self.cache_capacity}")
        if self.rate_convention not in RATE_CONVENTIONS:
            raise ValueError(
                f"rate_convention must be one of {RATE_CONVENTIONS}, "
                f"got {self.rate_convention!r}")


def per_rank_rate(sizes, channel_times, rate_convention: str):
    """Per-rank rate ``b_i``: ``s_i * t_i`` for ``"product"``, else
    ``s_i / t_i``. Works on scalars and arrays alike."""
    return (sizes * channel_times if rate_convention == "product"
            else sizes / channel_times)


@dataclass(frozen=True)
class ModelReport:
    """Bundle of closed-form predictions for one catalog configuration."""

    per_rank_miss: np.ndarray
    h_demand: float
    top_c_mass: float
    per_rank_bandwidth: np.ndarray
    aggregate_bandwidth: float


def miss_probability(catalog: ZipfCatalog, rank: int, r_requests: int) -> float:
    """Probability that ``rank`` is absent from ``r_requests`` i.i.d. draws.

    Parameters
    ----------
    catalog : ZipfCatalog
    rank : int
        Rank whose miss chance is wanted, 1-based and in range.
    r_requests : int
        Number of independent requests, >= 0.

    Returns
    -------
    float
        ``(1 - p(rank)) ** r_requests``; 1.0 for an empty stream.
    """
    if r_requests < 0:
        raise ValueError(f"r_requests must be >= 0, got {r_requests}")
    return (1.0 - probability(catalog, rank)) ** r_requests


def hit_miss_on_demand(catalog: ZipfCatalog, r_requests: int,
                       upper_rank: int) -> float:
    """Residual miss mass over the ``upper_rank`` hottest ranks.

    Sums ``p(i) * (1 - p(i))**R`` for ranks ``1..upper_rank``: the
    expected probability weight of objects that would still be absent
    after ``R`` requests. Equals the plain top-rank mass at ``R = 0``
    and vanishes geometrically as ``R`` grows.
    """
    if not 1 <= upper_rank <= catalog.n_objects:
        raise ValueError(
            f"upper_rank {upper_rank} outside 1..{catalog.n_objects}")
    if r_requests < 0:
        raise ValueError(f"r_requests must be >= 0, got {r_requests}")
    p = catalog.probabilities[:upper_rank]
    return float(np.sum(p * np.power(1.0 - p, r_requests)))


def top_c_mass(catalog: ZipfCatalog, c: int) -> float:
    """Exact probability mass of the ``c`` most popular ranks."""
    if not 1 <= c <= catalog.n_objects:
        raise ValueError(f"c must be in 1..{catalog.n_objects}, got {c}")
    return float(catalog.probabilities[:c].sum())


def top_c_mass_asymptotic(catalog: ZipfCatalog, c: int, mode: str) -> float:
    """Closed-form approximation of :func:`top_c_mass`.

    ``paper_literal`` returns ``alpha * c**(1 - alpha)``, an
    unnormalized form that can exceed 1. ``corrected`` integrates the
    normalized mass across the top ``c`` ranks, using the midpoint
    continuity correction so the approximation stays within a few
    percent of the exact partial sum down to small ``c``:
    ``omega * ((c + 1/2)**(1-alpha) - (1/2)**(1-alpha)) / (1 - alpha)``.

    Raises
    ------
    ValueError
        If ``alpha == 1`` (both closed forms are singular there) or the
        mode is unknown.
    """
    if mode not in ASYMPTOTIC_MODES:
        raise ValueError(
            f"mode must be one of {ASYMPTOTIC_MODES}, got {mode!r}")
    if not 1 <= c <= catalog.n_objects:
        raise ValueError(f"c must be in 1..{catalog.n_objects}, got {c}")
    alpha = catalog.alpha
    if alpha == 1.0:
        raise ValueError("asymptotic mass is singular at alpha = 1")
    if mode == "paper_literal":
        return alpha * c ** (1.0 - alpha)
    e = 1.0 - alpha
    return catalog.normalizer * ((c + 0.5) ** e - 0.5 ** e) / e


def bandwidth_per_rank(rank: int, attributes: ObjectAttributes,
                       params: BandwidthParams,
                       catalog: ZipfCatalog) -> float:
    """Estimated imported bandwidth attributed to one rank.

    The per-rank rate ``b_i`` (product or ratio of size and channel
    time) is weighted by ``k`` and by the exact mass of the top
    ``params.cache_capacity`` ranks.
    """
    if not 1 <= rank <= catalog.n_objects:
        raise ValueError(
            f"rank {rank} outside catalog of {catalog.n_objects} objects")
    b = per_rank_rate(float(attributes.sizes[rank - 1]),
                      float(attributes.channel_times[rank - 1]),
                      params.rate_convention)
    return params.k * top_c_mass(catalog, params.cache_capacity) * b


def aggregate_bandwidth(attributes: ObjectAttributes,
                        params: BandwidthParams, catalog: ZipfCatalog,
                        n_ranks: int) -> float:
    """Total estimated bandwidth over ranks ``1..n_ranks``.

    Linear in ``k`` and factorizes as ``k * mass * sum(b_i)``; computed
    vectorized but identical to summing :func:`bandwidth_per_rank`.
    """
    if not 1 <= n_ranks <= catalog.n_objects:
        raise ValueError(
            f"n_ranks must be in 1..{catalog.n_objects}, got {n_ranks}")
    b = per_rank_rate(attributes.sizes[:n_ranks],
                      attributes.channel_times[:n_ranks],
                      params.rate_convention)
    mass = top_c_mass(catalog, params.cache_capacity)
    return float(params.k * mass * b.sum())


def model_report(catalog: ZipfCatalog, attributes: ObjectAttributes,
                 params: BandwidthParams, r_requests: int) -> ModelReport:
    """Evaluate the full closed-form model over every rank.

    Parameters
    ----------
    catalog : ZipfCatalog
    attributes : ObjectAttributes
        Must cover the catalog's ranks.
    params : BandwidthParams
    r_requests : int
        Request-stream length the miss probabilities refer to.

    Returns
    -------
    ModelReport
        Per-rank miss probabilities and bandwidth, the residual miss
        mass over the whole catalog, the exact top-C mass, and the
        aggregate bandwidth over all ranks.
    """
    if r_requests < 0:
        raise ValueError(f"r_requests must be >= 0, got {r_requests}")
    n = catalog.n_objects
    p = catalog.probabilities
    per_rank_miss = np.power(1.0 - p, r_requests)
    mass = top_c_mass(catalog, params.cache_capacity)
    b = per_rank_rate(attributes.sizes[:n], attributes.channel_times[:n],
                      params.rate_convention)
    per_rank_bandwidth = params.k * mass * b
    return ModelReport(
        per_rank_miss=per_rank_miss,
        h_demand=float(np.sum(p * per_rank_miss)),
        top_c_mass=mass,
        per_rank_bandwidth=per_rank_bandwidth,
        aggregate_bandwidth=float(per_rank_bandwidth.sum()),
    )


def write_model_report_csv(report: ModelReport, catalog: ZipfCatalog,
                           path: str) -> None:
    """Write per-rank model rows plus a trailing summary line."""
    with open(path, "w") as f:
        f.write("rank,p,miss_prob,bandwidth\n")
        for i in range(catalog.n_objects):
            f.write(f"{i + 1},{catalog.probabilities[i]:.10e},"
                    f"{report.per_rank_miss[i]:.10e},"
                    f"{report.per_rank_bandwidth[i]:.10e}\n")
        f.write(f"# summary h_demand={report.h_demand:.10e} "
                f"top_c_mass={report.top_c_mass:.10e} "
                f"aggregate_bandwidth={report.aggregate_bandwidth:.10e}\n")
