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

from .popularity import ZipfCatalog, check_rank
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
    :func:`~proxysim.simulator.simulate_workload` builds one per
    capacity to check them and the capacity.
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


def finite_total(total: float) -> float:
    """``total``, unless an overflowing rate made it inf or NaN."""
    if not np.isfinite(total):
        raise ValueError(f"total bandwidth is {total}: size_range and "
                         "time_range give rates past the float range")
    return total


def _miss_term(catalog: ZipfCatalog, r_requests: int,
               ranks: slice) -> np.ndarray:
    """The one miss formula: ``(1 - p_i)**R`` for the 0-based ``ranks``."""
    if r_requests < 0:
        raise ValueError(f"r_requests must be >= 0, got {r_requests}")
    return np.power(1.0 - catalog.probabilities[ranks], r_requests)


def _model_bandwidth(catalog: ZipfCatalog, attributes: ObjectAttributes,
                     params: BandwidthParams, ranks: slice) -> np.ndarray:
    """The one bandwidth formula: ``k * top_c_mass(C) * b_i`` for the
    0-based ``ranks``. The top-C mass is the capacity's weight."""
    b = per_rank_rate(attributes.sizes[ranks],
                      attributes.channel_times[ranks],
                      params.rate_convention)
    return params.k * top_c_mass(catalog, params.cache_capacity) * b


def miss_probability(catalog: ZipfCatalog, rank: int, r_requests: int) -> float:
    """Probability that ``rank`` (1-based) is absent from ``r_requests``
    i.i.d. draws: ``(1 - p(rank))**R``, 1.0 for an empty stream."""
    check_rank(catalog, rank, "rank")
    return float(_miss_term(catalog, r_requests, slice(rank - 1, rank))[0])


def hit_miss_on_demand(catalog: ZipfCatalog, r_requests: int,
                       upper_rank: int) -> float:
    """Residual miss mass over the ``upper_rank`` hottest ranks.

    Sums ``p(i) * (1 - p(i))**R`` for ranks ``1..upper_rank``: the
    expected probability weight of objects that would still be absent
    after ``R`` requests. Equals the plain top-rank mass at ``R = 0``
    and vanishes geometrically as ``R`` grows.
    """
    check_rank(catalog, upper_rank, "upper_rank")
    return float(np.sum(catalog.probabilities[:upper_rank]
                        * _miss_term(catalog, r_requests, slice(upper_rank))))


def top_c_mass(catalog: ZipfCatalog, c: int) -> float:
    """Exact probability mass of the ``c`` most popular ranks."""
    check_rank(catalog, c, "c")
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
        If ``alpha == 1`` (both closed forms are singular there), the
        corrected form overflows, or the mode is unknown.
    """
    if mode not in ASYMPTOTIC_MODES:
        raise ValueError(
            f"mode must be one of {ASYMPTOTIC_MODES}, got {mode!r}")
    check_rank(catalog, c, "c")
    alpha = catalog.alpha
    if alpha == 1.0:
        raise ValueError("asymptotic mass is singular at alpha = 1")
    if mode == "paper_literal":
        return alpha * c ** (1.0 - alpha)
    e = 1.0 - alpha
    try:
        return catalog.normalizer * ((c + 0.5) ** e - 0.5 ** e) / e
    except OverflowError:   # 0.5**e is past the float range
        raise ValueError(f"corrected mass overflows, alpha {alpha}") from None


def bandwidth_per_rank(rank: int, attributes: ObjectAttributes,
                       params: BandwidthParams,
                       catalog: ZipfCatalog) -> float:
    """Estimated imported bandwidth attributed to one rank.

    The per-rank rate ``b_i`` (product or ratio of size and channel
    time) is weighted by ``k`` and by the exact mass of the top
    ``params.cache_capacity`` ranks.
    """
    check_rank(catalog, rank, "rank")
    return float(_model_bandwidth(catalog, attributes, params,
                                  slice(rank - 1, rank))[0])


def aggregate_bandwidth(attributes: ObjectAttributes,
                        params: BandwidthParams, catalog: ZipfCatalog,
                        n_ranks: int) -> float:
    """Total estimated bandwidth over ranks ``1..n_ranks``: the sum of
    :func:`bandwidth_per_rank` over them, so linear in ``k``."""
    check_rank(catalog, n_ranks, "n_ranks")
    return float(_model_bandwidth(catalog, attributes, params,
                                  slice(n_ranks)).sum())


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
        aggregate bandwidth over all ranks. Each field equals the
        matching scalar function at the whole catalog.
    """
    n = catalog.n_objects
    per_rank_bandwidth = _model_bandwidth(catalog, attributes, params,
                                          slice(n))
    return ModelReport(
        per_rank_miss=_miss_term(catalog, r_requests, slice(n)),
        h_demand=hit_miss_on_demand(catalog, r_requests, n),
        top_c_mass=top_c_mass(catalog, params.cache_capacity),
        per_rank_bandwidth=per_rank_bandwidth,
        aggregate_bandwidth=finite_total(float(per_rank_bandwidth.sum())),
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
