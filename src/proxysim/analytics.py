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

from .popularity import ZipfCatalog, check_count
from .workload import ObjectAttributes, format_rows

ASYMPTOTIC_MODES = ("paper", "corrected")
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

    This is the one place ``k`` and ``rate_convention`` are validated,
    and :func:`model_report` the one evaluator of the model they set.
    :class:`~proxysim.simulator.SimConfig` builds one per capacity, so a
    bad field is refused before any rank is drawn.
    """

    k: float
    cache_capacity: int
    rate_convention: str = "product"

    def __post_init__(self) -> None:
        if not 0.0 <= self.k <= 1.0:
            raise ValueError(f"k must be in [0, 1], got {self.k}")
        check_count("cache_capacity", self.cache_capacity)
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
    return np.power(1.0 - catalog.probabilities[ranks],
                    check_count("r_requests", r_requests, 0))


def miss_probability(catalog: ZipfCatalog, rank: int, r_requests: int) -> float:
    """Probability that ``rank`` (1-based) is absent from ``r_requests``
    i.i.d. draws: ``(1 - p(rank))**R``, 1.0 for an empty stream."""
    rank = check_count("rank", rank, 1, catalog.n_objects)
    return float(_miss_term(catalog, r_requests, slice(rank - 1, rank))[0])


def hit_miss_on_demand(catalog: ZipfCatalog, r_requests: int,
                       upper_rank: int) -> float:
    """Residual miss mass over the ``upper_rank`` hottest ranks.

    Sums ``p(i) * (1 - p(i))**R`` for ranks ``1..upper_rank``: the
    expected probability weight of objects that would still be absent
    after ``R`` requests. Equals the plain top-rank mass at ``R = 0``
    and vanishes geometrically as ``R`` grows.
    """
    upper_rank = check_count("upper_rank", upper_rank, 1, catalog.n_objects)
    return float(np.sum(catalog.probabilities[:upper_rank]
                        * _miss_term(catalog, r_requests, slice(upper_rank))))


def top_c_mass(catalog: ZipfCatalog, c: int) -> float:
    """Exact probability mass of the ``c`` most popular ranks."""
    c = check_count("c", c, 1, catalog.n_objects)
    return float(catalog.probabilities[:c].sum())


def top_c_mass_asymptotic(catalog: ZipfCatalog, c: int, mode: str) -> float:
    """Closed-form approximation of :func:`top_c_mass`.

    ``paper`` returns the paper's ``alpha * c**(1 - alpha)``, an
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
    c = check_count("c", c, 1, catalog.n_objects)
    alpha = catalog.alpha
    if alpha == 1.0:
        raise ValueError("asymptotic mass is singular at alpha = 1")
    if mode == "paper":
        return alpha * c ** (1.0 - alpha)
    e = 1.0 - alpha
    try:
        return catalog.normalizer * ((c + 0.5) ** e - 0.5 ** e) / e
    except OverflowError:   # 0.5**e is past the float range
        raise ValueError(f"corrected mass overflows, alpha {alpha}") from None


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
        Per-rank miss probabilities, the residual miss mass over the
        whole catalog and the exact top-C mass, which equal
        :func:`miss_probability`, :func:`hit_miss_on_demand` and
        :func:`top_c_mass` exactly; and the bandwidth model, evaluated
        only here: ``k * top_c_mass(C) * b_i`` per rank and its sum over
        all ranks.
    """
    n = catalog.n_objects
    mass = top_c_mass(catalog, params.cache_capacity)
    # [:n]: an attribute table longer than the catalog still gives N rows
    per_rank_bandwidth = params.k * mass * per_rank_rate(
        attributes.sizes[:n], attributes.channel_times[:n],
        params.rate_convention)
    per_rank_miss = _miss_term(catalog, r_requests, slice(n))
    return ModelReport(
        per_rank_miss=per_rank_miss,
        h_demand=float(np.sum(catalog.probabilities[:n] * per_rank_miss)),
        top_c_mass=mass,
        per_rank_bandwidth=per_rank_bandwidth,
        aggregate_bandwidth=finite_total(float(per_rank_bandwidth.sum())),
    )


def write_model_report_csv(report: ModelReport, catalog: ZipfCatalog,
                           path: str) -> None:
    """Write per-rank model rows plus a trailing summary line."""
    rows = format_rows("%d,%.10e,%.10e,%.10e\n",
                       (np.arange(1, catalog.n_objects + 1),
                        catalog.probabilities, report.per_rank_miss,
                        report.per_rank_bandwidth))
    summary = ("# summary h_demand=%.10e top_c_mass=%.10e "
               "aggregate_bandwidth=%.10e\n" % (
                   report.h_demand, report.top_c_mass,
                   report.aggregate_bandwidth))
    with open(path, "wb") as f:
        f.write(b"rank,p,miss_prob,bandwidth\n")
        f.write(rows)
        f.write(summary.encode())
