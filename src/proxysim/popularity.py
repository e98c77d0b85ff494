"""Zipf-law popularity model over a ranked object catalog.

Requests to a web proxy concentrate on a small set of popular objects.
This module models that skew: rank ``i`` of ``N`` objects is requested
with probability ``p(i) = omega * i**-alpha`` where ``omega`` normalizes
the distribution.  It also carries the tail-term numerics used to bound
partial sums of the underlying power series for complex exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ZipfCatalog:
    """Immutable ranked catalog with Zipf request probabilities.

    Attributes
    ----------
    n_objects : int
        Number of distinct objects. Rank 1 is the most popular.
    alpha : float
        Skew exponent. 0 gives a uniform catalog.
    normalizer : float
        ``1 / sum(i**-alpha for i in 1..n_objects)``.
    probabilities : numpy.ndarray
        Per-rank request probabilities, index 0 holding rank 1.
    """

    n_objects: int
    alpha: float
    normalizer: float
    probabilities: np.ndarray


@dataclass(frozen=True)
class ComplexExponent:
    """Exponent ``s = sigma + i*beta`` for the power-series tail bounds.

    Consumers require ``sigma > 0``; construction only insists both parts
    are finite so the rejection happens where the contract names it.
    """

    sigma: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and math.isfinite(self.beta)):
            raise ValueError("exponent parts must be finite")

    @property
    def modulus(self) -> float:
        return math.hypot(self.sigma, self.beta)

    @property
    def value(self) -> complex:
        return complex(self.sigma, self.beta)


def generalized_harmonic(n: int, alpha: float) -> float:
    """Partial sum ``sum(i**-alpha for i in 1..n)``.

    Summed term by term in ascending rank; no closed-form shortcut.

    Parameters
    ----------
    n : int
        Number of leading ranks to sum, at least 1.
    alpha : float
        Exponent applied to each rank.

    Returns
    -------
    float
        The partial sum, always >= 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(np.power(ranks, -alpha).sum())


def build_catalog(n_objects: int, alpha: float) -> ZipfCatalog:
    """Construct a :class:`ZipfCatalog` for ``n_objects`` ranks.

    Parameters
    ----------
    n_objects : int
        Catalog size, at least 1.
    alpha : float
        Skew exponent, finite and >= 0.

    Returns
    -------
    ZipfCatalog

    Raises
    ------
    ValueError
        If ``n_objects < 1`` or ``alpha`` is negative or non-finite.
    """
    if n_objects < 1:
        raise ValueError(f"n_objects must be >= 1, got {n_objects}")
    if not math.isfinite(alpha) or alpha < 0:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    normalizer = 1.0 / generalized_harmonic(n_objects, alpha)
    ranks = np.arange(1, n_objects + 1, dtype=np.float64)
    return ZipfCatalog(n_objects=int(n_objects), alpha=float(alpha),
                       normalizer=normalizer,
                       probabilities=np.power(ranks, -alpha) * normalizer)


def check_rank(catalog: ZipfCatalog, value: int, name: str) -> None:
    """The one check of a 1-based rank or rank count against the catalog."""
    if not 1 <= value <= catalog.n_objects:
        raise ValueError(
            f"{name} must be in 1..{catalog.n_objects}, got {value}")


def probability(catalog: ZipfCatalog, rank: int) -> float:
    """Request probability of ``rank`` (1-based).

    Raises
    ------
    ValueError
        If ``rank`` is outside ``1..catalog.n_objects``; an out-of-range
        rank is a caller bug, never a silent zero.
    """
    check_rank(catalog, rank, "rank")
    return float(catalog.probabilities[rank - 1])


def sample_ranks(
    catalog: ZipfCatalog, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` i.i.d. ranks by inverse CDF: numpy's weighted
    ``Generator.choice`` takes one uniform draw per rank, so bulk and
    one-at-a-time sampling agree element for element on a shared seed."""
    return rng.choice(catalog.n_objects, size, p=catalog.probabilities) + 1


def power_modulus(n: int, s: ComplexExponent) -> float:
    """Modulus ``|n**-s| = n**-sigma``.

    The oscillatory factor ``exp(-i*beta*log(n))`` has modulus 1, so the
    result depends on ``s.sigma`` alone.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return float(n) ** -s.sigma


def zeta_partial_terms(
    s: ComplexExponent, n_terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tail terms ``a_n = n**-s - integral(x**-s, n, n+1)`` with bounds.

    The integral uses the closed-form antiderivative ``x**(1-s)/(1-s)``,
    falling back to the logarithm when ``s == 1``. Each term comes with
    the bound ``|s| * n**(-1-sigma)``, which dominates ``|a_n|`` exactly
    and makes the partial sums converge for every ``sigma > 0``.

    Parameters
    ----------
    s : ComplexExponent
        Exponent with ``sigma > 0``.
    n_terms : int
        Number of leading terms to produce, at least 1.

    Returns
    -------
    values : numpy.ndarray of complex
        ``a_1 .. a_{n_terms}`` as real/imaginary pairs.
    bounds : numpy.ndarray of float
        Matching per-term bounds ``|s| * n**(-1-sigma)``.

    Raises
    ------
    ValueError
        If ``s.sigma <= 0`` or ``n_terms < 1``.
    """
    if s.sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {s.sigma}")
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    sc = s.value
    direct = np.power(n.astype(np.complex128), -sc)
    if sc == 1:
        integral = np.log((n + 1) / n).astype(np.complex128)
    else:
        integral = (np.power((n + 1).astype(np.complex128), 1 - sc)
                    - np.power(n.astype(np.complex128), 1 - sc)) / (1 - sc)
    bounds = s.modulus * np.power(n, -1.0 - s.sigma)
    return direct - integral, bounds
