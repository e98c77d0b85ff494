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

_DRAW_CHUNK = 1 << 16      # uniforms drawn and located per step
_GUIDE_BITS_MAX = 20       # at most 2**20 + 1 bucket edges (8 MiB of int64)
_SUM_TOLERANCE = 2.0 ** -26  # sqrt(float64 eps), as numpy's weighted choice


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


def check_count(name: str, value, least: int = 1,
                most: int | None = None) -> int:
    """The one rule for a count: an int or numpy integer, not a bool, in
    ``least..most`` (no top if ``most`` is None); a ``ValueError`` names it."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, np.integer))
            and least <= value <= (value if most is None else most)):
        bounds = f">= {least}" if most is None else f"in {least}..{most}"
        raise ValueError(f"{name} must be an int {bounds}, got {value}")
    return int(value)


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
    ranks = np.arange(1, check_count("n", n) + 1, dtype=np.float64)
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
        If ``n_objects`` is not an int >= 1, or ``alpha`` not finite >= 0.
    """
    n_objects = check_count("n_objects", n_objects)
    if not math.isfinite(alpha) or alpha < 0:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    normalizer = 1.0 / generalized_harmonic(n_objects, alpha)
    ranks = np.arange(1, n_objects + 1, dtype=np.float64)
    return ZipfCatalog(n_objects=n_objects, alpha=float(alpha),
                       normalizer=normalizer,
                       probabilities=np.power(ranks, -alpha) * normalizer)


def probability(catalog: ZipfCatalog, rank: int) -> float:
    """Request probability of ``rank`` (1-based).

    Raises
    ------
    ValueError
        If ``rank`` is outside ``1..catalog.n_objects``; an out-of-range
        rank is a caller bug, never a silent zero.
    """
    rank = check_count("rank", rank, 1, catalog.n_objects)
    return float(catalog.probabilities[rank - 1])


def sample_ranks(
    catalog: ZipfCatalog, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` i.i.d. ranks by inverse CDF, one ``rng.random()``
    uniform per rank, so bulk and one-at-a-time sampling agree element
    for element on a shared seed.

    The ranks, and the generator state after the call, are those of
    ``rng.choice(catalog.n_objects, size, p=catalog.probabilities) + 1``:
    the same CDF (``cumsum`` divided by its last entry) and the same
    ``searchsorted(..., "right")`` answer. The compiled ``draw`` of
    ``_replay.c`` locates each uniform through a guide table (Chen & Asau
    1974): ``edges[k]`` counts the CDF points up to bucket ``k`` of
    ``2**b`` equal slices of ``[0, 1)``, so it bisects only the points in
    a uniform's bucket; where no kernel loads, ``searchsorted`` does.
    Uniforms are drawn and located in chunks of ``_DRAW_CHUNK``, which
    bounds the temporaries.

    Raises
    ------
    ValueError
        As ``rng.choice`` did, unless the probabilities are ``n_objects``
        non-negative values summing to 1 within ``sqrt(eps)``.
    """
    from .cache import _kernel   # at call time: cache imports this module

    size = check_count("size", size, 0)
    p = np.asarray(catalog.probabilities, dtype=np.float64)
    # p >= 0 is False for NaN; a hand-built catalog skips build_catalog
    if not (p.shape == (catalog.n_objects,) and (p >= 0).all()
            and abs(p.sum() - 1.0) <= _SUM_TOLERANCE):
        raise ValueError("probabilities must be n_objects non-negative "
                         "values summing to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    # about 4N buckets, but no more than about size of them, so that a
    # small draw does not pay for a large table
    bits = min((p.size - 1).bit_length() + 2, size.bit_length(),
               _GUIDE_BITS_MAX)
    # edges[k] counts the CDF points <= k / 2**b, exactly: the edges are
    # dyadic, and so is u * 2**b for a uniform u in [0, 1), so the answer
    # for u in bucket k lies in edges[k]..edges[k + 1]
    edges = cdf.searchsorted(np.arange((1 << bits) + 1) / (1 << bits),
                             "right").astype(np.int64, copy=False)
    kernel = _kernel()
    out = np.empty(size, dtype=np.int64)
    u_buf = np.empty(min(size, _DRAW_CHUNK))
    for start in range(0, size, _DRAW_CHUNK):
        stop = min(start + _DRAW_CHUNK, size)
        u = rng.random(out=u_buf[:stop - start])
        if kernel is None:
            out[start:stop] = cdf.searchsorted(u, "right") + 1
        else:
            kernel.draw(u.ctypes.data, u.size, cdf.ctypes.data,
                        edges.ctypes.data, 1 << bits, out[start:].ctypes.data)
    return out


def power_modulus(n: int, s: complex) -> float:
    """Modulus ``|n**-s| = n**-sigma`` of an exponent ``s = sigma + i*beta``.

    The oscillatory factor ``exp(-i*beta*log(n))`` has modulus 1, so the
    result depends on ``s.real`` alone.
    """
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError("exponent parts must be finite")
    return float(check_count("n", n)) ** -s.real


def zeta_partial_terms(
    s: complex, n_terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tail terms ``a_n = n**-s - integral(x**-s, n, n+1)`` with bounds.

    The integral uses the closed-form antiderivative ``x**(1-s)/(1-s)``,
    falling back to the logarithm when ``s == 1``. Each term comes with
    the bound ``|s| * n**(-1-sigma)``, which dominates ``|a_n|`` exactly
    and makes the partial sums converge for every ``sigma > 0``.

    Parameters
    ----------
    s : complex
        Exponent ``sigma + i*beta`` with ``sigma > 0``; an int or a float
        is a real exponent.
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
        If a part of ``s`` is not finite, ``s.real <= 0`` or
        ``n_terms`` is not an int >= 1.
    """
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError("exponent parts must be finite")
    if s.real <= 0:
        raise ValueError(f"sigma must be > 0, got {s.real}")
    n = np.arange(1, check_count("n_terms", n_terms) + 1, dtype=np.float64)
    direct = np.power(n.astype(np.complex128), -s)
    if s == 1:
        integral = np.log((n + 1) / n).astype(np.complex128)
    else:
        integral = (np.power((n + 1).astype(np.complex128), 1 - s)
                    - np.power(n.astype(np.complex128), 1 - s)) / (1 - s)
    # math.hypot and abs(complex) may round apart in the last bit; the
    # bounds keep hypot's
    bounds = math.hypot(s.real, s.imag) * np.power(n, -1.0 - s.real)
    return direct - integral, bounds
