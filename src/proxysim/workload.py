"""Request streams drawn from a popularity catalog.

A workload is a fixed request sequence with a nominal session size,
plus per-object size and channel-time attributes used by the bandwidth
accounting. Traces round-trip through a one-rank-per-line text format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .popularity import ZipfCatalog, sample_ranks

DEFAULT_SIZE_RANGE = (1.0, 15.0)   # kilobits
DEFAULT_TIME_RANGE = (1.0, 10.0)   # milliseconds
DEFAULT_SESSION_SIZE = 1000
_TRACE_CHUNK = 1 << 16   # ranks formatted per write in save_trace


class TraceParseError(ValueError):
    """Raised for malformed trace files; message names the bad line."""


@dataclass(frozen=True)
class ObjectAttributes:
    """Per-rank object sizes (kilobits) and channel times (milliseconds)."""

    sizes: np.ndarray
    channel_times: np.ndarray


@dataclass(frozen=True)
class Workload:
    """Request sequence with its nominal session size.

    Sessions are consecutive blocks of ``session_size`` requests, the
    last possibly shorter. They are bookkeeping only: no cache policy
    depends on them, and the size is echoed into traces and reports as
    given.
    """

    requests: np.ndarray
    session_size: int
    n_objects: int

    @property
    def total_requests(self) -> int:
        return int(self.requests.size)


def generate_workload(
    catalog: ZipfCatalog, total_requests: int, session_size: int, seed: int
) -> Workload:
    """Draw ``total_requests`` i.i.d. ranks; deterministic per seed."""
    if total_requests < 1:
        raise ValueError(f"total_requests must be >= 1, got {total_requests}")
    if session_size < 1:
        raise ValueError(f"session_size must be >= 1, got {session_size}")
    rng = np.random.default_rng(seed)
    return Workload(
        requests=sample_ranks(catalog, total_requests, rng),
        session_size=int(session_size),
        n_objects=catalog.n_objects,
    )


def assign_attributes(
    n_objects: int,
    size_range: tuple[float, float] = DEFAULT_SIZE_RANGE,
    time_range: tuple[float, float] = DEFAULT_TIME_RANGE,
    seed: int = 0,
) -> ObjectAttributes:
    """Draw per-object sizes and channel times uniformly over their ranges.

    Parameters
    ----------
    n_objects : int
        Number of ranks to cover.
    size_range, time_range : (float, float)
        Inclusive finite bounds; lower bound must be positive and not
        exceed the upper bound. Degenerate ranges like ``(5, 5)`` are allowed.
    seed : int
        Seed for the attribute stream; same seed, same table.
    """
    if n_objects < 1:
        raise ValueError(f"n_objects must be >= 1, got {n_objects}")
    for name, (lo, hi) in (("size_range", size_range),
                           ("time_range", time_range)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name} bounds must be finite, got [{lo}, {hi}]")
        if lo <= 0:
            raise ValueError(f"{name} lower bound must be > 0, got {lo}")
        if lo > hi:
            raise ValueError(f"{name} is empty: [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    sizes = rng.uniform(size_range[0], size_range[1], n_objects)
    times = rng.uniform(time_range[0], time_range[1], n_objects)
    return ObjectAttributes(sizes=sizes, channel_times=times)


def rank_histogram(workload: Workload) -> np.ndarray:
    """Per-rank request counts, index 0 holding rank 1.

    Conserves the total: ``counts.sum() == workload.total_requests``.
    """
    return np.bincount(workload.requests,
                       minlength=workload.n_objects + 1)[1:]


def save_trace(workload: Workload, path: str) -> None:
    """Write a workload as a header line plus one rank per line."""
    with open(path, "w") as f:
        f.write(f"#n_objects={workload.n_objects} "
                f"session={workload.session_size}\n")
        # whole-array tolist() is faster than str() per numpy scalar but
        # would hold every rank as a Python int and str at once; chunks
        # keep the speed with bounded memory
        requests = workload.requests
        for start in range(0, requests.size, _TRACE_CHUNK):
            chunk = requests[start:start + _TRACE_CHUNK].tolist()
            f.write("\n".join(map(str, chunk)))
            f.write("\n")


def load_trace(path: str) -> Workload:
    """Read a trace written by :func:`save_trace`.

    Raises
    ------
    TraceParseError
        On a missing or malformed header, a rank line that is not ASCII
        digits with optional surrounding whitespace (``int()`` alone
        would take ``+7``, ``1_0`` or non-ASCII digits), a zero rank, or
        a rank beyond the declared catalog size; the message names the
        offending line number. An empty file is an error. The file is
        read as UTF-8, and a byte that does not decode fails its line.
    """
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()
    if not lines:
        raise TraceParseError(f"{path}: empty trace file")
    header = lines[0]
    if not header.startswith("#"):
        raise TraceParseError(f"{path}: line 1: missing #n_objects header")
    try:
        fields = dict(part.split("=", 1)
                      for part in header.lstrip("#").split())
        n_objects = int(fields["n_objects"])
        session_size = int(fields["session"])
    except (ValueError, KeyError):
        raise TraceParseError(f"{path}: line 1: malformed header {header!r}")
    if n_objects < 1 or session_size < 1:
        raise TraceParseError(f"{path}: line 1: non-positive header fields")

    requests = []
    for lineno, line in enumerate(lines[1:], start=2):
        digits = line.strip()
        if not digits:
            continue
        if not (digits.isdigit() and line.isascii()):
            raise TraceParseError(
                f"{path}: line {lineno}: not a decimal rank: {line!r}")
        rank = int(digits)
        if rank < 1:
            raise TraceParseError(
                f"{path}: line {lineno}: rank must be >= 1, got {rank}")
        if rank > n_objects:
            raise TraceParseError(
                f"{path}: line {lineno}: rank {rank} exceeds "
                f"n_objects={n_objects}")
        requests.append(rank)
    if not requests:
        raise TraceParseError(f"{path}: no requests in trace")

    return Workload(
        requests=np.asarray(requests, dtype=np.int64),
        session_size=session_size,
        n_objects=n_objects,
    )
