"""Request streams drawn from a popularity catalog.

A workload is a fixed request sequence with a nominal session size,
plus per-object size and channel-time attributes used by the bandwidth
accounting. Traces round-trip through a one-rank-per-line text format.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .popularity import ZipfCatalog, sample_ranks

DEFAULT_SIZE_RANGE = (1.0, 15.0)   # kilobits
DEFAULT_TIME_RANGE = (1.0, 10.0)   # milliseconds
DEFAULT_SESSION_SIZE = 1000
_TRACE_CHUNK = 1 << 16   # ranks formatted per write in save_trace
# the ASCII whitespace str.strip() drops; \d in bytes is ASCII only
_WS = rb" \t\r\x0b\x0c\x1c-\x1f"
_W = rb"[%s]*" % _WS
_NOT_RANK_LINE = re.compile(rb"^(?!%s(\d+%s)?$).*" % (_W, _W), re.M)
_SPACES = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")
_HEADER_WORD = re.compile(rb"[^%s]+" % _WS)
_HEADER_FIELDS = re.compile(rb"n_objects=(\d+) session=(\d+)")


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
    r"""Read a trace written by :func:`save_trace`.

    Line 1 is the header, up to the first ``\n`` less one trailing ``\r``:
    ``#`` and the words ``n_objects=N`` and ``session=S``, each once, in
    either order, with ASCII digits for values and the whitespace below
    between words. Only ``\n`` ends a line, and every later line is blank
    or one rank in ``1..n_objects`` in ASCII digits, with optional ASCII
    whitespace around it: space, ``\t``, ``\r``, ``\v``, ``\f`` and
    ``\x1c``-``\x1f``.
    Raises :class:`TraceParseError` naming the earliest line that breaks
    this, and on an empty file, a bad header or a body with no ranks.
    """
    with open(path, "rb") as f:
        data = f.read()
    if not data:
        raise TraceParseError(f"{path}: empty trace file")
    header, _, body = data.partition(b"\n")
    header = header.removesuffix(b"\r")
    if not header.startswith(b"#"):
        raise TraceParseError(f"{path}: line 1: missing #n_objects header")
    # sorted, the words must be exactly the two fields, so an unknown or
    # repeated key fails, as does a value that is not ASCII digits
    fields = _HEADER_FIELDS.fullmatch(
        b" ".join(sorted(_HEADER_WORD.findall(header.lstrip(b"#")))))
    try:
        if fields is None:
            raise ValueError
        n_objects, session_size = map(int, fields.groups())
    except ValueError:   # int() also refuses more than 4300 digits
        shown = header.decode("utf-8", "replace")
        raise TraceParseError(f"{path}: line 1: malformed header {shown!r}")
    if n_objects < 1 or session_size < 1:
        raise TraceParseError(f"{path}: line 1: non-positive header fields")

    bad = _NOT_RANK_LINE.search(body)
    # numpy takes \x1c-\x1f for data, and reads whitespace alone as [0]
    text = body[:len(body) if bad is None else bad.start()].translate(_SPACES)
    requests = (np.empty(0, dtype=np.int64) if text.isspace() else
                np.fromstring(text, dtype=np.int64, sep=" "))
    # a rank too long for int64 is read as its maximum, so it fails here
    outside = np.flatnonzero((requests < 1) | (requests > n_objects))
    if outside.size:
        # a good line holds one rank or no digit: rank k is on digit line k
        bad = next(itertools.islice(re.finditer(rb"^.*\d.*$", body, re.M),
                                    outside[0], None))
    if bad is not None:
        lineno = body.count(b"\n", 0, bad.start()) + 2
        line = bad.group().decode("utf-8", "replace")
        raise TraceParseError(f"{path}: line {lineno}: not a rank in "
                              f"1..{n_objects}: {line!r}")
    if not requests.size:
        raise TraceParseError(f"{path}: no requests in trace")

    return Workload(requests=requests, session_size=session_size,
                    n_objects=n_objects)
