"""Request streams drawn from a popularity catalog.

A workload is a fixed request sequence with a nominal session size,
plus per-object size and channel-time attributes used by the bandwidth
accounting. Traces round-trip through a one-rank-per-line text format,
written and read by the compiled loops of ``_replay.c``, or by Python
line loops where no kernel loads. :func:`format_rows` writes the rows of
the simulator's and the model's CSV reports: numpy columns to the bytes
of Python's ``%``.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .popularity import ZipfCatalog, check_count, sample_ranks

DEFAULT_SIZE_RANGE = (1.0, 15.0)   # kilobits
DEFAULT_TIME_RANGE = (1.0, 10.0)   # milliseconds
DEFAULT_SESSION_SIZE = 1000
_TRACE_CHUNK = 1 << 16   # ranks per write in save_trace
# the largest catalog a trace names: a rank too long for int64 reads as
# 2**63 - 1, so it must fall outside every catalog
_MAX_OBJECTS = 2**63 - 2
# a conversion of format_rows: %d, or %.Pf or %.Pe with P places
_CONVERSION = re.compile(r"%(?:d|\.(\d+)([ef]))")
_TIE = 2.0 ** -16         # scaled floats this close to a tie go to Python
_SCALED_TOP = 2.0 ** 40   # and those this large
# a float scaled in long double rounds as exactly as _scaled says only
# where that type has at least 64 significant bits; else Python writes
_WIDE = np.finfo(np.longdouble).nmant >= 63
_SPACES = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")
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
    """Request sequence with its nominal session size, checked when it is
    built as :func:`load_trace` checks a trace.

    Sessions are consecutive blocks of ``session_size`` requests, the
    last possibly shorter. They are bookkeeping only: no cache policy
    depends on them, and the size is echoed into traces and reports.
    ``n_objects`` is an int in ``1..2**63 - 2`` and ``session_size`` one
    ``>= 1``, both stored as Python ints, and ``requests`` a non-empty 1-d
    int array of ranks in ``1..n_objects``, kept as given. Anything else is a
    ``ValueError``, so every workload saves to a trace that loads back.
    """

    requests: np.ndarray
    session_size: int
    n_objects: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_objects", check_count(
            "n_objects", self.n_objects, 1, _MAX_OBJECTS))
        object.__setattr__(self, "session_size",
                           check_count("session_size", self.session_size))
        requests = self.requests
        if requests.ndim != 1:
            raise ValueError(f"requests must be 1-d, got {requests.shape}")
        if requests.dtype.kind not in "iu":
            raise ValueError(f"requests must be ints, got {requests.dtype}")
        if not requests.size:
            raise ValueError("no requests in trace")
        i = _first_outside(requests, self.n_objects)
        if i is not None:
            raise ValueError(f"requests[{i}] is {requests[i]}, "
                             f"not a rank in 1..{self.n_objects}")

    @property
    def total_requests(self) -> int:
        return int(self.requests.size)


def generate_workload(
    catalog: ZipfCatalog, total_requests: int, session_size: int, seed: int
) -> Workload:
    """Draw ``total_requests`` i.i.d. ranks; deterministic per seed."""
    total_requests = check_count("total_requests", total_requests)
    # the fields are checked before the draw, as those of one request
    Workload(np.ones(1, dtype=np.int64), session_size, catalog.n_objects)
    rng = np.random.default_rng(seed)
    return Workload(requests=sample_ranks(catalog, total_requests, rng),
                    session_size=session_size, n_objects=catalog.n_objects)


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
    n_objects = check_count("n_objects", n_objects)
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
    """Write a workload as a header line plus one rank per line, a trace
    that :func:`load_trace` reads back as the same workload."""
    from .cache import _kernel   # at call time: cache imports popularity

    requests, kernel = workload.requests, _kernel()
    # every rank fits in int64: a Workload's are in 1..2**63 - 2
    buffer = np.empty(21 * min(requests.size, _TRACE_CHUNK), dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(f"#n_objects={workload.n_objects} "
                f"session={workload.session_size}\n".encode())
        for start in range(0, requests.size, _TRACE_CHUNK):
            chunk = requests[start:start + _TRACE_CHUNK]
            if kernel is None:
                f.write("".join(f"{rank}\n" for rank in chunk.tolist())
                        .encode())
                continue
            chunk = np.ascontiguousarray(chunk, dtype=np.int64)
            f.write(buffer[:kernel.write_ranks(chunk.ctypes.data, chunk.size,
                                               buffer.ctypes.data)])


def _first_outside(requests: np.ndarray, n_objects: int) -> int | None:
    """The index of the first request not in ``1..n_objects``, or None."""
    if requests.min(initial=1) >= 1 and requests.max(initial=1) <= n_objects:
        return None
    return int(np.flatnonzero((requests < 1) | (requests > n_objects))[0])


def format_rows(template: str, columns: Sequence[np.ndarray]) -> bytes:
    """``template % row`` for each row of ``columns``, joined, in ASCII.

    ``template`` is literal ASCII text with one conversion per column, in
    order: ``%d`` of an int column, or ``%.Pf`` or ``%.Pe`` of a float
    column. The digits come from numpy arithmetic: an int's one place at
    a time, a float's from its value scaled by a power of ten in long
    double and rounded to an int. A row whose bytes this cannot decide
    exactly is formatted by ``template % row`` itself: one with a value
    that is negative, -0.0 or not finite, or a scaled float at or past
    ``2**40`` or within ``2**-16`` of a rounding tie, and every row where
    long double has fewer than 64 significant bits. So every byte is the
    one that Python's ``%`` writes.
    """
    pieces = _CONVERSION.split(template)
    rows = len(columns[0])
    # literal bytes; (ints, least), the digits of ints in at least
    # `least` places; or a bool column, "-" where True and "+" elsewhere
    parts, slow = [], np.zeros(rows, dtype=bool)
    for literal, precision, kind, column in zip(
            pieces[::3], pieces[1::3], pieces[2::3], columns):
        parts.append(literal.encode("ascii"))
        if kind is None:
            column = np.asarray(column)
            bad = column < 0
            parts.append((np.where(bad, 0, column) if bad.any() else column,
                          1))
        else:
            places = int(precision)
            digits, exponent, bad = _scaled(
                np.asarray(column, dtype=np.float64), places, kind)
            bad |= not _WIDE
            whole, fraction = np.divmod(digits, 10 ** places)
            parts += [(whole, 1), b".", (fraction, places)]
            if kind == "e":
                parts += [b"e", exponent < 0, (np.abs(exponent), 2)]
        slow |= bad
    parts.append(pieces[-1].encode("ascii"))

    widths = [len(part) if isinstance(part, bytes) else
              max(len(str(int(part[0].max(initial=0)))), part[1])
              if isinstance(part, tuple) else 1 for part in parts]
    cells = np.empty((rows, sum(widths)), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    start = 0
    for part, width in zip(parts, widths):
        at = slice(start, start + width)
        if isinstance(part, bytes):
            cells[:, at] = np.frombuffer(part, dtype=np.uint8)
        elif isinstance(part, tuple):
            _write_digits(*part, cells[:, at], keep[:, at])
        else:
            cells[:, start] = np.where(part, ord("-"), ord("+"))
        start += width
    if not slow.any():
        return cells[keep].tobytes()
    keep[slow] = False
    body = cells[keep].tobytes()
    # each slow row goes where its empty row ends, in Python's bytes
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    chunks, start = [], 0
    for i in np.flatnonzero(slow).tolist():
        chunks += (body[start:ends[i]],
                   (template % tuple(np.asarray(column)[i].item()
                                     for column in columns)).encode())
        start = ends[i]
    chunks.append(body[start:])
    return b"".join(chunks)


def _write_digits(value: np.ndarray, least: int, cells: np.ndarray,
                  keep: np.ndarray) -> None:
    """Writes the decimal digits of non-negative ints ``value`` into the
    rows of ``cells``, right-aligned, and clears ``keep`` over the zeros
    left of each leading digit and of the last ``least`` columns."""
    width = cells.shape[1]
    value = value.astype(np.min_scalar_type(int(value.max(initial=0))))
    for place in range(width - 1, -1, -1):
        cells[:, place] = value % 10 + ord("0")
        value //= 10
        if 0 < place <= width - least:
            keep[:, place - 1] = value > 0


def _scaled(x: np.ndarray, precision: int, kind: str
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``%.Pf`` or ``%.Pe`` of each float in ``x`` as ints: the digits of
    the value rounded to ``precision`` places, its exponent (0 for
    ``f``), and where that rounding may differ from Python's.

    A finite non-negative value is scaled in long double by a power of
    ten with a relative error below ``2**-62``, so below ``2**40`` it is
    within ``2**-21`` of the exact product, and rounds as that does
    unless it lies within ``2**-16`` of a tie. For ``e`` the power is
    ``10**(P - E)`` with ``E = floor(log10(x))``, so the digits run from
    ``10**P`` to ``10**(P+1)``, and ``10**(P+1)`` carries into ``E``.
    """
    bad = ~np.isfinite(x) | np.signbit(x)
    value = np.where(bad, 0.0, x).astype(np.longdouble)
    exponent = np.zeros(x.size, dtype=np.int64)
    if kind == "e":
        positive = value > 0
        exponent[positive] = np.floor(np.log10(x[positive]))
        scaled = value * _powers_of_ten(precision - exponent)
    else:
        scaled = value * np.longdouble(10) ** precision
    # clipped first, so that every cast is exact; the clipped are bad
    scaled = np.minimum(scaled, _SCALED_TOP)
    whole = scaled.astype(np.int64)        # np.floor is slow in long double
    rest = (scaled - whole).astype(np.float64)    # exact to 2**-54
    bad |= (scaled == _SCALED_TOP) | (abs(rest - 0.5) <= _TIE)
    digits = np.where(bad, 0, whole + (rest > 0.5))
    if kind == "e":
        # np.log10 misses E by one only so near a power of ten that the
        # value rounds to it: to digits 10**P or 10**(P+1), both right
        bad |= positive & ((digits < 10 ** precision)
                           | (digits > 10 ** (precision + 1)))
        carry = digits == 10 ** (precision + 1)
        digits[carry] //= 10
        exponent += carry
    return digits, exponent, bad


def _powers_of_ten(k: np.ndarray) -> np.ndarray:
    """``10**k`` in long double for each int in ``k``."""
    lowest = int(k.min(initial=0))
    table = np.power(np.longdouble(10),
                     np.arange(lowest, int(k.max(initial=0)) + 1))
    return table[k - lowest]


def load_trace(path: str) -> Workload:
    r"""Read a trace written by :func:`save_trace`.

    Line 1 is the header, up to the first ``\n`` less one trailing ``\r``:
    ``#`` and the words ``n_objects=N`` and ``session=S``, each once, in
    either order, with ASCII digits for values and the whitespace below
    between words; ``N`` is in ``1..2**63 - 2`` and ``S`` at least 1.
    Only ``\n`` ends a line, and every later line is blank or one rank
    in ``1..n_objects`` in ASCII digits, with optional ASCII whitespace
    around it: space, ``\t``, ``\r``, ``\v``, ``\f`` and
    ``\x1c``-``\x1f``.
    Raises :class:`TraceParseError` naming the earliest line that breaks
    this, and on an empty file, a bad header or a body with no ranks.
    """
    with open(path, "rb") as f:
        # no name keeps the whole file, so the body is its one copy
        header, newline, body = f.read().partition(b"\n")
    if not (header or newline):
        raise TraceParseError(f"{path}: empty trace file")
    header = header.removesuffix(b"\r")
    if not header.startswith(b"#"):
        raise TraceParseError(f"{path}: line 1: missing #n_objects header")
    # split at the body's whitespace and sorted, the words must be the two
    # fields exactly, so an unknown or repeated key or a non-digit value fails
    fields = _HEADER_FIELDS.fullmatch(
        b" ".join(sorted(header.lstrip(b"#").translate(_SPACES).split())))
    try:
        if fields is None:
            raise ValueError
        n_objects, session_size = map(int, fields.groups())
    except ValueError:   # int() also refuses more than 4300 digits
        shown = header.decode("utf-8", "replace")
        raise TraceParseError(f"{path}: line 1: malformed header {shown!r}")
    try:   # the header's fields, checked as those of one request
        Workload(np.ones(1, dtype=np.int64), session_size, n_objects)
    except ValueError as exc:
        raise TraceParseError(f"{path}: line 1: {exc}") from None

    requests, bad = _read_ranks(body, n_objects)
    if bad >= 0:
        shown = body.split(b"\n", bad + 1)[bad].decode("utf-8", "replace")
        raise TraceParseError(f"{path}: line {bad + 2}: not a rank in "
                              f"1..{n_objects}: {shown!r}")
    try:
        return Workload(requests=requests, session_size=session_size,
                        n_objects=n_objects)
    except ValueError as exc:   # only a body with no ranks is left
        raise TraceParseError(f"{path}: {exc}") from None


def _read_ranks(body: bytes, n_objects: int) -> tuple[np.ndarray, int]:
    r"""The ranks of a trace body's lines, as :func:`load_trace` reads
    them, and the index from 0 of the first line that breaks its grammar,
    or -1. The compiled ``read_ranks`` reads the body in place; where no
    kernel loads, a Python loop reads each line."""
    from .cache import _kernel   # at call time: cache imports popularity

    kernel = _kernel()
    if kernel is not None:
        # a rank per line at most; numpy counts \n 10x faster than .count
        lines = np.count_nonzero(np.frombuffer(body, dtype=np.uint8) == 10)
        ranks = np.empty(lines + 1, dtype=np.int64)
        bad = np.empty(1, dtype=np.int64)
        count = kernel.read_ranks(body, len(body), n_objects,
                                  ranks.ctypes.data, bad.ctypes.data)
        return ranks[:count], int(bad[0])
    ranks = []
    for line, text in enumerate(body.translate(_SPACES).split(b"\n")):
        digits = text.strip()
        if not digits:
            continue
        # int() refuses over 4300 digits, so leading zeros go first
        value = digits.lstrip(b"0")
        if not (value.isdigit() and len(value) < 20
                and int(value) <= n_objects):
            return np.array(ranks, dtype=np.int64), line
        ranks.append(int(value))
    return np.array(ranks, dtype=np.int64), -1
