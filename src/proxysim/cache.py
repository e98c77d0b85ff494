"""Bounded caches and the replay of request streams through them.

Requests are replayed against the cache in order. A hit bumps the
object's access count; a miss on a full cache evicts the resident entry
with the lowest count, breaking ties toward the oldest insertion. Counts
belong to objects, not residencies: an object evicted and later
re-admitted resumes from its accumulated count, so sustained popularity
wins out over recency of insertion. The policy names ``session_lfu``
and ``lfu_classic`` both select this cache: the state depends only on
request order, so sessions are bookkeeping. Plain LRU is the recency
baseline.

:func:`replay` is the one entry point: it yields the hit flags of a
fresh cache at each of several capacities, from one plain loop over the
requests per capacity in ``_replay.c``. LFU keeps its newest admission
in a pending slot and the other residents in a min-heap on ``(count,
insertion position)`` whose counts may lag, on both paths; LRU keeps
them in a doubly linked list over ranks. The same C file reduces each
array of flags: :func:`tally` counts the hits per rank in one pass, with
no per-request temporary; it also draws ranks and writes and reads the
rank lines of traces. It is compiled on first use into the user's cache
directory and loaded through ``ctypes``. Where it cannot be built, the
same replay runs in Python, with the C functions' arguments:
``_lfu_python`` for LFU and ``_lru_python``, an ``OrderedDict``, for
LRU; ``np.bincount`` tallies the flags.
"""

from __future__ import annotations

import functools
import os
import warnings
from collections import OrderedDict
from collections.abc import Iterator, Sequence
from heapq import heappush, heapreplace

import numpy as np

from .popularity import check_count

POLICIES = ("session_lfu", "lru", "lfu_classic")
_SOURCE = os.path.join(os.path.dirname(__file__), "_replay.c")
_WINDOW = 1 << 16       # requests per Python list in the Python replay


def replay(policy: str, requests: np.ndarray,
           capacities: Sequence[int]) -> Iterator[np.ndarray]:
    """Replay ``requests`` through a fresh cache of each capacity in
    ``capacities``; yields one array of hit flags, one per request, for
    each capacity in turn, so a caller can drop each before the next.

    The policy, every capacity, an int >= 1 by ``check_count``'s rule,
    and the ranks, which must be a 1-d array of non-negative ints, are
    checked here, before any replay; each replay checks its ranks again,
    so a rank changed since is a ``ValueError``. Both policies keep arrays
    over ranks, so ranks larger than the number of requests are first
    numbered densely in sorted order, which changes no flag.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    # an iterator is walked only once
    capacities = tuple(check_count("capacity", c) for c in capacities)
    if not (isinstance(requests, np.ndarray) and requests.ndim == 1
            and requests.dtype.kind in "iu" and requests.min(initial=0) >= 0):
        raise ValueError("ranks must be a 1-d array of non-negative ints")
    return _replay(policy == "lru", requests, capacities)


def _replay(lru: bool, requests: np.ndarray,
            capacities: Sequence[int]) -> Iterator[np.ndarray]:
    """The flags of :func:`replay`, from the compiled kernel where it
    loads and otherwise from the Python loop with the same arguments."""
    if requests.max(initial=0) > requests.size:
        requests = np.unique(requests, return_inverse=True)[1]
    ranks = np.ascontiguousarray(requests, dtype=np.int64)
    n_ranks = int(ranks.max(initial=0)) + 1
    kernel = _kernel()
    for capacity in capacities:
        # a cache that holds every rank never evicts, however large
        capacity = min(capacity, n_ranks)
        flags = np.empty(ranks.size, dtype=bool)
        if kernel is None:
            status = (_lru_python if lru else _lfu_python)(
                ranks, n_ranks, capacity, flags)
        else:
            status = (kernel.lru_flags if lru else kernel.lfu_flags)(
                ranks.ctypes.data, ranks.size, n_ranks, capacity,
                flags.ctypes.data)
        if status == -1:
            raise MemoryError
        if status:      # the ranks changed after they were checked
            raise ValueError(f"ranks must be in 0..{n_ranks - 1}")
        yield flags
        del flags       # so that only one array of flags is alive at once


def tally(requests: np.ndarray, flags: np.ndarray, n_bins: int) -> np.ndarray:
    """The hits of one replay per rank, an int64 array over ``n_bins``
    ranks from 0: ``hits[r]`` counts the set ``flags`` of the requests
    for rank ``r``.

    ``flags`` is one bool per request, as :func:`replay` yields them. A
    rank outside ``0..n_bins - 1`` is a ``ValueError``; the compiled
    loop checks each rank before it counts it, since an array of ranks
    may have changed since it was last checked.
    """
    ranks = np.ascontiguousarray(requests, dtype=np.int64)
    if flags.dtype != bool or flags.shape != ranks.shape:
        raise ValueError("flags must be one bool per request")
    kernel = _kernel()
    if kernel is None:
        if ranks.size and not 0 <= ranks.min() <= ranks.max() < n_bins:
            raise ValueError(f"ranks must be in 0..{n_bins - 1}")
        return np.bincount(ranks[flags], minlength=n_bins)
    flags = np.ascontiguousarray(flags)
    hits = np.zeros(n_bins, dtype=np.int64)
    if kernel.tally(ranks.ctypes.data, ranks.size, flags.ctypes.data,
                    n_bins, hits.ctypes.data):
        raise ValueError(f"ranks must be in 0..{n_bins - 1}")
    return hits


@functools.cache
def _kernel():
    """The compiled functions of ``_replay.c``, built on first use into
    ``$XDG_CACHE_HOME/proxysim`` (else ``~/.cache/proxysim``) as a
    library named by a hash of the source. None, with one
    ``RuntimeWarning`` naming the step that failed, where the source
    cannot be read, the build fails or the library does not load."""
    import ctypes
    import hashlib

    directory = os.path.join(os.environ.get("XDG_CACHE_HOME")
                             or os.path.expanduser("~/.cache"), "proxysim")
    try:
        with open(_SOURCE, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()[:16]
    except OSError:
        return _no_kernel(f"cannot read {_SOURCE}")
    library = os.path.join(directory, f"replay-{digest}.so")
    if not (os.path.exists(library) or _build(directory, library)):
        return _no_kernel(f"cannot build {library} with cc")
    try:
        kernel = ctypes.CDLL(library)
    except OSError:
        return _no_kernel(f"cannot load {library}")
    p, n = ctypes.c_void_p, ctypes.c_int64
    for function, restype, argtypes in (   # as declared in _replay.c
            (kernel.lfu_flags, ctypes.c_int, [p, n, n, n, p]),
            (kernel.lru_flags, ctypes.c_int, [p, n, n, n, p]),
            (kernel.tally, ctypes.c_int, [p, n, p, n, p]),
            (kernel.draw, None, [p, n, p, p, n, p]),
            (kernel.write_ranks, n, [p, n, p]),
            (kernel.read_ranks, n, [ctypes.c_char_p, n, n, p, p])):
        function.restype, function.argtypes = restype, argtypes
    return kernel


def _build(directory: str, library: str) -> bool:
    """Compiles ``_replay.c`` into ``library``; whether that succeeded. A
    build writes a temp file and renames it, so processes that build at
    once each load whole bytes."""
    import subprocess
    import tempfile

    try:
        os.makedirs(directory, exist_ok=True)
        fd, temp = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
        try:
            subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", temp,
                            _SOURCE], check=True, capture_output=True)
            os.replace(temp, library)
        finally:
            if os.path.exists(temp):
                os.unlink(temp)
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


def _no_kernel(reason: str) -> None:
    """Warns that no kernel loads, and why; the None of :func:`_kernel`."""
    warnings.warn(f"proxysim: no compiled kernel ({reason}); replay, "
                  "draws and trace files run in Python, 10 to 90 times "
                  "slower", RuntimeWarning)


def _lfu_python(ranks: np.ndarray, n_ranks: int, capacity: int,
                flags: np.ndarray) -> int:
    """Writes the LFU hit flags of ``ranks`` into ``flags``, the C
    ``lfu_flags`` in Python, a window of ``_WINDOW`` ranks at a time;
    returns its status, 0, or 1 at a window with a rank outside
    ``0..n_ranks - 1``, before the window is replayed. The comment on
    ``lfu_flags`` in ``_replay.c`` describes the algorithm, a pending
    slot and a heap whose counts may lag; here ``heappush`` orders the
    heap as it fills.
    """
    count, member, heap = [0] * n_ranks, [False] * n_ranks, []
    pending = admitted = -1             # -1: the cache is empty
    free = capacity
    flags[:] = True
    for start in range(0, ranks.size, _WINDOW):
        window = ranks[start:start + _WINDOW]
        if not 0 <= window.min() <= window.max() < n_ranks:
            return 1
        missed = []
        for i, rank in enumerate(window.tolist(), start):
            count[rank] += 1
            if member[rank] or rank == pending:
                continue
            missed.append(i)
            if free:
                if pending >= 0:
                    heappush(heap, (count[pending], admitted, pending))
                    member[pending] = True
                free -= 1
            else:
                least = count[pending]
                while heap and least >= heap[0][0]:
                    top_count, top_seq, top = heap[0]
                    if count[top] == top_count:       # top is current: it goes
                        heapreplace(heap, (least, admitted, pending))
                        member[top] = False
                        member[pending] = True
                        break
                    heapreplace(heap, (count[top], top_seq, top))  # refresh
            pending, admitted = rank, i
        flags[missed] = False
    return 0


def _lru_python(ranks: np.ndarray, n_ranks: int, capacity: int,
                flags: np.ndarray) -> int:
    """Writes the LRU hit flags of ``ranks`` into ``flags``, the C
    ``lru_flags`` in Python, through an ``OrderedDict`` of the residents,
    least recently used first, a window of ``_WINDOW`` ranks at a time;
    returns the status of :func:`_lfu_python`. The dict holds only the
    residents, so ``n_ranks`` serves only to check the ranks."""
    cache = OrderedDict()
    for start in range(0, ranks.size, _WINDOW):
        window = ranks[start:start + _WINDOW]
        if not 0 <= window.min() <= window.max() < n_ranks:
            return 1
        hits = []
        for rank in window.tolist():
            hits.append(rank in cache)
            if hits[-1]:
                cache.move_to_end(rank)
                continue
            if len(cache) == capacity:
                cache.popitem(last=False)
            cache[rank] = None
        flags[start:start + len(hits)] = hits
    return 0
