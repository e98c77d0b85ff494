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

``CacheState`` is the one LFU cache. It keeps every resident but the
newest admission, the set S, in a heap whose stored counts are lower
bounds; the newest admission waits in a pending slot. A count tie evicts
the older entry, so the pending entry goes only when its count is below
every other. Being new, it usually is, and it is evicted without a heap
operation. One step applies each request to this state.

:func:`replay` is the one entry point for a whole request array: it
yields the hit flags of a fresh cache at each of several capacities,
from one plain loop over the requests per capacity in ``_replay.c``.
LFU keeps the residents in a binary min-heap on ``(count, insertion
position)``, with a heap slot per rank; LRU keeps them in a doubly
linked list over ranks. The C file is compiled on first use into the
user's cache directory and loaded through ``ctypes``. Where it cannot be
built, the same replay runs in Python: ``CacheState`` for LFU and an
``OrderedDict`` for LRU.
``CacheState`` can also be driven one request at a time.
"""

from __future__ import annotations

import functools
import os
from collections import OrderedDict
from collections.abc import Iterator, Sequence
from heapq import heappush, heapreplace

import numpy as np

POLICIES = ("session_lfu", "lru", "lfu_classic")
_SOURCE = os.path.join(os.path.dirname(__file__), "_replay.c")
_WINDOW = 1 << 16       # requests per Python list in the Python replay


class CacheState:
    """Frequency-ordered cache of at most ``capacity`` objects, over
    non-negative int ranks.

    Eviction picks the resident entry with the smallest
    ``(access_count, insertion_seq)`` pair, exactly the entry a full
    scan would choose. The state is arrays over ranks, read and written
    as Python ints through memoryviews: the count of every rank, which
    survives eviction, and membership of the set S of residents other
    than the newest admission. That admission sits in the pending slot
    with its insertion seq; the heap holds one ``(count, insertion_seq,
    rank)`` entry for every member of S, whose stored count may lag the
    current count but never exceeds it. ``heap[0][0]`` is therefore a
    lower bound on every count in S, and the pending entry, with the
    largest ``insertion_seq``, survives every count tie. :meth:`_resolve`
    applies every request. The arrays grow when a larger rank arrives.

    ``warm`` pre-populates the cache with at most ``capacity`` distinct
    ranks, admitted at count 0 in ascending insertion order without
    counting an access; the last of them is the pending entry.
    """

    def __init__(self, capacity: int, warm=()):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        warm = list(warm)
        if len(warm) > capacity:
            raise ValueError(f"warm list exceeds capacity {capacity}")
        if len(set(warm)) < len(warm):
            raise ValueError("duplicate rank in warm list")
        self.capacity = capacity
        self._counts = np.zeros(0, dtype=np.int64)
        self._members = np.zeros(0, dtype=bool)
        for rank in (0, *warm):       # checks and sizes: at least one rank
            self._cover(rank)
        # ascending keys form a valid heap
        self._heap = [(0, seq, rank) for seq, rank in enumerate(warm[:-1])]
        self._members[warm[:-1]] = True
        # the newest admission, kept out of the heap; None only when empty
        self._pending = warm[-1] if warm else None
        self._admitted = len(warm) - 1
        self.next_seq = len(warm)

    def _cover(self, rank: int) -> None:
        """Checks ``rank`` and extends the arrays over ranks to hold it,
        at least doubling them."""
        if rank < 0:
            raise ValueError(f"ranks must be non-negative ints, got {rank}")
        extra = rank + 1 - self._counts.size
        if extra > 0:
            extra = max(extra, self._counts.size)
            self._counts = np.concatenate(
                (self._counts, np.zeros(extra, dtype=np.int64)))
            self._members = np.concatenate(
                (self._members, np.zeros(extra, dtype=bool)))
            self._count_at = memoryview(self._counts)
            self._member_at = memoryview(self._members)

    def __contains__(self, rank: int) -> bool:
        return rank == self._pending or (
            0 <= rank < self._members.size and self._member_at[rank])

    def __len__(self) -> int:
        return len(self._heap) + (self._pending is not None)

    @property
    def entries(self) -> dict[int, tuple[int, int]]:
        """Resident ranks mapped to (access_count, insertion_seq), in
        ascending insertion order."""
        order = sorted((seq, rank) for _, seq, rank in self._heap)
        if self._pending is not None:
            order.append((self._admitted, self._pending))
        return {rank: (self._count_at[rank], seq) for seq, rank in order}

    def access(self, rank: int) -> tuple[bool, int | None]:
        """Apply one request; returns (hit, evicted_rank_or_None)."""
        self._cover(rank)
        missed, evicted = self._resolve((rank,), self.next_seq)
        if not missed:
            return True, None
        self.next_seq += 1
        return False, evicted

    def _resolve(self, ranks, seq: int) -> tuple[list[int], int | None]:
        """Applies the requests for ``ranks`` in turn, the k-th at insertion
        seq ``seq + k``; returns the seqs of the misses and the victim of
        the last miss on a full cache.

        A request in S or for the pending rank hits. A miss on a cache
        with room moves the pending entry into S. A miss on a full cache
        evicts the pending entry outright when its count is below
        ``heap[0][0]``. Otherwise lagging tops are refreshed until the top
        is current or above that count; a current top that the count
        reaches is the victim, and the pending entry swaps in for it with
        one ``heapreplace``. Either way the requested rank becomes the
        pending entry.
        """
        count_at, member_at, heap = self._count_at, self._member_at, self._heap
        pending, admitted = self._pending, self._admitted
        free = self.capacity - len(heap) - (pending is not None)
        missed, evicted = [], None
        for i, rank in enumerate(ranks, seq):
            count_at[rank] += 1
            if member_at[rank] or rank == pending:
                continue
            missed.append(i)
            if free:
                if pending is not None:
                    heappush(heap, (count_at[pending], admitted, pending))
                    member_at[pending] = True
                free -= 1
            else:
                evicted, count = pending, count_at[pending]
                while heap and count >= heap[0][0]:
                    top_count, top_seq, top = heap[0]
                    current = count_at[top]
                    if current == top_count:          # top is current: it goes
                        heapreplace(heap, (count, admitted, pending))
                        member_at[top] = False
                        member_at[pending] = True
                        evicted = top
                        break
                    heapreplace(heap, (current, top_seq, top))  # refresh it
            pending, admitted = rank, i
        self._pending, self._admitted = pending, admitted
        return missed, evicted


def replay(policy: str, requests: np.ndarray,
           capacities: Sequence[int]) -> Iterator[np.ndarray]:
    """Replay ``requests`` through a fresh cache of each capacity in
    ``capacities``; yields one array of hit flags, one per request, for
    each capacity in turn, so a caller can drop each before the next.

    The policy, every capacity and the ranks, which must be non-negative
    ints, are checked here, before any replay. The LFU names give the
    flags of ``CacheState.access``. Both policies keep arrays over ranks,
    so ranks larger than the number of requests are first numbered
    densely in sorted order, which changes no flag.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    for capacity in capacities:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
    if requests.min(initial=0) < 0:
        raise ValueError("ranks must be non-negative ints")
    return _replay(policy == "lru", requests, capacities)


def _replay(lru: bool, requests: np.ndarray,
            capacities: Sequence[int]) -> Iterator[np.ndarray]:
    """The flags of :func:`replay`, from the compiled kernel where it
    loads and from Python otherwise."""
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
            (_lru_python if lru else _lfu_python)(ranks, capacity, flags)
        elif (kernel.lru_flags if lru else kernel.lfu_flags)(
                ranks.ctypes.data, ranks.size, n_ranks, capacity,
                flags.ctypes.data):
            raise MemoryError
        yield flags


@functools.cache
def _kernel():
    """The compiled replay functions of ``_replay.c``, built on first use
    into ``$XDG_CACHE_HOME/proxysim`` (else ``~/.cache/proxysim``) as a
    library named by a hash of the source; None where there is no
    compiler or the build or load fails. A build writes a temp file and
    renames it, so processes that build at once each load whole bytes."""
    import ctypes
    import hashlib
    import subprocess
    import tempfile

    with open(_SOURCE, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    directory = os.path.join(os.environ.get("XDG_CACHE_HOME")
                             or os.path.expanduser("~/.cache"), "proxysim")
    library = os.path.join(directory, f"replay-{digest}.so")
    try:
        if not os.path.exists(library):
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
        kernel = ctypes.CDLL(library)
    except (OSError, subprocess.CalledProcessError):
        return None
    for function in (kernel.lfu_flags, kernel.lru_flags):
        # ranks, their number, the number of ranks, capacity, flags
        function.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                             ctypes.c_int64, ctypes.c_void_p]
        function.restype = ctypes.c_int
    return kernel


def _lfu_python(ranks: np.ndarray, capacity: int, flags: np.ndarray) -> None:
    """Writes the LFU hit flags of ``ranks`` into ``flags`` through
    :meth:`CacheState._resolve`, a window of ``_WINDOW`` ranks at a
    time."""
    state = CacheState(capacity)
    state._cover(int(ranks.max(initial=0)))
    flags[:] = True
    for start in range(0, ranks.size, _WINDOW):
        missed, _ = state._resolve(ranks[start:start + _WINDOW].tolist(),
                                   start)
        flags[missed] = False


def _lru_python(ranks: np.ndarray, capacity: int, flags: np.ndarray) -> None:
    """Writes the LRU hit flags of ``ranks`` into ``flags`` through an
    ``OrderedDict`` of the residents, least recently used first, a window
    of ``_WINDOW`` ranks at a time."""
    cache = OrderedDict()
    for start in range(0, ranks.size, _WINDOW):
        hits = []
        for rank in ranks[start:start + _WINDOW].tolist():
            hits.append(rank in cache)
            if hits[-1]:
                cache.move_to_end(rank)
                continue
            if len(cache) == capacity:
                cache.popitem(last=False)
            cache[rank] = None
        flags[start:start + len(hits)] = hits
