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

The LFU victim search keeps every resident but the newest admission in a
heap whose stored counts are lower bounds; the newest admission waits
in a pending slot, and since it loses every count tie it is the usual
victim, evicted without a heap operation.

:func:`replay` is the one entry point for a whole request array: it
yields the hit flags of a fresh cache at each of several capacities.
LFU replays call ``CacheState.access`` once per request and capacity.
LRU needs no cache object: it is a stack algorithm, so a request hits
exactly when the previous request for its rank is among the last
requests of the ``C`` most recently used ranks. The previous and next
position of every request's rank are found once, and one forward walk
over them per capacity finds the oldest of those last requests.
``CacheState`` can also be driven one request at a time.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from heapq import heappush, heapreplace
from itertools import chain

import numpy as np

POLICIES = ("session_lfu", "lru", "lfu_classic")
_RANK_CHUNK = 1 << 16   # ranks converted to Python ints at a time


class CacheState:
    """Frequency-ordered cache of at most ``capacity`` objects.

    Eviction picks the resident entry with the smallest
    ``(access_count, insertion_seq)`` pair, exactly the entry a full
    scan would choose. The newest admission sits in the ``_pending``
    slot; the heap holds one ``(count, insertion_seq, rank)`` entry for
    every other resident, whose stored count may lag the current count
    but never exceeds it. ``heap[0][0]`` is therefore a lower bound on
    the count of every non-pending resident, and the pending entry, with
    the largest ``insertion_seq``, loses every tie. A miss on a full
    cache evicts the pending entry outright when its count is below
    that bound; otherwise it refreshes lagging counts at the top and
    either evicts the pending entry or swaps it in for the top with one
    ``heapreplace``. Admissions into a cache that is not full move the
    previous pending entry into the heap.

    ``warm`` pre-populates the cache with at most ``capacity`` distinct
    ranks, admitted at count 0 in ascending insertion order without
    counting an access; the last of them is the pending entry.
    """

    def __init__(self, capacity: int, warm=()):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counts: dict[int, int] = {}     # per object, survives eviction
        self._resident: dict[int, int] = {}   # rank -> insertion_seq
        self._heap: list[tuple[int, int, int]] = []
        for seq, rank in enumerate(warm):
            if rank in self._resident:
                raise ValueError(f"duplicate rank {rank} in warm list")
            if seq >= capacity:
                raise ValueError(f"warm list exceeds capacity {capacity}")
            self._counts[rank] = 0
            self._resident[rank] = seq
            self._heap.append((0, seq, rank))  # ascending keys: a valid heap
        # the newest admission, kept out of the heap; None only when empty
        self._pending = self._heap.pop()[2] if self._heap else None
        self.next_seq = len(self._resident)

    def __contains__(self, rank: int) -> bool:
        return rank in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    @property
    def entries(self) -> dict[int, tuple[int, int]]:
        """Resident ranks mapped to (access_count, insertion_seq)."""
        return {r: (self._counts[r], q) for r, q in self._resident.items()}

    def access(self, rank: int) -> tuple[bool, int | None]:
        """Apply one request; returns (hit, evicted_rank_or_None)."""
        counts = self._counts
        resident = self._resident
        if rank in resident:
            counts[rank] += 1
            return True, None
        pending = self._pending
        if len(resident) < self.capacity:
            evicted = None
            if pending is not None:
                heappush(self._heap,
                         (counts[pending], resident[pending], pending))
        else:
            heap = self._heap
            pending_count = counts[pending]
            evicted = pending
            while heap:
                count, seq, top = heap[0]
                if pending_count < count:
                    break                         # pending is the victim
                current = counts[top]
                if current == count:              # top is current: it wins
                    evicted = top
                    heapreplace(heap,
                                (pending_count, resident[pending], pending))
                    break
                heapreplace(heap, (current, seq, top))  # refresh the top
            del resident[evicted]
        counts[rank] = counts.get(rank, 0) + 1
        seq = self.next_seq
        self.next_seq = seq + 1
        resident[rank] = seq
        self._pending = rank
        return False, evicted


def replay(policy: str, requests: np.ndarray,
           capacities: Sequence[int]) -> Iterator[np.ndarray]:
    """Replay ``requests`` through a fresh cache of each capacity in
    ``capacities``; yields one array of hit flags, one per request, for
    each capacity in turn, so a caller can drop each before the next.

    The policy and every capacity are checked here, before any replay.
    LFU names run ``CacheState.access`` on each request, once per
    capacity, converting ranks to Python ints a chunk at a time. ``lru``
    finds ``prev[i]`` and ``next[i]``, the previous and next positions of
    request ``i``'s rank (-1 and ``len(requests)`` when there is none),
    once for all capacities and walks the trace once per capacity:

    - Up to ``fill``, where the ``capacity``-th distinct rank arrives,
      nothing is evicted, so a request hits iff ``prev[i] >= 0``.
    - After ``fill`` the cache holds exactly the ranks whose last
      request lies at or after position ``b``, itself the least recent
      of those last requests. Request ``i`` misses iff ``prev[i] < b``;
      a miss evicts the rank last requested at ``b``, so ``b`` moves
      on. After every request ``b`` skips the positions whose rank has
      been requested again since.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    for capacity in capacities:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
    return _replay(policy, requests, capacities)


def _replay(policy: str, requests: np.ndarray,
            capacities: Sequence[int]) -> Iterator[np.ndarray]:
    if policy != "lru":
        for capacity in capacities:
            access = CacheState(capacity).access
            # a whole-trace tolist() would hold every rank as a Python int
            ranks = chain.from_iterable(
                requests[start:start + _RANK_CHUNK].tolist()
                for start in range(0, requests.size, _RANK_CHUNK))
            yield np.fromiter((access(r)[0] for r in ranks), dtype=bool,
                              count=requests.size)
        return
    total = requests.size
    # the narrowest type that holds every rank: at 16 bits or fewer
    # numpy's stable sort is a radix sort
    keys = requests.astype(np.promote_types(
        np.min_scalar_type(requests.min(initial=0)),
        np.min_scalar_type(requests.max(initial=0))))
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    later, earlier = order[1:][same], order[:-1][same]
    index_type = np.int32 if total < 2**31 else np.int64
    prev = np.full(total, -1, dtype=index_type)
    prev[later] = earlier
    next_ = np.full(total, total, dtype=index_type)
    next_[earlier] = later
    # the walks need only prev and next_; free the rest before yielding
    del keys, order, sorted_keys, same, later, earlier
    repeats = prev >= 0
    firsts = np.flatnonzero(~repeats)
    prev_at, next_at = memoryview(prev), memoryview(next_)
    for capacity in capacities:
        flags = repeats.copy()
        if firsts.size > capacity:        # else never full: no eviction
            fill = int(firsts[capacity - 1])
            b = int(np.argmax(next_[:fill + 1] > fill))
            hit_at = memoryview(flags)
            for i in range(fill + 1, total):
                if prev_at[i] < b:
                    hit_at[i] = False
                    b += 1
                while next_at[b] <= i:    # stops at i at the latest
                    b += 1
        yield flags
