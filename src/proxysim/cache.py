"""Bounded cache with session-initiative least-frequently-used eviction.

Requests are replayed against the cache in order. A hit bumps the
object's access count; a miss on a full cache evicts the resident entry
with the lowest count, breaking ties toward the oldest insertion. Counts
belong to objects, not residencies: an object evicted and later
re-admitted resumes from its accumulated count, so sustained popularity
wins out over recency of insertion. The policy names ``session_lfu``
and ``lfu_classic`` both select this cache: the state depends only on
request order, so sessions are bookkeeping. Plain LRU is the recency
baseline with the same access interface.

The LFU victim search keeps every resident but the newest admission in a
heap whose stored counts are lower bounds; the newest admission waits
in a pending slot, and since it loses every count tie it is the usual
victim, evicted without a heap operation.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappush, heapreplace

POLICIES = ("session_lfu", "lru", "lfu_classic")


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


class LruCache:
    """Least-recently-used baseline with the same access interface."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._map: OrderedDict[int, None] = OrderedDict()

    def __contains__(self, rank: int) -> bool:
        return rank in self._map

    def __len__(self) -> int:
        return len(self._map)

    def access(self, rank: int) -> tuple[bool, int | None]:
        m = self._map
        if rank in m:
            m.move_to_end(rank)
            return True, None
        evicted = None
        if len(m) >= self.capacity:
            evicted, _ = m.popitem(last=False)
        m[rank] = None
        return False, evicted


def make_policy(policy: str, capacity: int):
    """Instantiate the cache object behind a policy name."""
    if policy == "lru":
        return LruCache(capacity)
    if policy in ("session_lfu", "lfu_classic"):
        return CacheState(capacity)
    raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")

