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
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappop, heappush

POLICIES = ("session_lfu", "lru", "lfu_classic")


class CacheState:
    """Frequency-ordered cache of at most ``capacity`` objects.

    Eviction picks the resident entry with the smallest
    ``(access_count, insertion_seq)`` pair. The victim search uses a
    lazy-deletion heap: stale heap tuples are dropped or refreshed when
    popped, which keeps misses at amortized O(log C) while choosing
    exactly the entry a full scan would.

    ``warm`` pre-populates the cache with at most ``capacity`` distinct
    ranks, admitted at count 0 in ascending insertion order without
    counting an access.
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
        evicted = None
        if len(resident) >= self.capacity:
            heap = self._heap
            while True:
                count, seq, victim = heappop(heap)
                live_seq = resident.get(victim)
                if live_seq is None or live_seq != seq:
                    continue                      # stale: already evicted
                current = counts[victim]
                if current != count:
                    heappush(heap, (current, seq, victim))  # refresh
                    continue
                del resident[victim]
                evicted = victim
                break
        count = counts.get(rank, 0) + 1
        counts[rank] = count
        seq = self.next_seq
        self.next_seq = seq + 1
        resident[rank] = seq
        heappush(self._heap, (count, seq, rank))
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

