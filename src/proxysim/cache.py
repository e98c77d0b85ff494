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
in a pending slot. A count tie evicts the older entry, so the pending
entry goes only when its count is below every other. Being new, it
usually is, and it is evicted without a heap operation.

:func:`replay` is the one entry point for a whole request array: it
yields the hit flags of a fresh cache at each of several capacities.
LFU replay is exact without a Python call per request. A full LFU
cache is a set S of ``C - 1`` residents plus the pending slot, and S
changes only at a swap, a miss that evicts a member of S in place of
the pending entry. Between swaps a request hits iff its rank is in S or
repeats the previous request outside S, so windows of requests are
resolved in numpy, and only the rare misses whose pending count may
reach the smallest count in S are checked against the heap. Where
swaps come too often for windows to pay, the same arrays are resolved
one request at a time until they thin out.
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

import numpy as np

POLICIES = ("session_lfu", "lru", "lfu_classic")
_FIRST_WINDOW = 64      # requests in the first LFU window
_SPAN = 1 << 14         # requests between checks of the LFU swap rate
_SWAP_COST = 100        # a windowed swap costs about as many scalar hits


class CacheState:
    """Frequency-ordered cache of at most ``capacity`` objects.

    Eviction picks the resident entry with the smallest
    ``(access_count, insertion_seq)`` pair, exactly the entry a full
    scan would choose. The newest admission sits in the ``_pending``
    slot; the heap holds one ``(count, insertion_seq, rank)`` entry for
    every other resident, whose stored count may lag the current count
    but never exceeds it. ``heap[0][0]`` is therefore a lower bound on
    the count of every non-pending resident, and the pending entry, with
    the largest ``insertion_seq``, survives every count tie. A miss on a full
    cache evicts the pending entry outright when its count is below
    that bound; otherwise it refreshes lagging counts at the top and
    either evicts the pending entry or swaps it in for the top with one
    ``heapreplace`` (:func:`_evict`). Admissions into a cache that is
    not full move the previous pending entry into the heap.

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
            evicted = pending
            count = counts[pending]
            if heap and count >= heap[0][0]:
                top = _evict(heap, counts, count, resident[pending], pending)
                if top is not None:
                    evicted = top
            del resident[evicted]
        counts[rank] = counts.get(rank, 0) + 1
        seq = self.next_seq
        self.next_seq = seq + 1
        resident[rank] = seq
        self._pending = rank
        return False, evicted


def _evict(heap: list, counts, count: int, seq: int,
           rank: int) -> int | None:
    """The victim search of a miss on a full LFU cache whose pending
    entry ``(count, seq, rank)`` reaches ``heap[0][0]``.

    Lagging tops are refreshed from ``counts`` until the top is current
    or above ``count``. A current top that ``count`` reaches is the
    victim, since the pending entry survives count ties: the pending
    entry replaces it in the heap and the top is returned. Otherwise the
    pending entry is the victim and the result is None.
    """
    while count >= heap[0][0]:
        top_count, top_seq, top = heap[0]
        current = counts[top]
        if current == top_count:              # top is current: it goes
            heapreplace(heap, (count, seq, rank))
            return top
        heapreplace(heap, (current, top_seq, top))  # refresh the top
    return None


def replay(policy: str, requests: np.ndarray,
           capacities: Sequence[int]) -> Iterator[np.ndarray]:
    """Replay ``requests`` through a fresh cache of each capacity in
    ``capacities``; yields one array of hit flags, one per request, for
    each capacity in turn, so a caller can drop each before the next.

    The policy and every capacity are checked here, before any replay.
    Ranks are non-negative ints; LFU replay keeps arrays indexed by them.

    LFU names give the flags of ``CacheState.access``, found in phases:

    - Up to the fill point, where the ``capacity``-th distinct rank
      arrives, nothing is evicted, so a request hits iff its rank came
      before.
    - After it the cache holds a set S of ``capacity - 1`` residents and
      the pending entry, the newest admission. A request in S hits; one
      outside S hits iff it repeats the previous request outside S, the
      pending rank. Any other request misses and evicts the pending
      entry, unless the pending count reaches the smallest count in S,
      whose oldest entry then swaps places with it. Windows of requests
      are resolved this way in numpy with S fixed: 64 at first, doubling
      after a window without a swap and shrinking after one. Only the
      misses whose pending count may reach the heap's lower bound on S
      are checked against the heap, and a swap ends the window.
    - Every ``_SPAN`` requests the swap rate is checked. Where windows
      would cost more than resolving each request in Python, the next
      span is resolved a request at a time on the same arrays, heap and
      pending rank, until swaps thin out.

    Beside the flags the LFU replay keeps only arrays over ranks and
    per-window temporaries. ``lru`` finds ``prev[i]`` and ``next[i]``,
    the previous and next positions of request ``i``'s rank (-1 and
    ``len(requests)`` when there is none), once for all capacities and
    walks the trace once per capacity:

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
            yield _lfu_flags(requests, capacity)
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


def _lfu_flags(requests: np.ndarray, capacity: int) -> np.ndarray:
    """Hit flags of a fresh LFU cache of ``capacity``; see :func:`replay`."""
    flags = np.empty(requests.size, dtype=bool)
    state = _LfuState(requests, capacity, flags)
    resolve = state.windows
    while state.at < requests.size:
        start = state.at
        swaps, misses = resolve(min(start + _SPAN, requests.size))
        # the span's cost per request, a miss costing two hits, against
        # the cost of its swaps in windows
        dense = swaps * _SWAP_COST > state.at - start + misses
        resolve = state.scalar if dense else state.windows
    return flags


class _LfuState:
    """A full LFU cache as arrays over ranks, resolved a window or a
    request at a time.

    It holds the set S of residents other than the pending one, the
    count of every rank, ``CacheState``'s lazy heap over S, and the
    pending rank with the position that admitted it. Admission positions
    order residents as ``next_seq`` does.
    """

    def __init__(self, requests: np.ndarray, capacity: int,
                 flags: np.ndarray):
        """Flags every request up to the fill point, where the
        ``capacity``-th distinct rank arrives, and takes the state just
        after it; ``at`` is past the end when the cache never fills. Up
        to the fill point nothing is evicted, so a request hits iff its
        rank came before."""
        self.requests, self.flags = requests, flags
        total = requests.size
        first = np.full(int(requests.max(initial=0)) + 1, total)
        distinct, start, width = 0, 0, _FIRST_WINDOW
        while start < total:
            stop = min(start + width, total)
            ranks, at = np.unique(requests[start:stop], return_index=True)
            new = first[ranks] == total
            ranks, at = ranks[new], at[new] + start
            first[ranks] = at
            flags[start:stop] = True
            flags[at] = False
            if distinct + ranks.size >= capacity:
                fill = int(np.sort(at)[capacity - distinct - 1])
                break
            distinct += ranks.size
            start, width = stop, min(2 * width, _SPAN)
        else:
            self.at = total
            return
        self.at = fill + 1            # the next request to resolve
        self.width = _FIRST_WINDOW
        self.counts = np.bincount(requests[:fill + 1], minlength=first.size)
        self.tally = np.zeros_like(self.counts)   # zero between windows
        self.members = first < fill   # rank -> in S
        # the same arrays, read and written as Python ints
        self.count_at = memoryview(self.counts)
        self.member_at = memoryview(self.members)
        ranks = np.flatnonzero(self.members)
        # sorted keys form a valid heap
        self.heap = sorted(zip(self.counts[ranks].tolist(),
                               first[ranks].tolist(), ranks.tolist()))
        self.pending, self.admitted = int(requests[fill]), fill

    def windows(self, end: int) -> tuple[int, int]:
        """Resolves requests up to ``end`` a window at a time, stopping
        early once swaps are dense; returns the numbers of swaps and
        misses.

        Within a window S is taken as fixed: a request in S hits, and a
        request outside S hits iff it repeats the previous request
        outside S, the pending rank. A miss is a swap candidate when the
        pending count may reach ``heap[0][0]``, a lower bound on every
        count in S. Each candidate is resolved exactly by :func:`_evict`,
        with counts brought up to its position. A swap ends the window,
        since the flags past it assumed the old S: the next window starts
        after it and rewrites them.
        """
        requests, flags, counts = self.requests, self.flags, self.counts
        members, tally, heap = self.members, self.tally, self.heap
        count_at = self.count_at
        at, width = self.at, self.width
        # past this many swaps the span is dense even if every request misses
        budget = 2 * (end - at) // _SWAP_COST
        swaps = misses_seen = 0
        while at < end and swaps <= budget:
            stop = min(at + width, end)
            window = requests[at:stop]
            inside = members[window]
            flags[at:stop] = inside
            outside = (~inside).nonzero()[0]
            ranks = window[outside]
            # the pending rank at each request outside S
            prev = np.concatenate(([self.pending], ranks[:-1]))
            repeat = ranks == prev
            flags[at:stop][outside] = repeat
            misses = (~repeat).nonzero()[0]
            pending = prev[misses]
            # a pending count plus all the window adds to it: an upper bound
            np.add.at(tally, ranks, 1)
            lower = heap[0][0] if heap else requests.size + 1
            candidates = (counts[pending] + tally[pending]
                          >= lower).nonzero()[0]
            tally[ranks] = 0
            done = 0                      # window requests in counts
            for m in candidates.tolist():
                j = int(outside[misses[m]])
                np.add.at(counts, window[done:j], 1)
                done = j
                rank = int(pending[m])
                seq = at + int(outside[misses[m - 1]]) if m else self.admitted
                top = _evict(heap, count_at, count_at[rank], seq, rank)
                if top is not None:       # a swap at j ends the window
                    members[top] = False
                    members[rank] = True
                    misses_seen += m + 1
                    counts[window[j]] += 1
                    self.pending, self.admitted = int(window[j]), at + j
                    at += j + 1
                    swaps += 1
                    width = max(width // 4, _FIRST_WINDOW)
                    break
            else:
                misses_seen += misses.size
                np.add.at(counts, window[done:], 1)
                if misses.size:
                    self.pending = int(ranks[-1])
                    self.admitted = at + int(outside[misses[-1]])
                at = stop
                width = min(2 * width, _SPAN)
        self.at, self.width = at, width
        return swaps, misses_seen

    def scalar(self, end: int) -> tuple[int, int]:
        """Resolves requests up to ``end`` one at a time, reading and
        writing the rank arrays as plain ints; returns the numbers of
        swaps and misses.

        A request in S or for the pending rank hits. Any other request
        misses and evicts the pending entry, unless the pending count
        reaches ``heap[0][0]`` and :func:`_evict` swaps it into S.
        """
        count_at, member_at, heap = self.count_at, self.member_at, self.heap
        pending, admitted, start = self.pending, self.admitted, self.at
        missed, swaps = [], 0
        for i, rank in enumerate(self.requests[start:end].tolist(), start):
            count_at[rank] += 1
            if member_at[rank] or rank == pending:
                continue
            missed.append(i)
            count = count_at[pending]
            if heap and count >= heap[0][0]:
                top = _evict(heap, count_at, count, admitted, pending)
                if top is not None:
                    member_at[top] = False
                    member_at[pending] = True
                    swaps += 1
            pending, admitted = rank, i
        self.flags[start:end] = True
        self.flags[missed] = False
        self.pending, self.admitted, self.at = pending, admitted, end
        return swaps, len(missed)
