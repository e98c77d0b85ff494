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
yields the hit flags of a fresh cache at each of several capacities.
LFU replay is exact without a Python step per request. A full LFU cache
changes S only at a swap, a miss that evicts a member of S in place of
the pending entry. Between swaps a request hits iff its rank is in S or
repeats the previous request outside S, so windows of requests are
resolved in numpy, and only the rare misses whose pending count reaches
the smallest count in S take the step. The fill, and spans where swaps
come too often for windows to pay, take it one request at a time.
LRU needs no cache object: it is a stack algorithm, so a request hits
exactly when the previous request for its rank is among the last
requests of the ``C`` most recently used ranks. The previous and next
position of every request's rank are found once, by stable sorts of
the ranks 16 bits at a time. The oldest of those last requests, the LRU
end, depends only on the trace, so the trace is cut into about √R lanes
that start from their own LRU end, and one numpy loop steps the lanes of
every capacity side by side, a group of capacities at a time whose flags
take no more bytes than the requests.
``CacheState`` can also be driven one request at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from heapq import heappush, heapreplace

import numpy as np

POLICIES = ("session_lfu", "lru", "lfu_classic")
_FIRST_WINDOW = 64      # requests in the first and smallest LFU window
_SPAN = 1 << 14         # requests between checks of the LFU swap rate
_SWAP_COST = 100        # a windowed swap costs about as many scalar hits
_LANE_STEPS = 16        # LRU lane steps between drops of finished lanes
_LIVE_PER_REQUEST = 32  # live positions LRU lane starts may filter per request


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
        missed, _, evicted = self._resolve((rank,), self.next_seq)
        if not missed:
            return True, None
        self.next_seq += 1
        return False, evicted

    def _resolve(self, ranks, seq: int) -> tuple[list[int], int, int | None]:
        """Applies the requests for ``ranks`` in turn, the k-th at insertion
        seq ``seq + k``; returns the seqs of the misses, the number of
        swaps and the victim of the last miss on a full cache.

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
        missed, swaps, evicted = [], 0, None
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
                        swaps += 1
                        break
                    heapreplace(heap, (current, top_seq, top))  # refresh it
            pending, admitted = rank, i
        self._pending, self._admitted = pending, admitted
        return missed, swaps, evicted


def replay(policy: str, requests: np.ndarray,
           capacities: Sequence[int]) -> Iterator[np.ndarray]:
    """Replay ``requests`` through a fresh cache of each capacity in
    ``capacities``; yields one array of hit flags, one per request, for
    each capacity in turn, so a caller can drop each before the next;
    LRU frees them a group of capacities at a time.

    The policy, every capacity and the ranks, which must be non-negative
    ints, are checked here, before any replay; LFU replay keeps arrays
    indexed by ranks.

    LFU names give the flags of ``CacheState.access``, found in phases:

    - Spans of ``_SPAN`` requests take the ``CacheState`` step one
      request at a time until the cache is full.
    - Then the cache holds a set S of ``capacity - 1`` residents and the
      pending entry, the newest admission. A request in S hits; one
      outside S hits iff it repeats the previous request outside S, the
      pending rank. Any other request misses and evicts the pending
      entry, unless the pending count reaches the smallest count in S,
      whose oldest entry then swaps places with it. Windows of requests
      are resolved this way in numpy with S fixed: 64 at first, doubling
      after a window without a swap and shrinking after one. Only the
      misses whose exact pending count reaches the heap's lower bound on
      S take the step, and a swap ends the window.
    - Every ``_SPAN`` requests the swap rate is checked. Where windows
      would cost more than the step per request, the next span takes the
      step one request at a time, until swaps thin out.

    Beside the flags the LFU replay keeps only arrays over ranks and
    per-window temporaries. ``lru`` finds ``prev[i]`` and ``next[i]``,
    the previous and next positions of request ``i``'s rank (-1 and
    ``len(requests)`` when there is none), once for all capacities, from
    stable sorts of the ranks one 16-bit digit at a time:

    - Up to ``fill``, where the ``capacity``-th distinct rank arrives,
      nothing is evicted, so a request hits iff ``prev[i] >= 0``.
    - After ``fill`` the cache holds exactly the ranks whose last
      request lies at or after position ``b``, the LRU end. Before
      request ``s`` the last requests are the positions ``j < s`` with
      ``next[j] >= s``, and ``b`` is the ``capacity``-th largest of
      them, whatever came before. So the trace is cut into about √R
      lanes, contiguous segments; one forward pass over the lane starts
      gives each lane its own ``b`` at every capacity, and numpy steps
      the lanes of all capacities at once, each writing its capacity's
      row of flags. The capacities go in groups whose flags take no more
      bytes than ``requests``, and the flags of a group are yielded when
      its lanes are done.
    - Request ``i`` misses iff ``prev[i] < b``, even when ``b`` still
      lags over positions whose rank has been requested again since,
      because ``prev[i]`` is never one of them. Each step moves a lane's
      ``b`` on by one if it lags or the request misses, since a miss
      evicts the rank last requested at ``b``, and moves the lane to its
      next request unless the request missed while ``b`` lagged.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    for capacity in capacities:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
    if requests.min(initial=0) < 0:
        raise ValueError("ranks must be non-negative ints")
    if policy == "lru":
        return _lru_flags(requests, capacities)
    return (_lfu_flags(requests, capacity) for capacity in capacities)


def _lru_flags(requests: np.ndarray,
               capacities: Sequence[int]) -> Iterator[np.ndarray]:
    """Hit flags of a fresh LRU cache of each capacity; see :func:`replay`."""
    total = requests.size
    # the narrowest type that holds every rank, none negative
    keys = requests.astype(np.min_scalar_type(requests.max(initial=0)))
    order = _stable_order(keys)
    sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    later, earlier = order[1:][same], order[:-1][same]
    index_type = np.int32 if total < 2**31 else np.int64
    prev = np.full(total, -1, dtype=index_type)
    prev[later] = earlier
    next_ = np.full(total, total, dtype=index_type)
    next_[earlier] = later
    # the lanes need only prev and next_; free the rest before yielding
    del keys, order, sorted_keys, same, later, earlier
    repeats = prev >= 0
    firsts = np.flatnonzero(~repeats)
    # a capacity of at least every distinct rank never evicts, so it
    # needs no lane starts; 1 stands in for it
    sizes = np.array([c if c < firsts.size else 1 for c in capacities],
                     dtype=np.int64)
    lanes = _lane_count(total, int(sizes.max(initial=1)))
    bounds = np.arange(lanes + 1, dtype=np.int64) * total // lanes
    lru_ends = _lane_lru_ends(next_, bounds, sizes)
    # the flags of a group of capacities take no more bytes than requests
    group = requests.itemsize
    for first in range(0, len(capacities), group):
        chunk = capacities[first:first + group]
        flags = np.empty((len(chunk), total), dtype=bool)
        flags[:] = repeats
        at, b, ends, base = [], [], [], []
        for row, capacity in enumerate(chunk):
            if firsts.size <= capacity:   # never full: no eviction
                continue
            fill = int(firsts[capacity - 1])
            # a new rank comes after fill, so fill + 1 is a request; the
            # lane holding it starts there, at the oldest last request,
            # and the lanes before it only fill the cache
            k = int(np.searchsorted(bounds, fill + 1, side="right")) - 1
            at.append(bounds[k:-1].copy())
            b.append(lru_ends[first + row, k:].copy())
            at[-1][0] = fill + 1
            b[-1][0] = np.argmax(next_[:fill + 1] > fill)
            ends.append(bounds[k + 1:])
            base.append(np.full(lanes - k, row * total, dtype=np.int64))
        if at:
            _step_lanes(prev, next_, flags.reshape(-1), np.concatenate(at),
                        np.concatenate(b), np.concatenate(ends),
                        np.concatenate(base))
        yield from flags


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative int keys, as
    stable passes over their 16-bit digits, least significant first:
    numpy sorts 16-bit keys by radix, and wider ones far slower."""
    order = None
    for shift in range(0, max(int(keys.max(initial=0)).bit_length(), 1), 16):
        # keys of 16 bits or fewer take one pass over themselves
        digit = (keys if keys.itemsize <= 2 else
                 (keys >> shift).astype(np.uint16))
        if order is None:
            order = np.argsort(digit, kind="stable")
        else:
            order = order[np.argsort(digit[order], kind="stable")]
    return order


def _lane_count(total: int, top: int) -> int:
    """The number of LRU lanes for ``total`` requests and a largest
    capacity ``top``. About √R lanes balance the lane starts against the
    steps, about R/lanes per capacity. Each lane start filters up to
    ``top`` live positions, so a large ``top`` gets fewer lanes: at most
    ``_LIVE_PER_REQUEST`` positions filtered per request."""
    return max(1, min(math.isqrt(total), _LIVE_PER_REQUEST * total // top))


def _lane_lru_ends(next_: np.ndarray, bounds: np.ndarray,
                   sizes: np.ndarray) -> np.ndarray:
    """The LRU end of a cache of each of ``sizes`` at the start of each
    lane, one row per size: the ``size``-th largest position ``j < s``
    with ``next_[j] >= s`` at each lane start ``s``, or -1 where fewer
    distinct ranks have come.

    One forward pass keeps those positions of the newest ``top`` ranks,
    ascending; a position leaves once its rank is requested again, and
    one that falls below the ``top`` newest never rises again.
    """
    ends = np.full((sizes.size, bounds.size - 1), -1, dtype=np.int64)
    top = int(sizes.max(initial=1))
    live = np.empty(0, dtype=np.int64)
    for k in range(1, bounds.size - 1):
        start, stop = int(bounds[k - 1]), int(bounds[k])
        live = np.concatenate((
            live[next_[live] >= stop],
            np.flatnonzero(next_[start:stop] >= stop) + start))[-top:]
        at = live.size - sizes
        full = at >= 0
        ends[full, k] = live[at[full]]
    return ends


def _step_lanes(prev: np.ndarray, next_: np.ndarray, flags: np.ndarray,
                at: np.ndarray, b: np.ndarray, ends: np.ndarray,
                base: np.ndarray) -> None:
    """Writes the LRU hit flags of the lanes that stand at requests
    ``at`` with LRU ends ``b`` until each reaches its end. A lane writes
    request ``i``'s flag at ``flags[base + i]``: each capacity's lanes
    write their own row of flags, so one loop steps every capacity.

    Past its end a lane carries on exactly over the next lane's
    requests, so finished lanes are dropped only every ``_LANE_STEPS``
    steps, and no lane is stepped past the last request.
    """
    total = prev.size
    while True:
        going = at < ends
        at, b, ends, base = at[going], b[going], ends[going], base[going]
        if not at.size:
            return
        for _ in range(min(_LANE_STEPS, total - int(at.max()))):
            hit = prev[at] >= b
            # b lags over a position whose rank was requested again
            lags = next_[b] < at
            flags[base + at] = hit
            b += 1
            b -= hit > lags               # a hit on the LRU end keeps it
            at += 1
            at -= lags > hit              # a miss waits for the LRU end


def _lfu_flags(requests: np.ndarray, capacity: int) -> np.ndarray:
    """Hit flags of a fresh LFU cache of ``capacity``; see :func:`replay`."""
    flags = np.empty(requests.size, dtype=bool)
    state = _LfuState(requests, capacity, flags)
    resolve = state.scalar
    while state.at < requests.size:
        start = state.at
        swaps, misses = resolve(min(start + _SPAN, requests.size))
        # windows need a full cache; on one, the span's cost per request,
        # a miss costing two hits, against the cost of its swaps in windows
        dense = (len(state) < capacity
                 or swaps * _SWAP_COST > state.at - start + misses)
        resolve = state.scalar if dense else state.windows
    return flags


class _LfuState(CacheState):
    """The LFU cache of one replay, with arrays over every rank in
    ``requests`` and request positions for insertion seqs, resolved a
    window or a request at a time from position ``at``; it writes the
    hit flag of each request into ``flags``."""

    def __init__(self, requests: np.ndarray, capacity: int,
                 flags: np.ndarray):
        super().__init__(capacity)
        self._cover(int(requests.max(initial=0)))
        self.requests, self.flags = requests, flags
        self.at = 0                   # the next request to resolve
        self.width = _FIRST_WINDOW
        self.tally = np.zeros_like(self._counts)   # zero between windows

    def windows(self, end: int) -> tuple[int, int]:
        """Resolves requests up to ``end`` on a full cache a window at a
        time; returns the numbers of swaps and misses.

        Within a window S is taken as fixed: a request in S hits, and a
        request outside S hits iff it repeats the previous request
        outside S, the pending rank. A miss is a swap candidate when the
        pending count may reach ``heap[0][0]``, a lower bound on every
        count in S. With counts brought up to its position, a candidate
        whose exact pending count reaches that bound goes through
        :meth:`_resolve`. A swap ends the window, since the flags past it
        assumed the old S: the next window starts after it and rewrites
        them.
        """
        requests, flags, counts = self.requests, self.flags, self._counts
        members, tally, heap = self._members, self.tally, self._heap
        count_at = self._count_at
        at, width = self.at, self.width
        swaps = misses_seen = 0
        while at < end:
            stop = min(at + width, end)
            window = requests[at:stop]
            inside = members[window]
            flags[at:stop] = inside
            outside = (~inside).nonzero()[0]
            ranks = window[outside]
            # the pending rank at each request outside S
            prev = np.concatenate(([self._pending], ranks[:-1]))
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
                if count_at[rank] < heap[0][0]:
                    continue
                if m:
                    self._admitted = at + int(outside[misses[m - 1]])
                self._pending = rank
                done = j + 1
                if self._resolve((int(window[j]),), at + j)[1]:
                    misses_seen += m + 1  # a swap at j ends the window
                    at += j + 1
                    swaps += 1
                    width = max(width // 4, _FIRST_WINDOW)
                    break
            else:
                misses_seen += misses.size
                np.add.at(counts, window[done:], 1)
                if misses.size:
                    self._pending = int(ranks[-1])
                    self._admitted = at + int(outside[misses[-1]])
                at = stop
                width = min(2 * width, _SPAN)
        self.at, self.width = at, width
        return swaps, misses_seen

    def scalar(self, end: int) -> tuple[int, int]:
        """Resolves requests up to ``end`` one at a time through
        :meth:`_resolve`; returns the numbers of swaps and misses."""
        start = self.at
        missed, swaps, _ = self._resolve(
            self.requests[start:end].tolist(), start)
        self.flags[start:end] = True
        self.flags[missed] = False
        self.at = end
        return swaps, len(missed)
