import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxysim import cache as cache_module
from proxysim.cache import replay
from proxysim.popularity import build_catalog
from proxysim.simulator import simulate_workload
from proxysim.workload import Workload, assign_attributes, generate_workload
from test_tooling import _src_env


class ReferenceCache:
    """Naive session-LFU reference: full O(C) rescan on every eviction.

    Written from the replacement rules alone, sharing no code with the
    package implementation. Hit counts persist per object across
    evictions; eviction takes the minimum count, oldest insertion first.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.resident = {}
        self.counts = {}
        self.seq = 0

    def access(self, rank):
        if rank in self.resident:
            self.counts[rank] += 1
            return True, None
        evicted = None
        if len(self.resident) == self.capacity:
            evicted = min(self.resident,
                          key=lambda r: (self.counts[r], self.resident[r]))
            del self.resident[evicted]
        self.counts[rank] = self.counts.get(rank, 0) + 1
        self.resident[rank] = self.seq
        self.seq += 1
        return False, evicted


class ReferenceLru:
    """Naive LRU reference: a plain list, least recently used first."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []

    def access(self, rank):
        if rank in self.order:
            self.order.remove(rank)
            self.order.append(rank)
            return True, None
        evicted = None
        if len(self.order) == self.capacity:
            evicted = self.order.pop(0)
        self.order.append(rank)
        return False, evicted


def walk_lru_flags(ranks, capacity):
    """LRU hit flags by one pointer walk over the trace, a Python step
    per request: after the fill, ``b`` is the oldest last request among
    the ``capacity`` most recently used ranks. An oracle for traces too
    long for ``ReferenceLru``."""
    total = len(ranks)
    prev, next_, last = [-1] * total, [total] * total, {}
    for i, rank in enumerate(ranks):
        if rank in last:
            prev[i], next_[last[rank]] = last[rank], i
        last[rank] = i
    flags = [p >= 0 for p in prev]
    firsts = [i for i, p in enumerate(prev) if p < 0]
    if len(firsts) > capacity:
        fill = firsts[capacity - 1]
        b = next(j for j in range(fill + 1) if next_[j] > fill)
        for i in range(fill + 1, total):
            if prev[i] < b:
                flags[i] = False
                b += 1
            while next_[b] <= i:
                b += 1
    return flags


def stack_distances(ranks):
    """Each request's LRU stack distance: the depth of its rank below
    the top of a most-recent-last stack, 1 for an immediate repeat and
    0 on first sight. LRU at capacity C hits exactly where
    ``1 <= d <= C`` (Mattson et al. 1970), so one pass gives the flags
    at every capacity."""
    stack, distances = [], []
    for rank in ranks:
        if rank in stack:
            distances.append(len(stack) - stack.index(rank))
            stack.remove(rank)
        else:
            distances.append(0)
        stack.append(rank)
    return np.array(distances)


def _outcomes(cache, ranks):
    return [cache.access(r) for r in ranks]


def _hits(reference, ranks):
    """The reference's hit flag for each request."""
    return [hit for hit, _ in _outcomes(reference, ranks)]


def _replays(policy, requests, capacities):
    """``replay``'s flags as lists, once through the compiled kernel and
    once through the Python replay, which ``replay`` takes when the
    kernel loader finds none."""
    kernel = [f.tolist() for f in replay(policy, requests, capacities)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache_module, "_kernel", lambda: None)
        python = [f.tolist() for f in replay(policy, requests, capacities)]
    return kernel, python


def _assert_replay_matches(policy, reference, ranks, capacities):
    """``replay`` at every capacity, on both paths, equals a fresh
    reference cache."""
    for flags in _replays(policy, np.array(ranks), capacities):
        assert len(flags) == len(capacities)
        for capacity, hits in zip(capacities, flags):
            assert hits == _hits(reference(capacity), ranks), capacity


def _replay(policy, capacity, workload):
    """Per-rank request and hit tallies of one ``simulate_workload`` run."""
    attrs = assign_attributes(workload.n_objects, seed=0)
    report, = simulate_workload(workload, attrs, [capacity], policy, 1.0,
                                "product", {})
    return report.requests.tolist(), report.hits.tolist()


def test_session_hand_trace_hit_then_evict():
    # the hit lifts 1 to count 2, so the miss on 3 evicts 2 at count 1,
    # and the last request, for 2, misses
    assert _replays("session_lfu", np.array([1, 2, 1, 3, 1, 2]), [2]) == (
        [[False, False, True, False, True, False]],) * 2


def test_session_hand_trace_tie_breaks_oldest():
    # 1, 2 and 3 all sit at count 1: the miss on 4 evicts the oldest,
    # 1, so 1 misses again while 2 still hits
    for probe, hit in ((1, False), (2, True)):
        assert _replays("session_lfu", np.array([1, 2, 3, 4, probe]),
                        [3]) == ([[False] * 4 + [hit]],) * 2


def test_single_object_one_cold_miss():
    expected = [(False, None)] + [(True, None)] * 19
    assert _outcomes(ReferenceLru(1), [1] * 20) == expected
    for policy in ("session_lfu", "lru", "lfu_classic"):
        assert _replays(policy, np.ones(20, dtype=np.int64), [1]) == (
            [[False] + [True] * 19],) * 2


def test_lfu_classic_equals_session_size_one():
    cat = build_catalog(8, 0.9)
    w1 = generate_workload(cat, 200, 1, seed=17)
    assert _replay("session_lfu", 3, w1) == _replay("lfu_classic", 3, w1)


def test_session_partition_does_not_change_outcomes():
    # per-request semantics: the session size is bookkeeping only
    cat = build_catalog(8, 0.9)
    ranks = generate_workload(cat, 300, 300, seed=23).requests
    per_size = [
        _replay(policy, 4, Workload(requests=ranks, session_size=session,
                                    n_objects=8))
        for session in (1, 7, 50, 300, 1000)
        for policy in ("session_lfu", "lfu_classic")]
    assert all(out == per_size[0] for out in per_size)


def test_lru_differs_from_lfu_where_expected():
    # after [1,1,2], request 3 with C=2: LRU drops 1, LFU drops 2 (the
    # LFU trace is a row of test_lfu_replay_edge_traces)
    assert _outcomes(ReferenceLru(2), [1, 1, 2, 3])[3] == (False, 1)
    # a request for 1 now tells them apart: LRU misses, LFU hits
    ranks = [1, 1, 2, 3, 1]
    for (lru,), (lfu,) in zip(_replays("lru", np.array(ranks), [2]),
                              _replays("lfu_classic", np.array(ranks), [2])):
        assert not lru[4] and lfu[4]
    _assert_replay_matches("lru", ReferenceLru, ranks, [2])


def test_lru_recency_order():
    ranks = [1, 2, 1, 3, 2, 1]
    out = _outcomes(ReferenceLru(2), ranks)
    # rank 1 touched after 2, so 2 is the LRU victim
    assert out[3] == (False, 2)
    assert _replays("lru", np.array(ranks), [2]) == (
        [[False, False, True, False, False, False]],) * 2
    _assert_replay_matches("lru", ReferenceLru, ranks, [1, 2, 3])


def test_capacity_safety_random_traces():
    # replay equals a reference that never holds more than C residents
    rng = np.random.default_rng(404)
    for _ in range(30):
        capacity = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        ranks = rng.integers(1, n + 1, size=50)
        ref = ReferenceCache(capacity)
        hits = []
        for r in ranks.tolist():
            hits.append(ref.access(r)[0])
            assert len(ref.resident) <= capacity
        assert _replays("session_lfu", ranks, [capacity]) == ([hits],) * 2


def test_unknown_policy_rejected():
    w = Workload(requests=np.array([1]), session_size=1, n_objects=1)
    with pytest.raises(ValueError):
        _replay("mru", 2, w)
    with pytest.raises(ValueError):
        replay("nosuch", np.array([1]), [2])


def test_brute_force_equivalence_random_traces():
    rng = np.random.default_rng(1905)
    for _ in range(300):
        capacity = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        r_total = int(rng.integers(1, 51))
        ranks = rng.integers(1, n + 1, size=r_total).tolist()
        _assert_replay_matches("session_lfu", ReferenceCache, ranks,
                               [capacity, 1, n])


@pytest.mark.parametrize("width", [1, 7, 50])
def test_lfu_replay_window_boundaries_match_reference(monkeypatch, width):
    # the Python replay turns the trace into Python lists a window at a
    # time; no window boundary may change a single flag
    monkeypatch.setattr(cache_module, "_WINDOW", width)
    ranks = generate_workload(build_catalog(30, 0.7), 200, 200,
                              seed=width).requests.tolist()
    _assert_replay_matches("session_lfu", ReferenceCache, ranks, [1, 5, 30])


@settings(max_examples=300, deadline=None)
@given(ranks=st.integers(1, 8).flatmap(
           lambda n: st.lists(st.integers(1, n), min_size=1, max_size=80)),
       capacity=st.integers(1, 4),
       scale=st.sampled_from([1, 256, 65_536, 2**32 + 1]))
def test_lfu_replay_matches_reference_property(ranks, capacity, scale):
    # scaled past the number of requests, ranks are renumbered densely
    # before the replay
    _assert_replay_matches("session_lfu", ReferenceCache,
                           [rank * scale for rank in ranks],
                           [capacity, 1, 9])


@pytest.mark.parametrize("ranks, capacity", [
    ([2, 1, 2, 2, 3, 1, 1, 3, 3, 2], 1),   # hit iff a repeat
    ([5, 3, 5, 4, 3, 4], 3),               # never full
    ([5, 3, 5, 4, 3, 4], 4),
    ([1, 2, 1, 3, 3, 2, 1], 3),            # full at the last new rank
    # the miss on 3 evicts 2, at count 1 against 1's 2; the miss on 4
    # evicts 1, which the re-admitted 2 has passed; the last two misses
    # evict the older of two entries at equal counts
    ([1, 1, 2, 3, 2, 2, 4, 4, 4, 1, 2], 2),
    # a swap every few requests, then a run of hits, then swaps again
    ([1, 2, 3, 1, 2, 3, 3, 1, 2, 2] * 4 + [1, 1] * 20 + [3, 2] * 8, 2),
    # the newest admission, 2, ties 1 at count 1: the older 1 loses,
    # so 2 hits and 1 misses
    pytest.param([1, 2, 3, 2, 1], 2, id="pending_ties_heap_minimum"),
    pytest.param([5, 5, 5], 3, id="cold_start"),
    # four distinct ranks fill C=4 and none is evicted
    pytest.param([3, 1, 4, 2, 3, 1, 4, 2], 4, id="monotone_warm_up"),
    # after [1,1,2], the miss on 3 evicts 2, the lower count, not 1
    pytest.param([1, 1, 2, 3, 2, 1], 2, id="lfu_drops_the_rarer"),
    # ranks past the number of requests are renumbered densely
    pytest.param([1, 10_000, 1, 3, 10_000, 10_000, 20_000, 3, 3, 2, 10_000,
                  7], 2, id="large_ranks"),
])
def test_lfu_replay_edge_traces(ranks, capacity):
    _assert_replay_matches("session_lfu", ReferenceCache, ranks, [capacity])


def test_lfu_replay_equals_cache_state_on_zipf_trace():
    ranks = generate_workload(build_catalog(5000, 0.64), 100_000, 1000,
                              seed=7).requests
    kernel, python = _replays("session_lfu", ranks, [1, 10, 100, 1000])
    assert kernel == python


@pytest.mark.parametrize("alpha", [0.98, 0.31])
@pytest.mark.parametrize("capacity", [1, 2, 10, 50])
@pytest.mark.parametrize("warm", [False, True])
def test_brute_force_equivalence_zipf_traces(alpha, capacity, warm):
    # a warm trace opens with `capacity` distinct random ranks, which
    # fill the cache with mostly unpopular objects at count 1
    ranks = generate_workload(build_catalog(200, alpha), 5000, 5000,
                              seed=capacity).requests.tolist()
    if warm:
        ranks = (np.random.default_rng(capacity).permutation(200)[:capacity]
                 + 1).tolist() + ranks
    _assert_replay_matches("lfu_classic", ReferenceCache, ranks,
                           [capacity, 1, len(set(ranks)),
                            len(set(ranks)) + 1])


def test_lru_brute_force_equivalence_random_traces():
    rng = np.random.default_rng(1970)
    for _ in range(1000):
        capacity = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        ranks = rng.integers(1, n + 1, size=int(rng.integers(1, 51))).tolist()
        # scaled past the number of requests, ranks are renumbered
        # densely before the replay
        for scale in (1, 256, 65_536, 2**32 + 1):
            _assert_replay_matches("lru", ReferenceLru,
                                   [rank * scale for rank in ranks],
                                   [capacity, 1, n])


# 200 and 1000 are at or above the number of distinct ranks, so nothing
# is evicted; in "fill_last" the capacity-th distinct rank comes last.
# Each trace is also replayed at C=1 and at its number of distinct ranks.
@pytest.mark.parametrize("alpha", [0.98, 0.31])
@pytest.mark.parametrize("capacity", [1, 2, 10, 50, 200, 1000,
                                      pytest.param(None, id="fill_last")])
def test_lru_brute_force_equivalence_zipf_traces(alpha, capacity):
    ranks = generate_workload(build_catalog(200, alpha), 5000, 5000,
                              seed=capacity or 0).requests.tolist()
    if capacity is None:
        capacity = len(set(ranks)) + 1
        ranks.append(201)                 # a rank outside the catalog
    _assert_replay_matches("lru", ReferenceLru, ranks,
                           [capacity, 1, len(set(ranks))])


@settings(max_examples=400, deadline=None)
@given(ranks=st.integers(1, 8).flatmap(
           lambda n: st.lists(st.integers(1, n), min_size=1, max_size=60)),
       capacities=st.lists(st.integers(1, 10), min_size=1, max_size=4),
       scale=st.sampled_from([1, 256, 65_536, 2**32 + 1]))
def test_lru_replay_matches_reference_property(ranks, capacities, scale):
    # capacities come unsorted, repeated and up to past every distinct
    # rank; scaled past the number of requests, ranks are renumbered
    # densely before the replay
    _assert_replay_matches("lru", ReferenceLru,
                           [rank * scale for rank in ranks], capacities)


@pytest.mark.parametrize("ranks, capacity", [
    ([2, 1, 2, 2, 3, 1, 1, 3, 3, 2], 1),   # every miss evicts the head
    ([5, 3, 5, 4, 3, 4], 3),               # never full
    ([1, 2, 1, 3, 3, 2, 1], 3),            # full at the last new rank
    ([1, 2, 3, 1, 2, 3, 1], 3),            # each hit is on the tail
    ([1, 2, 3, 2, 2, 3, 4, 3, 1, 4], 3),   # hits on the head and the middle
    ([1, 2, 3, 4, 3, 1, 4, 2, 2, 3], 2),   # a hit on the LRU end
])
def test_lru_replay_edge_traces(ranks, capacity):
    _assert_replay_matches("lru", ReferenceLru, ranks, [capacity])


@pytest.mark.parametrize("start", [3, 4, 5, 6])
def test_lru_replay_across_fill(start):
    # at C=3 the third distinct rank comes at request 4; random tails of
    # 7 * `start` - 5 requests follow that fill
    tail = np.random.default_rng(start).integers(1, 6, 7 * start - 5)
    ranks = [1, 1, 2, 1, 3, *tail.tolist()]
    assert len(ranks) == 7 * start
    _assert_replay_matches("lru", ReferenceLru, ranks, [3, 2, 3, 6])


def test_lru_replay_hit_on_lru_end():
    # at C=2, before request 4 the cache holds ranks 3 and 4 and its LRU
    # end is request 2; request 4 asks for rank 3 again, a hit on the
    # LRU end itself
    tail = np.random.default_rng(4).integers(1, 6, 23)
    ranks = [1, 2, 3, 4, 3, *tail.tolist()]
    _assert_replay_matches("lru", ReferenceLru, ranks, [2])


@pytest.mark.parametrize("width", [1, 7, 50])
def test_lru_replay_window_boundaries_match_reference(monkeypatch, width):
    monkeypatch.setattr(cache_module, "_WINDOW", width)
    ranks = generate_workload(build_catalog(30, 0.7), 200, 200,
                              seed=width).requests.tolist()
    _assert_replay_matches("lru", ReferenceLru, ranks, [1, 5, 30])


@pytest.mark.parametrize("alpha", [0.98, 0.31])
def test_lru_flags_match_pointer_walk_on_zipf_traces(alpha):
    requests = generate_workload(build_catalog(10_000, alpha), 200_000,
                                 1000, seed=21).requests
    capacities = [5000, 10, 1000, 100]
    expected = [walk_lru_flags(requests.tolist(), c) for c in capacities]
    assert _replays("lru", requests, capacities) == (expected,) * 2


@pytest.mark.parametrize("n_objects, alpha", [(50, 0.98), (200, 0.64),
                                              (30, 0.0)])
def test_lru_flags_match_stack_distance_at_every_capacity(n_objects, alpha):
    requests = generate_workload(build_catalog(n_objects, alpha), 3000, 3000,
                                 seed=n_objects).requests
    d = stack_distances(requests.tolist())
    capacities = range(1, len(set(requests.tolist())) + 2)
    expected = [((d >= 1) & (d <= c)).tolist() for c in capacities]
    assert _replays("lru", requests, capacities) == (expected,) * 2


@pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.uint8])
def test_lru_replay_takes_any_int_dtype(dtype):
    # the lists run unsorted and repeated, some past every rank
    requests = generate_workload(build_catalog(200, 0.8), 20_000, 1000,
                                 seed=23).requests.astype(dtype)
    capacities = [50, 3, 1, 200, 50, 17, 120, 3, 9, 2, 64, 1000]
    expected = [walk_lru_flags(requests.tolist(), c) for c in capacities]
    assert _replays("lru", requests, capacities) == (expected,) * 2
    # a strided view replays like its copy
    assert _replays("lru", requests[::2], capacities[:3]) == (
        [walk_lru_flags(requests[::2].tolist(), c)
         for c in capacities[:3]],) * 2


@pytest.mark.parametrize("policy", ["session_lfu", "lru", "lfu_classic"])
def test_replay_one_request(policy):
    assert _replays(policy, np.array([3]), [1, 2]) == ([[False], [False]],) * 2


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("ranks, capacity", [
    pytest.param(np.array([1.5, 1.7, 2.2]), 1, id="float_ranks"),
    pytest.param(np.array([[1, 2], [2, 1]]), 1, id="2d_ranks"),
    pytest.param(np.array([True, False, True]), 1, id="bool_ranks"),
    pytest.param([1, 2, 1], 1, id="list_ranks"),
    # the whole array is checked, not only its first rank
    pytest.param(np.array([2, 3, 2, -1]), 1, id="negative_rank"),
    pytest.param(np.array([1, 2, 1]), 0, id="zero_capacity"),
    pytest.param(np.array([1, 2, 1]), 2.5, id="float_capacity"),
    pytest.param(np.array([1, 2, 1]), float("nan"), id="nan_capacity"),
    pytest.param(np.array([1, 2, 1]), True, id="bool_capacity"),
    pytest.param(np.array([1, 2, 1]), "2", id="str_capacity"),
])
def test_replay_rejects_bad_input(monkeypatch, kernel, ranks, capacity):
    # both paths refuse the same input, with one ValueError, before any
    # replay: no flag array comes out, not even for a good capacity
    if not kernel:
        monkeypatch.setattr(cache_module, "_kernel", lambda: None)
    for policy in cache_module.POLICIES:
        with pytest.raises(ValueError):
            replay(policy, ranks, [1, capacity])


def test_replay_takes_numpy_int_capacities():
    ranks = np.array([1, 2, 1, 3, 1])
    assert _replays("lru", ranks, [np.int64(2), np.uint8(1)]) == (
        [[False, False, True, False, True], [False] * 5],) * 2


def test_replay_falls_back_when_the_source_is_missing(monkeypatch,
                                                      tmp_path):
    ranks = np.array([1, 2, 3, 2, 1])
    monkeypatch.setattr(cache_module, "_SOURCE", str(tmp_path / "gone.c"))
    cache_module._kernel.cache_clear()
    try:
        assert cache_module._kernel() is None
        assert [f.tolist() for f in replay("session_lfu", ranks, [2])] == [
            [False, False, False, True, False]]
    finally:
        cache_module._kernel.cache_clear()


def _replay_in_subprocess(cache_home):
    """Starts a fresh interpreter that replays a Zipf trace under both
    policies with ``cache_home`` as XDG_CACHE_HOME; it prints whether the
    compiled kernel loaded, then whether its flags equal the Python
    replay's."""
    probe = """if True:
        import numpy as np
        from proxysim import cache
        from proxysim.popularity import build_catalog
        from proxysim.workload import generate_workload
        ranks = generate_workload(build_catalog(500, 0.7), 20_000, 1000,
                                  seed=9).requests
        flags = [[f.tolist() for f in cache.replay(p, ranks, [1, 30, 600])]
                 for p in ("lru", "session_lfu")]
        print(cache._kernel() is not None)
        cache._kernel = lambda: None
        print(flags == [[f.tolist() for f in cache.replay(p, ranks,
                                                          [1, 30, 600])]
                        for p in ("lru", "session_lfu")])
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-c", probe], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def _built(cache_home):
    """The files that builds left in ``cache_home``'s proxysim folder."""
    return sorted(p.name for p in (cache_home / "proxysim").iterdir())


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_replay_kernel_loads_where_cc_is_on_path(tmp_path):
    proc = _replay_in_subprocess(tmp_path)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out.split() == ["True", "True"]
    built, = _built(tmp_path)
    assert built.startswith("replay-") and built.endswith(".so")


def test_replay_builds_at_once_share_one_cache_folder(tmp_path):
    # two fresh interpreters build into one empty folder at the same
    # time; each renames its own whole build into place
    procs = [_replay_in_subprocess(tmp_path) for _ in range(2)]
    outs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err
        assert out.split()[1] == "True"
    if shutil.which("cc") is not None:
        assert [out.split()[0] for out, _ in outs] == ["True", "True"]
        assert len(_built(tmp_path)) == 1


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("policy", ["session_lfu", "lru"])
@pytest.mark.parametrize("rank, after_first", [(-3, False), (10 ** 12, True)],
                         ids=["negative_before_first", "huge_after_first"])
def test_replay_refuses_ranks_changed_after_its_check(kernel, policy, rank,
                                                     after_first):
    # replay checks the ranks when it is called, and its generator reads
    # them again at each capacity: a rank changed in between is a
    # ValueError, not a read out of bounds. The probe runs in its own
    # interpreter, since such a read can kill it.
    if kernel and cache_module._kernel() is None:
        pytest.skip("no replay kernel")
    probe = f"""if True:
        import numpy as np
        from proxysim import cache
        if not {kernel}:
            cache._kernel = lambda: None
        ranks = np.arange(100, dtype=np.int64) % 20
        flags = cache.replay({policy!r}, ranks, [5, 6])
        if {after_first}:
            next(flags)
        ranks[10] = {rank}
        try:
            next(flags)
        except ValueError as exc:
            print(exc)
    """
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "ranks must be in 0..19\n"), \
        proc.stderr


def test_replay_and_simulate_workload_take_an_iterator_of_capacities():
    # each reads its capacities once, so an iterator gives one result
    # per capacity, as its list does
    ranks = np.array([1, 2, 1])
    assert [f.tolist() for f in replay("lru", ranks, iter([1, 2]))] == [
        [False, False, False], [False, False, True]]
    workload = Workload(requests=ranks, session_size=2, n_objects=2)
    reports = simulate_workload(workload, assign_attributes(2, seed=0),
                                iter([1, 2]), "lru", 1.0, "product", {})
    assert [r.hits.tolist() for r in reports] == [[0, 0], [1, 0]]


_TALLY_TRACES = {
    "random": np.random.default_rng(1905).integers(1, 9, size=500),
    "zipf": generate_workload(build_catalog(200, 0.98), 5000, 5000,
                              seed=1).requests,
}


def _tallies(requests, flags, n_bins):
    """``tally``'s hits as lists, once through the compiled kernel and
    once through the numpy fallback."""
    kernel = cache_module.tally(requests, flags, n_bins)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache_module, "_kernel", lambda: None)
        python = cache_module.tally(requests, flags, n_bins)
    return [kernel.tolist(), python.tolist()]


@pytest.mark.parametrize("trace", list(_TALLY_TRACES))
def test_tally_matches_bincount(trace):
    requests = _TALLY_TRACES[trace]
    n_bins = int(requests.max()) + 1
    replayed, = replay("lru", requests, [3])
    cases = {"replay": replayed,
             "all_miss": np.zeros(requests.size, dtype=bool),
             "all_hit": np.ones(requests.size, dtype=bool)}
    for name, flags in cases.items():
        expected = np.bincount(requests[flags], minlength=n_bins).tolist()
        assert _tallies(requests, flags, n_bins) == [expected] * 2, name
    # spare bins past the largest rank stay zero
    assert _tallies(requests, replayed, n_bins + 2) == [
        np.bincount(requests[replayed], minlength=n_bins + 2).tolist()] * 2


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("at", [0, 250, 499])
@pytest.mark.parametrize("rank", [9, -1])
def test_tally_rejects_rank_outside_bins(monkeypatch, kernel, at, rank):
    # a rank equal to n_bins, or below 0, is refused whether or not its
    # request hit, and no tally comes back
    if not kernel:
        monkeypatch.setattr(cache_module, "_kernel", lambda: None)
    requests = _TALLY_TRACES["random"].copy()
    requests[at] = rank
    for flags in (np.zeros(500, dtype=bool), np.ones(500, dtype=bool)):
        with pytest.raises(ValueError, match="ranks must be in 0..8"):
            cache_module.tally(requests, flags, 9)


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
def test_tally_rejects_flags_not_one_bool_per_request(monkeypatch, kernel):
    # the compiled loop reads one flag byte per rank, so a short or wide
    # flag array would be read past its end
    if not kernel:
        monkeypatch.setattr(cache_module, "_kernel", lambda: None)
    requests = _TALLY_TRACES["random"]
    for flags in (np.ones(499, dtype=bool), np.ones(500, dtype=np.int64),
                  np.ones((500, 1), dtype=bool)):
        with pytest.raises(ValueError, match="one bool per request"):
            cache_module.tally(requests, flags, 9)


@pytest.mark.parametrize("policy", ["session_lfu", "lru"])
def test_simulate_workload_allocates_nothing_per_hit(policy):
    # tracemalloc sees numpy's data buffers: beyond the workload, a run
    # keeps one flag byte per request, for one capacity at a time, and
    # arrays over ranks, and builds no array of the hit requests' ranks
    if cache_module._kernel() is None:
        pytest.skip("no replay kernel; the numpy tally allocates per request")
    total = 200_000
    workload = generate_workload(build_catalog(1000, 0.98), total, 1000,
                                 seed=11)
    attrs = assign_attributes(1000, seed=0)
    tracemalloc.start()
    try:
        simulate_workload(workload, attrs, [10, 100, 500], policy, 1.0,
                          "product", {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * total
