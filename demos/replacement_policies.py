"""Compare the session LFU policy against LRU and per-request LFU.

    python3 demos/replacement_policies.py
"""

from proxysim.cache import CacheState
from proxysim.popularity import build_catalog
from proxysim.simulator import simulate_workload
from proxysim.workload import assign_attributes, generate_workload


def walkthrough():
    """Trace a two-slot cache by hand, printing every step."""
    cache = CacheState(2, warm=[1, 2])
    print("warm cache C=2 holding ranks 1 and 2, hit counts start at 0")
    for rank in (1, 3, 1):
        hit, evicted = cache.access(rank)
        what = "hit " if hit else "miss"
        tail = f", evicted {evicted}" if evicted else ""
        print(f"  request {rank}: {what}{tail}")
    print(f"final entries (rank: hit count): "
          f"{ {r: c for r, (c, _) in cache.entries.items()} }")
    print()


def policy_scoreboard():
    cat = build_catalog(2000, 0.98)
    workload = generate_workload(cat, 200000, 1000, seed=7)
    attrs = assign_attributes(cat.n_objects, seed=7)
    print("N=2000 alpha=0.98, R=200000, C=50")
    for policy in ("session_lfu", "lru", "lfu_classic"):
        report, = simulate_workload(workload, attrs, [50], policy, 1.0,
                                    "product", {})
        print(f"  {policy:12s} hit ratio {report.hit_ratio:.4f}")
    print()
    print("session_lfu and lfu_classic are the same replacement scheme, so")
    print("they tie; the frequency-based policies converge on the popular")
    print("set and hold it, while LRU keeps churning the tail through the")
    print("cache")


walkthrough()
policy_scoreboard()
