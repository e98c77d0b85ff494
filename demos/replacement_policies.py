"""Compare the session LFU policy against LRU and per-request LFU.

    python3 demos/replacement_policies.py
"""

import numpy as np

from proxysim.cache import replay
from proxysim.popularity import build_catalog
from proxysim.simulator import simulate_workload
from proxysim.workload import assign_attributes, generate_workload


def walkthrough():
    """Trace a cold two-slot cache by hand under both kinds of policy."""
    ranks = np.array([1, 1, 2, 3, 1, 2])
    print(f"cold cache C=2, requests {ranks.tolist()}")
    for policy in ("session_lfu", "lru"):
        flags, = replay(policy, ranks, [2])
        marks = " ".join("hit " if hit else "miss" for hit in flags)
        print(f"  {policy:12s} {marks}")
    print("the miss on 3 evicts 2 under session_lfu (count 1 against 1's")
    print("2), but 1 under lru (used before 2), so only lru misses on the")
    print("next request for 1")
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
