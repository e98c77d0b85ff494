"""Closed-form hit-rate model against the trace-driven simulator.

The steady-state claim: a frequency-keeping cache of capacity C serving
Zipf-distributed requests ends up holding the C most popular objects,
so its hit ratio approaches the probability mass of those top C ranks.
This demo measures the gap across cache sizes.

    python3 demos/model_vs_simulation.py
"""

from proxysim.simulator import SimConfig, compare_analytic

config = SimConfig(
    n_objects=1000,
    alpha=0.98,
    total_requests=300000,
    cache_capacity=(10, 32, 100, 316, 1000),
    seed=11,
    policy="lfu_classic",
)

print("N=1000 alpha=0.98 R=300000 lfu_classic, cold start")
print(f"{'C':>6} {'sim hit':>9} {'top-C mass':>11} {'gap':>8}")
rows = compare_analytic(config)
for row in rows:
    print(f"{row.capacity:>6} {row.simulated_hit_ratio:>9.4f} "
          f"{row.top_c_mass:>11.4f} {row.gap:>8.4f}")

print()
print("bandwidth view of the C=100 run (model vs tally, both unit k):")
row = next(row for row in rows if row.capacity == 100)
print(f"  simulated imported bandwidth {row.sim_bandwidth:.3e}")
print(f"  model, size*time convention  {row.model_bandwidth_product:.3e}")
print(f"  model, size/time convention  {row.model_bandwidth_ratio:.3e}")
print()
print("the model charges every rank the same steady-state miss weight,")
print("so treat its absolute bandwidth numbers as shape, not truth")
