"""Sweep the six default alphas and fit the recovered popularity slopes.

Reproduces the experimental grid end to end: six skew settings, one
seeded million-request stream each, fitted log-log slope of the rank
histogram, and the long-tail shape of imported bandwidth.

    python3 demos/traffic_grid.py   (takes a few seconds)
"""

import numpy as np

from proxysim.simulator import DEFAULT_ALPHAS, SimConfig, fit_power_law, sweep


def main() -> None:
    config = SimConfig(
        n_objects=10000,
        alpha=DEFAULT_ALPHAS,
        total_requests=1000000,
        cache_capacity=100,
        seed=2718,
        policy="session_lfu",
    )

    print("alpha   fitted slope   hit ratio   bandwidth decile shape")
    for report in sweep(config):
        alpha = report.config["alpha"]
        slope, r2 = fit_power_law(report.requests, 100)
        deciles = report.imported_bandwidth.reshape(10, 1000).sum(axis=1)
        monotone = ("non-increasing" if np.all(np.diff(deciles) <= 0)
                    else "mixed")
        print(f"{alpha:5.2f}   {slope:12.3f}   {report.hit_ratio:9.4f}   "
              f"{monotone}")

    print()
    print("the fitted slope tracks -alpha: the request stream hands back the")
    print("exponent that generated it, and bandwidth stays tail-heavy for")
    print("every skew level in the grid")


# sweep() runs its points in worker processes; under the spawn and
# forkserver start methods each worker re-imports __main__, so nothing
# may run at import time
if __name__ == "__main__":
    main()
