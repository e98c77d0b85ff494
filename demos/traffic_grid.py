"""Sweep the six default alphas and fit the recovered popularity slopes.

Reproduces the experimental grid end to end: six skew settings, one
seeded million-request stream each, fitted log-log slope of the rank
histogram, and the share of imported bandwidth the hottest decile of
ranks carries.

    python3 demos/traffic_grid.py   (takes a few seconds)
"""

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

    decile = config.n_objects // 10
    print("alpha   fitted slope   hit ratio   top-decile bandwidth share")
    for report in sweep(config):
        alpha = report.config["alpha"]
        slope, r2 = fit_power_law(report.requests, 100)
        bandwidth = report.imported_bandwidth
        head_share = bandwidth[:decile].sum() / bandwidth.sum()
        print(f"{alpha:5.2f}   {slope:12.3f}   {report.hit_ratio:9.4f}   "
              f"{head_share:26.3f}")

    print()
    print("the fitted slope tracks -alpha: the request stream hands back the")
    print("exponent that generated it. The 1,000 hottest ranks import a")
    print("smaller share of the bandwidth as the skew falls: the flatter the")
    print("popularity, the more of the traffic the tail imports")


# sweep() runs its points in worker processes; under the spawn and
# forkserver start methods each worker re-imports __main__, so nothing
# may run at import time
if __name__ == "__main__":
    main()
