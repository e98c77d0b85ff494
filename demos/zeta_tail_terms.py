"""Partial-sum numerics behind the popularity normalizer.

The generalized harmonic number H(N, alpha) is a truncated zeta series.
This demo evaluates the tail terms a_n = n^-s - integral(x^-s, n, n+1)
together with their per-term bound |s| * n^(-1-sigma), then checks the
partial sums against two known constants.

    python3 demos/zeta_tail_terms.py
"""

import math

import numpy as np

from proxysim.popularity import power_modulus, zeta_partial_terms

EULER_GAMMA = 0.5772156649015329

print("per-term bound |a_n| <= |s| * n^(-1-sigma)")
for sigma in (0.31, 0.51, 0.98, 2.0):
    values, bounds = zeta_partial_terms(sigma, 10000)
    ratio = (np.abs(values) / bounds).max()
    print(f"  sigma={sigma:4}: worst |a_n|/bound over n<=1e4 = {ratio:.4f}")
print()

values, _ = zeta_partial_terms(2.0, 2000)
target = math.pi ** 2 / 6.0 - 1.0
print("s=2: sum of 2000 terms vs zeta(2) - 1/(s-1) = pi^2/6 - 1")
print(f"  partial sum = {values.sum().real:.9f}")
print(f"  target      = {target:.9f}")
print(f"  abs error   = {abs(values.sum().real - target):.2e}")
print()

# s = 1 switches the closed-form integral to its logarithm branch and
# the partial sums converge to the Euler-Mascheroni constant.
values, _ = zeta_partial_terms(1.0, 2000)
print("s=1 (log branch): partial sum vs Euler-Mascheroni gamma")
print(f"  partial sum = {values.sum().real:.9f}")
print(f"  gamma       = {EULER_GAMMA:.9f}")
print()

# Complex exponents only change the oscillation, never the modulus.
s = complex(0.5, 37.0)
print("modulus of n^-s ignores the imaginary part:")
print(f"  |4^-(0.5+37i)| = {power_modulus(4, s)} (= 4^-0.5 = 0.5)")
