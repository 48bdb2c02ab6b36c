"""Decay profiles and the tail-sum condition.

Every chain starts from a normalized envelope jbar(r) of coupling strength
versus distance.  The locality machinery needs the tail-sum condition

    sum_{x >= l} x^z jbar(x)  <=  gamma * l^(z+1) jbar(l),   z in {0, 1},

and rather than assuming a gamma we measure the smallest one that works.
This script prints the measured constants for the four profile families.
"""

import numpy as np

from gibbschain import profiles

candidates = [
    ("finite range, cutoff 2", profiles.finite_range(2)),
    ("power law  r^-3", profiles.power_law(3.0)),
    ("power law  r^-2.2", profiles.power_law(2.2)),
    ("stretched  exp(-r^0.5)", profiles.stretched_exp(0.5, 1.0)),
    ("exponential 2^-r", profiles.exponential(np.log(2.0))),
]


def worst_ratio(p, z, ell_max):
    """Largest tail_sum(l, z) / (l^(z+1) jbar(l)) over l in [1, ell_max] with jbar(l) > 0."""
    return max(profiles.tail_sum(p, ell, z) / (ell ** (z + 1) * p(ell))
               for ell in range(1, ell_max + 1) if p(ell) > 0)


print(f"{'profile':<26s} {'gamma (z=0)':>12s} {'gamma (z=1)':>12s} {'measured':>10s}")
for label, p in candidates:
    g0, g1 = worst_ratio(p, 0, 40), worst_ratio(p, 1, 40)
    g = profiles.measure_gamma(p, 40)
    print(f"{label:<26s} {g0:12.6f} {g1:12.6f} {g:10.6f}")

print()
print("the geometric profile 2^-r has tail ratio exactly 2/l, so gamma = 2:")
ratio = worst_ratio(profiles.exponential(np.log(2.0)), 0, 30)
print(f"  worst ratio {ratio:.12f}, passes at gamma=2: {ratio <= 2.0}")

print()
print("an inverse-square profile fails the first-moment condition (harmonic tail):")
try:
    profiles.tail_sum(profiles.power_law(2.0), 1, 1)
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")
