"""Correlation length versus inverse temperature.

Fits xi(beta) from connected zz correlations on two chains: the classical
zz chain, where the closed form -1/log(tanh(beta J)) is exact, and an
anisotropic exchange chain, where the fitted log(xi) grows essentially
linearly in beta.  The exponential temperature dependence of the correlation
length is the headline scaling this laboratory certifies.
"""

import math

from gibbschain import chain, oracles, profiles
from gibbschain.experiments import correlation_lengths

print("classical zz chain, n=10, J=1:")
h = chain.build_chain(10, "ising_zz", profiles.finite_range(1), coupling=1.0, seed=0)
print(f"{'beta':>5s} {'fitted xi':>10s} {'closed form':>12s} {'rel dev':>9s}")
betas = (0.3, 0.6, 0.9, 1.2, 1.5)
for beta, (_, xi, _, _) in zip(betas, correlation_lengths(h, betas, range(1, 10))):
    ref = oracles.ising_correlation_length(beta, 1.0)
    print(f"{beta:5.1f} {xi:10.4f} {ref:12.4f} {abs(xi - ref) / ref:9.2e}")

print("\nanisotropic exchange chain, n=10, anisotropy 1.5:")
hq = chain.build_chain(10, "heisenberg_xxz", profiles.finite_range(1),
                       coupling=1.0, seed=0, anisotropy=1.5)
print(f"{'beta':>5s} {'fitted xi':>10s} {'log xi':>8s}")
prev = -math.inf
betas = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)
for beta, (_, xi, _, _) in zip(betas, correlation_lengths(hq, betas, range(1, 10))):
    marker = "  (increasing)" if math.log(xi) > prev else ""
    prev = math.log(xi)
    print(f"{beta:5.1f} {xi:10.4f} {math.log(xi):8.4f}{marker}")
