"""Correlation length versus inverse temperature.

Fits xi(beta) from connected zz correlations on two chains: the classical
zz chain, where the closed form -1/log(tanh(beta J)) is exact, and an
anisotropic exchange chain, where the fitted log(xi) grows essentially
linearly in beta.  The exponential temperature dependence of the correlation
length is the headline scaling this laboratory certifies.
"""

import math

from gibbschain import chain, opalg, oracles, profiles
from gibbschain.experiments import _fast_z_correlations

print("classical zz chain, n=10, J=1:")
h = chain.build_chain(10, "ising_zz", profiles.finite_range(1), coupling=1.0, seed=0)
h_mat = h.matrix()
print(f"{'beta':>5s} {'fitted xi':>10s} {'closed form':>12s} {'rel dev':>9s}")
for beta in (0.3, 0.6, 0.9, 1.2, 1.5):
    cors = _fast_z_correlations(opalg.gibbs(h_mat, beta), 0, range(1, 10))
    xi, _, _, _ = oracles.fit_exponential_decay(range(1, 10), cors)
    ref = oracles.ising_correlation_length(beta, 1.0)
    print(f"{beta:5.1f} {xi:10.4f} {ref:12.4f} {abs(xi - ref) / ref:9.2e}")

print("\nanisotropic exchange chain, n=10, anisotropy 1.5:")
hq = chain.build_chain(10, "heisenberg_xxz", profiles.finite_range(1),
                       coupling=1.0, seed=0, anisotropy=1.5)
hq_mat = hq.matrix()
print(f"{'beta':>5s} {'fitted xi':>10s} {'log xi':>8s}")
prev = -math.inf
for beta in (0.2, 0.4, 0.6, 0.8, 1.0, 1.2):
    cors = _fast_z_correlations(opalg.gibbs(hq_mat, beta), 0, range(1, 10))
    xi, _, _, _ = oracles.fit_exponential_decay(range(1, 10), cors)
    marker = "  (increasing)" if math.log(xi) > prev else ""
    prev = math.log(xi)
    print(f"{beta:5.1f} {xi:10.4f} {math.log(xi):8.4f}{marker}")
