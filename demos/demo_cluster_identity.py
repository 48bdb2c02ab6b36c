"""Doubled-space correlation identities and the commuting bound chain.

On the tensor square of the Hilbert space, the connected correlation becomes
a single trace against the probe O_X^(0) O_Y^(1), and traces of operator
strings that fail to connect X to Y vanish identically.  Removing the zeroth
order of every boundary bond by inclusion-exclusion therefore reproduces the
correlation exactly; for commuting chains the alternating sum factorizes and
yields the product bound that drives exponential clustering.
"""

import numpy as np

from gibbschain import chain, cluster, opalg, oracles, profiles

# disconnected trace vanishes
rng = np.random.default_rng(0)
m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
z = opalg.DenseOperator((0, 1), 0.5 * (m + m.conj().T))
o_x = opalg.single_site(opalg.pauli("x"), 0)
o_y = opalg.single_site(opalg.pauli("y"), 3)
res = cluster.disconnected_trace([z], o_x, o_y, 4)
print(f"disconnected trace: |value| = {abs(res.value):.2e} (scale {res.scale:.1e})")

# all-bond cancellation identity on a non-commuting chain
h = chain.build_chain(6, "random_two_site", profiles.power_law(3.0), coupling=0.4, seed=7)
htc = chain.truncate(h, [0], [5], 2)
ox = opalg.single_site(opalg.pauli("x"), 0)
oy = opalg.single_site(opalg.pauli("x"), 5)
rep = cluster.correlation_identity_residual(htc, ox, oy, 1.0)
print(f"all-bond identity residual (non-commuting): {rep.residual:.2e}")
print(f"|Cor| = {rep.cor_abs:.4e} equals |tr(Psi G)|/Z^2 = {rep.psi_g_over_z:.4e}")

# commuting chain: oracle match and the bound chain
hz = chain.build_chain(10, "ising_zz", profiles.finite_range(1), coupling=1.0, seed=0)
hzt = chain.truncate(hz, [0], [9], 1)
print(f"\n{'beta':>5s} {'exact':>12s} {'transfer-matrix':>16s} {'product bound':>14s} {'final bound':>12s}")
for beta in (0.5, 1.0, 2.0):
    r = cluster.commuting_chain_bound(hzt, beta)  # Z probes on sites 0 and 9
    oracle = oracles.ising_transfer_correlation(10, 1.0, beta, 0, 9)
    print(f"{beta:5.1f} {r.exact_cor:12.4e} {oracle:16.4e} {r.product_bound:14.4e} "
          f"{r.final_bound:12.4e}")
