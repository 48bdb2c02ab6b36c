"""Belief propagation operators: reconstruction and window locality.

The operator Phi for a split H = H_env + h satisfies
exp(beta H) = Phi exp(beta H_env) Phi^dag exactly; numerically it is built
as an ordered product over the coupling parameter of exponentials of the
bond filtered by the kernel's closed-form transfer function tanh(x)/x.
Because the generator is a filtered evolution of the bond, Phi is
essentially supported near the bond, and truncating the construction to a
window loses very little: the error is certified against a fully explicit
envelope.
"""

import numpy as np

from gibbschain import chain, profiles, qbp

beta = 1.0
scheme = qbp.filter_quadrature(beta, 1e-9)
print(f"quadrature: {scheme.nodes.size} nodes, t_max={scheme.t_max:.2f}, "
      f"|norm-1|={abs(scheme.normalization() - 1):.2e}")
print(f"first moment vs analytic: {abs(scheme.first_moment() - qbp.FILTER_FIRST_MOMENT * beta):.2e}")
om = np.linspace(-150.0, 150.0, 301)
node_sum = np.cos(np.outer(om, scheme.nodes)) @ (scheme.weights * scheme.filter_at_nodes)
gap = np.max(np.abs(node_sum - qbp.filter_transfer(beta, om)))
print(f"node sum vs tanh(x)/x transfer function, |omega| <= 150: {gap:.2e}")

h = chain.build_chain(6, "random_two_site", profiles.power_law(3.0), coupling=0.4, seed=3)
htc = chain.truncate(h, [0], [5], 1)
bp = qbp.build_bond_bp(htc, 2, beta, residual_gate=1e-6)
print(f"\nexact split at bond 2 (n=6): reconstruction residual "
      f"{bp.reconstruction_residual:.2e} with {bp.tau_steps} coupling steps")
print(f"generator norm cap: {bp.phi_norm_max:.4f} <= beta*||h||/2 = {beta * bp.bond_norm / 2:.4f}")

# window truncation on a longer chain
h10 = chain.build_chain(10, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.25, seed=4)
h10t = chain.truncate(h10, [0], [9], 1)
print("\nwindow truncation at bond 1 (n=10), both radii from one full build:")
for rep in qbp.bp_locality_sweep(h10t, 1, (7, 8), (beta,), tau_steps=12, integrator="midpoint"):
    tag = "window covers chain, identical" if rep.vacuous else ""
    print(f"  r={rep.r}: ||Phi - Phi_window|| = {rep.exact:.3e} <= {rep.explicit_bound:.3e} {tag}")
