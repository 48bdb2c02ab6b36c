"""Interaction truncation and its error envelopes.

Dropping every coupling between non-adjacent blocks leaves a chain with
interaction length at most twice the block width.  Both the operator norm of
the dropped terms and the trace-norm distance between the Gibbs exponentials
sit inside fully explicit envelopes (the latter under a beta-smallness
condition).
"""

from gibbschain import chain, opalg, profiles

h = chain.build_chain(10, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.01, seed=5)
print(f"chain n=10, weak power-law couplings: g={h.g:.4f}, gamma={h.gamma:.4f}")

h_spectrum = opalg.hermitian_eig(h.matrix())
for l0 in (1, 2):
    htc = chain.truncate(h, [0], [9], l0)
    spectra = (h_spectrum, opalg.hermitian_eig(htc.matrix()))
    rep = chain.truncation_error_report(h, htc, 0.3, spectra)
    print(f"\nblock_len={l0}: q={htc.q}, dropped {len(htc.dropped)} terms, "
          f"bond cap g_tilde={h.g_tilde:.4f}")
    print(f"  ||dropped||        = {rep.exact_delta_norm:.3e}  <=  {rep.op_norm_bound:.3e}")
    print(f"  smallness value    = {rep.condition_value:.3f} (must be <= 1: {rep.condition_ok})")
    print(f"  ||e^bH - e^bHt||_1 = {rep.exact_trace_norm_diff:.3e}  <=  {rep.trace_norm_bound:.3e}")
    for s in range(htc.q + 1):
        assert htc.bond_norm(s) <= h.g_tilde + 1e-12
    print(f"  all {htc.q + 1} boundary bundles within g_tilde")
