"""Light-cone envelopes versus exact commutator norms.

Evolve a single-site operator on a small chain and compare the measured
commutator norm ||[O_0(t), O_r]|| with the mode-specific envelope.  The
envelope must dominate at every grid point; the printout shows how much
slack it carries.
"""

from gibbschain import chain, locality, profiles

h = chain.build_chain(8, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.5, seed=1)
env = locality.envelope_for_chain(h)
print(f"power-law chain, n=8: g={h.g:.3f}, gamma={h.gamma:.3f}, "
      f"conv_const={env.conv_const:.3f}, velocity={env.velocity:.3f}")

report = locality.lr_certify(h, (0.25, 0.5, 1.0), range(1, 8))
print(f"\n{'t':>5s} {'r':>3s} {'exact':>12s} {'envelope':>12s} {'ratio':>8s}")
for row in report.rows:
    ratio = row.exact / row.envelope if row.envelope > 0 else 0.0
    print(f"{row.t:5.2f} {row.r:3d} {row.exact:12.3e} {row.envelope:12.3e} {ratio:8.3f}")
print(f"\nviolations: {sum(not row.ok for row in report.rows)}")

# truncating the interactions restores an exponential light cone
htc = chain.truncate(
    chain.build_chain(10, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.5, seed=2),
    [0], [9], 2,
)
rep_t = locality.lr_certify(htc, (0.25, 0.5, 1.0), range(1, 10))
print(f"\ntruncated chain (block_len 2): violations {sum(not row.ok for row in rep_t.rows)}")
