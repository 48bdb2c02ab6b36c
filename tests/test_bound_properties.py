"""Random draws from the theorem's hypotheses against the four inequalities
whose bounds read a chain's measured constants g, gamma and g_tilde:
block-interaction norms, truncation errors, window-restricted evolution and
the window truncation of belief propagation operators.

The draws stay inside what the theorem assumes and config validation
admits: n from 4 to 8, every generator, finite_range, power_law with alpha
in (2, 8] and exponential profiles, coupling in [0.05, 1.5], beta in (0, 3]
and t in (0, 1.5].  stretched_exp is left out until build_chain can sum its
tail at small kappa and c (it raises NonConvergentTail there).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gibbschain import chain, locality, opalg, profiles, qbp


@st.composite
def chains(draw):
    n = draw(st.integers(4, 8))
    profile = draw(st.one_of(
        st.integers(1, n - 1).map(profiles.finite_range),
        st.floats(2.0, 8.0, exclude_min=True).map(profiles.power_law),
        st.floats(1e-3, 5.0).map(profiles.exponential),
    ))
    return chain.build_chain(n, draw(st.sampled_from(chain.GENERATORS)), profile,
                             coupling=draw(st.floats(0.05, 1.5)),
                             seed=draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chains())
def test_block_interaction_norm_holds_on_every_interval_pair(h):
    n = h.n
    for a1 in range(n):
        for a2 in range(a1, n):
            for b1 in range(a2 + 1, n):
                for b2 in range(b1, n):
                    rep = chain.block_interaction_norm(h, range(a1, a2 + 1), range(b1, b2 + 1))
                    assert rep.passed, (a1, a2, b1, b2, rep)


@st.composite
def truncations(draw):
    h = draw(chains())
    nx, ny, l0 = draw(st.sampled_from([
        (nx, ny, l0) for nx in (1, 2) for ny in (1, 2) for l0 in (1, 2, 3)
        if h.n - nx - ny >= 2 * l0 and (h.n - nx - ny) % (2 * l0) == 0
    ]))
    return h, chain.truncate(h, range(nx), range(h.n - ny, h.n), l0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(truncations(), st.floats(0.0, 3.0, exclude_min=True))
def test_truncation_error_report_holds_on_random_chains(draws, beta):
    h, htc = draws
    spectra = (opalg.hermitian_eig(h.matrix()), opalg.hermitian_eig(htc.matrix()))
    rep = chain.truncation_error_report(h, htc, beta, spectra)
    assert rep.op_ok, rep
    # the trace-norm bound is stated only where its smallness condition holds
    if rep.condition_ok:
        assert rep.trace_ok, rep


@st.composite
def windows(draw):
    """A chain, the site of a sigma_x probe and a window interval around it
    that leaves at least one site of the chain out."""
    h = draw(chains())
    site = draw(st.integers(0, h.n - 1))
    lo, hi = draw(st.tuples(st.integers(0, site), st.integers(site, h.n - 1))
                  .filter(lambda w: w != (0, h.n - 1)))
    return h, site, range(lo, hi + 1)


# at t = 5e-324 the bound is 2.2e-322, below the 1e-15 roundoff of the two
# evolutions that exact subtracts: a check with no roundoff allowance failed here
@example((chain.build_chain(4, "heisenberg_xxz", profiles.finite_range(1), coupling=1.0),
          0, range(0, 1)), 5e-324)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(windows(), st.floats(0.0, 1.5, exclude_min=True))
def test_subset_evolution_error_holds_on_random_windows(draws, t):
    h, site, window = draws
    rep = locality.subset_evolution_error(h, site, window, t)
    assert rep.ok, rep


@st.composite
def bp_windows(draw):
    """A 9-site power-law chain truncated with X = {0} and Y = {7, 8}: bond 0 and
    r = 7 is the smallest geometry at which a window (sites 0..7) is measured."""
    h = chain.build_chain(9, draw(st.sampled_from(chain.GENERATORS)),
                          profiles.power_law(draw(st.floats(2.0, 8.0, exclude_min=True))),
                          coupling=draw(st.floats(0.05, 1.5)),
                          seed=draw(st.integers(0, 2**31 - 1)))
    return chain.truncate(h, [0], [7, 8], 1)


# a random_two_site draw takes ~1.5 CPU s (no symmetry to split), hence five draws
@settings(max_examples=5, deadline=None, derandomize=True)
@given(bp_windows(), st.floats(0.0, 3.0, exclude_min=True), st.integers(1, 2))
def test_bp_locality_sweep_holds_on_random_chains(htc, beta, tau_steps):
    (rep,) = qbp.bp_locality_sweep(htc, 0, (7,), (beta,), tau_steps=tau_steps,
                                   integrator="midpoint")
    assert not rep.vacuous
    assert rep.exact <= rep.explicit_bound, rep
