import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbschain import chain, opalg, profiles
from gibbschain.errors import (
    BadPartition,
    GeometryError,
    InvalidSpec,
    Overlap,
)
from reference_oracles import OutOfRange, as_chain, coupling_strength, dense_truncation_trace


def ising(n=6, J=1.0, rng_range=1, seed=0):
    return chain.build_chain(n, "ising_zz", profiles.finite_range(rng_range), coupling=J, seed=seed)


def powerlaw_chain(n=8, J=1.0, alpha=3.0, gen="ising_zz", seed=0):
    return chain.build_chain(n, gen, profiles.power_law(alpha), coupling=J, seed=seed)


def test_two_site_ising_shift():
    h = ising(n=2)
    assert len(h.terms) == 1
    t = h.terms[0]
    evals = np.sort(np.linalg.eigvalsh(t.matrix))
    assert evals == pytest.approx([0.0, 0.0, 2.0, 2.0], abs=1e-12)


def test_power_law_coupling_strength():
    h = powerlaw_chain(n=6)
    # the raw strength at distance 3 is the profile value 1/27, shifted up by itself
    term = next(t for t in h.terms if t.sites == (1, 4))
    evals = np.sort(np.linalg.eigvalsh(term.matrix))
    assert evals == pytest.approx([0.0, 0.0, 2.0 / 27.0, 2.0 / 27.0], abs=1e-15)
    # the summed (shifted) coupling doubles it
    assert coupling_strength(h, 1, 4) == pytest.approx(2.0 / 27.0, rel=1e-12)


def test_one_site_energy_within_g():
    h = chain.build_chain(5, "random_two_site", profiles.power_law(3.0), coupling=1.0, seed=7)
    for i in range(5):
        total = sum(t.norm for t in h.terms if i in t.sites)
        assert total <= h.g * (1 + 1e-12)


def test_pair_couplings_within_profile():
    for gen in ("ising_zz", "heisenberg_xxz", "random_two_site"):
        h = chain.build_chain(7, gen, profiles.power_law(3.0), coupling=0.8, seed=3)
        for i in range(7):
            for j in range(i + 1, 7):
                assert coupling_strength(h, i, j) <= h.g * h.profile(j - i) * (1 + 1e-12)


def test_coupling_strength_errors_and_zero():
    h = ising(n=5)
    assert coupling_strength(h, 0, 3) == 0.0  # nearest-neighbor chain
    with pytest.raises(Overlap):
        coupling_strength(h, 2, 2)
    with pytest.raises(OutOfRange):
        coupling_strength(h, 0, 9)


def test_build_chain_rejects_bad_specs():
    with pytest.raises(InvalidSpec):
        chain.build_chain(1, "ising_zz", profiles.finite_range(1))
    with pytest.raises(InvalidSpec):
        chain.build_chain(4, "nope", profiles.finite_range(1))


def test_truncate_finite_range_drops_nothing():
    h = ising(n=10)
    htc = chain.truncate(h, [0], [9], 2)
    assert htc.dropped == ()
    assert np.allclose(htc.matrix(), h.matrix())


def test_truncate_bad_partition():
    h = powerlaw_chain(n=8)
    with pytest.raises(BadPartition):
        chain.truncate(h, [0], [7], 4)  # q = 1.5
    with pytest.raises(BadPartition):
        chain.truncate(h, [0], [5, 6, 7], 5)
    with pytest.raises(BadPartition):
        chain.truncate(h, [1], [7], 2)  # X not a prefix


def test_truncate_dropped_norm_within_bound():
    h = powerlaw_chain(n=12, gen="heisenberg_xxz")
    htc = chain.truncate(h, [0], [9, 10, 11], 2)  # q = 4
    bound = h.gamma**2 * h.g * htc.q * htc.block_len**2 * h.profile(htc.block_len)
    delta = htc.delta_matrix()
    assert opalg.opnorm(delta) <= bound + 1e-12
    assert htc.separation == htc.q * htc.block_len


def test_truncate_bundles_psd_and_capped():
    h = powerlaw_chain(n=10, gen="random_two_site", seed=5)
    htc = chain.truncate(h, [0], [9], 2)
    for s in range(htc.q + 1):
        bundle = htc.h_terms[s]
        if not bundle:
            continue
        mat = chain.terms_matrix(bundle, sorted({i for t in bundle for i in t.sites}))
        evals = np.linalg.eigvalsh(mat)
        assert evals.min() >= -1e-12 * max(1.0, abs(evals).max())
        assert htc.bond_norm(s) <= h.g_tilde * (1 + 1e-12)
    for t in htc.kept_terms:
        assert max(t.sites) - min(t.sites) < 2 * htc.block_len


def test_truncate_idempotent():
    h = powerlaw_chain(n=10, gen="heisenberg_xxz")
    htc = chain.truncate(h, [0], [9], 2)
    again = chain.truncate(as_chain(htc), [0], [9], 2)
    assert again.dropped == ()
    assert again.v_terms == htc.v_terms
    assert again.h_terms == htc.h_terms


def test_block_interaction_norm():
    h_fr = ising(n=8, rng_range=1)
    rep = chain.block_interaction_norm(h_fr, range(0, 2), range(4, 6))
    assert rep.exact == 0.0  # gap beyond the interaction range

    h = powerlaw_chain(n=8)
    rep2 = chain.block_interaction_norm(h, range(0, 3), range(5, 8))
    brute = sum(
        t.norm for t in h.terms
        if set(t.sites) & {0, 1, 2} and set(t.sites) & {5, 6, 7}
    )
    assert rep2.exact == pytest.approx(brute, rel=1e-12)
    assert rep2.exact <= rep2.bound
    assert rep2.distance == 3

    adjacent = chain.block_interaction_norm(h, range(0, 4), range(4, 8))
    assert adjacent.bound == h.g_tilde

    with pytest.raises(Overlap):
        chain.block_interaction_norm(h, range(0, 4), range(3, 6))


def test_block_interaction_all_pairs_small():
    h = powerlaw_chain(n=9, gen="random_two_site", seed=2)
    for a2 in range(0, 4):
        for b1 in range(a2 + 1, 9):
            rep = chain.block_interaction_norm(h, range(0, a2 + 1), range(b1, 9))
            assert rep.exact <= rep.bound + 1e-12


def test_cached_matrices_are_read_only():
    h = powerlaw_chain(n=6, gen="random_two_site", seed=4)
    htc = chain.truncate(h, [0], [5], 1)
    for owner in (h, htc):
        before = owner.matrix().copy()
        with pytest.raises(ValueError):
            owner.matrix()[0, 0] = 1
        assert np.array_equal(owner.matrix(), before)
    with pytest.raises(ValueError):
        h.subset_matrix((1, 2, 3))[0, 0] = 1


def test_local_term_norm_computed_once():
    h = powerlaw_chain(n=5, gen="random_two_site", seed=1)
    for t in h.terms:
        assert t.norm == float(np.max(np.abs(np.linalg.eigvalsh(t.matrix))))
        assert "norm" in vars(t)


def _spectra(h, htc):
    return opalg.hermitian_eig(h.matrix()), opalg.hermitian_eig(htc.matrix())


def test_truncation_error_report_trivial():
    h = ising(n=6)
    htc = chain.truncate(h, [0], [5], 2)  # finite range: identical Hamiltonian
    rep = chain.truncation_error_report(h, htc, 0.5, _spectra(h, htc))
    assert rep.exact_delta_norm == 0.0
    assert rep.exact_trace_norm_diff < 1e-9 * rep.partition_function


def test_truncation_error_report_bounds():
    h = chain.build_chain(10, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.02, seed=1)
    htc = chain.truncate(h, [0], [9], 2)
    rep = chain.truncation_error_report(h, htc, 0.3, _spectra(h, htc))
    assert rep.condition_ok
    assert rep.exact_delta_norm <= rep.op_norm_bound
    assert rep.exact_trace_norm_diff <= rep.trace_norm_bound
    # stronger coupling violates the smallness condition; bound withdrawn
    h2 = chain.build_chain(10, "heisenberg_xxz", profiles.power_law(3.0), coupling=2.0, seed=1)
    htc2 = chain.truncate(h2, [0], [9], 2)
    rep2 = chain.truncation_error_report(h2, htc2, 0.3, _spectra(h2, htc2))
    assert not rep2.condition_ok
    assert np.isnan(rep2.trace_norm_bound) and not rep2.trace_ok


@pytest.mark.parametrize("generator", ["heisenberg_xxz", "ising_zz", "random_two_site"])
def test_truncation_trace_norm_by_pieces_matches_the_dense_difference(generator):
    h = chain.build_chain(8, generator, profiles.power_law(3.0), coupling=0.05, seed=3)
    for block_len in (1, 3):
        htc = chain.truncate(h, [0], [7], block_len)
        assert htc.dropped
        spectra = _spectra(h, htc)
        for beta in (0.3, 1.0):
            assert opalg.expm_difference(*spectra, beta) is not None
            rep = chain.truncation_error_report(h, htc, beta, spectra)
            diff, z = dense_truncation_trace(spectra, beta)
            assert abs(rep.exact_trace_norm_diff - diff) <= 1e-12 * diff
            assert abs(rep.partition_function - z) <= 1e-12 * z


def test_truncation_report_falls_back_to_the_dense_difference_across_layouts():
    h = chain.build_chain(8, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.05, seed=3)
    htc = chain.truncate(h, [0], [7], 1)
    # the truncated spectrum as one piece: its layout is not the split of H's
    spectra = opalg.hermitian_eig(h.matrix()), opalg.spectrum(htc.matrix())
    assert opalg.expm_difference(*spectra, 0.3) is None
    rep = chain.truncation_error_report(h, htc, 0.3, spectra)
    assert (rep.exact_trace_norm_diff, rep.partition_function) == dense_truncation_trace(spectra, 0.3)


def test_truncation_report_builds_no_delta_matrix_when_nothing_is_dropped(monkeypatch):
    h = ising(n=6)
    htc = chain.truncate(h, [0], [5], 2)
    assert not htc.dropped

    def unread(self):
        raise AssertionError("delta_matrix built for an empty sum")

    monkeypatch.setattr(chain.TruncatedHamiltonian, "delta_matrix", unread)
    assert chain.truncation_error_report(h, htc, 0.5, _spectra(h, htc)).exact_delta_norm == 0.0


def test_center_decomposition_geometry():
    h = powerlaw_chain(n=30, gen="ising_zz")
    htc = chain.truncate(h, [0], [29], 1)  # 28 interior sites
    cd = chain.center_decomposition(htc, 2, 7)
    assert cd.m == 2
    # centers sit at offsets 7 and 21 (1-based) from the interior's left edge
    left_edge = htc.blocks[1][0]
    assert [c - left_edge + 1 for c in cd.centers] == [7, 21]
    covered = [s for b in cd.blocks for s in b]
    assert sorted(covered) == list(range(30))

    with pytest.raises(GeometryError):
        chain.center_decomposition(htc, 3, 7)
    # the decomposition carries no locality estimate: half_width 7 <= 6 * block_len
    # is accepted
    assert chain.center_decomposition(chain.truncate(h, [0], [29], 2), 2, 7).m == 2


def test_center_decomposition_single_block():
    h = powerlaw_chain(n=16, gen="ising_zz")
    htc = chain.truncate(h, [0], [15], 1)
    cd = chain.center_decomposition(htc, 1, 7)
    assert cd.centers == (7,)
    assert cd.blocks[1] == tuple(range(1, 15))
    bundle = cd.bond_bundles[0]
    assert all(t.crosses(7) for t in bundle)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(5, 9),
    st.sampled_from(["ising_zz", "heisenberg_xxz", "random_two_site"]),
    st.sampled_from([profiles.power_law(3.0), profiles.exponential(0.7),
                     profiles.finite_range(2)]),
    st.data(),
)
def test_truncate_idempotent_property(n, gen, profile, data):
    # truncating a truncated chain on the same partition drops nothing more
    h = chain.build_chain(n, gen, profile, coupling=0.5, seed=data.draw(st.integers(0, 99)))
    partitions = [
        (nx, ny, l0)
        for nx in (1, 2) for ny in (1, 2) for l0 in (1, 2, 3)
        if (n - nx - ny) % l0 == 0 and (n - nx - ny) // l0 >= 2
        and ((n - nx - ny) // l0) % 2 == 0
    ]
    nx, ny, l0 = data.draw(st.sampled_from(partitions))
    x, y = range(nx), range(n - ny, n)
    htc = chain.truncate(h, x, y, l0)
    again = chain.truncate(as_chain(htc), x, y, l0)
    assert again.dropped == ()
    assert again.blocks == htc.blocks
    assert again.v_terms == htc.v_terms and again.h_terms == htc.h_terms
    assert np.array_equal(again.matrix(), htc.matrix())
