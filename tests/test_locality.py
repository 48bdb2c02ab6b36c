import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbschain import chain, locality, opalg, profiles
from gibbschain.errors import MissingParam, SubsetViolation
from reference_oracles import dense_pauli_commutator, embed_matrix


def test_convolution_constant_two_sites():
    # single pair: (jbar(0)jbar(1) + jbar(1)jbar(0)) / jbar(1) = 2
    for p in (profiles.power_law(3.0), profiles.exponential(0.9)):
        assert locality.convolution_constant(p, 2) == pytest.approx(2.0, rel=1e-12)


def test_convolution_constant_brute_force():
    p = profiles.exponential(math.log(2.0))
    n = 6
    got = locality.convolution_constant(p, n)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            s = sum(p(abs(i - k)) * p(abs(k - j)) for k in range(n))
            worst = max(worst, s / p(abs(i - j)))
    assert got == pytest.approx(worst, rel=1e-12)


def test_convolution_constant_zero_pairs():
    # jbar(2) = 0 with a convolution jbar(1)^2 > 0 admits no constant; at rate 400
    # jbar(1)^2 underflows to 0 as well, and the 0/0 pairs past distance 1 are no constraint
    assert math.isinf(locality.convolution_constant(profiles.finite_range(1), 4))
    assert locality.convolution_constant(profiles.exponential(400.0), 4) == 2.0


def test_convolution_constant_monotone_in_n():
    p = profiles.power_law(3.0)
    vals = [locality.convolution_constant(p, n) for n in (4, 6, 8, 10)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_convolution_constant_infinite_for_finite_range():
    assert math.isinf(locality.convolution_constant(profiles.finite_range(1), 6))


def _env(h):
    return locality.envelope_for_chain(h)


def _x_commutator_norm(a, site):
    """||[A, X_site]|| by lr_certify's path: the rows once, then the block's norm."""
    return locality._commutator_norm(a, site, locality._commutator_rows(a))


def test_envelope_zero_at_t0():
    h = chain.build_chain(6, "ising_zz", profiles.finite_range(2), coupling=1.0, seed=0)
    env = _env(h)
    assert env.mode == "finite_range"
    assert locality.lr_envelope(env, 0.0, 3) == 0.0

    h2 = chain.build_chain(6, "ising_zz", profiles.power_law(3.0), coupling=1.0, seed=0)
    env2 = _env(h2)
    assert env2.mode == "infinite_range"
    assert locality.lr_envelope(env2, 0.0, 3) == 0.0


def test_envelope_light_cone_step_count():
    h = chain.build_chain(8, "ising_zz", profiles.finite_range(2), coupling=1.0, seed=0)
    env = _env(h)
    t, r = 0.3, 5
    n0 = math.floor(r / 2 + 1)
    assert n0 == 3
    expected = (2.0 / env.k) * (2 * h.g * env.k * t) ** n0 / math.factorial(n0)
    assert locality.lr_envelope(env, t, r) == pytest.approx(min(expected, 2.0), rel=1e-12)


def test_log_factorial_equals_gammaln_inside_dim_cap():
    """r <= n - 1 < log2(DIM_CAP) and d_H >= 1, so n0 = floor(r/d_H + 1) <= 12;
    there log n0! equals scipy's gammaln(n0 + 1) exactly."""
    from scipy.special import gammaln

    n0_max = opalg.DIM_CAP.bit_length() - 1
    assert n0_max == 12
    for n0 in range(n0_max + 1):
        assert math.log(math.factorial(n0)) == gammaln(n0 + 1), n0
    h = chain.build_chain(8, "ising_zz", profiles.finite_range(1), coupling=0.2, seed=0)
    env = _env(h)
    for t in (0.1, 0.7, 2.0):
        for r in range(1, n0_max):
            n0 = r + 1
            log_core = n0 * math.log(2.0 * env.g * env.k * t) - gammaln(n0 + 1)
            expected = min((2.0 / env.k) * math.exp(log_core), 2.0)
            assert locality.lr_envelope(env, t, r) == expected, (t, r)


def test_envelope_trivial_cap_and_monotonicity():
    h = chain.build_chain(8, "heisenberg_xxz", profiles.power_law(3.0), coupling=1.0, seed=1)
    env = _env(h)
    assert locality.lr_envelope(env, 50.0, 1) == pytest.approx(2.0)
    assert env.mode == "infinite_range"
    vals_t = [locality.lr_envelope(env, t, 3) for t in (0.0, 0.1, 0.5, 1.0, 3.0)]
    assert all(a <= b + 1e-15 for a, b in zip(vals_t, vals_t[1:]))
    vals_r = [locality.lr_envelope(env, 0.5, r) for r in range(1, 7)]
    assert all(a >= b - 1e-15 for a, b in zip(vals_r, vals_r[1:]))


def test_truncated_envelope_modes():
    h = chain.build_chain(10, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.5, seed=2)
    htc = chain.truncate(h, [0], [9], 2)
    env = _env(htc)
    assert env.mode == "truncated"
    r, t = 6, 0.4
    f_tilde = env.prefactor * min(math.exp(-r / 4.0), h.profile(r))
    assert env.f0(r) == f_tilde
    expected = min(2.0, math.exp(env.velocity * t) * f_tilde)
    assert locality.lr_envelope(env, t, r) == pytest.approx(min(expected, 2.0), rel=1e-12)


def test_envelopes_whose_exponential_alone_overflows():
    # infinite_range: 2 c |t| passes 709.78, where expm1 alone overflows,
    # while the values lie e^706..e^709 above the cap
    h = chain.build_chain(8, "heisenberg_xxz", profiles.exponential(0.7), coupling=0.5, seed=0)
    env = _env(h)
    assert env.mode == "infinite_range"
    assert [locality.lr_envelope(env, 44.5, r) for r in range(1, 8)] == [2.0] * 7
    # a subnormal F0(11): e^(v t) alone overflows, the product is 4.8e-8
    h = chain.build_chain(12, "ising_zz", profiles.exponential(67.0), coupling=1.0, seed=0)
    env = _env(h)
    got = locality.combined_lightcone(env, 30.0, 11)
    assert got == math.exp(env.velocity * 30.0 + math.log(env.f0(11)))
    assert got == pytest.approx(4.8306936255245156e-08, rel=1e-12)
    # finite_range: the factorial envelope far past the cap
    h = chain.build_chain(8, "ising_zz", profiles.finite_range(1), coupling=1.0, seed=0)
    assert locality.lr_envelope(_env(h), 1e40, 7) == 2.0


def test_exact_commutator_trivial_cases():
    h = chain.build_chain(6, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.5, seed=0)
    for gen, t in ((h.matrix(), 0.0), (np.zeros((64, 64)), 1.3)):
        assert _x_commutator_norm(opalg.evolve(gen, 0, t), 4) < 1e-14


def test_certification_no_violations_small():
    h = chain.build_chain(6, "ising_zz", profiles.finite_range(1), coupling=1.0, seed=0)
    rep = locality.lr_certify(h, (0.0, 0.25, 0.5), range(1, 6))
    assert len(rep.rows) == 15 and rep.skipped == ()
    assert all(row.ok and row.exact <= row.envelope + 1e-10 for row in rep.rows)

    empty = locality.lr_certify(h, (), range(1, 6))
    assert empty.rows == () and empty.skipped == ()


def test_subset_evolution_trivial_and_bound():
    h = chain.build_chain(8, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.4, seed=0)
    full = locality.subset_evolution_error(h, 4, range(8), 0.7)
    assert full.exact < 1e-12 and full.bound == 0.0

    zero_t = locality.subset_evolution_error(h, 4, range(1, 7), 0.0)
    assert zero_t.exact < 1e-14 and zero_t.bound == 0.0

    rep = locality.subset_evolution_error(h, 4, range(2, 7), 0.5)
    assert rep.exact <= rep.bound
    assert rep.distance == 3.0

    with pytest.raises(SubsetViolation):
        locality.subset_evolution_error(h, 4, range(0, 3), 0.5)


def test_infinite_range_mode_requires_convolution_constant():
    h = chain.build_chain(6, "ising_zz", profiles.finite_range(1), coupling=1.0, seed=0)
    conv = locality.convolution_constant(h.profile, h.n)
    assert math.isinf(conv)
    with pytest.raises(MissingParam):
        locality.LREnvelope(mode="infinite_range", profile=h.profile, g=h.g, conv_const=conv,
                            k=h.k)
    with pytest.raises(MissingParam):
        locality.LREnvelope(mode="truncated", profile=h.profile, g=h.g, conv_const=conv, k=h.k)


def test_truncated_envelope_monotone():
    h = chain.build_chain(10, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.5, seed=2)
    htc = chain.truncate(h, [0], [9], 2)
    env = _env(htc)
    vals_t = [locality.lr_envelope(env, t, 4) for t in (0.0, 0.2, 0.5, 1.0, 5.0)]
    assert all(a <= b + 1e-15 for a, b in zip(vals_t, vals_t[1:]))
    vals_r = [locality.lr_envelope(env, 0.5, r) for r in range(1, 9)]
    assert all(a >= b - 1e-15 for a, b in zip(vals_r, vals_r[1:]))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.data())
def test_commutator_block_equals_dense_products(n, is_complex, data):
    site = data.draw(st.integers(0, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dim = 2**n
    a = rng.standard_normal((dim, dim))
    if is_complex:
        a = a + 1j * rng.standard_normal((dim, dim))
    a = 0.5 * (a + a.conj().T)
    dense = dense_pauli_commutator(a, "x", site)
    # every product is by 0 or 1: the gathers reproduce it bit for bit, on
    # every row and on the even-parity rows alone
    (_, _), (parity, _) = opalg.sector_labels(n)
    for rows in (np.arange(dim), np.flatnonzero(parity == 0)):
        got = locality._commutator_block(a, site, rows)
        assert np.array_equal(got, dense[np.ix_(rows, rows)])
    assert _x_commutator_norm(a, site) == pytest.approx(
        np.linalg.norm(dense, 2), rel=1e-12, abs=1e-14
    )


@pytest.mark.parametrize("probe", ["x"])
def test_lr_certify_matches_dense_kron_path(probe):
    h = chain.build_chain(6, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.5, seed=0)
    t_grid, r_grid = (0.0, 0.3, 1.1), range(1, 6)
    rep = locality.lr_certify(h, t_grid, r_grid)
    evals, vecs = np.linalg.eigh(h.matrix())
    sigma = opalg.pauli(probe)

    def on_site(j):
        return np.kron(np.kron(np.eye(2**j), sigma), np.eye(2 ** (5 - j)))

    expected = []
    for t in t_grid:
        u = (vecs * np.exp(1j * evals * t)) @ vecs.conj().T
        a_t = u @ on_site(0) @ u.conj().T
        for r in r_grid:
            comm = a_t @ on_site(r) - on_site(r) @ a_t
            expected.append(np.linalg.norm(comm, 2))
    assert [(row.t, row.r) for row in rep.rows] == [(t, r) for t in t_grid for r in r_grid]
    assert np.allclose([row.exact for row in rep.rows], expected, rtol=1e-10, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(4, 8),
    st.sampled_from(("heisenberg_xxz", "random_two_site")),
    st.floats(0.0, 1.0),
    st.integers(0, 1000),
    st.data(),
)
def test_window_evolution_matches_full_space(n, gen, t, seed, data):
    h = chain.build_chain(n, gen, profiles.power_law(3.0), coupling=0.4, seed=seed)
    lo = data.draw(st.integers(0, n - 2))
    hi = data.draw(st.integers(lo + 1, n - 1))
    window = range(lo, hi + 1)
    site = data.draw(st.integers(lo, hi))
    rep = locality.subset_evolution_error(h, site, window, t)
    # dense reference: both evolutions at the full dimension, one eigh each
    o_full = embed_matrix(opalg.pauli("x"), [site], n)

    def evolved(h_mat):
        evals, vecs = np.linalg.eigh(h_mat)
        u = (vecs * np.exp(1j * evals * t)) @ vecs.conj().T
        return u @ o_full @ u.conj().T

    inside = [term for term in h.terms if set(term.sites) <= set(window)]
    diff = evolved(h.matrix()) - evolved(chain.terms_matrix(inside, range(n)))
    assert rep.exact == pytest.approx(np.linalg.norm(diff, 2), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("generator", ["heisenberg_xxz", "ising_zz"])
@pytest.mark.parametrize("probe", ["x"])
def test_one_parity_block_norm_equals_two_block_maximum(n, generator, probe):
    h = chain.build_chain(n, generator, profiles.power_law(3.0), coupling=0.5, seed=n)
    spec = opalg.hermitian_eig(h.matrix())
    for t in (0.25, 0.7, 1.3):
        a_t = opalg.evolve(spec, 0, t)
        for site in range(1, n):
            comm = dense_pauli_commutator(a_t, probe, site)
            blocks = opalg.sectors(comm)
            assert len(blocks) == 2
            both = max(opalg.spectral_norm(opalg.sector_block(comm, b)) for b in blocks)
            # F maps the first parity block onto itself: it is normed on its F
            # halves (XXZ), or on finer pieces where the block has exact zeros (Ising)
            pieces, _ = opalg.split(opalg.sector_block(comm, blocks[0]))
            assert len(pieces) == 2 or generator == "ising_zz"
            got = _x_commutator_norm(a_t, site)
            assert got == max(opalg.spectral_norm(piece) for (piece,) in pieces)
            assert abs(got - both) <= 1e-14 * both


@pytest.mark.parametrize("generator", ["heisenberg_xxz", "ising_zz", "random_two_site"])
def test_commutator_norm_equals_the_full_commutator_spectrum(generator):
    for n in range(4, 9):
        h = chain.build_chain(n, generator, profiles.power_law(3.0), coupling=0.5, seed=n)
        spec = opalg.hermitian_eig(h.matrix())
        parity = np.array([bin(i).count("1") & 1 for i in range(2**n)])
        a_t = opalg.evolve(spec, 0, 0.7)
        odd = not np.any(a_t[parity[:, None] == parity])
        assert odd == (generator != "random_two_site")
        for site in range(1, n):
            comm = dense_pauli_commutator(a_t, "x", site)
            got = _x_commutator_norm(a_t, site)
            want = np.max(np.abs(np.linalg.eigvalsh(comm)))
            assert abs(got - want) <= 1e-14 * want
            if not odd:
                assert got == opalg.opnorm(comm)  # every row: the dense commutator
                continue
            # the first parity block alone, the same floats as the block of
            # the dense commutator
            blocks = opalg.sectors(comm)
            if len(blocks) == 2:
                assert got == opalg.opnorm(opalg.sector_block(comm, blocks[0]))


def test_one_piece_commutator_is_hermitian_bit_for_bit():
    # a random_two_site chain has no sectors; its A(t) is exactly Hermitian,
    # so a small commutator is too and is normed by eigvalsh, whatever its size
    h = chain.build_chain(7, "random_two_site", profiles.power_law(3.0), coupling=0.5, seed=7)
    spec = opalg.hermitian_eig(h.matrix())
    assert spec.layout.sources == ((0,),)
    a_t = opalg.evolve(spec, 0, 0.7)
    assert np.array_equal(a_t, a_t.conj().T)
    comm = locality._commutator_block(a_t, 6, locality._commutator_rows(a_t))
    assert np.array_equal(comm, dense_pauli_commutator(a_t, "x", 6))
    assert opalg.herm_defect(comm) == 0.0
    got = _x_commutator_norm(a_t, 6)
    assert got == np.max(np.abs(np.linalg.eigvalsh(comm)))
    assert got == pytest.approx(0.0024491715613729377, rel=1e-13)


def test_lr_certify_reads_the_parity_pattern_once_per_time(monkeypatch):
    h = chain.build_chain(6, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.5, seed=0)
    t_grid, r_grid = (0.0, 0.5, 1.0), (1, 3, 5)
    calls = []
    respects = opalg.respects

    def spy(mats, label, col_label=None):
        if col_label is not None:  # the parity test; sectors passes no column label
            calls.append(mats[0].shape)
        return respects(mats, label, col_label)

    monkeypatch.setattr(opalg, "respects", spy)
    rep = locality.lr_certify(h, t_grid, r_grid)
    assert len(rep.rows) == 9
    assert calls == [(64, 64)] * len(t_grid)
    # the rows scan A once; the norm on them scans nothing
    calls.clear()
    _x_commutator_norm(opalg.evolve(h.matrix(), 0, 0.5), 3)
    assert calls == [(64, 64)]


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_commutator_and_truncation_norms_peak_below_one_full_space_matrix():
    # n = 10 XXZ: the block commutator and the per-piece truncation trace norm
    # each peak below one dim^2 complex array (16 MB); the dense commutator, or
    # the two dense exponentials with their difference, would not fit under it
    h = chain.build_chain(10, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.01, seed=0)
    spec = opalg.hermitian_eig(h.matrix())
    a_t = opalg.evolve(spec, 0, 1.0)
    htc = chain.truncate(h, [0], [9], 2)
    spectra = spec, opalg.hermitian_eig(htc.matrix())
    one_matrix = a_t.nbytes
    assert one_matrix == 16 * 2**20
    assert _traced_peak(lambda: _x_commutator_norm(a_t, 3)) < one_matrix
    assert _traced_peak(lambda: chain.truncation_error_report(h, htc, 0.3, spectra)) < one_matrix


def _eigvalsh_spy(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kw):
        calls.append((a.shape[0], np.iscomplexobj(a)))
        return eigvalsh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


def test_lr_certify_makes_two_quarter_dimension_calls_per_row(monkeypatch):
    h = chain.build_chain(10, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.5, seed=2)
    t_grid, r_grid = (0.0, 0.5, 1.0), (1, 3, 6)
    calls = _eigvalsh_spy(monkeypatch)
    rep = locality.lr_certify(h, t_grid, r_grid)
    assert all(row.ok for row in rep.rows) and len(rep.rows) == 9
    # each t > 0 row takes the even parity block alone and norms it on its two
    # F halves; the t = 0 commutators vanish and split into popcount blocks
    assert calls.count((256, True)) == 12
    assert (512, True) not in calls
    assert max(dim for dim, _ in calls) == 256
