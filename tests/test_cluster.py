import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gibbschain import chain, cluster, opalg, oracles, profiles, qbp
from gibbschain.errors import (
    CapExceeded,
    NotCommuting,
    NotPSD,
    NotUnitNorm,
    OverlappingSupports,
)
from reference_oracles import (
    correlation,
    embed_matrix,
    gibbs_state,
    replace_terms,
    trace_of_product,
)


def rand_herm(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def swap_matrix(dim):
    """Factor-exchange unitary on the doubled space."""
    s = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            s[i * dim + j, j * dim + i] = 1.0
    return s


def double(op, kind, n):
    """O^(+), O^(0) or O^(1) of an operator embedded on n sites, as a kron matrix."""
    full = embed_matrix(op.matrix, op.sites, n)
    eye = np.eye(full.shape[0])
    sign = {"plus": 1.0, "zero": 0.0, "one": -1.0}[kind]
    return np.kron(full, eye) + sign * np.kron(eye, full)


def psi_matrix(probe, n):
    """The materialized probe O_X^(0) O_Y^(1) on the doubled space of n sites."""
    return double(probe.o_x, "zero", n) @ double(probe.o_y, "one", n)


def kron_disconnected_trace(z_ops, o_x, o_y, n):
    """tr[prod_i Z_i^(+) O_X^(0) O_Y^(1)] from the materialized doubled matrices."""
    acc = np.eye(4**n, dtype=complex)
    for z in z_ops:
        acc = acc @ double(z, "plus", n)
    return complex(np.trace(acc @ psi_matrix(cluster.PsiOperator(o_x, o_y), n)))


def test_double_identity_cases():
    eye = opalg.DenseOperator((1,), np.eye(2))
    assert np.allclose(double(eye, "one", 2), 0.0)
    assert np.allclose(double(eye, "plus", 2), 2 * np.eye(16))
    z = opalg.single_site(opalg.pauli("z"), 0)
    assert opalg.opnorm(double(z, "zero", 2)) == pytest.approx(1.0)
    assert opalg.opnorm(double(z, "one", 2)) <= 2.0 + 1e-12


def test_double_swap_symmetry():
    rng = np.random.default_rng(0)
    op = opalg.DenseOperator((0,), rand_herm(rng, 2))
    s = swap_matrix(2)
    plus = double(op, "plus", 1)
    one = double(op, "one", 1)
    assert np.allclose(s @ plus @ s, plus)
    assert np.allclose(s @ one @ s, -one)


def test_psi_norm_and_validation():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rand_herm(rng, 2)
        a /= opalg.opnorm(a)
        b = rand_herm(rng, 2)
        b /= opalg.opnorm(b)
        probe = cluster.psi(opalg.DenseOperator((0,), a), opalg.DenseOperator((3,), b))
        assert opalg.opnorm(psi_matrix(probe, 4)) <= 2.0 + 1e-10
    with pytest.raises(OverlappingSupports):
        cluster.psi(opalg.single_site(opalg.pauli("x"), 1),
                    opalg.single_site(opalg.pauli("y"), 1))
    with pytest.raises(NotUnitNorm):
        cluster.psi(opalg.DenseOperator((0,), 2 * np.eye(2)),
                    opalg.single_site(opalg.pauli("x"), 1))


def test_psi_identity_second_factor_vanishes():
    probe = cluster.psi(opalg.single_site(opalg.pauli("x"), 0),
                        opalg.DenseOperator((2,), np.eye(2)))
    assert np.max(np.abs(psi_matrix(probe, 3))) < 1e-14


def test_psi_expectation_reproduces_correlation():
    rng = np.random.default_rng(2)
    h = rand_herm(rng, 16)
    beta = 0.9
    rho = gibbs_state(h, beta)
    ox = opalg.single_site(opalg.pauli("x"), 0)
    oy = opalg.single_site(opalg.pauli("y"), 3)
    probe = cluster.psi(ox, oy)
    factorized = probe.expectation(rho)
    direct = correlation(rho, ox, oy)
    assert factorized == pytest.approx(direct, abs=1e-12)
    # and the same number from the materialized doubled operators
    doubled = np.kron(rho, rho) @ psi_matrix(probe, 4)
    assert np.trace(doubled) == pytest.approx(direct, abs=1e-12)


def test_disconnected_trace_zero_and_counterexample():
    rng = np.random.default_rng(3)
    n = 4
    ox = opalg.single_site(opalg.pauli("x"), 0)
    oy = opalg.single_site(opalg.pauli("y"), n - 1)
    # no clusters at all: antisymmetry alone kills the trace
    res0 = cluster.disconnected_trace([], ox, oy, n)
    assert res0.disconnected and abs(res0.value) < 1e-10 * res0.scale
    # one cluster overlapping the X side only
    z1 = opalg.DenseOperator((0, 1), rand_herm(rng, 4))
    res1 = cluster.disconnected_trace([z1], ox, oy, n)
    assert res1.disconnected and abs(res1.value) < 1e-10 * res1.scale
    # bridging chain of clusters: checker flags it, value is generic
    zs = [opalg.DenseOperator((0, 1), rand_herm(rng, 4)),
          opalg.DenseOperator((1, 2), rand_herm(rng, 4)),
          opalg.DenseOperator((2, 3), rand_herm(rng, 4))]
    res2 = cluster.disconnected_trace(zs, ox, oy, n)
    assert not res2.disconnected
    assert abs(res2.value) > 1e-10 * res2.scale


def test_disconnected_trace_above_doubled_dimension_4096():
    # the factorized form builds no doubled matrix, so a doubled dimension of
    # 4^7 = 16384 is no limit
    rng = np.random.default_rng(5)
    n = 7
    ox = opalg.single_site(opalg.pauli("x"), 0)
    oy = opalg.single_site(opalg.pauli("y"), n - 1)
    for z_ops in ([], [opalg.DenseOperator((0, 1), rand_herm(rng, 4))]):
        res = cluster.disconnected_trace(z_ops, ox, oy, n)
        assert res.disconnected and abs(res.value) < 1e-10 * res.scale


@st.composite
def trace_cases(draw):
    """Disjoint probe supports and random non-Hermitian clusters on n <= 4 sites."""
    n = draw(st.integers(2, 4))
    x = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    y = draw(st.sets(st.sampled_from(sorted(set(range(n)) - x)), min_size=1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def op(sites):
        d = 2 ** len(sites)
        return opalg.DenseOperator(
            tuple(sites), rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        )

    z_ops = [op(draw(st.permutations(range(n)))[: draw(st.integers(1, min(n, 2)))])
             for _ in range(draw(st.integers(0, 3)))]
    return n, op(sorted(x)), op(sorted(y)), z_ops


@settings(max_examples=60, deadline=None)
@given(trace_cases())
def test_disconnected_trace_matches_kron_oracle(case):
    n, ox, oy, z_ops = case
    res = cluster.disconnected_trace(z_ops, ox, oy, n)
    assert abs(res.value - kron_disconnected_trace(z_ops, ox, oy, n)) <= 1e-12 * res.scale
    if res.disconnected:
        assert abs(res.value) <= 1e-12 * res.scale


def split_by_assignment(x_sites, y_sites, z_supports):
    """Brute force: some X-side/Y-side assignment of the Z's has disjoint unions."""
    for sides in itertools.product((0, 1), repeat=len(z_supports)):
        left, right = set(x_sites), set(y_sites)
        for side, z in zip(sides, z_supports):
            (right if side else left).update(z)
        if not left & right:
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.sets(st.integers(0, n - 1), min_size=1),
    st.sets(st.integers(0, n - 1), min_size=1),
    st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=6),
)))
def test_supports_split_matches_brute_force(case):
    x, y, zs = case
    assert cluster.supports_split(x, y, zs) == split_by_assignment(x, y, zs)


def _truncated(n=6, gen="random_two_site", coupling=0.4, seed=7, block_len=2, J=None):
    prof = profiles.finite_range(1) if gen == "ising_zz" else profiles.power_law(3.0)
    h = chain.build_chain(n, gen, prof, coupling=coupling, seed=seed)
    return chain.truncate(h, [0], [n - 1], block_len)


def test_g_operator_trivial_cases():
    htc = _truncated()
    beta = 0.7
    h_mat = htc.matrix()
    g0 = cluster.g_operator(h_mat, [], beta)
    assert np.allclose(g0, opalg.herm_expm(h_mat, beta))
    zero_bond = np.zeros_like(h_mat)
    g1 = cluster.g_operator(h_mat, [zero_bond], beta)
    assert np.max(np.abs(g1)) < 1e-12
    with pytest.raises(CapExceeded):
        cluster.g_operator(h_mat, [zero_bond] * 9, beta)


def test_g_operator_single_bond_difference():
    htc = _truncated()
    beta = 0.6
    b0 = htc.bond_matrix(0)
    g = cluster.g_operator(htc.matrix(), [b0], beta)
    expected = opalg.herm_expm(htc.matrix(), beta) - opalg.herm_expm(htc.matrix() - b0, beta)
    assert np.max(np.abs(g - expected)) < 1e-12


def test_g_operator_lambda_vs_nested():
    htc = _truncated()
    beta = 0.8
    for subset in ((0,), (0, 1), (1, 2)):
        bonds = [htc.bond_matrix(s) for s in subset]
        a = cluster.g_operator(htc.matrix(), bonds, beta)
        b = cluster.g_operator_nested(htc.matrix(), bonds, beta)
        assert opalg.opnorm(a - b) <= 1e-12 * max(opalg.opnorm(b), 1.0)


def test_g_operator_integral_oracle_single():
    # independent oracle: integrate the exact directional derivative of the
    # exponential over the bond coupling with Gauss nodes
    htc = _truncated(n=6, block_len=1)
    beta = 0.7
    h_mat = htc.matrix()
    b = htc.bond_matrix(1)
    xs, ws = np.polynomial.legendre.leggauss(40)
    lam = 0.5 * (xs + 1.0)
    w = 0.5 * ws
    acc = np.zeros_like(h_mat, dtype=complex)
    for lk, wk in zip(lam, w):
        evals, vecs = np.linalg.eigh(h_mat - (1 - lk) * b)
        bt = vecs.conj().T @ (beta * b) @ vecs
        e = beta * evals
        de = e[:, None] - e[None, :]
        ratio = np.where(np.abs(de) < 1e-12, np.exp(e)[:, None] * np.ones_like(de),
                         (np.exp(e)[:, None] - np.exp(e)[None, :]) / np.where(np.abs(de) < 1e-12, 1.0, de))
        acc += wk * (vecs @ (ratio * bt) @ vecs.conj().T)
    g = cluster.g_operator(h_mat, [b], beta)
    assert opalg.opnorm(g - acc) <= 1e-9 * max(opalg.opnorm(g), 1.0)


def test_g_operator_integral_oracle_double():
    # central finite differences in both couplings, integrated over the square
    htc = _truncated(n=6, block_len=1)
    beta = 0.5
    h_mat = htc.matrix()
    b1, b2 = htc.bond_matrix(0), htc.bond_matrix(1)
    xs, ws = np.polynomial.legendre.leggauss(12)
    lam = 0.5 * (xs + 1.0)
    w = 0.5 * ws
    step = 1e-4
    acc = np.zeros_like(h_mat, dtype=complex)

    def e(l1, l2):
        return opalg.herm_expm(h_mat - (1 - l1) * b1 - (1 - l2) * b2, beta)

    for l1, w1 in zip(lam, w):
        for l2, w2 in zip(lam, w):
            mixed = (
                e(l1 + step, l2 + step) - e(l1 + step, l2 - step)
                - e(l1 - step, l2 + step) + e(l1 - step, l2 - step)
            ) / (4 * step**2)
            acc += w1 * w2 * mixed
    g = cluster.g_operator(h_mat, [b1, b2], beta)
    assert opalg.opnorm(g - acc) <= 1e-5 * max(opalg.opnorm(g), 1.0)


def test_commuting_factorization():
    htc = _truncated(gen="ising_zz", coupling=1.0, block_len=1)
    beta = 0.9
    bonds = [htc.bond_matrix(s) for s in range(htc.q + 1)]
    g = cluster.g_operator(htc.matrix(), bonds, beta)
    v_total = htc.matrix() - sum(bonds)
    prod = opalg.herm_expm(v_total, beta)
    dim = prod.shape[0]
    for b in bonds:
        prod = prod @ (opalg.herm_expm(b, beta) - np.eye(dim))
    assert opalg.opnorm(g - prod) <= 1e-10 * max(opalg.opnorm(prod), 1.0)


def test_identity_residual_beta_zero_and_small():
    htc = _truncated()
    ox = opalg.single_site(opalg.pauli("x"), 0)
    oy = opalg.single_site(opalg.pauli("x"), 5)
    rep0 = cluster.correlation_identity_residual(htc, ox, oy, 0.0)
    assert rep0.residual < 1e-14
    rep = cluster.correlation_identity_residual(htc, ox, oy, 1.0)
    assert rep.residual <= 1e-8
    assert rep.cor_abs == pytest.approx(rep.psi_g_over_z, abs=1e-12)


def test_identity_residual_checks_branch_cap_before_any_exponential(monkeypatch):
    # q = 6 interior blocks: q + 1 = 7 boundary bonds, 2^7 branches > BRANCH_CAP
    htc = _truncated(gen="ising_zz", coupling=1.0, block_len=1, n=8)
    assert htc.q + 1 == 7

    def no_branch(*args, **kw):
        raise AssertionError("a branch exponential was built")

    monkeypatch.setattr(opalg, "herm_expm", no_branch)
    ox = opalg.single_site(opalg.pauli("z"), 0)
    oy = opalg.single_site(opalg.pauli("z"), 7)
    with pytest.raises(CapExceeded):
        cluster.correlation_identity_residual(htc, ox, oy, 1.0)


def test_commuting_chain_bound_oracle():
    htc = _truncated(gen="ising_zz", coupling=1.0, block_len=1, n=8)
    assert (htc.blocks[0][-1], htc.blocks[-1][0]) == (0, 7)  # the Z probes' sites
    for beta in (0.5, 1.0):
        rep = cluster.commuting_chain_bound(htc, beta)
        oracle = abs(oracles.ising_transfer_correlation(8, 1.0, beta, 0, 7))
        assert rep.exact_cor == pytest.approx(oracle, abs=1e-12)
        assert rep.exact_cor <= rep.product_bound <= rep.final_bound + 1e-12
        assert rep.exact_cor == pytest.approx(math.tanh(beta) ** 7, abs=1e-12)
    with pytest.raises(NotCommuting):
        cluster.commuting_chain_bound(_truncated(), 0.5)


def test_positivity_shift():
    rng = np.random.default_rng(4)
    # B = 0 keeps the difference positive for any nonnegative shift
    a = rand_herm(rng, 6)
    a = a @ a.conj().T
    rep = cluster.verify_positivity_shift(a, np.zeros((6, 6)), 0.3)
    assert rep.passed
    for _ in range(20):
        dim = int(rng.integers(2, 17))
        aa = rand_herm(rng, dim)
        aa = aa @ aa.conj().T / dim
        bb = rand_herm(rng, dim)
        bb = bb @ bb.conj().T / dim
        assert cluster.verify_positivity_shift(aa, bb, opalg.opnorm(aa)).passed
    counter = cluster.verify_positivity_shift(np.diag([0.0, 10.0]), np.ones((2, 2)), 1.0)
    assert counter.min_eig < -1.0
    with pytest.raises(NotPSD):
        cluster.verify_positivity_shift(-np.eye(2), np.eye(2), 1.0)


def test_weighted_product_scalar_equality():
    # scalar weights give exact equality between the two sides
    n = 3
    rng = np.random.default_rng(5)
    rho = rand_herm(rng, 8)
    rho = rho @ rho.conj().T
    psi = rng.standard_normal(2)
    c1, c2 = 1.7, 0.4
    ws = [c1 * np.eye(4), c2 * np.eye(4)]
    rep = cluster.verify_weighted_product(ws, rho, psi, (0, 1))
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)
    assert rep.passed


def test_weighted_product_random_draws():
    rng = np.random.default_rng(6)
    for k in range(30):
        n = 3 + k % 2
        m = 1 + k % 3
        ws = [np.diag(rng.uniform(0, 2.5, size=4)) for _ in range(m)]
        rho = rand_herm(rng, 2**n)
        rho = rho @ rho.conj().T
        psi = rng.standard_normal(2 ** (n - 2)) + 1j * rng.standard_normal(2 ** (n - 2))
        rep = cluster.verify_weighted_product(ws, rho, psi, (0, 1))
        assert rep.passed
    w1 = np.array([[1.0, 0.5], [0.5, 1.0]])
    w2 = np.diag([0.2, 2.0])
    with pytest.raises(NotCommuting):
        cluster.verify_weighted_product([w1, w2], np.eye(8), np.ones(4), (0,))


def test_weighted_product_tolerance_is_keyword_only():
    # the chain's site count comes from rho; a stale positional n is rejected
    with pytest.raises(TypeError):
        cluster.verify_weighted_product([np.eye(4)], np.eye(8), np.ones(2), (0, 1), 3)


def test_weighted_product_commutation_is_relative_at_small_norms():
    # ||i[W1, W2]|| = 5e-15 would pass an absolute 1e-12 floor, but it is 6e-9
    # of ||W1|| ||W2|| = 9e-7, so the scale-invariant test rejects it
    a = np.diag([1.0, 0.5, 0.2, 0.1])
    off = np.zeros((4, 4))
    off[0, 1] = off[1, 0] = 1e-8
    b = np.diag([0.3, 0.9, 0.4, 0.7]) + off
    s = 1e-3
    with pytest.raises(NotCommuting):
        cluster.verify_weighted_product([s * a, s * b], np.eye(8), np.ones(2), (0, 1))
    # exactly commuting factors at the same scale still pass
    rep = cluster.verify_weighted_product([s * a, s * np.diag(np.diag(b))], np.eye(8),
                                          np.ones(2), (0, 1))
    assert rep.passed


def test_gamma_pair_trivial_and_factorized():
    htc = _truncated(gen="ising_zz", coupling=1.0, block_len=1)
    cd = chain.center_decomposition(htc, 2, 1)
    ox = opalg.single_site(opalg.pauli("z"), 0)
    oy = opalg.single_site(opalg.pauli("z"), 5)
    beta = 0.7
    (rep,) = cluster.gamma_pair(htc, cd, (beta,), ox, oy, tau_steps=16)
    assert rep.factorization_residual <= 1e-10
    # the probe trace of the exact alternating sum reproduces the correlation
    pops = opalg.gibbs_populations(htc.matrix(), beta)
    assert exact_gamma_trace(htc, cd, beta, ox, oy) / rep.z2 == pytest.approx(
        abs(opalg.zz_correlation(pops, 0, 5)), abs=1e-10
    )


def test_gamma_pair_zero_bonds_vanish():
    # build a chain whose center bonds vanish: far-separated interactions only
    h = chain.build_chain(6, "ising_zz", profiles.finite_range(1), coupling=1.0, seed=0)
    # drop the two center bonds by hand to make the bundles empty
    kept = tuple(t for t in h.terms if t.sites not in ((1, 2), (3, 4)))
    h2 = replace_terms(h, kept)
    htc = chain.truncate(h2, [0], [5], 1)
    cd = chain.center_decomposition(htc, 2, 1)
    assert all(len(b) == 0 for b in cd.bond_bundles)
    ox = opalg.single_site(opalg.pauli("z"), 0)
    oy = opalg.single_site(opalg.pauli("z"), 5)
    (rep,) = cluster.gamma_pair(htc, cd, (0.8,), ox, oy, tau_steps=4)
    assert exact_gamma_trace(htc, cd, 0.8, ox, oy) < 1e-12
    assert rep.psi_trace_gamma_local < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gamma_pair_makes_one_full_space_exponential_per_beta(m, monkeypatch):
    # x = {0, 1}, y = {n - 1}: H_0 and H are the only full-space spectra, taken
    # once for every beta, and e^{beta H_0} the only full-space exponential of
    # each beta (Z is summed from H's eigenvalues); the exact Gamma's 2^m
    # branches are never formed
    n = 3 + 2 * m
    h = chain.build_chain(n, "ising_zz", profiles.finite_range(1), coupling=1.0, seed=0)
    htc = chain.truncate(h, [0, 1], [n - 1], 1)
    cd = chain.center_decomposition(htc, m, 1)
    ox = opalg.single_site(opalg.pauli("z"), 0)
    oy = opalg.single_site(opalg.pauli("z"), n - 1)
    dims, eig_dims = [], []
    herm_expm, hermitian_eig = opalg.herm_expm, opalg.hermitian_eig

    def spy(a, scale=1.0):
        dims.append(a.layout.dim if isinstance(a, opalg.Spectrum) else a.shape[0])
        return herm_expm(a, scale)

    def eig_spy(a):
        eig_dims.append(a.shape[0])
        return hermitian_eig(a)

    # the Ising window bonds are diagonal and commute with their windows: their
    # BP operators are closed forms, built with no eigensolver call
    in_sweep, solver_calls = [], []
    localized_sweep = qbp.localized_sweep

    def sweep_spy(*args, **kw):
        in_sweep.append(True)
        try:
            return localized_sweep(*args, **kw)
        finally:
            in_sweep.pop()

    def solver_spy(solver):
        def call(a, *args, **kw):
            if in_sweep:
                solver_calls.append((solver.__name__, a.shape[0]))
            return solver(a, *args, **kw)
        return call

    monkeypatch.setattr(opalg, "herm_expm", spy)
    monkeypatch.setattr(opalg, "hermitian_eig", eig_spy)
    monkeypatch.setattr(qbp, "localized_sweep", sweep_spy)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, solver_spy(getattr(np.linalg, name)))
    for betas in ((0.8,), (0.5, 0.8, 1.1)):
        dims.clear()
        eig_dims.clear()
        reports = cluster.gamma_pair(htc, cd, betas, ox, oy, tau_steps=4)
        assert len(reports) == len(betas)
        assert eig_dims.count(2**n) == 2
        assert dims.count(2**n) == len(betas)
    assert solver_calls == []


@pytest.mark.parametrize("gen", ["ising_zz", "random_two_site"])
def test_gamma_pair_over_betas_equals_one_beta_calls(gen):
    # one build per Hamiltonian and per window serves every beta, bit for bit
    prof = profiles.finite_range(1) if gen == "ising_zz" else profiles.power_law(3.0)
    h = chain.build_chain(7, gen, prof, coupling=0.4, seed=3)
    htc = chain.truncate(h, [0, 1], [6], 1)
    cd = chain.center_decomposition(htc, 2, 1)
    ox = opalg.single_site(opalg.pauli("z"), 0)
    oy = opalg.single_site(opalg.pauli("z"), 6)
    betas = (0.5, 0.9, 1.4)
    swept = cluster.gamma_pair(htc, cd, betas, ox, oy, tau_steps=4)
    ones = [cluster.gamma_pair(htc, cd, (beta,), ox, oy, tau_steps=4)[0] for beta in betas]
    assert len(swept) == len(betas)
    assert [repr(rep) for rep in swept] == [repr(rep) for rep in ones]


def exact_gamma_trace(h_tc, centers, beta, o_x, o_y):
    """|tr[Psi Gamma]| for the exact alternating sum over the center bonds."""
    probe = cluster.psi(o_x, o_y)
    bonds = [centers.bond_matrix(j) for j in range(centers.m)]
    total = 0.0 + 0.0j
    for _, sign, e_lam in cluster._branch_exponentials(h_tc.matrix(), bonds, beta):
        total += sign * probe.expectation(e_lam)
    return abs(total)


def embedded_bp(h_tc, centers, j, beta, tau_steps):
    """The window BP operator of center bond j, embedded on the full chain."""
    op = qbp.localized_sweep(h_tc, centers.centers[j], centers.blocks[j + 1], (beta,),
                             tau_steps=tau_steps)[0]
    return embed_matrix(op.matrix, op.sites, h_tc.n)


def dense_gamma_pair_traces(h_tc, centers, beta, o_x, o_y, tau_steps):
    """(tr[Psi Gamma-tilde], product form) by dense products of embedded BP operators.

    M_lam = B_lam e^{beta H_0} B_lam^dag with B_lam the identity-seeded product
    of the embedded window operators in lam; the product form takes
    K_S e^{beta H_0} with K_S the product of the embedded K_j = B_j^dag B_j.
    """
    probe = cluster.psi(o_x, o_y)
    h_mat = h_tc.matrix()
    dim = h_mat.shape[0]
    bonds = [centers.bond_matrix(j) for j in range(centers.m)]
    local_ops = [embedded_bp(h_tc, centers, j, beta, tau_steps) for j in range(centers.m)]
    e0 = opalg.herm_expm(h_mat - sum(bonds), beta)
    k_ops = [o.conj().T @ o for o in local_ops]
    tr_local = tr_product = 0.0 + 0.0j
    for lam, sign in cluster.lambda_branches(centers.m):
        b_lam = np.eye(dim, dtype=complex)
        kb = np.eye(dim, dtype=complex)
        for op, k, l in zip(local_ops, k_ops, lam):
            if l:
                b_lam = b_lam @ op
                kb = kb @ k
        tr_local += sign * probe.expectation(b_lam @ e0 @ b_lam.conj().T)
        tr_product += sign * probe.expectation(kb @ e0)
    return tr_local, tr_product


@pytest.mark.parametrize("gen", ["ising_zz", "random_two_site"])
@pytest.mark.parametrize("n, half_width", [(5, 1), (7, 1), (7, 2)])
def test_gamma_pair_matches_dense_products(gen, n, half_width, monkeypatch):
    # x = {0, 1}, y = {n - 1}: (n - 3) / (2 half_width) center blocks; the
    # 4-site windows of half_width 2 give non-normal BP operators on random chains
    prof = profiles.finite_range(1) if gen == "ising_zz" else profiles.power_law(3.0)
    h = chain.build_chain(n, gen, prof, coupling=0.4, seed=3)
    htc = chain.truncate(h, [0, 1], [n - 1], 1)
    cd = chain.center_decomposition(htc, (n - 3) // (2 * half_width), half_width)
    ox = opalg.single_site(opalg.pauli("z"), 0)
    oy = opalg.single_site(opalg.pauli("z"), n - 1)
    beta = 0.9
    ref_local, ref_product = dense_gamma_pair_traces(htc, cd, beta, ox, oy, 8)

    # the product form is the signed sum of the last 2^m probe traces
    seen = []
    expectation = cluster.PsiOperator.expectation

    def spy(self, a, b=None):
        seen.append(expectation(self, a, b))
        return seen[-1]

    monkeypatch.setattr(cluster.PsiOperator, "expectation", spy)
    (rep,) = cluster.gamma_pair(htc, cd, (beta,), ox, oy, tau_steps=8)
    branches = cluster.lambda_branches(cd.m)
    product = sum(sign * v for (_, sign), v in zip(branches, seen[-len(branches):]))

    # each probe trace is a connected correlation formed from trace products of
    # size ~z^2, so its rounding floor is ~1e-16 z^2 whatever its value (at n = 7
    # on random_two_site, ~1e-6 z^2, the two dense forms differ by 4e-12 relative)
    def close(value, ref):
        return abs(value - ref) <= 1e-12 * abs(ref) + 1e-15 * rep.z2

    assert close(rep.psi_trace_gamma_local, abs(ref_local))
    assert close(product, ref_product)
    # the joint probe trace: the kron of the factors on their joint support is O_X O_Y
    xy = embed_matrix(ox.matrix, ox.sites, n) @ embed_matrix(oy.matrix, oy.sites, n)
    h_mat = htc.matrix()
    assert (opalg.local_trace(np.kron(ox.matrix, oy.matrix), ox.sites + oy.sites, h_mat)
            == trace_of_product(xy, h_mat))


def kron_gamma_diff_trace_norm(h_tc, centers, beta, tau_steps):
    """||Gamma - Gamma-tilde||_1 from the materialized doubled matrices.

    Gamma = sum_lam sign e^{beta H_lam} (x) e^{beta H_lam}; Gamma-tilde puts
    M_lam = B_lam e^{beta H_0} B_lam^dag in place of e^{beta H_lam}, with B_lam
    the product of the window-localized BP operators of the bonds in lam.
    """
    h_mat = h_tc.matrix()
    dim = h_mat.shape[0]
    bonds = [centers.bond_matrix(j) for j in range(centers.m)]
    local_ops = [embedded_bp(h_tc, centers, j, beta, tau_steps) for j in range(centers.m)]
    e0 = opalg.herm_expm(h_mat - sum(bonds), beta)
    diff = np.zeros((dim * dim, dim * dim), dtype=complex)
    for lam, sign in cluster.lambda_branches(centers.m):
        e_lam = opalg.herm_expm(h_mat - sum((1 - l) * b for l, b in zip(lam, bonds)), beta)
        b_lam = np.eye(dim, dtype=complex)
        for op, l in zip(local_ops, lam):
            if l:
                b_lam = b_lam @ op
        m_lam = b_lam @ e0 @ b_lam.conj().T
        diff += sign * (np.kron(e_lam, e_lam) - np.kron(m_lam, m_lam))
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def test_gamma_pair_diff_trace_norm_small_on_commuting():
    htc = _truncated(gen="ising_zz", coupling=1.0, block_len=1, n=4)
    cd = chain.center_decomposition(htc, 1, 1)
    ox = opalg.single_site(opalg.pauli("z"), 0)
    oy = opalg.single_site(opalg.pauli("z"), 3)
    beta = 0.6
    (rep,) = cluster.gamma_pair(htc, cd, (beta,), ox, oy, tau_steps=16)
    # commuting case: the localized construction is numerically exact
    assert kron_gamma_diff_trace_norm(htc, cd, beta, 16) <= 1e-7 * rep.z2


def test_product_bound_small_beta_scaling():
    htc = _truncated(gen="ising_zz", coupling=1.0, block_len=1, n=6)
    norms = [htc.bond_norm(s) for s in range(htc.q + 1)]
    leading = 2.0 * math.prod(2.0 * h for h in norms)
    for beta in (1e-4, 1e-5):
        rep = cluster.commuting_chain_bound(htc, beta)
        # product bound vanishes at leading order beta^(q+1)
        assert rep.product_bound / beta ** (htc.q + 1) == pytest.approx(leading, rel=1e-3)


def test_final_bound_is_two_where_its_exponent_overflows():
    # 2 beta gt = 792: e^{2 beta gt} is past float range, and the bound is its limit 2
    h = chain.build_chain(6, "ising_zz", profiles.power_law(3.0), coupling=4.0)
    htc = chain.truncate(h, [0], [5], 1)
    assert 2.0 * 8.0 * h.g_tilde > 709.8
    for beta in (3.0, 8.0):
        rep = cluster.commuting_chain_bound(htc, beta)
        assert rep.final_bound == 2.0
        assert rep.product_ok and rep.final_ok


@st.composite
def commuting_chains(draw):
    """(n, profile, (x_width, y_width, block_len)) inside the theorem's domain:
    alpha > 2 and every profile parameter finite and > 0.  stretched_exp keeps
    kappa, c >= 0.5, where build_chain can sum its tail (below that it raises
    NonConvergentTail, a defect of the tail sum, not of this bound)."""
    n = draw(st.sampled_from((4, 6, 8)))
    profile = draw(st.one_of(
        st.integers(1, n - 1).map(profiles.finite_range),
        st.floats(2.0, 8.0, exclude_min=True).map(profiles.power_law),
        st.floats(1e-3, 5.0).map(profiles.exponential),
        st.builds(profiles.stretched_exp, st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    ))
    geometry = draw(st.sampled_from([
        (nx, ny, l0) for nx in (1, 2) for ny in (1, 2) for l0 in (1, 2, 3)
        if n - nx - ny >= 2 * l0 and (n - nx - ny) % (2 * l0) == 0
    ]))
    return n, profile, geometry


# e^{2 beta gt} overflowed here (gt = 3.6e3): final_bound raised OverflowError
@example((8, profiles.finite_range(6), (2, 2, 2)), 0.5794097439550014, 0.3164858387106886)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(commuting_chains(), st.floats(0.05, 1.5), st.floats(0.0, 3.0, exclude_min=True))
def test_commuting_chain_bound_holds_on_random_ising_chains(draw, coupling, beta):
    n, profile, (nx, ny, l0) = draw
    h = chain.build_chain(n, "ising_zz", profile, coupling=coupling, seed=0)
    rep = cluster.commuting_chain_bound(chain.truncate(h, range(nx), range(n - ny, n), l0), beta)
    assert rep.exact_cor <= rep.product_bound + 1e-10 <= rep.final_bound + 1e-10
    assert rep.product_ok and rep.final_ok


def test_commuting_trace_inequality_dense():
    htc = _truncated(gen="ising_zz", coupling=1.0, block_len=2, n=6)
    beta = 0.8
    bonds = [htc.bond_matrix(s) for s in range(htc.q + 1)]
    v_total = htc.matrix() - sum(bonds)
    dim = v_total.shape[0]
    prod = opalg.herm_expm(v_total, beta)
    for b in bonds:
        prod = prod @ (opalg.herm_expm(b, beta) - np.eye(dim))
    lhs = float(np.trace(prod).real)
    rhs = float(np.trace(opalg.herm_expm(htc.matrix(), beta)).real)
    for b in bonds:
        nb = opalg.opnorm(b)
        rhs *= -math.expm1(-beta * nb)
    assert 0.0 <= lhs <= rhs * (1 + 1e-12)
