import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from gibbschain import chain, opalg, profiles, qbp
from gibbschain.errors import (
    GeometryError,
    NonConvergence,
    PreconditionViolated,
    ToleranceUnreachable,
)
from reference_oracles import (
    SingularPoint,
    build_truncated_bp,
    embed_matrix,
    filter_value,
    gibbs_state,
    ordered_exponentials_two_rules,
    partial_trace,
    reconstruction_residual,
    spectral_filter_direct,
    theta_lines_by_search,
)


@pytest.fixture(scope="module")
def scheme1():
    return qbp.filter_quadrature(1.0, 1e-9)


def test_filter_value_symmetry_and_singularity():
    for t in (0.3, 1.0, 4.2):
        v1, _ = filter_value(1.3, t)
        v2, _ = filter_value(1.3, -t)
        assert v1 == v2
    with pytest.raises(SingularPoint):
        filter_value(1.0, 0.0)


def test_filter_value_frozen_point():
    # (2/pi) log((e^pi + 1)/(e^pi - 1)), evaluated independently
    v, _ = filter_value(1.0, 1.0)
    assert v == pytest.approx(0.05505595798253517, rel=1e-12)


def test_filter_tail_bound_dominates():
    for beta in (0.5, 1.0, 2.0):
        for t in np.linspace(beta, 8 * beta, 40):
            v, tail = filter_value(beta, t)
            assert v <= tail


def test_quadrature_normalization_and_moment(scheme1):
    assert abs(scheme1.normalization() - 1.0) <= 1e-9
    assert abs(scheme1.first_moment() - qbp.FILTER_FIRST_MOMENT) <= 1e-6


def test_quadrature_refinement_monotone():
    errs = []
    for eps in (1e-3, 1e-4, 1e-5, 1e-6):
        s = qbp.filter_quadrature(0.8, eps)
        errs.append(abs(s.normalization() - 1.0))
    assert all(a >= b - 1e-16 for a, b in zip(errs, errs[1:]))


def test_quadrature_eps_validation_and_budget(monkeypatch):
    with pytest.raises(ValueError):
        qbp.filter_quadrature(1.0, 0.5)
    monkeypatch.setattr(qbp, "MAX_NODES", 100)
    with pytest.raises(ToleranceUnreachable):
        qbp.filter_quadrature(1.0, 1e-9)


def test_legendre_nodes_built_once_and_read_only():
    x, w = qbp._legendre(qbp.PANEL_ORDER)
    assert qbp._legendre(qbp.PANEL_ORDER)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_filter_quadrature_equals_per_panel_leggauss_build(beta, monkeypatch):
    cached = qbp.filter_quadrature(beta, 1e-9)
    monkeypatch.setattr(qbp, "_legendre", leggauss)
    fresh = qbp.filter_quadrature(beta, 1e-9)
    assert cached.nodes.tobytes() == fresh.nodes.tobytes()
    assert cached.weights.tobytes() == fresh.weights.tobytes()


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_transfer_function_matches_node_sum(beta):
    scheme = qbp.filter_quadrature(beta, 1e-9)
    om = np.concatenate([[0.0], np.random.default_rng(0).uniform(-150, 150, size=300)])
    direct = spectral_filter_direct(scheme, om)
    assert np.max(np.abs(direct - qbp.filter_transfer(beta, om))) < 5e-9


def test_transfer_function_at_zero_and_small_argument():
    assert qbp.filter_transfer(1.0, 0.0) == 1.0
    assert np.all(qbp.filter_transfer(0.7, np.zeros((3, 3))) == 1.0)
    x = np.geomspace(1e-20, 1e-8, 200)
    x = np.concatenate([-x, x])
    for beta in (0.5, 1.0, 2.0):
        f = qbp.filter_transfer(beta, 2.0 * x / beta)
        assert np.max(np.abs(f - (1.0 - x**2 / 3.0))) <= 1e-15


def test_transfer_function_even_and_bounded():
    om = np.concatenate([np.geomspace(1e-12, 1e6, 400), np.linspace(0.0, 300.0, 601)])
    for beta in (0.5, 1.0, 2.0):
        f = qbp.filter_transfer(beta, om)
        assert np.array_equal(f, qbp.filter_transfer(beta, -om))
        assert np.all(np.abs(f) <= 1.0)
        assert np.all(f > 0.0)


def test_transfer_function_beyond_old_resolution():
    # the node sum was only designed for |omega| <= 192; the closed form has no cutoff
    for beta in (0.5, 1.0, 2.0):
        x = 0.5 * beta * 1e4
        f = qbp.filter_transfer(beta, np.array([1e4, -1e4]))
        assert np.all(np.isfinite(f))
        # tanh(x) = (1 - e^{-2x}) / (1 + e^{-2x}), evaluated independently
        expected = (-math.expm1(-2.0 * x) / (1.0 + math.exp(-2.0 * x))) / x
        assert f == pytest.approx([expected, expected], rel=1e-15)


def test_scheme_for_other_beta_rejected(scheme1):
    htc = _random_truncated()
    with pytest.raises(ValueError):
        qbp.build_bond_bp(htc, 2, 0.5, scheme=scheme1, tau_steps=4)
    # build_bond_bp is the one builder that still takes a scheme
    with pytest.raises(TypeError):
        qbp.build_bp_sweep(np.eye(4), np.diag([0.0, 1.0, 0.0, 0.0]), (1.0,), scheme=scheme1)
    bp = qbp.build_bond_bp(htc, 2, 1.0, scheme=scheme1, tau_steps=4)
    plain = qbp.build_bond_bp(htc, 2, 1.0, tau_steps=4)
    assert np.array_equal(bp.matrix, plain.matrix)


def _random_truncated(n=6, coupling=0.4, seed=3, block_len=1):
    h = chain.build_chain(n, "random_two_site", profiles.power_law(3.0),
                          coupling=coupling, seed=seed)
    return chain.truncate(h, [0], [n - 1], block_len)


def test_zero_bond_gives_identity():
    # a zero bond is diagonal and commutes with any environment: its closed
    # form is the identity exactly, and a gate measures its residual as 0
    rng = np.random.default_rng(1)
    env = rng.standard_normal((8, 8))
    env = env + env.T
    bp = qbp.build_bp_sweep(env, np.zeros((8, 8)), (1.0,), residual_gate=math.inf)[0]
    assert np.array_equal(bp.matrix, np.eye(8))
    assert bp.reconstruction_residual == 0.0
    assert (bp.bond_norm, bp.phi_norm_max) == (0.0, 0.0)
    # without a gate the residual is left uncomputed, as for any other build
    assert qbp.build_bp_sweep(env, np.zeros((8, 8)), (1.0,))[0].reconstruction_residual is None


def test_commuting_split_closed_form():
    # commuting environment: the operator must reduce to exp(beta h / 2)
    rng = np.random.default_rng(2)
    env = np.diag(rng.standard_normal(8))
    bond = np.diag(rng.uniform(0.0, 1.0, size=8))
    bp = qbp.build_bp_sweep(env, bond, (1.0,), tau_steps=8)[0]
    expected = opalg.herm_expm(bond, 0.5)
    assert np.max(np.abs(bp.matrix - expected)) < 1e-13
    res = reconstruction_residual(bp.matrix, env, bond, 1.0)
    assert res < 1e-13


@st.composite
def commuting_splits(draw):
    """(H_env, h) with h diagonal and [H_env, h] = 0: the bond and environment of
    an ising_zz window or whole chain (n <= 8), or a diagonal bond that is a
    function of total S^z against a whole XXZ chain, which is not diagonal."""
    n = draw(st.integers(4, 8))
    profile = draw(st.one_of(
        st.integers(1, n - 1).map(profiles.finite_range),
        st.floats(2.0, 8.0, exclude_min=True).map(profiles.power_law),
        st.floats(1e-3, 5.0).map(profiles.exponential),
    ))
    coupling, seed = draw(st.floats(0.05, 1.5)), draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        h = chain.build_chain(n, "heisenberg_xxz", profile, coupling=coupling, seed=seed)
        levels = np.random.default_rng(seed).uniform(0.0, 2.0, size=n + 1)
        popcount = [bin(i).count("1") for i in range(2**n)]
        return h.matrix(), np.diag(levels[popcount])
    h = chain.build_chain(n, "ising_zz", profile, coupling=coupling, seed=seed)
    nx, ny, l0 = draw(st.sampled_from([
        (nx, ny, l0) for nx in (1, 2) for ny in (1, 2) for l0 in (1, 2)
        if n - nx - ny >= 2 * l0 and (n - nx - ny) % (2 * l0) == 0
    ]))
    htc = chain.truncate(h, range(nx), range(n - ny, n), l0)
    # a bond bundle reaches at most 2 sites from its cut (blocks of <= 2 sites)
    cut, window = qbp._window_around(htc, draw(st.integers(0, htc.q)), draw(st.integers(2, n)))
    env, bond, _ = qbp._window_split_matrices(htc, cut, window)
    return env, bond


@settings(max_examples=25, deadline=None, derandomize=True)
@given(commuting_splits(), st.lists(st.floats(0.0, 3.0, exclude_min=True), min_size=1,
                                    max_size=2),
       st.sampled_from([8, 12]))
def test_commuting_closed_form_matches_the_tau_sweep(split, betas, tau_steps):
    # the closed form exp(beta h / 2) is the cf4 sweep's limit; no eigensolver runs
    # without a gate, and with one the reconstruction residual sits at roundoff
    env, bond = split
    betas = tuple(betas)
    calls = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kw):
        calls.append(a.shape[0])
        return eigh(a, *args, **kw)

    np.linalg.eigh = spy
    try:
        ops = qbp.build_bp_sweep(env, bond, betas, tau_steps=tau_steps)
    finally:
        np.linalg.eigh = eigh
    assert calls == []
    gated = qbp.build_bp_sweep(env, bond, betas, tau_steps=tau_steps, residual_gate=1.0)
    swept = qbp._ordered_exponentials(env, bond, betas, tau_steps, "cf4")
    bond_norm = opalg.spectral_norm(bond)
    for beta, op, gate_op, (u, phi_max) in zip(betas, ops, gated, swept):
        assert np.array_equal(op.matrix, gate_op.matrix)
        assert np.abs(op.matrix - u).max() <= 1e-12 * np.abs(u).max()
        assert gate_op.reconstruction_residual <= 1e-13
        assert op.reconstruction_residual is None and op.tau_steps == tau_steps
        assert op.bond_norm == pytest.approx(bond_norm, rel=1e-12)
        assert op.phi_norm_max == pytest.approx(phi_max, rel=1e-12)


def test_closed_form_above_its_gate_raises_at_once():
    # doubling tau_steps cannot change a closed form, so a residual above the
    # gate is reported without refinement
    h = chain.build_chain(5, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.25, seed=4)
    bond = np.diag([0.5 * bin(i).count("1") for i in range(32)])
    (op,) = qbp.build_bp_sweep(h.matrix(), bond, (2.0,), tau_steps=4, residual_gate=1e-12)
    assert 0.0 < op.reconstruction_residual <= 1e-13 and op.tau_steps == 4
    with pytest.raises(NonConvergence, match="closed-form residual"):
        qbp.build_bp_sweep(h.matrix(), bond, (2.0,), tau_steps=4,
                           residual_gate=0.5 * op.reconstruction_residual)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_closed_form_is_exp_of_the_diagonal_bit_for_bit(n):
    # each piece's diag(exp(beta h_p / 2)), assembled by the split's layout, is the
    # direct diag(exp(beta h / 2)) of the whole bond, dtype included
    for profile in (profiles.finite_range(1), profiles.power_law(3.0), profiles.exponential(1.0)):
        h = chain.build_chain(n, "ising_zz", profile, coupling=1.0, seed=0)
        htc = chain.truncate(h, [0], [n - 1], 1)
        for s in range(htc.q + 1):
            env, bond, _ = qbp._window_split_matrices(htc, htc.blocks[s][-1], tuple(range(n)))
            for op in qbp.build_bp_sweep(env, bond, (0.5, 2.0)):
                direct = np.diag(np.exp((0.5 * op.beta) * np.diagonal(bond).real))
                assert op.matrix.dtype == direct.dtype
                assert np.array_equal(op.matrix, direct)


def test_infinite_gate_measures_the_residual_and_never_refines(monkeypatch):
    htc = _random_truncated(coupling=0.4, seed=0)
    betas = (0.5, 1.0, 2.0)
    calls = []
    ordered = qbp._ordered_exponentials

    def spy(*args):
        calls.append(args[3])
        return ordered(*args)

    monkeypatch.setattr(qbp, "_ordered_exponentials", spy)
    inf_ops = qbp.bond_sweep(htc, 2, betas, tau_steps=32, residual_gate=math.inf)
    assert calls == [32]
    gated = qbp.bond_sweep(htc, 2, betas, tau_steps=32, residual_gate=1e-6)
    for a, b in zip(inf_ops, gated):
        assert a.reconstruction_residual == b.reconstruction_residual <= 1e-6
        assert np.array_equal(a.matrix, b.matrix) and a.tau_steps == b.tau_steps == 32
    # one midpoint step leaves a residual far above 1e-6: it is reported, not refined
    calls.clear()
    coarse = qbp.bond_sweep(htc, 2, (1.0, 2.0), tau_steps=1, integrator="midpoint",
                            residual_gate=math.inf)
    assert calls == [1]
    assert all(op.tau_steps == 1 and op.reconstruction_residual > 1e-6 for op in coarse)


def test_diagonal_bond_that_does_not_commute_takes_the_sweep(monkeypatch):
    # sigma_z on site 0 is diagonal, but the XXZ hopping flips site 0: [H_env, h] != 0
    h = chain.build_chain(5, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.25, seed=4)
    env = h.matrix()
    bond = np.diag([2.0 if i >> 4 else 0.0 for i in range(32)])
    assert qbp._commuting_diagonal(env, bond) is None
    calls = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kw):
        calls.append(a.shape[0])
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    (op,) = qbp.build_bp_sweep(env, bond, (1.0,), tau_steps=2)
    assert len(calls) == 2 * 2 * len(opalg.split(env, bond)[0])
    assert reconstruction_residual(op.matrix, env, bond, 1.0) > 1e-8


def test_reconstruction_and_caps(scheme1):
    htc = _random_truncated()
    bp = qbp.build_bond_bp(htc, 2, 1.0, scheme=scheme1, tau_steps=32,
                           residual_gate=1e-6)
    assert bp.reconstruction_residual <= 1e-6
    assert bp.phi_norm_max <= bp.bond_norm / 2.0 + 1e-8
    assert bp.norm() <= math.exp(bp.bond_norm / 2.0) + 1e-8


def test_refinement_reduces_residual():
    htc = _random_truncated(coupling=0.8, seed=11)
    beta = 2.0
    res = []
    for steps in (8, 16, 32):
        bp = qbp.build_bond_bp(htc, 2, beta, tau_steps=steps, integrator="midpoint")
        env, bond, _ = qbp._window_split_matrices(htc, htc.blocks[2][-1], tuple(range(6)))
        res.append(reconstruction_residual(bp.matrix, env, bond, beta))
    assert res[0] > res[1] > res[2]


@pytest.mark.parametrize("integrator, gate", [
    ("midpoint", None), ("cf4", None), ("midpoint", 1e-4), ("cf4", 1e-6),
])
def test_beta_sweep_equals_one_beta_builds(integrator, gate):
    htc = _random_truncated(coupling=0.8, seed=11)
    betas = (0.5, 1.0, 2.0)
    kw = dict(tau_steps=1, integrator=integrator, residual_gate=gate)
    swept = qbp.bond_sweep(htc, 2, betas, **kw)
    for beta, op in zip(betas, swept):
        one = qbp.build_bond_bp(htc, 2, beta, **kw)
        assert op.beta == beta
        assert np.array_equal(op.matrix, one.matrix)
        assert op.tau_steps == one.tau_steps
        assert op.reconstruction_residual == one.reconstruction_residual
        assert op.phi_norm_max == one.phi_norm_max
    if gate is not None:
        # only the betas above the gate were refined
        assert [op.tau_steps for op in swept] == sorted({op.tau_steps for op in swept})


@pytest.mark.parametrize("generator", ["heisenberg_xxz", "random_two_site"])
def test_eigh_calls_per_sector_block(generator, monkeypatch):
    # every rule diagonalizes its H(tau) nodes once per step for all betas (cf4
    # two, midpoint one), so the eigh count does not grow with the number of
    # betas; each phi takes one eigvalsh for its norm, and each piece one more
    # for the bond norm, and a gate adds two eigh and, per beta, two eigvalsh
    h = chain.build_chain(6, generator, profiles.power_law(3.0), coupling=0.25, seed=4)
    htc = chain.truncate(h, [0], [5], 1)
    env, bond, _ = qbp._window_split_matrices(htc, htc.blocks[2][-1], tuple(range(6)))
    blocks = opalg.sectors(env, bond)
    assert len(blocks) == (7 if generator == "heisenberg_xxz" else 1)
    # XXZ: blocks 0-2 are swept, 4-6 are their flip images, and block 3 splits in two
    n_pieces = len(opalg.split(env, bond)[0])
    assert n_pieces == (5 if generator == "heisenberg_xxz" else 1)
    calls = {"eigh": [], "eigvalsh": []}
    for name in calls:
        monkeypatch.setattr(np.linalg, name, _solver_spy(getattr(np.linalg, name), calls[name]))
    steps = 3
    for betas in ((1.0,), (0.5, 1.0, 2.0)):
        k = len(betas)
        for integrator, gate, eigh_per_piece, eigvalsh_per_piece in (
            ("cf4", None, 2 * steps, 1 + 2 * steps * k),
            ("cf4", 1e-2, 2 * steps + 2, 1 + 2 * steps * k + 2 * k),
            ("midpoint", None, steps, 1 + steps * k),
        ):
            for seen in calls.values():
                seen.clear()
            ops = qbp.bond_sweep(htc, 2, betas, tau_steps=steps, integrator=integrator,
                                 residual_gate=gate)
            assert [op.tau_steps for op in ops] == [steps] * k
            assert len(calls["eigh"]) == eigh_per_piece * n_pieces, (integrator, gate, betas)
            assert len(calls["eigvalsh"]) == eigvalsh_per_piece * n_pieces, (
                integrator, gate, betas)


def _solver_spy(solver, calls):
    """``solver`` recording the dimension of each matrix it is called on."""
    def spy(a, *args, **kw):
        calls.append(a.shape[0])
        return solver(a, *args, **kw)
    return spy


@pytest.mark.parametrize("generator", ["heisenberg_xxz", "random_two_site"])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_step_rule_matches_the_two_branch_oracle(generator, n):
    # cf4 takes the oracle's floating-point operations in its order; midpoint
    # exponentiates by Taylor polynomial rather than from phi's spectrum, which
    # moves Phi at roundoff only
    h = chain.build_chain(n, generator, profiles.power_law(3.0), coupling=0.4, seed=n)
    htc = chain.truncate(h, [0], [n - 1], 1)
    env, bond, _ = qbp._window_split_matrices(htc, htc.blocks[1][-1], tuple(range(n)))
    betas = (0.5, 2.0)
    for steps in (1, 4, 12):
        for integrator in qbp.INTEGRATORS:
            got = qbp._ordered_exponentials(env, bond, betas, steps, integrator)
            ref = ordered_exponentials_two_rules(env, bond, betas, steps, integrator)
            for (u, phi_max), (u_ref, phi_ref) in zip(got, ref):
                if integrator == "cf4":
                    assert np.array_equal(u, u_ref) and phi_max == phi_ref
                else:
                    dev = opalg.spectral_norm(u - u_ref) / opalg.spectral_norm(u_ref)
                    assert dev <= 1e-13, (steps, dev)
                    assert phi_max == pytest.approx(phi_ref, rel=1e-13)


def _xxz_split(n):
    """An XXZ chain truncated with an even interior, and its exact bond-1 split."""
    h = chain.build_chain(n, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.25, seed=4)
    htc = chain.truncate(h, [0], [n - 2, n - 1] if n % 2 else [n - 1], 1)
    env, bond, _ = qbp._window_split_matrices(htc, htc.blocks[1][-1], tuple(range(n)))
    return htc, env, bond


@pytest.mark.parametrize("n", [6, 7])
def test_one_eigh_per_flip_image_pair(n, monkeypatch):
    # F maps block k onto block n - k: only blocks k < n/2 are diagonalized, and at
    # even n the self-image block k = n/2 as its two halves
    htc, _, _ = _xxz_split(n)
    swept = [math.comb(n, k) for k in range((n + 1) // 2)]
    swept += [math.comb(n, n // 2) // 2] * 2 if n % 2 == 0 else []
    calls, norms = [], []
    monkeypatch.setattr(np.linalg, "eigh", _solver_spy(np.linalg.eigh, calls))
    monkeypatch.setattr(np.linalg, "eigvalsh", _solver_spy(np.linalg.eigvalsh, norms))
    opalg.hermitian_eig(htc.base.matrix())
    assert calls == swept and norms == []
    calls.clear()
    # midpoint, one step, one beta: per piece one H(tau) node is diagonalized,
    # and the bond and one phi are normed
    qbp.bond_sweep(htc, 1, (1.0,), tau_steps=1, integrator="midpoint")
    assert sorted(calls) == sorted(swept)
    assert sorted(norms) == sorted(swept * 2)


def test_window_difference_is_normed_on_the_flip_pieces(monkeypatch):
    # criterion 3's n = 10 geometry: Phi - Phi_window is exactly F-symmetric, so
    # its norm takes one eigvalsh per flip piece, 7 (blocks 0-4 and the two
    # halves of block 5), not one per sector block, 11
    h = chain.build_chain(10, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.25, seed=4)
    htc = chain.truncate(h, [0], [9], 1)
    calls, per_norm = [], []
    eigvalsh, opnorm = np.linalg.eigvalsh, opalg.opnorm

    def eigvalsh_spy(a, *args, **kw):
        calls.append(a.shape[0])
        return eigvalsh(a, *args, **kw)

    def opnorm_spy(op, *args, **kw):
        before = len(calls)
        out = opnorm(op, *args, **kw)
        if np.shape(op)[0] == 2**10:
            per_norm.append(len(calls) - before)
        return out

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
    monkeypatch.setattr(opalg, "opnorm", opnorm_spy)
    (rep,) = qbp.bp_locality_sweep(htc, 1, (7,), (0.5,), tau_steps=1, integrator="midpoint")
    assert rep.exact > 0.0 and not rep.vacuous
    assert per_norm == [7]


@pytest.mark.parametrize("n", [7, 10])
def test_flip_images_are_exact_reversals(n):
    # F (basis index i -> dim - 1 - i) maps block k onto block n - k reversed, so
    # F M F = M is M[::-1, ::-1] == M; it holds bit for bit for rho, e^{iHt} and
    # Phi, on every image pair and on the self-image block's halves.  At n = 10 a
    # block product recomputed from the reversed vecs misses it; at n <= 7 it may not
    htc, _, _ = _xxz_split(n)
    h = htc.base.matrix()
    spec = opalg.hermitian_eig(h)
    blocks = spec.layout.blocks
    pieces, _ = opalg.split(h)
    for e, v, (piece,) in zip(spec.evals, spec.vecs, pieces):
        # every piece, a block or a self-image half, is diagonalized by its own vecs
        assert not v.flags.writeable
        assert np.max(np.abs((v * e) @ v.T - piece)) <= 1e-13
        assert np.max(np.abs(v.T @ v - np.eye(len(e)))) <= 1e-13
    counted = np.concatenate([np.tile(e, c) for e, c in zip(spec.evals, spec.layout.counts())])
    assert np.allclose(np.sort(counted), np.linalg.eigvalsh(h), rtol=0.0, atol=1e-13)
    rho = gibbs_state(spec, 0.7)
    u = opalg.herm_expm(spec, 0.9j)
    phis = [op.matrix for op in qbp.bond_sweep(htc, 1, (0.5, 2.0), tau_steps=2)]
    for mat in (rho, u, *phis):
        assert np.array_equal(mat[::-1, ::-1], mat)
        for k, b in enumerate(blocks):
            image = blocks[len(blocks) - 1 - k]
            assert np.array_equal(mat[np.ix_(image, image)], mat[np.ix_(b, b)][::-1, ::-1])
    dense = np.linalg.eigh(h)
    assert np.max(np.abs(u - (dense[1] * np.exp(0.9j * dense[0])) @ dense[1].T)) <= 1e-13


def test_nonconvergence_raises():
    htc = _random_truncated(coupling=1.5, seed=5)
    with pytest.raises(NonConvergence):
        qbp.build_bond_bp(htc, 2, 2.0, tau_steps=1, integrator="midpoint",
                          residual_gate=1e-14)


def test_truncated_full_window_matches_exact(scheme1):
    htc = _random_truncated()
    full = qbp.build_bond_bp(htc, 2, 1.0, scheme=scheme1, tau_steps=8)
    win = build_truncated_bp(htc, 2, 10, 1.0, tau_steps=8)
    assert win.sites == tuple(range(6))
    assert np.max(np.abs(full.matrix - win.matrix)) < 1e-12


def test_truncated_bp_support_locality():
    htc = _random_truncated(n=6)
    s = 1
    win = build_truncated_bp(htc, s, 2, 1.0, tau_steps=8)
    assert set(win.sites) <= set(range(6))
    full = embed_matrix(win.matrix, win.sites, 6)
    # acting as identity outside the window: partial trace back recovers it
    outside = [q for q in range(6) if q not in win.sites]
    back = partial_trace(full, win.sites) / 2 ** len(outside)
    assert np.max(np.abs(back - win.matrix)) < 1e-12
    cap = math.exp(1.0 * win.bond_norm / 2.0) + 1e-8
    assert win.norm() <= cap


def test_truncated_bp_window_too_small():
    htc = _random_truncated(block_len=2, n=10)
    with pytest.raises(GeometryError):
        build_truncated_bp(htc, 1, 1, 1.0, tau_steps=4)


def test_bp_locality_preconditions():
    htc = _random_truncated(n=8)
    with pytest.raises(PreconditionViolated):
        qbp.bp_locality_sweep(htc, 1, (6,), (1.0,), tau_steps=4)


def test_bond_index_outside_bonds_rejected():
    # q = 6 interior blocks give bonds 0..6; s = 7 and s = -1 used to select the
    # empty bond at the chain's end (both operators the identity, exact = 0)
    htc = _random_truncated(n=8)
    assert htc.q == 6
    for s in (-1, 7, 20):
        with pytest.raises(GeometryError):
            qbp.bond_sweep(htc, s, (1.0,), tau_steps=1)
        with pytest.raises(GeometryError):
            qbp.bp_locality_sweep(htc, s, (7,), (1.0,), tau_steps=1)
    assert qbp.bond_sweep(htc, 6, (1.0,), tau_steps=1)[0].bond_norm > 0


def test_first_moment_constant_below_nine():
    assert 7.0 * 1.2020569031595943 < 9.0
    assert qbp.FILTER_FIRST_MOMENT * math.pi**3 == pytest.approx(7 * 1.2020569031595943, rel=1e-12)
    # the literal in qbp is scipy's zeta(3) to the last bit
    from scipy.special import zeta

    assert qbp.FILTER_FIRST_MOMENT == 7 * zeta(3) / math.pi**3


def test_ordered_product_order_scaling():
    htc = _random_truncated(coupling=0.8, seed=11)
    beta = 2.0
    env, bond, _ = qbp._window_split_matrices(htc, htc.blocks[2][-1], tuple(range(6)))
    prev = {"midpoint": None, "cf4": None}
    orders = {"midpoint": [], "cf4": []}
    for integ in ("midpoint", "cf4"):
        for steps in (4, 8, 16):
            bp = qbp.build_bond_bp(htc, 2, beta, tau_steps=steps, integrator=integ)
            res = reconstruction_residual(bp.matrix, env, bond, beta)
            orders[integ].append(res)
    mid = orders["midpoint"]
    cf = orders["cf4"]
    assert mid[0] / mid[1] == pytest.approx(4.0, rel=0.3)
    assert cf[0] / cf[1] == pytest.approx(16.0, rel=0.5)


def test_theta_calibration_dominates():
    profile = profiles.power_law(3.0)

    class Point:
        def __init__(self, r, beta, exact):
            self.r, self.beta, self.exact = r, beta, exact

    pts = [Point(7, 0.5, 1e-7), Point(8, 0.5, 3e-8), Point(7, 1.0, 3e-5), Point(8, 1.0, 1e-5)]
    theta = qbp.calibrate_theta(pts, profile, 1)
    for p in pts:
        assert qbp.locality_decay_envelope(theta, profile, 1, p.beta, p.r) >= p.exact


Point = namedtuple("Point", "r beta exact")


@st.composite
def theta_point_sets(draw):
    """A profile, l0, and 2-6 points at two or more distinct beta, r > 6 l0
    (so jbar(r/3) = 0 on the finite-range profiles)."""
    profile = draw(st.one_of(st.floats(2.0, 8.0).map(profiles.power_law),
                             st.floats(0.1, 3.0).map(profiles.exponential),
                             st.integers(1, 2).map(profiles.finite_range)))
    l0 = draw(st.integers(1, 2))
    betas = draw(st.lists(st.floats(0.05, 3.0), min_size=2, max_size=6)
                 .filter(lambda b: len(set(b)) >= 2))
    logs = draw(st.lists(st.floats(-14.0, 0.5), min_size=len(betas), max_size=len(betas)))
    if draw(st.booleans()):
        # errors that grow with beta, as measured ones do
        betas, logs = sorted(betas), sorted(logs)
    points = [Point(draw(st.integers(6 * l0 + 1, 6 * l0 + 5)), beta, 10.0**x)
              for beta, x in zip(betas, logs)]
    return profile, l0, points


@settings(max_examples=100, deadline=None, derandomize=True)
@given(theta_point_sets())
def test_closed_form_theta_matches_bisection_on_random_point_sets(case):
    """The exact fit dominates every point by 5% in floating point, and no line
    of a 10^4-slope grid over bisected Theta*_p has a lower Theta at the mean
    beta by more than 1e-12 relative.  An unresolved fit is one whose optimal
    line has theta0 = 0 or theta1 <= 0, within a grid step."""
    profile, l0, points = case
    if profile.is_finite_range:
        assert all(profile(p.r / 3.0) == 0.0 for p in points)
    fit = qbp.calibrate_theta(points, profile, l0)
    slopes, intercepts = theta_lines_by_search(points, profile, l0)
    beta_bar = sum(p.beta for p in points) / len(points)
    values = intercepts + slopes * beta_bar
    best = values.min()
    if fit is None:
        step = slopes[1] - slopes[0]
        near = values <= best * (1.0 + 1e-12)
        flat = (slopes[near] <= step) | (intercepts[near] <= step * max(p.beta for p in points))
        assert flat.any()
        return
    for p in points:
        assert qbp.locality_decay_envelope(fit, profile, l0, p.beta, p.r) >= p.exact * 1.05
    assert best >= fit(beta_bar) * (1.0 - 1e-12)


def test_theta_fit_unresolved_on_one_beta_and_decreasing_sets():
    profile = profiles.power_law(3.0)
    assert qbp.calibrate_theta([], profile, 1) is None
    one_beta = [Point(7, 0.5, 1e-7), Point(8, 0.5, 3e-8), Point(9, 0.5, 1e-3)]
    assert qbp.calibrate_theta(one_beta, profile, 1) is None
    # Theta*_p falls with beta: the optimal line does not rise
    falling = [Point(7, 0.5, 1e-2), Point(7, 1.0, 1e-5), Point(7, 2.0, 1e-9)]
    assert qbp.calibrate_theta(falling, profile, 1) is None
    # the line from (0, 0) to the beta = 2 point passes above the beta = 0.5
    # point, so the optimal line at beta_bar = 1.25 has theta0 = 0; a larger
    # error at beta = 0.5 lifts that point onto the hull and resolves the fit
    assert qbp.calibrate_theta([Point(7, 0.5, 1e-12), Point(7, 2.0, 1.0)], profile, 1) is None
    fit = qbp.calibrate_theta([Point(7, 0.5, 1e-3), Point(7, 2.0, 1.0)], profile, 1)
    assert fit.theta0 > 0.0 and fit.theta1 > 0.0


def _one_piece(*mats):
    """The whole space as one piece, as for a chain with no symmetry."""
    return (mats,), opalg.FlipLayout((np.arange(mats[0].shape[0]),), ((0,),))


@pytest.mark.parametrize("n, integrator, gate", [
    (8, "midpoint", None), (8, "cf4", None), (8, "midpoint", 1e-3), (8, "cf4", 1e-6),
    (10, "midpoint", None), (9, "midpoint", None), (6, "cf4", 1e-6),
])
def test_sector_build_matches_dense_build(n, integrator, gate, monkeypatch):
    # XXZ conserves total S^z and commutes with the flip F: the build runs on the
    # flip pieces of n + 1 blocks (at odd n every block pairs, none is self-image);
    # one block with no flip split is the dense path
    htc, env, bond = _xxz_split(n)
    blocks = opalg.sectors(env, bond)
    assert len(blocks) == n + 1
    assert len(opalg.split(env, bond)[0]) == n // 2 + 1 + (n % 2 == 0)
    betas = (0.5, 1.0, 2.0)
    kw = dict(tau_steps=2, integrator=integrator, residual_gate=gate)
    sector = qbp.bond_sweep(htc, 1, betas, **kw)
    monkeypatch.setattr(opalg, "split", _one_piece)
    dense = qbp.bond_sweep(htc, 1, betas, **kw)
    for a, b in zip(sector, dense):
        scale = max(1.0, float(np.abs(b.matrix).max()))
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12 * scale
        assert a.tau_steps == b.tau_steps
        assert a.phi_norm_max == pytest.approx(b.phi_norm_max, rel=1e-12)
        assert a.bond_norm == pytest.approx(b.bond_norm, rel=1e-12)
        if gate is not None:
            assert abs(a.reconstruction_residual - b.reconstruction_residual) <= 1e-12
