import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbschain import chain, opalg, profiles
from gibbschain.errors import DimensionCap, NotHermitian, SupportMismatch
from reference_oracles import (
    apply_local_contracted,
    blockwise_evolve,
    embed_matrix,
    gibbs_state,
    herm_defect_untiled,
    partial_trace,
    trace_of_product,
)


def _assert_read_only(spec):
    """Every array a Spectrum holds refuses writes."""
    for a in (*spec.evals, *spec.vecs, *spec.layout.blocks):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1


def rand_herm(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def test_embed_identity_and_norm():
    eye = opalg.add_embedded(np.zeros((16, 16)), np.eye(2), [2])
    assert np.allclose(eye, np.eye(16))
    z = opalg.add_embedded(np.zeros((4, 4), complex), opalg.pauli("z"), [0])
    assert opalg.opnorm(z) == pytest.approx(1.0)


def test_embed_roundtrip_partial_trace():
    rng = np.random.default_rng(0)
    a = rand_herm(rng, 4)
    op = opalg.DenseOperator((1, 2), a)
    full = embed_matrix(op.matrix, op.sites, 4)
    back = partial_trace(full, (1, 2)) / 4.0  # identity factors carry 2 each
    assert np.allclose(back, a, atol=1e-12)


def test_embed_unsorted_support():
    rng = np.random.default_rng(1)
    a = rand_herm(rng, 4)
    # acting on (2, 0) must equal swapping factors then acting on (0, 2)
    swapped = a.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    m1 = opalg.add_embedded(np.zeros((8, 8), complex), a, [2, 0])
    m2 = opalg.add_embedded(np.zeros((8, 8), complex), swapped, [0, 2])
    assert np.allclose(m1, m2, atol=1e-12)


@st.composite
def term_sets(draw):
    """A site list (unsorted, gapped labels) and random terms supported inside it."""
    n = draw(st.integers(1, 6))
    space = draw(st.permutations([3 * i + 1 for i in range(n)]))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(1, min(n, 3)))
        support = draw(st.permutations(space))[:k]
        mat = rng.standard_normal((2**k, 2**k))
        if is_complex:
            mat = mat + 1j * rng.standard_normal((2**k, 2**k))
        terms.append(chain.LocalTerm(support, 0.5 * (mat + mat.conj().T)))
    return space, terms


@settings(max_examples=150, deadline=None)
@given(term_sets())
def test_terms_matrix_equals_kron_reference(case):
    space, terms = case
    n = len(space)
    pos = {s: a for a, s in enumerate(space)}
    dtype = complex if any(np.iscomplexobj(t.matrix) for t in terms) else float
    expected = np.zeros((2**n, 2**n), dtype)
    for t in terms:
        local = [pos[s] for s in t.sites]
        expected += embed_matrix(t.matrix, local, n)
        embedded = opalg.add_embedded(np.zeros((2**n, 2**n), t.matrix.dtype), t.matrix, local)
        assert np.array_equal(embedded, embed_matrix(t.matrix, local, n))
    got = chain.terms_matrix(terms, space)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_embed_partial_trace_adjoint(n, data):
    # tr((A x 1) B) = tr(A ptrace(B)) for any full-space B
    keep = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dk, dn = 2 ** len(keep), 2**n
    a = rng.standard_normal((dk, dk)) + 1j * rng.standard_normal((dk, dk))
    b = rng.standard_normal((dn, dn)) + 1j * rng.standard_normal((dn, dn))
    lhs = opalg.local_trace(a, keep, b)
    rhs = np.trace(a @ partial_trace(b, keep))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)) * dn


def test_spectrum_reuse_matches_matrix_path():
    rng = np.random.default_rng(10)
    h = rand_herm(rng, 16)
    o = rand_herm(rng, 16)
    spec = opalg.hermitian_eig(h)
    _assert_read_only(spec)
    _assert_read_only(opalg.spectrum(h))
    (evals,), (vecs,), layout = spec  # unpacks like a tuple; no symmetry, one piece
    assert vecs.shape == (16, 16) and np.array_equal(layout.blocks[0], np.arange(16))
    assert layout.sources == ((0,),) and layout.counts() == [1]
    assert np.array_equal(opalg.herm_expm(spec, 0.7), opalg.herm_expm(h, 0.7))
    assert np.array_equal(opalg.gibbs_populations(spec, 1.3), opalg.gibbs_populations(h, 1.3))
    assert np.array_equal(opalg.evolve(spec, 2, 0.4), opalg.evolve(h, 2, 0.4))
    with pytest.raises(NotHermitian):
        opalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        opalg.evolve(np.array([[0.0, 1.0], [0.0, 0.0]]), 0, 1.0)


def test_embed_rejects_bad_support():
    a = np.eye(4)
    with pytest.raises(SupportMismatch):
        opalg.local_trace(a, [2, 4], np.eye(16))
    with pytest.raises(SupportMismatch):
        opalg.add_embedded(np.zeros((16, 16)), a, [2, 4])


@pytest.mark.parametrize("n, sites, cols", [
    (3, (1,), 8),
    (5, (3, 1), 32),
    (6, (4, 0, 2), 5),
    (7, (6, 2), 1),
    (8, (5, 1, 7), 256),
    (4, (2, 0, 3, 1), 3),
])
def test_apply_local_matches_embedded_product(n, sites, cols):
    rng = np.random.default_rng(n * 31 + cols)
    d = 2 ** len(sites)
    op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = rng.standard_normal((2**n, cols)) + 1j * rng.standard_normal((2**n, cols))
    full = embed_matrix(op, sites, n)
    scale = np.abs(full).max() * np.abs(mat).max() * d
    # left product
    left = opalg.apply_local(op, sites, mat)
    assert left.shape == mat.shape
    assert np.abs(left - full @ mat).max() <= 1e-13 * scale
    # right product through the conjugate transpose: rows of mat^dag are columns of mat
    row = mat.conj().T
    right = opalg.apply_local(op.conj().T, sites, row.conj().T).conj().T
    assert np.abs(right - row @ full).max() <= 1e-13 * scale
    # a real matrix times a complex operator keeps the complex part
    real = mat.real.copy()
    assert np.abs(opalg.apply_local(op, sites, real) - full @ real).max() <= 1e-13 * scale


@st.composite
def diagonal_applications(draw):
    """A diagonal operator (real, complex or a +-1 Pauli-z string) on unsorted,
    possibly non-contiguous sites, and a matrix with any number of columns,
    real or complex, C-ordered or a transposed view."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    sites = draw(st.permutations(range(n)))[:k]
    kind = draw(st.sampled_from(["real", "complex", "pauli"]))
    cols = draw(st.integers(1, 2**n + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = 2 ** len(sites)
    if kind == "pauli":
        diag = np.ones(1)
        for z in rng.integers(0, 2, size=len(sites)):
            diag = np.kron(diag, [1.0, -1.0] if z else [1.0, 1.0])
    elif kind == "real":
        diag = rng.standard_normal(d)
    else:
        diag = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    mat = rng.standard_normal((2**n, cols))
    if draw(st.booleans()):
        mat = mat + 1j * rng.standard_normal((2**n, cols))
    if draw(st.booleans()):
        mat = np.ascontiguousarray(mat.T).T
    return kind, np.diag(diag), tuple(sites), mat


@settings(max_examples=150, deadline=None, derandomize=True)
@given(diagonal_applications())
def test_diagonal_apply_local_matches_the_contraction(case):
    # a diagonal operator scales rows; each entry is the contraction's one nonzero
    # product, so real and +-1 diagonals agree exactly and complex ones to roundoff
    kind, op, sites, mat = case
    out = opalg.apply_local(op, sites, mat)
    ref = apply_local_contracted(op, sites, mat)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    if kind == "complex":
        assert np.abs(out - ref).max() <= 1e-15 * np.abs(ref).max()
    else:
        assert np.array_equal(out, ref)


def test_apply_local_rejects_bad_support():
    with pytest.raises(SupportMismatch):
        opalg.apply_local(np.eye(2), [3], np.eye(8))


def test_herm_expm_basics():
    assert np.allclose(opalg.herm_expm(np.zeros((3, 3))), np.eye(3))
    d = opalg.herm_expm(np.diag([0.0, math.log(2.0)]))
    assert np.allclose(d, np.diag([1.0, 2.0]))


def test_herm_expm_inverse_identity():
    rng = np.random.default_rng(2)
    a = rand_herm(rng, 8)
    prod = opalg.herm_expm(a) @ opalg.herm_expm(a, scale=-1.0)
    assert np.linalg.norm(prod - np.eye(8), 2) < 1e-10


def test_herm_expm_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        opalg.herm_expm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_gibbs_maximally_mixed_and_two_level():
    pops0 = opalg.gibbs_populations(np.zeros((8, 8)), 0.7)
    assert np.array_equal(pops0, np.full(8, 1.0 / 8.0))
    e = 1.3
    pops = opalg.gibbs_populations(np.diag([0.0, e]), 2.0)
    z = 1.0 + math.exp(2.0 * e)
    assert pops == pytest.approx([1.0 / z, math.exp(2.0 * e) / z], rel=1e-12)


def test_gibbs_energy_spectral_sum_oracle():
    rng = np.random.default_rng(3)
    h = rand_herm(rng, 64)
    beta = 1.0
    # the dense oracle state against the spectral sums of an independent eigh
    rho = gibbs_state(h, beta)
    energy = float(np.trace(rho @ h).real)
    evals, vecs = np.linalg.eigh(h)
    w = np.exp(beta * evals - np.max(beta * evals))
    oracle = float(np.sum(evals * w) / np.sum(w))
    assert energy == pytest.approx(oracle, rel=1e-10)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
    # the populations are its diagonal, sum_k |V[x, k]|^2 w_k / Z
    pops = opalg.gibbs_populations(h, beta)
    assert np.max(np.abs(pops - (np.abs(vecs) ** 2 @ w) / np.sum(w))) <= 1e-14
    assert np.max(np.abs(pops - np.diag(rho).real)) <= 1e-14
    assert math.fsum(pops) == pytest.approx(1.0, abs=1e-14)


def test_gibbs_dimension_cap(monkeypatch):
    monkeypatch.setattr(opalg, "DIM_CAP", 16)
    with pytest.raises(DimensionCap):
        opalg.gibbs_populations(np.zeros((32, 32)), 1.0)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_gibbs_populations_are_flip_symmetric_and_never_overflow(n):
    # an XXZ chain commutes with the global flip F, which reverses the basis
    # index: its pieces place image and self-image blocks as exact reversals
    h = chain.build_chain(n, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.7,
                          seed=0, anisotropy=1.5)
    spec = opalg.hermitian_eig(h.matrix())
    assert len(spec.layout.blocks) == n + 1 and spec.layout.images() is not None
    norm = max(np.max(np.abs(e)) for e in spec.evals)
    for beta in (0.3, 1.0, 800.0 / norm, -800.0 / norm):
        pops = opalg.gibbs_populations(spec, beta)
        assert np.array_equal(pops[::-1], pops)
        assert np.all(np.isfinite(pops)) and np.all(pops >= 0.0)
        assert math.fsum(pops) == pytest.approx(1.0, abs=1e-13)
    # beta ||H|| = 800: exp(beta E) alone would overflow
    assert 800.0 > math.log(np.finfo(float).max)


def test_evolve_identity_cases():
    rng = np.random.default_rng(4)
    g = rand_herm(rng, 8)
    for site in range(3):
        x = embed_matrix(opalg.pauli("x"), [site], 3)
        assert np.array_equal(opalg.evolve(g, site, 0.0), x)
        assert np.array_equal(opalg.evolve(np.zeros((8, 8)), site, 1.3), x)
        # a generator that commutes with X: sigma_x on the site plus a
        # diagonal on the other sites
        rest = np.diag(rng.standard_normal(4))
        others = [s for s in range(3) if s != site]
        comm = 0.7 * x + embed_matrix(rest, others, 3)
        assert np.allclose(opalg.evolve(comm, site, 0.83), x, atol=1e-12)
    for site in (-1, 3):
        with pytest.raises(SupportMismatch):
            opalg.evolve(g, site, 0.5)


def test_evolve_preserves_norm_and_hermiticity():
    rng = np.random.default_rng(5)
    for site in (0, 1, 3, 2, 0):
        g = rand_herm(rng, 16)
        out = opalg.evolve(g, site, 0.61)
        assert opalg.opnorm(out) == pytest.approx(1.0, abs=1e-10)
        assert opalg.herm_defect(out) < 1e-12


def test_norms():
    assert opalg.opnorm(np.eye(8)) == 1.0
    assert opalg.opnorm(np.eye(8), kind="trace") == 8.0
    proj = np.zeros((4, 4))
    proj[0, 0] = 1.0
    assert opalg.opnorm(proj) == 1.0
    assert opalg.opnorm(proj, kind="trace") == 1.0
    rng = np.random.default_rng(6)
    a = rand_herm(rng, 12)
    assert opalg.opnorm(a, kind="trace") == pytest.approx(
        np.sum(np.abs(np.linalg.eigvalsh(a))), rel=1e-10
    )
    # non-Hermitian spectral norm agrees with the SVD route
    b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    assert opalg.opnorm(b) == pytest.approx(np.linalg.norm(b, 2), rel=1e-10)


def test_correlation_factorizing_states():
    pops = opalg.gibbs_populations(np.zeros((8, 8)), 1.0)  # maximally mixed
    assert opalg.zz_correlation(pops, 0, 2) == 0.0

    rng = np.random.default_rng(7)
    h_left = embed_matrix(rand_herm(rng, 2), [0], 3)
    h_right = embed_matrix(rand_herm(rng, 4), [1, 2], 3)
    pops2 = opalg.gibbs_populations(h_left + h_right, 0.9)  # product state across 0 | 12
    assert abs(opalg.zz_correlation(pops2, 0, 2)) < 1e-12
    assert abs(opalg.zz_correlation(pops2, 1, 2)) > 1e-3  # the pair the state couples


def test_correlation_rejects_overlap():
    pops = opalg.gibbs_populations(np.zeros((4, 4)), 1.0)
    for i, j in ((1, 1), (0, 2), (-1, 0)):
        with pytest.raises(SupportMismatch):
            opalg.zz_correlation(pops, i, j)
    with pytest.raises(SupportMismatch):
        opalg.zz_correlation(np.full(6, 1.0 / 6.0), 0, 1)


def test_correlation_shift_invariance():
    rng = np.random.default_rng(8)
    h = rand_herm(rng, 16)
    pops = opalg.gibbs_populations(h, 1.1)
    c1 = opalg.zz_correlation(pops, 0, 3)
    c2 = opalg.zz_correlation(opalg.gibbs_populations(h + 2.7 * np.eye(16), 1.1), 0, 3)
    assert abs(c1 - c2) < 1e-10
    assert opalg.zz_correlation(pops, 3, 0) == c1


def test_golden_thompson():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rand_herm(rng, 8)
        b = rand_herm(rng, 8)
        lhs = np.trace(opalg.herm_expm(a + b)).real
        rhs = np.trace(opalg.herm_expm(a) @ opalg.herm_expm(b)).real
        assert lhs <= rhs * (1 + 1e-12)


def _popcount(dim):
    return np.array([bin(i).count("1") for i in range(dim)])


def _zero_across(mat, label):
    """Dense reference: is ``mat`` exactly zero between different labels?"""
    return not np.any(mat[label[:, None] != label[None, :]])


@st.composite
def sz_conserving(draw, hermitian=True, structure="popcount", max_n=6, flip=False):
    """A random matrix that vanishes between different sectors of ``structure``.

    ``structure`` is 'popcount' (total S^z), 'parity' (popcount parity) or
    'whole' (no zero pattern).  With ``flip`` it also commutes with the
    global flip F, which maps basis index i to dim - 1 - i.
    """
    n = draw(st.integers(1, max_n))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2**n
    mat = rng.standard_normal((dim, dim))
    if is_complex:
        mat = mat + 1j * rng.standard_normal((dim, dim))
    if hermitian:
        mat = 0.5 * (mat + mat.conj().T)
    weight = _popcount(dim)
    label = {"popcount": weight, "parity": weight % 2, "whole": np.zeros(dim, int)}[structure]
    mat[label[:, None] != label[None, :]] = 0.0
    if flip:
        mat = 0.5 * (mat + mat[::-1, ::-1])
    return n, mat


@settings(max_examples=60, deadline=None)
@given(sz_conserving())
def test_hermitian_eig_by_sector_reconstructs(case):
    n, mat = case
    blocks = opalg.sectors(mat)
    assert [len(b) for b in blocks] == [math.comb(n, k) for k in range(n + 1)]
    assert all(np.all(_popcount(2**n)[b] == k) for k, b in enumerate(blocks))
    evals, vecs, layout = spec = opalg.hermitian_eig(mat)
    assert [b.tolist() for b in layout.blocks] == [b.tolist() for b in blocks]
    _assert_read_only(spec)
    scale = max(1.0, float(np.abs(mat).max()))
    pieces, _ = opalg.split(mat)
    sandwiches = []
    for e, v, (piece,) in zip(evals, vecs, pieces):
        # each piece in its own basis: rebuilt from its vecs and evals, orthonormal
        assert v.shape == piece.shape
        sandwiches.append((v * e) @ v.conj().T)
        assert np.max(np.abs(sandwiches[-1] - piece)) <= 1e-12 * scale
        assert np.max(np.abs(v.conj().T @ v - np.eye(len(e)))) <= 1e-12
        # eigenvalues ascend within each piece
        assert np.all(np.diff(e) >= 0)
    assert np.max(np.abs(layout.assemble(sandwiches) - mat)) <= 1e-12 * scale
    counted = np.concatenate([np.tile(e, c) for e, c in zip(evals, layout.counts())])
    assert np.allclose(np.sort(counted), np.linalg.eigvalsh(mat), rtol=0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(st.one_of(sz_conserving(), sz_conserving(hermitian=False),
                 sz_conserving(structure="parity"), sz_conserving(hermitian=False, structure="parity")))
def test_opnorm_by_sector_matches_dense(case):
    _, mat = case
    assert opalg.opnorm(mat) == pytest.approx(np.linalg.norm(mat, 2), rel=1e-12, abs=1e-14)
    assert opalg.opnorm(mat, kind="trace") == pytest.approx(
        np.linalg.norm(mat, "nuc"), rel=1e-12, abs=1e-14
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(*(sz_conserving(hermitian=h, structure=s, max_n=7, flip=True)
                   for h in (True, False) for s in ("popcount", "parity", "whole"))))
def test_opnorm_over_flip_pieces_matches_dense(case):
    # F-symmetric draws at odd and even n: the norms run over the flip pieces,
    # and the non-Hermitian ones take spectral_norm's Gram path
    n, mat = case
    assert np.array_equal(mat[::-1, ::-1], mat)
    assert opalg.opnorm(mat) == pytest.approx(np.linalg.norm(mat, 2), rel=1e-12, abs=1e-14)
    assert opalg.opnorm(mat, kind="trace") == pytest.approx(
        np.linalg.norm(mat, "nuc"), rel=1e-12, abs=1e-14
    )


@settings(max_examples=60, deadline=None)
@given(sz_conserving(), st.data())
def test_one_entry_off_the_sectors_gives_one_block(case, data):
    n, mat = case
    weight = _popcount(2**n)
    i = data.draw(st.integers(0, 2**n - 1))
    j = data.draw(st.sampled_from(np.flatnonzero(weight != weight[i]).tolist()))
    mat = mat.copy()
    mat[i, j] = mat[j, i] = 1e-300
    blocks = opalg.sectors(mat)
    if (weight[i] - weight[j]) % 2 == 0:
        # the entry breaks total S^z but keeps its parity: the two parity blocks remain
        assert [b.tolist() for b in blocks] == [
            np.flatnonzero(weight % 2 == p).tolist() for p in (0, 1)
        ]
        return
    assert len(blocks) == 1 and np.array_equal(blocks[0], np.arange(2**n))
    # the same eigendecomposition as one dense eigh
    (vecs,) = opalg.hermitian_eig(mat).vecs
    assert np.array_equal(vecs, opalg.spectrum(mat).vecs[0])
    # a sector-conserving partner does not restore the blocks
    assert len(opalg.sectors(np.eye(2**n), mat)) == 1


def test_sz_sectors_single_block_cases():
    # a dimension that is not a power of 2 is never split
    assert len(opalg.sectors(np.eye(6))) == 1
    assert len(opalg.sectors(np.eye(1))) == 1
    # one block: the matrix itself, no copy
    a = np.ones((8, 8))
    (block,) = opalg.sectors(a)
    assert opalg.sector_block(a, block) is a
    assert opalg.from_blocks((block,), [a]) is a
    # a diagonal matrix splits into n + 1 sectors
    assert [len(b) for b in opalg.sectors(np.diag(np.arange(8.0)))] == [1, 3, 3, 1]


@settings(max_examples=60, deadline=None)
@given(st.one_of(*(sz_conserving(hermitian=h, structure=s, max_n=8)
                   for h in (True, False) for s in ("popcount", "parity", "whole"))))
def test_sectors_match_dense_zero_pattern(case):
    """popcount blocks, else parity blocks, else the whole space, read off the dense pattern."""
    n, mat = case
    weight = _popcount(2**n)
    if _zero_across(mat, weight):
        expected = [np.flatnonzero(weight == k) for k in range(n + 1)]
    elif _zero_across(mat, weight % 2):
        expected = [np.flatnonzero(weight % 2 == p) for p in (0, 1)]
    else:
        expected = [np.arange(2**n)]
    got = opalg.sectors(mat)
    assert [b.tolist() for b in got] == [b.tolist() for b in expected]
    # every matrix of a tuple must respect the blocks
    assert len(opalg.sectors(mat, np.ones_like(mat))) == 1


class _ReadLog(np.ndarray):
    """An array that records every index it is read with."""

    reads: list = []

    def __getitem__(self, key):
        _ReadLog.reads.append(key)
        return np.asarray(self)[key]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
def test_sectors_stop_at_row_zero_on_unstructured_input(n, is_complex, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((2**n, 2**n))
    if is_complex:
        mat = mat + 1j * rng.standard_normal((2**n, 2**n))
    _ReadLog.reads = []
    assert len(opalg.sectors(mat.view(_ReadLog))) == 1
    # only row 0 and column 0 are read, once each: no row chunk is scanned
    assert _ReadLog.reads == [0, (slice(None), 0)]


def _image_index(blocks, k):
    """The block that F (index i -> dim - 1 - i) maps block k onto."""
    dim = sum(len(b) for b in blocks)
    image = (dim - 1 - blocks[k][::-1]).tolist()
    (j,) = [j for j, b in enumerate(blocks) if b.tolist() == image]
    return j


def _pieces_paired_by_reversal(mat, blocks):
    """The pieces of the reversal pairing (block k with block len - 1 - k), which
    the split used before it found images at any index."""
    pieces = []
    for k, block in enumerate(blocks):
        j = len(blocks) - 1 - k
        part = opalg.sector_block(mat, block)
        if j < k:
            continue
        if j > k or len(block) % 2:
            pieces.append(part)
        else:
            h = len(block) // 2
            pieces += [part[:h, :h] + part[:h, h:][:, ::-1], part[:h, :h] - part[:h, h:][:, ::-1]]
    return pieces


@settings(max_examples=60, deadline=None)
@given(st.one_of(*(sz_conserving(structure=s, max_n=7, flip=True)
                   for s in ("popcount", "parity", "whole"))))
def test_flip_split_pieces_reassemble_to_the_dense_function(case):
    n, mat = case
    blocks = opalg.sectors(mat)
    pieces, layout = opalg.split(mat)
    assert [b.tolist() for b in layout.blocks] == [b.tolist() for b in blocks]
    # each block pairs with its F image, found at any index; a self-image
    # block of even size splits into its F = +-1 halves
    for k, src in enumerate(layout.sources):
        j = _image_index(blocks, k)
        assert src == j if j < k else len(src) == (1 if j > k or len(blocks[k]) % 2 else 2)
    assert layout.images() == tuple(_image_index(blocks, k) for k in range(len(blocks)))
    parity_at_even_n = len(blocks) == 2 and n % 2 == 0
    if parity_at_even_n:
        # F keeps popcount parity at even n: each parity block is its own image
        assert layout.sources == ((0, 1), (2, 3))
    else:
        # popcount and odd-n parity layouts keep the pieces of the reversal pairing
        want = _pieces_paired_by_reversal(mat, blocks)
        assert len(pieces) == len(want)
        assert all(np.array_equal(p, w) for (p,), w in zip(pieces, want))
    dense = np.linalg.eigh(mat)
    want = (dense[1] * np.exp(0.3 * dense[0])) @ dense[1].conj().T
    results = [opalg.herm_expm(opalg.spectrum(piece), 0.3) for (piece,) in pieces]
    got = layout.assemble(results)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.abs(want).max())
    assert np.array_equal(got[::-1, ::-1], got)
    if parity_at_even_n:
        # each parity block is 1/2 [[P + M, (P - M) J], [J (P - M), J (P + M) J]]
        # of its halves' results, bit for bit, and zero between the blocks
        rebuilt = np.zeros_like(got)
        for block, (plus, minus) in zip(blocks, (results[:2], results[2:])):
            s, d = 0.5 * (plus + minus), 0.5 * (plus - minus)
            rebuilt[np.ix_(block, block)] = np.block([[s, d[:, ::-1]], [d[::-1], s[::-1, ::-1]]])
        assert np.array_equal(got, rebuilt)
    # counted once per block it fills, a piece holds every eigenvalue of its blocks
    evals = np.concatenate([np.tile(np.linalg.eigvalsh(piece), c)
                            for (piece,), c in zip(pieces, layout.counts())])
    assert np.allclose(np.sort(evals), dense[0], rtol=0.0, atol=1e-12 * max(1.0, np.abs(mat).max()))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
def test_flip_split_reads_two_rows_of_unstructured_input(n, is_complex, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((2**n, 2**n))
    if is_complex:
        mat = mat + 1j * rng.standard_normal((2**n, 2**n))
    logged = mat.view(_ReadLog)
    _ReadLog.reads = []
    pieces, layout = opalg.split(logged)
    assert layout.sources == ((0,),) and pieces[0][0] is logged
    # past the sector scan's row 0 and column 0, only the last row (reversed)
    # and row 0 are read: no block is compared
    assert _ReadLog.reads == [0, (slice(None), 0), (-1, slice(None, None, -1)), 0]


@st.composite
def sector_spectra(draw):
    """A Hermitian matrix with popcount or parity sectors, n <= 8, and its spectrum."""
    structure = draw(st.sampled_from(("popcount", "parity")))
    n, mat = draw(sz_conserving(structure=structure, max_n=8, flip=draw(st.booleans())))
    spec = opalg.hermitian_eig(mat)
    return n, mat, spec


def _dense_eig(spec):
    """The dense eigenvalue vector E and 2^n x 2^n eigenvector matrix V assembled
    here from the pieces: an image block takes its partner's (``sources[k]``)
    evals and its vecs with the rows reversed, a self-image block the vecs
    [[V_+, V_-], [J V_+, -J V_-]] / sqrt(2) of its halves."""
    blocks, sources = spec.layout
    dim = spec.layout.dim
    evals, vecs = np.empty(dim), np.zeros((dim, dim), np.result_type(*spec.vecs))
    for b, src in zip(blocks, sources):
        if isinstance(src, int):
            partner = blocks[src]
            evals[b], vecs[np.ix_(b, b)] = evals[partner], vecs[np.ix_(partner, partner)][::-1]
        elif len(src) == 1:
            evals[b], vecs[np.ix_(b, b)] = spec.evals[src[0]], spec.vecs[src[0]]
        else:
            (ep, em), (vp, vm) = (spec.evals[p] for p in src), (spec.vecs[p] for p in src)
            evals[b] = np.concatenate([ep, em])
            vecs[np.ix_(b, b)] = math.sqrt(0.5) * np.block([[vp, vm], [vp[::-1], -vm[::-1]]])
    return evals, vecs


def _dense_vfv(evals, vecs, weights):
    """V f(E) V^dag from the dense eigendecomposition of ``_dense_eig``."""
    return (vecs * weights) @ vecs.conj().T


@settings(max_examples=40, deadline=None)
@given(sector_spectra(), st.floats(-2.0, 2.0), st.floats(0.05, 3.0))
def test_blockwise_functions_match_dense(case, scale, beta):
    n, mat, spec = case
    # hermitian_eig splits the sectors, so the block path runs
    assert len(spec.layout.blocks) > 1
    tol = 1e-12
    evals, vecs = _dense_eig(spec)
    exp_ref = _dense_vfv(evals, vecs, np.exp(scale * evals))
    got = opalg.herm_expm(spec, scale)
    assert np.max(np.abs(got - exp_ref)) <= tol * max(1.0, np.abs(exp_ref).max())
    assert np.array_equal(opalg.herm_expm(mat, scale), got)

    m = beta * evals
    w = np.exp(m - m.max())
    rho_ref = _dense_vfv(evals, vecs, w / w.sum())
    pops = opalg.gibbs_populations(spec, beta)
    assert np.max(np.abs(pops - np.diag(rho_ref).real)) <= tol


@settings(max_examples=40, deadline=None)
@given(sector_spectra(), st.floats(-2.0, 2.0), st.data())
def test_blockwise_evolve_matches_dense(case, t, data):
    n, mat, spec = case
    site = data.draw(st.integers(0, n - 1))
    dim = 2**n
    evals, vecs = _dense_eig(spec)
    u = _dense_vfv(evals, vecs, np.exp(1j * t * evals))
    x = embed_matrix(opalg.pauli("x"), [site], n)
    got = opalg.evolve(spec, site, t)
    assert np.max(np.abs(got - u @ x @ u.conj().T)) <= 1e-12 * dim
    assert np.array_equal(opalg.evolve(mat, site, t), got)
    # a block pair on which sigma_x vanishes stays exactly zero
    for bi in spec.layout.blocks:
        for bj in spec.layout.blocks:
            if not np.any(x[np.ix_(bi, bj)]):
                assert not np.any(got[np.ix_(bi, bj)])


@pytest.mark.parametrize("structure", ["popcount", "parity", "whole"])
@pytest.mark.parametrize("t", [0.0, 0.37, -1.4])
def test_evolve_equals_blockwise_dense_oracle_for_paulis(structure, t):
    # the gather of U's columns reproduces the dense block-pair product with
    # the embedded sigma_x bit for bit: every product with it is by 0 or 1
    for n in (3, 5):
        rng = np.random.default_rng(n)
        dim = 2**n
        weight = _popcount(dim)
        label = {"popcount": weight, "parity": weight % 2, "whole": np.zeros(dim, int)}[structure]
        for is_complex in (False, True):
            mat = rng.standard_normal((dim, dim))
            if is_complex:
                mat = mat + 1j * rng.standard_normal((dim, dim))
            mat = 0.5 * (mat + mat.conj().T)
            mat[label[:, None] != label[None, :]] = 0.0
            spec = opalg.hermitian_eig(mat)
            n_blocks = {"popcount": n + 1, "parity": 2, "whole": 1}[structure]
            assert len(spec.layout.blocks) == n_blocks
            for site in range(n):
                ref = blockwise_evolve(embed_matrix(opalg.pauli("x"), [site], n), spec, t)
                assert np.array_equal(opalg.evolve(spec, site, t), ref)


@pytest.mark.parametrize("generator", ["heisenberg_xxz", "ising_zz"])
@pytest.mark.parametrize("n", [6, 7, 8, 10])
def test_evolve_keeps_the_flip_exactly(generator, n):
    # F sigma_x F = sigma_x: the image block pairs are copies and the
    # self-image pairs are formed F-symmetric; sigma_x is Hermitian, so every
    # pair below the diagonal is its mirror's conjugate transpose and A(t) is
    # Hermitian bit for bit as well (at odd n, the pair that F maps onto its
    # mirror is formed symmetric under both)
    h = chain.build_chain(n, generator, profiles.power_law(3.0), coupling=0.5, seed=n)
    spec = opalg.hermitian_eig(h.matrix())
    assert spec.layout.images() is not None
    for site in (0, n // 2):
        for t in (0.25, 1.0):
            a_t = opalg.evolve(spec, site, t)
            assert np.array_equal(a_t[::-1, ::-1], a_t)
            assert np.array_equal(a_t, a_t.conj().T)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_evolve_matches_the_dense_kron_path(n):
    """F-symmetric XXZ layouts (the flip copies) and one-piece random_two_site
    chains, sigma_x on every site, against U X U^dag from one dense eigh."""
    for generator in ("heisenberg_xxz", "random_two_site"):
        h = chain.build_chain(n, generator, profiles.power_law(3.0), coupling=0.5, seed=n)
        evals, vecs = np.linalg.eigh(h.matrix())
        spec = opalg.hermitian_eig(h.matrix())
        assert (len(spec.evals) == 1) == (generator == "random_two_site")
        for site in range(n):
            for t in (0.3, -1.1):
                u = (vecs * np.exp(1j * t * evals)) @ vecs.conj().T
                ref = u @ embed_matrix(opalg.pauli("x"), [site], n) @ u.conj().T
                got = opalg.evolve(spec, site, t)
                assert np.max(np.abs(got - ref)) <= 1e-12 * 2**n


@pytest.mark.parametrize("seed", [1, 5, 11])
def test_one_piece_evolve_is_hermitian_bit_for_bit(seed):
    # a chain without sectors is the one diagonal block pair of the loop,
    # formed as (P + P^dag)/2
    h = chain.build_chain(7, "random_two_site", profiles.power_law(3.0), coupling=0.5,
                          seed=seed)
    spec = opalg.hermitian_eig(h.matrix())
    assert spec.layout.sources == ((0,),)
    for site in (0, 3, 6):
        a_t = opalg.evolve(spec, site, 0.7)
        assert np.array_equal(a_t, a_t.conj().T)


def test_spectrum_functions_scan_no_sectors(monkeypatch):
    # a Spectrum carries its sectors: nothing re-splits its eigenvectors
    h = chain.build_chain(6, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.5, seed=0)
    assert len(opalg.sectors(h.matrix())) == 7
    spec = opalg.hermitian_eig(h.matrix())
    calls = []
    sectors = opalg.sectors

    def spy(*mats):
        calls.append(len(mats))
        return sectors(*mats)

    monkeypatch.setattr(opalg, "sectors", spy)
    opalg.herm_expm(spec, 0.3)
    opalg.gibbs_populations(spec, 0.7)
    opalg.evolve(spec, 2, 0.4)
    assert calls == []


def test_xxz_spectrum_holds_only_its_sector_blocks():
    # sum_{k<5} C(10, k)^2 + 2 (C(10, 5)/2)^2 eigenvector entries: the blocks
    # k < 5 and the halves of block 5, not the sum_k C(10, k)^2 = 184756 of
    # every sector block, nor the 4^10 of a dense matrix
    h = chain.build_chain(10, "heisenberg_xxz", profiles.power_law(3.0), coupling=0.5, seed=0)
    spec = opalg.hermitian_eig(h.matrix())
    assert sum(v.size for v in spec.vecs) == 92378
    assert [len(e) for e in spec.evals] == [math.comb(10, k) for k in range(5)] + [126, 126]
    assert [len(b) for b in spec.layout.blocks] == [math.comb(10, k) for k in range(11)]


def test_cached_sector_labels_are_read_only():
    opalg.sectors(np.diag(np.arange(16.0)))  # fills the n = 4 cache entry
    for label, off0 in opalg.sector_labels(4):
        for a in (label, off0):
            with pytest.raises(ValueError):
                a[0] = 5
    # the next split is unaffected
    assert [len(b) for b in opalg.sectors(np.diag(np.arange(16.0)))] == [1, 4, 6, 4, 1]


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_local_trace_of_paulis_equals_dense_trace_exactly(n):
    rng = np.random.default_rng(40 + n)
    mat = _random_complex(rng, 2**n, 2**n)
    paulis = [opalg.pauli(p) for p in "xyz"]
    for site in range(n):
        for p in paulis:
            want = trace_of_product(embed_matrix(p.astype(complex), [site], n), mat)
            assert opalg.local_trace(p, [site], mat) == want
    for a, b in itertools.permutations(range(n), 2):
        for p, q in itertools.product(paulis, repeat=2):
            op = np.kron(p, q)
            want = trace_of_product(embed_matrix(op.astype(complex), [a, b], n), mat)
            assert opalg.local_trace(op, [a, b], mat) == want


@pytest.mark.parametrize("n", [1, 3, 6])
def test_local_trace_of_dense_operators_matches_dense_trace(n):
    rng = np.random.default_rng(50 + n)
    mat = _random_complex(rng, 2**n, 2**n)
    supports = [[s] for s in range(n)] + [list(p) for p in itertools.permutations(range(n), 2)]
    for sites in supports:
        op = _random_complex(rng, 2 ** len(sites), 2 ** len(sites))
        want = trace_of_product(embed_matrix(op, sites, n), mat)
        scale = 2**n * op.shape[0] * np.abs(op).max() * np.abs(mat).max()
        assert abs(opalg.local_trace(op, sites, mat) - want) <= 1e-13 * scale
    # a real operator against a real matrix gives a real trace
    op = rng.standard_normal((2, 2))
    real = mat.real.copy()
    assert opalg.local_trace(op, [0], real) == trace_of_product(embed_matrix(op, [0], n), real)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_herm_expm_matches_scipy_expm(n, is_complex, scale, seed):
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    dim = 2**n
    a = rng.standard_normal((dim, dim))
    if is_complex:
        a = a + 1j * rng.standard_normal((dim, dim))
    a = 0.5 * (a + a.conj().T)
    expected = expm(scale * a)
    got = opalg.herm_expm(a, scale)
    assert np.max(np.abs(got - expected)) <= 1e-11 * np.max(np.abs(expected))


@pytest.mark.parametrize("dim", [1, 2, 8, 64])
@pytest.mark.parametrize("is_complex", [False, True])
def test_expm_bounded_matches_eigen_path(dim, is_complex):
    # norms up to 20 with a bound up to 80 run the scaling-and-squaring branch
    rng = np.random.default_rng(dim + 100 * is_complex)
    for norm in (1e-6, 1e-4, 7e-3, 0.1, 0.5, 0.9, 3.0, 20.0):
        a = rng.standard_normal((dim, dim))
        if is_complex:
            a = a + 1j * rng.standard_normal((dim, dim))
        a = 0.5 * (a + a.conj().T)
        a *= norm / np.linalg.norm(a, 2)
        want = opalg.herm_expm(opalg.spectrum(a))
        for bound in (norm, 4.0 * norm):
            got = opalg.expm_bounded(a, bound)
            assert is_complex or not np.iscomplexobj(got)
            rel = np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)
            assert rel <= 1e-13, (norm, bound, rel)


def test_expm_bounded_of_zero_is_identity():
    assert np.array_equal(opalg.expm_bounded(np.zeros((4, 4)), 0.0), np.eye(4))


@pytest.mark.parametrize("dim", [1, 2, 127, 128, 129, 300, 1024])
@pytest.mark.parametrize("is_complex", [False, True])
def test_tiled_herm_defect_equals_untiled_formula(dim, is_complex):
    rng = np.random.default_rng(dim + 7 * is_complex)
    a = rng.standard_normal((dim, dim))
    if is_complex:
        a = a + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (a + a.conj().T)
    bumped = h.copy()
    bumped[dim // 2, dim - 1] += 3e-12  # one entry, across a tile boundary past dim 128
    lower = h.copy()
    lower[dim - 1, 0] += 50.0  # max|A| below the diagonal only: a mirror tile past dim 128
    for mat in (h, bumped, h + 1e-9 * a, a, np.asfortranarray(a), h[::-1, ::-1], lower):
        assert opalg.herm_defect(mat) == herm_defect_untiled(mat)
    # one NaN entry (at (250, 10) for dim 300) reads nan, as untiled, and is rejected
    for base in (h, np.eye(dim)):
        nan = base.copy()
        nan[dim * 5 // 6, dim // 30] = np.nan
        assert math.isnan(opalg.herm_defect(nan)) and math.isnan(herm_defect_untiled(nan))
        with pytest.raises(NotHermitian):
            opalg.require_hermitian(nan)


def test_require_hermitian_raises_just_above_tolerance():
    # max|A| = 1, so the defect is the asymmetric entry itself; (200, 3) lies
    # in an off-diagonal tile pair
    for is_complex in (False, True):
        mat = np.eye(300, dtype=complex if is_complex else float)
        mat[200, 3] = 0.99e-12
        opalg.require_hermitian(mat)
        mat[200, 3] = 1.01e-12
        with pytest.raises(NotHermitian):
            opalg.require_hermitian(mat)
