"""Dense operator algebra on qubit chains (d = 2).

Every site is a qubit: an n-site operator is a 2^n x 2^n matrix, site j is
bit n-1-j of the basis index (site 0 is the most significant bit), and a
function given a full-space matrix reads n from its dimension
(``n_qubits``).

Everything is dense numpy.  Exponentials of Hermitian operators at large
scale (``herm_expm``, ``gibbs_populations``, ``evolve``) diagonalize:
a Taylor series of exp(beta H) cancels terms far larger than its result and
loses accuracy.  ``expm_bounded`` takes the other road for a generator whose
spectral-norm bound b the caller already holds (the tau steps of ``qbp``,
b ~ 1e-2): it sums the Taylor series to the degree m at which the remainder
b^(m+1)/(m+1)! e^(2b) falls below 2^-53 relative to exp(X), with no
eigensolver; for b > 1/2 it scales X into b <= 1/2 and squares back, so no
term ever exceeds the result by more than e^(1/2).  A ``Spectrum`` is a
read-only eigendecomposition held piece by piece: callers that need one
operator's exponential at several scales (Gibbs states at several beta,
evolutions at several t) diagonalize once and pass the spectrum to
``herm_expm``, ``gibbs_populations`` or ``evolve`` instead.  There is no
hidden cache; every function is pure.

A local operator on k sites meets a full-space matrix only on its own
sites; no function builds its 2^n x 2^n embedding.  ``add_embedded`` adds it
(identity elsewhere) into a full-space matrix in place, ``apply_local``
multiplies by it, contracting it with the row axes of its sites (O(dim^2 2^k)
where the embedded product costs O(dim^3)), and ``local_trace`` takes the
trace of that product from a diagonal view (O(dim 4^k)).  An exactly
diagonal local operator (a Pauli-z string, the BP operator of a commuting
bond) is applied by scaling rows: its diagonal, broadcast over the other
sites, is one factor per row, O(dim^2) with no contraction, and every entry
equals the contraction's (its other terms are exact zeros).

This module is the one place that knows the symmetry sectors of qubit
chains.  ``sectors`` reads them from the exact zero pattern: the popcount
classes (total S^z: XXZ and Ising chains and all built from them), else the
two popcount-parity classes (Z2: sigma_x probe commutators on those chains),
else one block.  Blockwise work costs a sum of C(n,k)^3 flops instead of
2^(3n), 28x fewer at n = 10 (Sandvik, AIP Conf. Proc. 1297, 135, 2010).

The global spin flip F (every sigma_x at once) maps basis index i to
dim - 1 - i, so it maps each block onto a block with the order reversed:
popcount block k onto block n - k, and at even n each popcount-parity block
onto itself.  XXZ and Ising chains without a field commute with it, and so
does the commutator of an F-symmetric operator with a sigma_x or sigma_y
probe.  ``split`` finds each block's image by exact comparison, at any
index, and cuts the blocks into pieces, the one unit of blockwise work: a
block whose image comes later is a piece and the image its reversed copy
(``FlipLayout.sources`` records the image's index), and a self-image block
(k = n/2, or a parity block at even n) splits into the F = +-1 halves
H_+- = H11 +- H12 J (J the reversal), an eighth of its cost each.  A
spectrum keeps one (evals, vecs) pair per piece, so no block or 2^n x 2^n
eigenvector matrix is formed; ``herm_expm`` forms V_p f(E_p) V_p^dag per
piece and ``FlipLayout.assemble`` rebuilds the dense result, so
F f(H) F = f(H) holds bit for bit, as it does for the Gibbs populations of
``gibbs_populations`` (placed by ``FlipLayout.diagonal``), from which
``zz_correlation`` reads Z-Z correlators.  ``evolve`` takes sigma_x on
one site, a permutation of the basis: it forms only the block pairs that
sigma_x connects, each from a gather of U's columns; each image pair is
the reversed copy of its partner and a self-image pair is formed
F-symmetric, so F A(t) F = A(t) holds bit for bit as well; each pair
below the diagonal is the conjugate transpose of its mirror and each
diagonal pair is formed Hermitian, so A(t) is Hermitian bit for bit on
every chain (a one-block spectrum is the single diagonal pair) and half
the pairs take a product.  The pieces are orthogonally equivalent to the
blocks: ``opnorm`` takes the largest piece norm, and the trace norm, like
Z, counts each piece once per block it fills;
``expm_difference`` takes ||exp(sA) - exp(sB)||_1 the same way from two
spectra of one layout (a ValueError for any other pair), with no dense
exponential.  Callers with matrices of their own (``qbp``, the
commutator blocks of ``locality.lr_certify``) take ``split`` (or
``opnorm``) and reassemble with its layout.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionCap, NotHermitian, SupportMismatch

# largest dimension hermitian_eig accepts (12 qubits); config validation reads it too
DIM_CAP = 4096

HERM_TOL = 1e-12

_sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
_sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])


def pauli(name):
    """Single-site Pauli matrix by name ('x', 'y', 'z', 'i')."""
    return {
        "x": _sigma_x.copy(),
        "y": _sigma_y.copy(),
        "z": _sigma_z.copy(),
        "i": np.eye(2),
    }[name.lower()]


@dataclass(frozen=True)
class DenseOperator:
    """Complex matrix together with the ordered site set it acts on."""

    sites: tuple
    matrix: np.ndarray

    def __post_init__(self):
        sites = tuple(int(s) for s in self.sites)
        object.__setattr__(self, "sites", sites)
        if sorted(set(sites)) != sorted(sites):
            raise ValueError("duplicate sites in support")
        dim = 2 ** len(sites)
        if self.matrix.shape != (dim, dim):
            raise SupportMismatch(
                f"matrix shape {self.matrix.shape} does not match {len(sites)} qubits"
            )


# side of the square tiles herm_defect compares: a complex tile pair (2 x 256 KB)
# stays in cache while its transposed read runs
_HERM_TILE = 128


def herm_defect(mat):
    """Relative deviation from Hermiticity, max|A - A^dag| / max(max|A|, tiny).

    Entrywise maxima keep this guard O(dim^2); they bound the spectral-norm
    ratio up to a factor dim, which is irrelevant at the 1e-12 scale checked.
    The maximum runs over square tiles of side ``_HERM_TILE``: tile (i, j)
    is compared with the transpose of tile (j, i) for j >= i only, so the
    transposed read stays in cache and each off-diagonal pair is compared
    once.  Each entry |a_ij - conj(a_ji)| equals the untiled formula's entry
    (or its mirror, equal under negation and conjugation), so the maximum is
    the same float bit for bit; so is the scale max|A|, read from the tiles.
    The maxima propagate NaN (``np.maximum``): a NaN entry reads nan.
    """
    dim, step, conj = mat.shape[0], _HERM_TILE, np.iscomplexobj(mat)
    d = s = 0.0
    for i in range(0, dim, step):
        for j in range(i, dim, step):
            tile, mirror = mat[i : i + step, j : j + step], mat[j : j + step, i : i + step].T
            d = np.maximum(d, np.abs(tile - (mirror.conj() if conj else mirror)).max())
            s = max(s, float(np.abs(tile).max()), float(np.abs(mirror).max()) if i != j else 0.0)
    return float(d) / max(s, 1e-300)


def require_hermitian(mat, what="operator"):
    """NotHermitian unless ``herm_defect`` is at most HERM_TOL (a nan defect is not)."""
    if not herm_defect(mat) <= HERM_TOL:
        raise NotHermitian(f"{what} is not Hermitian")


def single_site(op_matrix, site) -> DenseOperator:
    return DenseOperator((site,), np.asarray(op_matrix, dtype=complex))


# ---------------------------------------------------------------------------
# embedding and local traces


def n_qubits(dim):
    """n for a 2^n-dimensional space; SupportMismatch for any other dimension."""
    n = int(dim).bit_length() - 1
    if dim < 1 or dim != 1 << n:
        raise SupportMismatch(f"dimension {dim} is not a power of 2")
    return n


def add_embedded(out, mat, sites):
    """out += ``mat`` acting on ``sites`` (identity elsewhere), in place.

    ``out`` is a C-contiguous full-space matrix; its dimension fixes the
    site count.  The sum runs over a writeable diagonal view of ``out``, so
    no embedded copy of ``mat`` is formed.  Sites need not be contiguous or
    sorted; the matrix axes follow the order in which ``sites`` are listed.
    """
    n = n_qubits(out.shape[0])
    sites = [int(s) for s in sites]
    if any(s < 0 or s >= n for s in sites):
        raise SupportMismatch(f"support {sites} not inside 0..{n - 1}")
    rows, cols = string.ascii_letters[:n], string.ascii_letters[n : 2 * n]
    rest = [i for i in range(n) if i not in sites]
    # identity on the rest: the column index of a rest site repeats its row index
    inp = rows + "".join(rows[i] if i in rest else cols[i] for i in range(n))
    outp = "".join(rows[s] for s in sites) + "".join(cols[s] for s in sites)
    view = np.einsum(f"{inp}->{outp}{''.join(rows[i] for i in rest)}",
                     out.reshape((2,) * (2 * n)))
    view += np.asarray(mat).reshape((2,) * (2 * len(sites)) + (1,) * len(rest))
    return out


def apply_local(op, sites, mat):
    """(``op`` on ``sites``, identity elsewhere) @ ``mat``, with no embedding.

    ``mat`` has the full-space dimension as its row count (which fixes the
    site count) and any number of columns.  ``op`` is contracted with the
    row axes of ``sites`` (listed in the order of its axes, as in
    ``add_embedded``): O(dim^2 2^k) work for k sites instead of a dense
    O(dim^3) product.  An exactly diagonal ``op`` (a Pauli-z string, a BP
    operator of a commuting bond) scales row i of ``mat`` by its diagonal
    entry at the sites' bits of i, broadcast over the other site axes:
    O(dim^2) work, no contraction and no transposed copy, and each entry is
    the one product the contraction forms (its other terms are exact zeros).
    The right product mat @ (op x 1) is apply_local(op^dag, sites, mat^dag)^dag.
    """
    mat = np.asarray(mat)
    op = np.asarray(op)
    n = n_qubits(mat.shape[0])
    sites = [int(s) for s in sites]
    if any(s < 0 or s >= n for s in sites):
        raise SupportMismatch(f"support {sites} not inside 0..{n - 1}")
    k = len(sites)
    diag = np.diagonal(op)
    if np.count_nonzero(op) == np.count_nonzero(diag):
        # op's axes to ascending site order, a unit axis on every other site
        scale = np.transpose(diag.reshape((2,) * k), np.argsort(sites))
        shape = [2 if i in sites else 1 for i in range(n)]
        rows = np.broadcast_to(scale.reshape(shape), (2,) * n).reshape(-1)
        return mat * rows[:, None]
    t = np.tensordot(op.reshape((2,) * (2 * k)),
                     mat.reshape((2,) * n + (-1,)),
                     axes=(range(k, 2 * k), sites))
    return np.moveaxis(t, range(k), sites).reshape(mat.shape)


def local_trace(op, sites, mat):
    """tr((``op`` on ``sites``, identity elsewhere) @ ``mat``), correctly rounded.

    Term i of the diagonal is sum_b op[a, b] mat[(b, r), (a, r)] for i = (a, r),
    a on ``sites`` (in the order of op's axes) and r on the rest: one einsum
    over a diagonal view of ``mat``, O(dim 4^k) reads for k sites.  The dim
    terms are summed by math.fsum, whose result does not depend on their
    order; for a Pauli string every term is a single exact product.
    """
    mat = np.asarray(mat)
    n = n_qubits(mat.shape[0])
    sites = [int(s) for s in sites]
    if any(s < 0 or s >= n for s in sites):
        raise SupportMismatch(f"support {sites} not inside 0..{n - 1}")
    rows, cols = string.ascii_letters[:n], string.ascii_letters[n : 2 * n]
    # the rest keep one letter on both axes (the diagonal); a site's row axis
    # is summed against op's column axis, its column axis is op's row axis
    inp = "".join(cols[i] if i in sites else rows[i] for i in range(n)) + "".join(rows)
    op_axes = "".join(rows[s] for s in sites) + "".join(cols[s] for s in sites)
    terms = np.einsum(f"{op_axes},{inp}->{rows}",
                      np.asarray(op).reshape((2,) * (2 * len(sites))),
                      mat.reshape((2,) * (2 * n))).ravel()
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


# ---------------------------------------------------------------------------
# symmetry sectors


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


@functools.lru_cache(maxsize=None)
def sector_labels(n):
    """Popcount and its parity for every n-bit basis index, each with the
    indices whose label differs from index 0's; read-only, as every call shares them."""
    weight = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    out = tuple((label, np.flatnonzero(label)) for label in (weight, weight & 1))
    _read_only(*(a for pair in out for a in pair))
    return out


def respects(mats, label, col_label=None):
    """True when every matrix is exactly zero between basis states of different
    ``label`` (any array of one value per basis index), the column's read from
    ``col_label`` when given; row chunks of ~65k entries are scanned up to the
    first break."""
    step = max(1, (1 << 16) // len(label))
    col_label = label if col_label is None else col_label
    for mat in mats:
        for lo in range(0, len(label), step):
            bad = label[lo : lo + step, None] != col_label
            bad &= mat[lo : lo + step] != 0
            if bad.any():
                return False
    return True


def sectors(*mats):
    """Basis-index blocks shared by every matrix in ``mats``.

    The popcount classes (ascending) when every matrix is exactly zero
    between them, else the even and odd popcount classes, else (also when
    the dimension is not a power of 2) one block: sorted index arrays.
    """
    dim = mats[0].shape[0]
    n = dim.bit_length() - 1
    if dim > 1 and dim == 1 << n:
        # row and column 0 first: they reject unstructured input without a scan
        edge = np.zeros(dim, bool)
        for m in mats:
            edge |= m[0] != 0
            edge |= m[:, 0] != 0
        for label, off0 in sector_labels(n):
            if not edge[off0].any() and respects(mats, label):
                return tuple(np.flatnonzero(label == k) for k in range(label.max() + 1))
    return (np.arange(dim),)


def sector_block(mat, block):
    """The diagonal block of ``mat`` on ``block``; ``mat`` itself for the whole space."""
    return mat if len(block) == mat.shape[0] else mat[np.ix_(block, block)]


def from_blocks(blocks, mats):
    """Dense matrix with ``mats[k]`` on the diagonal block ``blocks[k]``, zero elsewhere.

    A single block covering the space is returned as it is.
    """
    if len(blocks) == 1:
        return mats[0]
    dim = sum(len(b) for b in blocks)
    out = np.zeros((dim, dim), np.result_type(*mats))
    for block, mat in zip(blocks, mats):
        out[np.ix_(block, block)] = mat
    return out


class FlipLayout(NamedTuple):
    """How the sector blocks of a matrix are formed from its pieces under the global flip F.

    ``blocks[k]`` is sector k's sorted basis indices.  ``sources[k]`` is
    ``(p,)`` when block k is piece p, ``(p, p + 1)`` when pieces p and p + 1
    are the F = +1 and F = -1 halves of the self-image block k, and a block
    index j < k (an int) when block k is block j reversed, since F maps
    block j onto block k.
    """

    blocks: tuple
    sources: tuple

    @property
    def dim(self):
        return sum(len(b) for b in self.blocks)

    def _pieces(self, src):
        return self.sources[src] if isinstance(src, int) else src

    def counts(self):
        """How many blocks each piece fills: 2 for a block with a flip image, else 1."""
        out = [0] * (1 + max(p for src in self.sources for p in self._pieces(src)))
        for src in self.sources:
            for p in self._pieces(src):
                out[p] += 1
        return out

    def images(self):
        """The block that F maps each block onto, or None when the pieces carry no flip."""
        out = [None] * len(self.sources)
        for k, src in enumerate(self.sources):
            if isinstance(src, int):
                out[k], out[src] = src, k
            elif len(src) == 2:
                out[k] = k
        return None if None in out else tuple(out)

    def blockwise(self, results):
        """f(block) for every block from f(piece) for every piece.

        A self-image block is rebuilt from P = f(H_+) and M = f(H_-) as
        1/2 [[P + M, (P - M) J], [J (P - M), J (P + M) J]], J the reversal.
        """
        out = []
        for src in self.sources:
            if isinstance(src, int):
                out.append(out[src][::-1, ::-1])
            elif len(src) == 1:
                out.append(results[src[0]])
            else:
                plus, minus = results[src[0]], results[src[1]]
                s, d = 0.5 * (plus + minus), 0.5 * (plus - minus)
                out.append(np.block([[s, d[:, ::-1]], [d[::-1], s[::-1, ::-1]]]))
        return out

    def assemble(self, results):
        """The dense f(M) from f(piece) for every piece."""
        return from_blocks(self.blocks, self.blockwise(results))

    def diagonal(self, diags):
        """The real diag f(M) from diag f(piece) per piece, placed as ``blockwise`` does."""
        out = np.empty(self.dim)
        for block, src in zip(self.blocks, self.sources):
            if isinstance(src, int):
                out[block] = out[self.blocks[src]][::-1]
            else:
                s = sum(diags[p] for p in src) / len(src)
                out[block] = s if len(src) == 1 else np.concatenate([s, s[::-1]])
        return out


def split(*mats):
    """(pieces, layout): the sectors of ``mats`` as pieces under the global spin flip F.

    The sectors, ``layout.blocks``, are those of ``sectors(*mats)``.  When
    every matrix commutes with F, F maps each block onto a block j, its
    image, reversed, at any index: the block whose first index is
    dim - 1 - the block's last.  An image j > k is formed as block k's
    copy, and a self-image block of even size (block n/2 of the popcount
    blocks, or each parity block at even n) splits into the halves
    H_+- = H11 +- H12 J on the F = +-1 subspaces, J the reversal of a half.
    Images and symmetry are found by exact comparison; row 0 against the
    last row reversed rejects unstructured input first.  Otherwise every
    block is its own piece.  ``pieces[p]`` holds piece p of every matrix;
    ``layout.assemble`` forms a dense matrix from one result per piece.
    """
    blocks = sectors(*mats)
    dim = mats[0].shape[0]
    parts = [tuple(sector_block(m, b) for m in mats) for b in blocks]
    own = tuple(parts), FlipLayout(blocks, tuple((k,) for k in range(len(blocks))))
    if not all(np.array_equal(m[-1, ::-1], m[0]) for m in mats):
        return own
    first = {int(b[0]): j for j, b in enumerate(blocks)}
    pieces, sources = [], []
    for k, (block, part) in enumerate(zip(blocks, parts)):
        j = first.get(dim - 1 - int(block[-1]))
        if j is None or not np.array_equal(dim - 1 - block[::-1], blocks[j]):
            return own
        if j < k:
            sources.append(j)
            continue
        if not all(np.array_equal(q, p[::-1, ::-1]) for p, q in zip(part, parts[j])):
            return own
        if j > k or len(block) % 2:
            sources.append((len(pieces),))
            pieces.append(part)
        else:
            h = len(block) // 2
            sources.append((len(pieces), len(pieces) + 1))
            halves = [(p[:h, :h], p[:h, h:][:, ::-1]) for p in part]
            pieces += [tuple(a + b for a, b in halves), tuple(a - b for a, b in halves)]
    return tuple(pieces), FlipLayout(blocks, tuple(sources))


# ---------------------------------------------------------------------------
# eigendecomposition


class Spectrum(NamedTuple):
    """Eigenvalues and orthonormal eigenvectors, one pair per flip piece; read-only.

    ``evals[p]`` (ascending) and ``vecs[p]`` (columns, in the piece's own
    basis) diagonalize piece p of ``layout``, which forms a dense function of
    the matrix from V_p f(E_p) V_p^dag per piece.  Image and self-image blocks
    hold no eigenvectors of their own.
    """

    evals: tuple
    vecs: tuple
    layout: FlipLayout


def _real_if_real(mat):
    """``mat``, or its real part when its imaginary part is exactly zero.

    Real input stays in the real BLAS and LAPACK paths; they are ~4x faster.
    """
    if np.iscomplexobj(mat) and np.abs(mat.imag).max(initial=0.0) == 0.0:
        return mat.real
    return mat


def spectrum(mat) -> Spectrum:
    """One eigendecomposition of a matrix Hermitian by construction (unchecked),
    as the one-piece spectrum: ``(evals,), (vecs,), _ = spectrum(mat)``."""
    evals, vecs = np.linalg.eigh(_real_if_real(mat))
    block = np.arange(len(evals))
    _read_only(evals, vecs, block)
    return Spectrum((evals,), (vecs,), FlipLayout((block,), ((0,),)))


def hermitian_eig(mat) -> Spectrum:
    """Eigendecomposition of a caller's Hermitian matrix (checked), piece by piece.

    Each piece of ``split(mat)`` is diagonalized on its own; its eigenvectors
    are never assembled into blocks or into one matrix.  This is the one place
    ``DIM_CAP`` is checked: every checked diagonalization passes here.
    """
    mat = np.asarray(mat)
    if mat.shape[0] > DIM_CAP:
        raise DimensionCap(f"dimension {mat.shape[0]} exceeds DIM_CAP {DIM_CAP}")
    require_hermitian(mat)
    pieces, layout = split(mat)
    evals, vecs = zip(*(np.linalg.eigh(_real_if_real(piece)) for (piece,) in pieces))
    _read_only(*evals, *vecs, *layout.blocks)
    return Spectrum(evals, vecs, layout)


def _spectrum_of(a) -> Spectrum:
    return a if isinstance(a, Spectrum) else hermitian_eig(a)


def _sandwiches(spec, weights):
    """V_p diag(weights[p]) V_p^dag on every piece p of ``spec``."""
    return [(v * w) @ v.conj().T for v, w in zip(spec.vecs, weights)]


def _expm_pieces(spec, scale):
    """V_p e^(scale E_p) V_p^dag on every piece p of ``spec``."""
    return _sandwiches(spec, [np.exp(scale * e) for e in spec.evals])


def herm_expm(a, scale=1.0):
    """exp(scale * A) for Hermitian A (matrix or Spectrum)."""
    spec = _spectrum_of(a)
    return spec.layout.assemble(_expm_pieces(spec, scale))


def _taylor_degree(bound):
    """Smallest m with bound^(m+1)/(m+1)! e^(2 bound) <= 2^-53.

    The Taylor remainder of exp(X) past degree m is at most
    bound^(m+1)/(m+1)! e^bound for ||X|| <= bound, and ||exp(X)|| >= e^-bound,
    so this is the relative truncation error.
    """
    m, err = 0, bound * math.exp(2.0 * bound)
    while err > 2.0**-53:
        m += 1
        err *= bound / (m + 1)
    return m


def expm_bounded(mat, bound):
    """exp(X) for any square X with spectral norm ||X|| <= bound, without an eigensolver.

    The Taylor polynomial of degree ``_taylor_degree`` is evaluated by
    Paterson-Stockmeyer (Horner in X^s over chunks of degree < s, with s
    chosen for the fewest products: 4 at degree 7); past bound 1/2, X is
    scaled by 2^-k into that range and the result squared k times
    (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009).
    """
    mat = _real_if_real(np.asarray(mat))
    squarings = math.ceil(math.log2(2.0 * bound)) if bound > 0.5 else 0
    x = mat / 2.0**squarings
    m = _taylor_degree(bound / 2.0**squarings)
    coef = [1.0 / math.factorial(k) for k in range(m + 1)]
    # products: s - 1 powers, then one per Horner step but none on a scalar top chunk
    s = min(range(1, m + 2), key=lambda s: s - 1 + m // s - (m % s == 0))
    powers = [np.eye(mat.shape[0], dtype=mat.dtype), x]
    while len(powers) <= s:
        powers.append(powers[-1] @ x)

    def chunk(lo, hi):
        return sum(coef[k] * powers[k - lo] for k in range(lo, hi + 1))

    top = m // s
    if m % s == 0 and top > 0:
        top -= 1
        out = chunk(top * s, top * s + s - 1) + coef[m] * powers[s]
    else:
        out = chunk(top * s, m)
    for j in range(top - 1, -1, -1):
        out = chunk(j * s, j * s + s - 1) + powers[s] @ out
    for _ in range(squarings):
        out = out @ out
    return out


# ---------------------------------------------------------------------------
# norms, Gibbs states, evolution, correlations


def spectral_norm(mat):
    """Largest singular value of one dense matrix, with no sector scan:
    eigvalsh when it is Hermitian, else the top eigenvalue of A^dag A."""
    if herm_defect(mat) <= HERM_TOL:
        return float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    # sqrt of the top eigenvalue of A^dag A; cheaper than a full SVD here
    gram = mat.conj().T @ mat
    top = float(np.max(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))))
    return math.sqrt(max(top, 0.0))


def _trace_norm(mat):
    if herm_defect(mat) <= HERM_TOL:
        return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def opnorm(op, kind="spectral"):
    """Spectral norm (largest singular value) or trace norm (their sum).

    Taken over the pieces of ``split``, which are orthogonally equivalent to
    the sector blocks: the spectral norm is the largest piece norm, the trace
    norm the sum of piece norms, each counted once per block it fills.
    """
    mat = op.matrix if isinstance(op, DenseOperator) else np.asarray(op)
    if kind not in ("spectral", "trace"):
        raise ValueError(f"unknown norm kind {kind!r}")
    pieces, layout = split(mat)
    if kind == "spectral":
        return max(spectral_norm(piece) for (piece,) in pieces)
    return sum(c * _trace_norm(piece) for c, (piece,) in zip(layout.counts(), pieces))


def expm_difference(spec_a, spec_b, scale=1.0):
    """(||exp(sA) - exp(sB)||_1, tr exp(sA)) from two spectra of one layout, piece by piece.

    On piece p the difference is V_p e^(s E_p) V_p^dag - W_p e^(s F_p) W_p^dag;
    as in ``opnorm``, the trace norm is the sum of the piece trace norms and
    the trace the sum of e^(s E_p), each counted once per block the piece
    fills, so no 2^n x 2^n matrix is formed.  ValueError when the layouts differ.
    """
    la, lb = spec_a.layout, spec_b.layout
    if la.sources != lb.sources or not all(
            np.array_equal(a, b) for a, b in zip(la.blocks, lb.blocks)):
        raise ValueError("the two spectra have different layouts")
    counts = la.counts()
    norm = sum(c * _trace_norm(a - b) for c, a, b in
               zip(counts, _expm_pieces(spec_a, scale), _expm_pieces(spec_b, scale)))
    trace = sum(c * np.sum(np.exp(scale * e)) for c, e in zip(counts, spec_a.evals))
    return float(norm), float(trace)


def gibbs_populations(h, beta):
    """Gibbs populations diag(exp(beta*H))/Z of a Hamiltonian given as matrix or Spectrum.

    The sign convention puts the customary minus sign inside the
    Hamiltonian, so beta multiplies +H; the weights w = exp(beta*E - shift),
    shifted by the largest beta*E, cannot overflow.  Piece p gives
    sum_k |V_p[x, k]|^2 w_k at row x, and Z is the sum of w over every block.
    """
    spec = _spectrum_of(h)
    n_qubits(spec.layout.dim)  # SupportMismatch unless the space is n qubits
    ms = [beta * e for e in spec.evals]
    shift = max(np.max(m) for m in ms)
    ws = [np.exp(m - shift) for m in ms]
    z = sum(c * np.sum(w) for c, w in zip(spec.layout.counts(), ws))
    return spec.layout.diagonal([(v * v.conj()).real @ w for v, w in zip(spec.vecs, ws)]) / z


def evolve(generator, site, t):
    """Heisenberg evolution exp(iGt) X exp(-iGt) of sigma_x on ``site``, on G's full space.

    G is a Hermitian matrix or a Spectrum; t = 0 returns X as a complex
    matrix; a site outside the chain raises SupportMismatch.  X maps basis
    index x to x ^ m, m the site's bit, so no product with X is made: over
    the spectrum's sectors, column c of block pair (i, j) of U X is U_i's
    column at b_j[c] ^ m when that index lies in b_i and zero otherwise (the
    zero columns are kept, so each product sums over all of b_j).  Only the
    pairs (i, j) that X connects, j in the labels of b_i ^ m, are formed,
    each as that gather times U_j^dag; the rest stay zero.  A one-block
    spectrum (a chain without sectors) is the pair (0, 0) of that loop.
    X is Hermitian and F X F = X, so when the spectrum's layout carries the
    flip F, F maps pair (i, j) onto the pair of their images reversed, which
    is its partner's copy; pair (j, i) with j > i is the conjugate transpose
    of pair (i, j); and a pair that F, the adjoint or both map onto itself
    is formed symmetric under them.  So F A(t) F = A(t) and A(t) = A(t)^dag
    hold bit for bit, and half the pair products are made.
    """
    spec = _spectrum_of(generator)
    layout = spec.layout
    dim = layout.dim
    n = n_qubits(dim)
    if not 0 <= site < n:
        raise SupportMismatch(f"site {site} not inside 0..{n - 1}")
    m = 1 << (n - 1 - site)
    out = np.zeros((dim, dim), complex)
    if t == 0:
        out[np.arange(dim), np.arange(dim) ^ m] = 1.0
        return out
    blocks, images = layout.blocks, layout.images()
    us = layout.blockwise(_sandwiches(spec, [np.exp(1j * e * t) for e in spec.evals]))
    label, pos = np.empty(dim, int), np.empty(dim, int)
    for i, block in enumerate(blocks):
        label[block], pos[block] = i, np.arange(len(block))
    for i, block in enumerate(blocks):
        for j in np.unique(label[block ^ m]):
            if images is not None and (images[i], images[j]) < (i, j):
                pair = out[np.ix_(blocks[images[i]], blocks[images[j]])][::-1, ::-1]
            elif j < i:
                pair = out[np.ix_(blocks[j], block)].conj().T
            else:
                # (U X)[b_i, b_j]: U_i's columns at b_j ^ m, zero where that leaves b_i
                moved = blocks[j] ^ m
                inside = label[moved] == i
                pair = us[i][:, np.where(inside, pos[moved], 0)]
                pair[:, ~inside] = 0.0
                pair = pair @ us[j].conj().T
                if images is not None and (images[i], images[j]) == (i, j):
                    pair = 0.5 * (pair + pair[::-1, ::-1])
                if i == j:
                    # in place: at one block every temporary is a full-space matrix
                    pair += pair.conj().T
                    pair *= 0.5
                elif images is not None and (images[j], images[i]) == (i, j):
                    pair = 0.5 * (pair + pair[::-1, ::-1].conj().T)
            out[np.ix_(block, blocks[j])] = pair
    return out


def zz_correlation(populations, i, j):
    """Cor(Z_i, Z_j) = <Z_i Z_j> - <Z_i><Z_j> in a state with diagonal ``populations``.

    Z_i is +-1 by bit n-1-i of the basis index, so every term is one exact
    product, and each sum is correctly rounded (math.fsum).
    """
    n = n_qubits(len(populations))
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise SupportMismatch(f"sites {i}, {j} are not two distinct sites of 0..{n - 1}")
    index = np.arange(len(populations))
    z_i, z_j = (1 - 2 * ((index >> (n - 1 - s)) & 1) for s in (i, j))
    return (math.fsum(populations * (z_i * z_j))
            - math.fsum(populations * z_i) * math.fsum(populations * z_j))
