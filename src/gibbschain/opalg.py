"""Dense operator algebra on qubit chains (d = 2).

Every site is a qubit: an n-site operator is a 2^n x 2^n matrix, site j is
bit n-1-j of the basis index (site 0 is the most significant bit), and a
function given a full-space matrix reads n from its dimension
(``n_qubits``).  Only functions that create a space (``embed_matrix``,
``embed``) take n.

Everything is dense numpy; matrix exponentials of Hermitian operators go
through eigendecomposition (large-beta exponentials lose accuracy in series
methods).  A ``Spectrum`` is a read-only eigendecomposition: callers that
need one operator's exponential at several scales (Gibbs states at several
beta, evolutions at several t) diagonalize once and pass the spectrum to
``herm_expm``, ``gibbs`` or ``evolve`` in place of the matrix.  There is no
hidden cache; every function is pure.

A local operator meets a full-space matrix in one of two ways.
``add_embedded`` adds it (identity elsewhere) into a full-space matrix in
place, and ``embed_matrix`` builds that embedding.  ``apply_local``
multiplies by it, contracting it with the row axes of its sites: O(dim^2 2^k)
for k sites where the embedded product costs O(dim^3).

This module is the one place that knows the symmetry sectors of qubit
chains.  ``sectors`` reads them from the exact zero pattern: the popcount
classes (total S^z: XXZ and Ising chains and all built from them), else the
two popcount-parity classes (Z2: sigma_x probe commutators on those chains),
else one block.  ``hermitian_eig`` and ``opnorm`` work block by block, a sum
of C(n,k)^3 flops instead of 2^(3n), 28x fewer at n = 10 (Sandvik, AIP Conf.
Proc. 1297, 2010), and ``herm_expm``, ``gibbs`` and ``evolve`` form
V f(E) V^dag block by block when V is block-diagonal.  Callers with matrices
of their own (``qbp``) take ``sectors`` and reassemble with ``from_blocks``.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionCap,
    NotHermitian,
    OverlappingSupports,
    SupportMismatch,
)

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

    @property
    def dim(self):
        return self.matrix.shape[0]


def herm_defect(mat):
    """Relative deviation from Hermiticity, max|A - A^dag| / max(max|A|, tiny).

    Entrywise maxima keep this guard O(dim^2); they bound the spectral-norm
    ratio up to a factor dim, which is irrelevant at the 1e-12 scale checked.
    """
    if not np.iscomplexobj(mat):
        d = float(np.abs(mat - mat.T).max(initial=0.0))
    else:
        d = float(np.abs(mat - mat.conj().T).max(initial=0.0))
    s = float(np.abs(mat).max(initial=0.0))
    return d / max(s, 1e-300)


def require_hermitian(mat, what="operator"):
    if herm_defect(mat) > HERM_TOL:
        raise NotHermitian(f"{what} is not Hermitian")


def single_site(op_matrix, site) -> DenseOperator:
    return DenseOperator((site,), np.asarray(op_matrix, dtype=complex))


# ---------------------------------------------------------------------------
# embedding / partial trace


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
    O(dim^3) product.  The right product mat @ (op x 1) is
    apply_local(op^dag, sites, mat^dag)^dag.
    """
    mat = np.asarray(mat)
    n = n_qubits(mat.shape[0])
    sites = [int(s) for s in sites]
    if any(s < 0 or s >= n for s in sites):
        raise SupportMismatch(f"support {sites} not inside 0..{n - 1}")
    k = len(sites)
    t = np.tensordot(np.asarray(op).reshape((2,) * (2 * k)),
                     mat.reshape((2,) * n + (-1,)),
                     axes=(range(k, 2 * k), sites))
    return np.moveaxis(t, range(k), sites).reshape(mat.shape)


def embed_matrix(mat, sites, n):
    """Embed ``mat`` (acting on ``sites``) into the full n-site space."""
    mat = np.asarray(mat)
    return add_embedded(np.zeros((2**n, 2**n), np.result_type(float, mat)), mat, sites)


def embed(op: DenseOperator, n: int) -> DenseOperator:
    return DenseOperator(tuple(range(n)), embed_matrix(op.matrix, op.sites, n))


def partial_trace(mat, keep_sites):
    """Trace out every site not in ``keep_sites`` from a full-space matrix.

    Returns the matrix on ``keep_sites`` in ascending site order.
    """
    mat = np.asarray(mat)
    n = n_qubits(mat.shape[0])
    keep = sorted(int(s) for s in keep_sites)
    drop = [i for i in range(n) if i not in keep]
    t = mat.reshape([2] * (2 * n))
    for k, site in enumerate(drop):
        ax = site - sum(1 for d2 in drop[:k] if d2 < site)
        nleft = n - k
        t = np.trace(t, axis1=ax, axis2=ax + nleft)
    dim = 2 ** len(keep)
    return t.reshape(dim, dim)


# ---------------------------------------------------------------------------
# symmetry sectors


@functools.lru_cache(maxsize=None)
def _sector_labels(n):
    """Popcount and its parity for every n-bit basis index, each with the
    indices whose label differs from index 0's (never written)."""
    weight = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    return tuple((label, np.flatnonzero(label)) for label in (weight, weight & 1))


def _respects(mats, label):
    """True when every matrix is exactly zero between basis states of different
    ``label``; row chunks of ~65k entries are scanned up to the first break."""
    step = max(1, (1 << 16) // len(label))
    for mat in mats:
        for lo in range(0, len(label), step):
            bad = label[lo : lo + step, None] != label
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
        for label, off0 in _sector_labels(n):
            if not edge[off0].any() and _respects(mats, label):
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


# ---------------------------------------------------------------------------
# eigendecomposition


class Spectrum(NamedTuple):
    """Eigenvalues and orthonormal eigenvectors (columns), read-only.

    From ``spectrum`` the eigenvalues ascend; from ``hermitian_eig`` they
    ascend within each sector, and no caller relies on a global order.
    """

    evals: np.ndarray
    vecs: np.ndarray


def spectrum(mat) -> Spectrum:
    """One eigendecomposition of a matrix Hermitian by construction (unchecked)."""
    # real symmetric input stays in the real path; it is ~4x faster
    if np.iscomplexobj(mat) and np.abs(mat.imag).max(initial=0.0) == 0.0:
        mat = mat.real
    evals, vecs = np.linalg.eigh(mat)
    evals.setflags(write=False)
    vecs.setflags(write=False)
    return Spectrum(evals, vecs)


def hermitian_eig(mat) -> Spectrum:
    """Eigendecomposition of a caller's Hermitian matrix (checked), sector by sector.

    Each block of ``sectors`` is diagonalized on its own; eigenvalue k
    belongs to column k of the dense, block-diagonal vecs.  This is the one
    place ``DIM_CAP`` is checked: every checked diagonalization passes here.
    """
    mat = np.asarray(mat)
    if mat.shape[0] > DIM_CAP:
        raise DimensionCap(f"dimension {mat.shape[0]} exceeds DIM_CAP {DIM_CAP}")
    require_hermitian(mat)
    blocks = sectors(mat)
    if len(blocks) == 1:
        return spectrum(mat)
    parts = [spectrum(sector_block(mat, b)) for b in blocks]
    evals = np.empty(mat.shape[0])
    for block, part in zip(blocks, parts):
        evals[block] = part.evals
    vecs = from_blocks(blocks, [part.vecs for part in parts])
    evals.setflags(write=False)
    vecs.setflags(write=False)
    return Spectrum(evals, vecs)


def _spectrum_of(a) -> Spectrum:
    return a if isinstance(a, Spectrum) else hermitian_eig(a)


def _block_sandwiches(spec, weights):
    """The sectors of ``spec.vecs`` and V diag(weights) V^dag on each of them."""
    blocks = sectors(spec.vecs)
    vs = [sector_block(spec.vecs, b) for b in blocks]
    return blocks, [(v * weights[b]) @ v.conj().T for v, b in zip(vs, blocks)]


def herm_expm(a, scale=1.0):
    """exp(scale * A) for Hermitian A (matrix or Spectrum)."""
    spec = _spectrum_of(a)
    return from_blocks(*_block_sandwiches(spec, np.exp(scale * spec.evals)))


# ---------------------------------------------------------------------------
# norms, Gibbs states, evolution, correlations


def _spectral_norm(mat):
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

    Over the blocks of ``sectors`` the spectral norm is the largest block
    norm and the trace norm the sum of block norms.
    """
    mat = op.matrix if isinstance(op, DenseOperator) else np.asarray(op)
    if kind not in ("spectral", "trace"):
        raise ValueError(f"unknown norm kind {kind!r}")
    blocks = sectors(mat)
    if kind == "spectral":
        return max(_spectral_norm(sector_block(mat, b)) for b in blocks)
    return sum(_trace_norm(sector_block(mat, b)) for b in blocks)


@dataclass(frozen=True)
class GibbsState:
    """Thermal state exp(beta*H)/Z.  The sign convention puts the customary
    minus sign inside the Hamiltonian, so beta multiplies +H."""

    beta: float
    rho: DenseOperator
    logZ: float

    @property
    def n_sites(self):
        return len(self.rho.sites)


def gibbs(h, beta) -> GibbsState:
    """Gibbs state of a Hamiltonian given as matrix or Spectrum."""
    spec = _spectrum_of(h)
    n = n_qubits(len(spec.evals))
    m = beta * spec.evals
    shift = np.max(m)
    logz = shift + np.log(np.sum(np.exp(m - shift)))
    rho = from_blocks(*_block_sandwiches(spec, np.exp(m - logz)))
    rho = 0.5 * (rho + rho.conj().T)
    return GibbsState(beta=float(beta), rho=DenseOperator(tuple(range(n)), rho), logZ=float(logz))


def evolve(op, generator, t):
    """Heisenberg evolution exp(iGt) O exp(-iGt) on a common full space.

    O is a matrix, G a Hermitian matrix or a Spectrum; t = 0 returns O as a
    complex copy.  Over the sectors of a block-diagonal V, U acts block by
    block on both sides of O; block pairs where O vanishes stay zero.
    """
    o_mat = np.asarray(op)
    g_shape = generator.vecs.shape if isinstance(generator, Spectrum) else np.shape(generator)
    if o_mat.shape != g_shape:
        raise SupportMismatch("operator and generator must share a space; embed first")
    spec = _spectrum_of(generator)
    if t == 0:
        return o_mat.astype(complex)
    blocks, us = _block_sandwiches(spec, np.exp(1j * spec.evals * t))
    if len(blocks) == 1:
        return us[0] @ o_mat @ us[0].conj().T
    out = np.zeros(o_mat.shape, complex)
    for bi, ui in zip(blocks, us):
        left = ui @ o_mat[bi]
        for bj, uj in zip(blocks, us):
            if np.any(left[:, bj]):
                out[np.ix_(bi, bj)] = left[:, bj] @ uj.conj().T
    return out


def correlation(state: GibbsState, o_x: DenseOperator, o_y: DenseOperator) -> complex:
    """tr(rho O_X O_Y) - tr(rho O_X) tr(rho O_Y) for disjoint supports."""
    if set(o_x.sites) & set(o_y.sites):
        raise OverlappingSupports("correlation requires disjoint supports")
    n = state.n_sites
    a = embed(o_x, n).matrix
    b = embed(o_y, n).matrix
    r = state.rho.matrix
    joint = np.trace(r @ a @ b)
    return complex(joint - np.trace(r @ a) * np.trace(r @ b))
