"""1D long-range Hamiltonians: construction, truncation, block geometry.

A chain is a list of positive two-site terms on n qubits (d = 2, the one
local space of the library; ``opalg`` fixes it).  Terms are generated
from a decay profile and shifted to positive semidefinite at build time.
The chain owns the constants every bound reads: the coupling scale ``g``,
measured from the generated terms rather than assumed, the tail constant
``gamma`` of its profile, and ``g_tilde = g gamma^2 jbar(1)``.  The profile
itself is only the shape jbar.

Sites are indexed 0..n-1.  Distances are shortest-path distances on the chain
graph (adjacent sites at distance 1, overlapping sets at distance 0).  For
block partitions, the quantity that multiplies block counts is the separation
width ``R = q * block_len`` = number of sites strictly between the terminal
regions, one less than the graph distance between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from . import opalg
from .errors import BadPartition, GeometryError, InvalidSpec, Overlap
from .profiles import DecayProfile, measure_gamma

GENERATORS = ("ising_zz", "heisenberg_xxz", "random_two_site")


@dataclass(frozen=True)
class LocalTerm:
    """Positive local term h_Z with its support and norm."""

    sites: tuple
    matrix: np.ndarray
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        object.__setattr__(self, "norm", opalg.spectral_norm(self.matrix))

    def crosses(self, cut):
        """True if the support straddles the bond between sites cut, cut+1."""
        return min(self.sites) <= cut < max(self.sites)


def set_distance(a, b):
    """Shortest-path distance between two site sets; 0 when they intersect."""
    sa, sb = set(a), set(b)
    if sa & sb:
        return 0
    return min(abs(i - j) for i in sa for j in sb)


def _shift_psd(raw: LocalTerm) -> LocalTerm:
    """h -> h + ||h|| 1, making the term positive semidefinite."""
    shifted = raw.matrix + raw.norm * np.eye(raw.matrix.shape[0])
    return LocalTerm(raw.sites, shifted)


def terms_matrix(terms, sites):
    """Sum of ``terms`` on the tensor space of ``sites``, in the listed order.

    Every term must lie inside ``sites``.  The sum is formed in the terms'
    dtype (real unless a term is complex), each term added in place into a
    diagonal view of the output, so no embedded copy of a term is built.
    """
    terms = list(terms)
    pos = {int(s): a for a, s in enumerate(sites)}
    dim = 2 ** len(pos)
    out = np.zeros((dim, dim), np.result_type(float, *(t.matrix for t in terms)))
    for t in terms:
        opalg.add_embedded(out, t.matrix, [pos[s] for s in t.sites])
    return out


def _read_only(mat):
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class ChainHamiltonian:
    """Finite chain of positive local terms with its measured constants: the
    one-site coupling scale g and the tail-sum constant gamma of its profile."""

    n: int
    terms: tuple
    profile: DecayProfile
    g: float
    gamma: float
    _matrix_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def g_tilde(self):
        """Uniform bound g * gamma^2 * jbar(1) on every boundary bundle."""
        return self.g * self.gamma**2 * self.profile(1)

    @property
    def k(self):
        """Largest term support: every generator emits two-site terms."""
        return 2

    def matrix(self):
        """Full-space Hamiltonian matrix (cached, read-only)."""
        if "full" not in self._matrix_cache:
            self._matrix_cache["full"] = _read_only(terms_matrix(self.terms, range(self.n)))
        return self._matrix_cache["full"]

    def subset_matrix(self, sites):
        """Sum of the terms inside ``sites`` on their own tensor space (read-only)."""
        sites = sorted(int(s) for s in sites)
        inside = [t for t in self.terms if set(t.sites) <= set(sites)]
        return _read_only(terms_matrix(inside, sites))


def coupled_pairs(n, profile, coupling):
    """Pair -> strength coupling * jbar(j - i) of every pair i < j the chain
    builder gives a term: the pairs whose strength is not zero."""
    strength = {d: coupling * profile(d) for d in range(1, n)}
    pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    return {(i, j): strength[j - i] for i, j in pairs if strength[j - i] != 0.0}


def _pair_terms(n, profile, coupling, generator, seed, anisotropy):
    rng = default_rng(seed)
    sx, sy, sz = opalg.pauli("x"), opalg.pauli("y"), opalg.pauli("z")
    zz = np.kron(sz, sz).real
    xxz = (np.kron(sx, sx) + np.kron(sy, sy).real + anisotropy * zz).real
    terms = []
    for (i, j), strength in coupled_pairs(n, profile, coupling).items():
        if generator == "ising_zz":
            raw = strength * zz
        elif generator == "heisenberg_xxz":
            raw = strength * xxz
        else:
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = 0.5 * (m + m.conj().T)
            raw = (strength / LocalTerm((i, j), m).norm) * m
        terms.append(_shift_psd(LocalTerm((i, j), raw)))
    return terms


def build_chain(
    n,
    generator,
    profile: DecayProfile,
    coupling=1.0,
    seed=None,
    anisotropy=1.5,
) -> ChainHamiltonian:
    """Generate a chain whose couplings follow the profile.

    The one-site coupling scale g is measured from the shifted terms as the
    larger of the worst pair ratio J_{ii'} / jbar(d) (each coupled pair has
    one term, and jbar(d) > 0 on it) and the worst one-site energy, so both
    coupling invariants hold by construction.  gamma is measured from the
    profile up to ell = n.
    """
    if n < 2:
        raise InvalidSpec("need at least two sites")
    if generator not in GENERATORS:
        raise InvalidSpec(f"unknown generator {generator!r}")

    terms = _pair_terms(n, profile, coupling, generator, seed, anisotropy)

    worst_pair = max((t.norm / profile(t.sites[1] - t.sites[0]) for t in terms), default=0.0)
    one_site = max(
        (sum(t.norm for t in terms if i in t.sites) for i in range(n)), default=0.0
    )
    g = max(worst_pair, one_site)
    return ChainHamiltonian(
        n=n, terms=tuple(terms), profile=profile,
        g=float(g), gamma=float(measure_gamma(profile, n)),
    )


# ---------------------------------------------------------------------------
# block interaction norms


@dataclass(frozen=True)
class BlockInteraction:
    exact: float
    bound: float
    distance: int

    @property
    def passed(self):
        return self.exact <= self.bound + 1e-12


def block_interaction_norm(h: ChainHamiltonian, region_a, region_b) -> BlockInteraction:
    """Summed norm of terms joining two disjoint regions, with its envelope.

    exact is the sum of term norms over terms touching both regions (an upper
    bound on the norm of their sum); bound is g * gamma^2 * r^2 * jbar(r).
    """
    sa, sb = set(region_a), set(region_b)
    if sa & sb:
        raise Overlap("regions must be disjoint")
    r = set_distance(sa, sb)
    exact = sum(t.norm for t in h.terms if set(t.sites) & sa and set(t.sites) & sb)
    bound = h.g * h.gamma**2 * r**2 * h.profile(r)
    return BlockInteraction(exact=float(exact), bound=float(bound), distance=r)


# ---------------------------------------------------------------------------
# interaction truncation


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """Chain with all couplings between non-adjacent blocks removed.

    blocks[0] and blocks[-1] are the terminal regions; the q interior blocks
    have width block_len each.  v_terms[s] collects the terms inside block s,
    h_terms[s] the boundary terms joining blocks s and s+1, dropped the terms
    removed by the truncation.
    """

    base: ChainHamiltonian
    blocks: tuple
    block_len: int
    v_terms: tuple
    h_terms: tuple
    dropped: tuple
    _matrix_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self):
        return self.base.n

    @property
    def q(self):
        return len(self.blocks) - 2

    @property
    def separation(self):
        """R = q * block_len, the width of the region between the ends."""
        return self.q * self.block_len

    @property
    def kept_terms(self):
        out = []
        for bundle in self.v_terms:
            out.extend(bundle)
        for bundle in self.h_terms:
            out.extend(bundle)
        return tuple(out)

    def matrix(self):
        """Full-space matrix of the kept terms (cached, read-only)."""
        if "full" not in self._matrix_cache:
            self._matrix_cache["full"] = _read_only(
                terms_matrix(self.kept_terms, range(self.n))
            )
        return self._matrix_cache["full"]

    def bond_matrix(self, s):
        """Boundary bundle h_s as a full-space matrix."""
        return terms_matrix(self.h_terms[s], range(self.n))

    def bond_norm(self, s):
        """Norm of the boundary bundle h_s, summed on its own support."""
        bundle = self.h_terms[s]
        support = sorted({i for t in bundle for i in t.sites})
        return opalg.opnorm(terms_matrix(bundle, support)) if bundle else 0.0

    def delta_matrix(self):
        """Sum of the dropped terms, embedded in the full space."""
        return terms_matrix(self.dropped, range(self.n))


def partition(n, x_width, y_width, block_len):
    """X (the first x_width sites), the q interior blocks and Y (the last
    y_width sites) of an n-site chain, as site tuples.

    The interior must split into an even block count q >= 2 of block_len
    sites each (BadPartition otherwise); this is the one place that says so.
    """
    if min(x_width, y_width) < 1:
        raise BadPartition("X and Y need at least one site each")
    width = n - x_width - y_width
    if block_len < 1 or width < 2 * block_len or width % (2 * block_len):
        raise BadPartition(
            f"interior width {width} with block_len {block_len} must give an even "
            "block count >= 2"
        )
    interior = (tuple(range(s, s + block_len)) for s in range(x_width, n - y_width, block_len))
    return (tuple(range(x_width)), *interior, tuple(range(n - y_width, n)))


def truncation_spans(blocks, supports):
    """Where truncation files each support: (b, b) inside block b, (b, b + 1)
    across adjacent blocks b and b + 1, None when it is dropped."""
    block_of = {s: b for b, sites in enumerate(blocks) for s in sites}
    touched = ([block_of[s] for s in sites] for sites in supports)
    return [(min(b), max(b)) if max(b) - min(b) <= 1 else None for b in touched]


def truncate(h: ChainHamiltonian, x_sites, y_sites, block_len) -> TruncatedHamiltonian:
    """Drop every term that straddles non-adjacent blocks.

    X must be a prefix and Y a suffix of the chain; ``partition`` lays out
    the interior blocks.
    """
    x = sorted(int(s) for s in x_sites)
    y = sorted(int(s) for s in y_sites)
    if x != list(range(0, x[-1] + 1)):
        raise BadPartition("X must be a contiguous prefix of the chain")
    if y != list(range(y[0], h.n)):
        raise BadPartition("Y must be a contiguous suffix of the chain")
    blocks = partition(h.n, len(x), len(y), block_len)

    v_terms = [[] for _ in blocks]
    h_terms = [[] for _ in range(len(blocks) - 1)]
    dropped = []
    for t, span in zip(h.terms, truncation_spans(blocks, [t.sites for t in h.terms])):
        if span is None:
            dropped.append(t)
        else:
            (v_terms if span[0] == span[1] else h_terms)[span[0]].append(t)

    return TruncatedHamiltonian(
        base=h,
        blocks=blocks,
        block_len=int(block_len),
        v_terms=tuple(tuple(b) for b in v_terms),
        h_terms=tuple(tuple(b) for b in h_terms),
        dropped=tuple(dropped),
    )


@dataclass(frozen=True)
class TruncationErrorReport:
    exact_delta_norm: float
    op_norm_bound: float
    exact_trace_norm_diff: float
    trace_norm_bound: float  # nan where the smallness condition fails
    condition_value: float
    condition_ok: bool
    partition_function: float

    @property
    def op_ok(self):
        return self.exact_delta_norm <= self.op_norm_bound + 1e-12

    @property
    def trace_ok(self):
        """The trace-norm bound holds (never where it is nan)."""
        return self.exact_trace_norm_diff <= self.trace_norm_bound + 1e-9 * self.partition_function


def truncation_error_report(
    h: ChainHamiltonian, h_tc: TruncatedHamiltonian, beta, spectra
) -> TruncationErrorReport:
    """Measured truncation errors against their closed-form envelopes.

    The operator-norm envelope gamma^2 g q l0^2 jbar(l0) is unconditional.
    The trace-norm envelope 3 beta gamma^2 g q l0^2 jbar(l0) * tr exp(beta H)
    requires beta * gamma^2 g q l0^2 jbar(l0) <= 1; if that fails the bound
    is reported as nan with condition_ok False.  ``spectra`` is the pair
    (spectrum of H, spectrum of the truncated H), so sweeps over beta and
    block length diagonalize each Hamiltonian once.  When the two share one
    layout, ||e^{beta H} - e^{beta H_tc}||_1 and Z are taken piece by piece
    (``opalg.expm_difference``); otherwise from the dense difference.
    """
    l0 = h_tc.block_len
    op_bound = h.gamma**2 * h.g * h_tc.q * l0**2 * h.profile(l0)
    cond = beta * op_bound
    exact_delta = opalg.opnorm(h_tc.delta_matrix()) if h_tc.dropped else 0.0

    pieces = opalg.expm_difference(spectra[0], spectra[1], beta)
    if pieces is not None:
        diff_trace, z = pieces
    else:
        e_full = opalg.herm_expm(spectra[0], scale=beta)
        diff_trace = opalg.opnorm(e_full - opalg.herm_expm(spectra[1], scale=beta), kind="trace")
        z = float(np.trace(e_full).real)

    ok = cond <= 1.0
    return TruncationErrorReport(
        exact_delta_norm=exact_delta,
        op_norm_bound=float(op_bound),
        exact_trace_norm_diff=diff_trace,
        trace_norm_bound=3.0 * beta * op_bound * z if ok else float("nan"),
        condition_value=float(cond),
        condition_ok=ok,
        partition_function=z,
    )


# ---------------------------------------------------------------------------
# center-block decomposition


@dataclass(frozen=True)
class CenterDecomposition:
    """Interior split into m blocks of width 2*half_width with center bonds."""

    h_tc: TruncatedHamiltonian
    blocks: tuple
    centers: tuple
    bond_bundles: tuple

    @property
    def m(self):
        return len(self.centers)

    def bond_matrix(self, j):
        """Center bond bundle j as a full-space matrix."""
        return terms_matrix(self.bond_bundles[j], range(self.h_tc.n))


def center_cuts(supports, start, m, half_width):
    """The m center blocks of 2 * half_width sites from site ``start``, and
    for each the indices of the supports that cross its center cut.

    A support that crosses a center cut must lie inside its center block
    (GeometryError otherwise); this is the one place that says so.
    """
    blocks, bundles = [], []
    for k in range(m):
        lo = start + 2 * half_width * k
        hi = lo + 2 * half_width - 1
        center = lo + half_width - 1
        bundle = [a for a, sup in enumerate(supports) if min(sup) <= center < max(sup)]
        for a in bundle:
            if min(supports[a]) < lo or max(supports[a]) > hi:
                raise GeometryError(
                    f"support {tuple(supports[a])} crosses center cut {center} and "
                    f"leaves its center block {lo}..{hi}"
                )
        blocks.append(tuple(range(lo, hi + 1)))
        bundles.append(bundle)
    return blocks, bundles


def center_decomposition(h_tc: TruncatedHamiltonian, m, half_width) -> CenterDecomposition:
    """Split the region between the terminal blocks into m width-2l blocks.

    Each interior block carries the bundle of kept terms that straddle its
    center cut, which ``center_cuts`` keeps inside the block.  The
    decomposition carries no locality estimate, so half_width <=
    6 * block_len is allowed: only the exact algebraic identities read it.
    """
    if m < 1:
        raise GeometryError("need at least one interior block")
    ell = int(half_width)
    x = h_tc.blocks[0]
    y = h_tc.blocks[-1]
    width = y[0] - x[-1] - 1
    if 2 * ell * m != width:
        raise GeometryError(
            f"m={m} blocks of width {2 * ell} do not cover the {width}-site interior"
        )
    kept = h_tc.kept_terms
    blocks, bundles = center_cuts([t.sites for t in kept], x[-1] + 1, m, ell)
    return CenterDecomposition(
        h_tc=h_tc,
        blocks=(x, *blocks, y),
        centers=tuple(b[ell - 1] for b in blocks),
        bond_bundles=tuple(tuple(kept[a] for a in bundle) for bundle in bundles),
    )
