"""Doubled-space correlation machinery and inclusion-exclusion operators.

Bipartite correlations of a Gibbs state become single traces on the tensor
square of the Hilbert space: with O^(0) = O x 1, O^(1) = O x 1 - 1 x O and
O^(+) = O x 1 + 1 x O,

    Cor(O_X, O_Y) = tr[(rho x rho) O_X^(0) O_Y^(1)].

Traces of (+)-operator strings against O_X^(0) O_Y^(1) vanish whenever the
support collection splits into two parts, one holding X and one holding Y,
with disjoint unions; that is what makes inclusion-exclusion over boundary
bonds kill every cluster that fails to connect X to Y.

The inclusion-exclusion ("zeroth-order removing") operator over a bond set S
is the alternating sum of Gibbs exponentials

    G_S = sum_{lam in {0,1}^S} (-1)^(|S| - |lam|) exp(beta * (H - sum_(1-lam_j) h_j)),

computed branch by branch.  Every tensor-square trace is evaluated in
factorized form: an operator A x B against the probe gives
tr[Psi (A x B)] = tr(O_X O_Y A) tr(B) - tr(O_X A) tr(O_Y B), a (+)-string
expands into a sum of such products over subsets of its factors, and each
inclusion-exclusion branch is a tensor square.

Local operators (the probes O_X and O_Y, the string factors Z_i, the weight
factors W_j, the window-localized BP operators of ``gamma_pair``) meet
full-space matrices only on their own sites: they multiply by contraction
(``opalg.apply_local``), or by scaling rows when they are diagonal (sigma_z
probes and factors, and on a commuting chain every window BP operator and
its product K_j = B_j^dag B_j), and are traced from a diagonal view
(``opalg.local_trace``); none is embedded or multiplied as a dense
full-space matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import opalg, qbp
from .chain import TruncatedHamiltonian, terms_matrix
from .errors import (
    CapExceeded,
    NotCommuting,
    NotPSD,
    NotUnitNorm,
    OverlappingSupports,
)

# the most inclusion-exclusion branches (2^m for m bonds) any sum expands
BRANCH_CAP = 64


@dataclass(frozen=True)
class PsiOperator:
    """The probe O_X^(0) O_Y^(1), kept in factorized form."""

    o_x: opalg.DenseOperator
    o_y: opalg.DenseOperator

    def expectation(self, a, b=None):
        """tr[Psi (A x B)] via single-space traces; B defaults to A.

        The result is a connected correlation, often orders of magnitude
        below the two products it is the difference of, so each trace is
        correctly rounded: ``opalg.local_trace`` on the probe's own sites
        (O_X O_Y is the kron of the factors on their joint support) and the
        math.fsum of the diagonal of B.
        """
        b = a if b is None else b
        o_x, o_y = self.o_x, self.o_y
        xy = opalg.local_trace(np.kron(o_x.matrix, o_y.matrix), o_x.sites + o_y.sites, a)
        return (
            xy * _exact_sum(np.diagonal(b))
            - opalg.local_trace(o_x.matrix, o_x.sites, a)
            * opalg.local_trace(o_y.matrix, o_y.sites, b)
        )


def _exact_sum(values):
    return complex(math.fsum(values.real), math.fsum(values.imag))


def _apply(op: opalg.DenseOperator, mat):
    """(op on its sites x 1) @ mat, by contraction on those sites."""
    return opalg.apply_local(op.matrix, op.sites, mat)


def _sandwich(op: opalg.DenseOperator, mat):
    """op mat op^dag as (op (op mat)^dag)^dag: two contractions."""
    return _apply(op, _apply(op, mat).conj().T).conj().T


def psi(o_x: opalg.DenseOperator, o_y: opalg.DenseOperator) -> PsiOperator:
    """Build the correlation probe; requires disjoint supports and unit norms (to 1e-10)."""
    if set(o_x.sites) & set(o_y.sites):
        raise OverlappingSupports("probe factors must have disjoint supports")
    for op, name in ((o_x, "O_X"), (o_y, "O_Y")):
        if abs(opalg.opnorm(op) - 1.0) > 1e-10:
            raise NotUnitNorm(f"{name} must have unit spectral norm")
    return PsiOperator(o_x=o_x, o_y=o_y)


# ---------------------------------------------------------------------------
# disconnected-support traces


def supports_split(x_sites, y_sites, z_supports):
    """True when {X, Z_1.., Y} splits into X-part and Y-part with disjoint unions.

    Connectivity by pairwise overlap: the split exists iff the overlap graph
    leaves X and Y in different components.
    """
    sets = [set(x_sites)] + [set(z) for z in z_supports] + [set(y_sites)]
    n_nodes = len(sets)
    seen = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for other in range(n_nodes):
            if other not in seen and sets[cur] & sets[other]:
                seen.add(other)
                frontier.append(other)
    return (n_nodes - 1) not in seen


@dataclass(frozen=True)
class DisconnectedTraceResult:
    value: complex
    disconnected: bool
    scale: float


def disconnected_trace(
    z_ops, o_x: opalg.DenseOperator, o_y: opalg.DenseOperator, n,
) -> DisconnectedTraceResult:
    """tr[ prod_i Z_i^(+) . O_X^(0) O_Y^(1) ] with its disconnection check.

    The string expands as prod_i Z_i^(+) = sum_S P_S x Q_S over the subsets S
    of its factors, P_S the ordered product of the Z_i in S and Q_S that of
    the rest, so the value is sum_S tr[Psi (P_S x Q_S)] in single-space
    traces.  When the support collection is disconnected the value is an
    exact zero up to rounding; the caller gets the measured value, the
    checker verdict and the natural scale (product of operator norms times
    the doubled dimension) to compare against.
    """
    if set(o_x.sites) & set(o_y.sites):
        raise OverlappingSupports("X and Y must be disjoint")
    dim = 2**n
    probe = PsiOperator(o_x=o_x, o_y=o_y)
    eye = np.eye(dim, dtype=complex)
    value = 0.0 + 0.0j
    for in_p in itertools.product((False, True), repeat=len(z_ops)):
        p, q = eye, eye
        # ordered products, formed right to left by applying each factor
        for z, left in reversed(list(zip(z_ops, in_p))):
            if left:
                p = _apply(z, p)
            else:
                q = _apply(z, q)
        value += probe.expectation(p, q)
    scale = float(dim * dim)
    for z in z_ops:
        scale *= 2.0 * opalg.opnorm(z)
    scale *= 2.0 * opalg.opnorm(o_x) * opalg.opnorm(o_y)
    ok = supports_split(o_x.sites, o_y.sites, [z.sites for z in z_ops])
    return DisconnectedTraceResult(value=value, disconnected=ok, scale=scale)


# ---------------------------------------------------------------------------
# inclusion-exclusion operators


def lambda_branches(m):
    """All (lambda, sign) pairs of the m-bond inclusion-exclusion sum."""
    out = []
    for lam in itertools.product((0, 1), repeat=m):
        sign = (-1) ** (m - sum(lam))
        out.append((lam, sign))
    return tuple(out)


def _branch_exponentials(h_mat, bonds, beta):
    """(lambda, sign, e^{beta H_lambda}) per branch, all-zero lambda first.

    H_lambda = H - sum_j (1 - lambda_j) h_j: the all-one branch is e^{beta H}.
    """
    m = len(bonds)
    for lam, sign in lambda_branches(m):
        h_lam = h_mat - sum((1 - l) * b for l, b in zip(lam, bonds)) if m else h_mat
        yield lam, sign, opalg.herm_expm(h_lam, beta)


def _check_branches(m):
    if 2**m > BRANCH_CAP:
        raise CapExceeded(f"2^{m} branches exceed BRANCH_CAP {BRANCH_CAP}")


def g_operator(h_mat, bonds, beta):
    """Inclusion-exclusion sum over the given bond matrices (single-space form).

    For an empty bond set this is exp(beta H); for one bond it equals
    exp(beta H) - exp(beta (H - h_s)).
    """
    h_mat = np.asarray(h_mat)
    bonds = [np.asarray(b) for b in bonds]
    _check_branches(len(bonds))
    out = np.zeros_like(h_mat, dtype=complex)
    for _, sign, e_lam in _branch_exponentials(h_mat, bonds, beta):
        out = out + sign * e_lam
    return out


def g_operator_nested(h_mat, bonds, beta):
    """The same operator by the recursive difference definition (test oracle)."""

    def rec(mat, remaining):
        if not remaining:
            return opalg.herm_expm(mat, beta)
        head, *tail = remaining
        return rec(mat, tail) - rec(mat - head, tail)

    return rec(np.asarray(h_mat), [np.asarray(b) for b in bonds])


# ---------------------------------------------------------------------------
# the all-bond identity and the commuting-case chain


@dataclass(frozen=True)
class IdentityResidualReport:
    residual: float
    cor_abs: float
    psi_g_over_z: float
    trace_norm_ratio: float | None
    z2: float


def correlation_identity_residual(
    h_tc: TruncatedHamiltonian, o_x, o_y, beta
) -> IdentityResidualReport:
    """Residual of tr[Psi (e^{beta H+} - G_all)] = 0 over all boundary bonds.

    Works entirely through the tensor-square factorization: each
    inclusion-exclusion branch contributes single-space traces only.  Also
    reports |Cor| and |tr(Psi G)| / Z^2, whose agreement is the usable form
    of the identity, and for commuting chains the ratio to the trace-norm
    majorant 2 ||G||_1 / Z^2.
    """
    _check_branches(h_tc.q + 1)
    probe = psi(o_x, o_y)
    h_mat = h_tc.matrix()
    bonds = [h_tc.bond_matrix(s) for s in range(h_tc.q + 1)]

    total = 0.0 + 0.0j
    g_trace = 0.0
    for lam, sign, e_lam in _branch_exponentials(h_mat, bonds, beta):
        contrib = probe.expectation(e_lam)
        total += sign * contrib
        g_trace += sign * float(np.trace(e_lam).real) ** 2
        if all(lam):  # the all-ones branch is e^{beta H} itself
            full_term = contrib
            z = float(np.trace(e_lam).real)

    z2 = z * z
    # tr[Psi e^{beta H+}] equals the all-ones branch
    residual = abs(full_term - total) / z2

    cor_abs = abs(full_term) / z2  # Cor(O_X, O_Y) in factorized form
    psi_g = abs(total) / z2

    ratio = None
    if _kept_bundles_commute(h_tc):
        # commuting case: G is positive, so ||G||_1 = tr G, computable per branch
        ratio = cor_abs / max(2.0 * g_trace / z2, 1e-300)
    return IdentityResidualReport(
        residual=float(residual),
        cor_abs=float(cor_abs),
        psi_g_over_z=float(psi_g),
        trace_norm_ratio=ratio,
        z2=z2,
    )


def _kept_bundles_commute(h_tc: TruncatedHamiltonian):
    bundles = [b for b in list(h_tc.v_terms) + list(h_tc.h_terms) if b]
    supports = [{s for t in b for s in t.sites} for b in bundles]
    for (b1, s1), (b2, s2) in itertools.combinations(zip(bundles, supports), 2):
        if s1 & s2:
            union = sorted(s1 | s2)
            if not _commute(terms_matrix(b1, union), terms_matrix(b2, union)):
                return False
    return True


@dataclass(frozen=True)
class CommutingBoundReport:
    exact_cor: float
    product_bound: float
    final_bound: float

    @property
    def product_ok(self):
        return self.exact_cor <= self.product_bound + 1e-10

    @property
    def final_ok(self):
        return self.product_bound <= self.final_bound + 1e-10


def commuting_chain_bound(h_tc: TruncatedHamiltonian, beta) -> CommutingBoundReport:
    """Correlation bound chain for mutually commuting truncated chains.

    exact <= 2 prod_s (1 - e^{-beta 2||h_s||}) <= 2 exp(-R / (l0 e^{2 beta gt}))
    with doubled bond norms 2||h_s|| <= 2 gt and R = q * l0; exact is |Cor(Z, Z)|
    across the cut, from the ends of the first and last blocks.
    """
    if not _kept_bundles_commute(h_tc):
        raise NotCommuting("bound chain needs mutually commuting bundles")
    pops = opalg.gibbs_populations(h_tc.matrix(), beta)
    exact = abs(opalg.zz_correlation(pops, h_tc.blocks[0][-1], h_tc.blocks[-1][0]))

    bond_norms = tuple(h_tc.bond_norm(s) for s in range(h_tc.q + 1))
    product_bound = 2.0 * math.prod(-math.expm1(-2.0 * beta * h) for h in bond_norms)
    try:
        spread = h_tc.block_len * math.exp(2.0 * beta * h_tc.base.g_tilde)
    except OverflowError:  # e^{2 beta gt} past float range: the bound is its limit 2
        spread = math.inf
    final_bound = 2.0 * math.exp(-h_tc.separation / spread)
    return CommutingBoundReport(
        exact_cor=float(exact),
        product_bound=float(product_bound),
        final_bound=float(final_bound),
    )


# ---------------------------------------------------------------------------
# standalone operator lemmas as checkable properties; their spectral checks
# take every norm and eigenvalue through opalg


def _commute(a, b):
    """||[A, B]|| <= 1e-12 ||A|| ||B|| for Hermitian A, B (i[A, B] is Hermitian)."""
    scale = max(opalg.opnorm(a) * opalg.opnorm(b), 1e-300)
    return opalg.opnorm(1j * (a @ b - b @ a)) <= 1e-12 * scale


def _min_eig(mat):
    return float(opalg.spectrum(mat).evals[0][0])


def _require_psd(mat, name):
    """NotPSD unless Hermitian ``mat`` has no eigenvalue below -1e-12 max(1, ||mat||)."""
    if _min_eig(mat) < -1e-12 * max(1.0, opalg.opnorm(mat)):
        raise NotPSD(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class PositivityShiftReport:
    min_eig: float
    passed: bool


def verify_positivity_shift(a, b, zeta) -> PositivityShiftReport:
    """Minimum eigenvalue of e^{A + B + zeta} - e^{A} for PSD A, B.

    The difference is guaranteed positive for zeta >= ||A||; the report's
    ``passed`` records whether the measured minimum clears -1e-10.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    for name, mat in (("A", a), ("B", b)):
        opalg.require_hermitian(mat, name)
        _require_psd(mat, name)
    diff = math.exp(zeta) * opalg.herm_expm(a + b) - opalg.herm_expm(a)
    min_eig = _min_eig(diff)
    return PositivityShiftReport(min_eig=min_eig, passed=min_eig >= -1e-10)


@dataclass(frozen=True)
class WeightedProductReport:
    lhs: float
    rhs: float
    passed: bool


def verify_weighted_product(w_ops, rho_full, psi_vec, x_sites) -> WeightedProductReport:
    """Weighted-product trace inequality for commuting PSD factors on X.

    lhs = <psi| tr_X(rho prod W_j) |psi> must not exceed
    rhs = <psi| tr_X(rho prod (W_j + 1)) |psi> * prod ||W_j|| / (||W_j|| + 1)
    for any PSD rho on the chain (its dimension fixes the site count) and
    any state psi on the complement of X, to 1e-10 of the larger side (or
    of 1).  Each bracket is one ``opalg.local_trace``: <psi| tr_X(rho W) |psi>
    = tr((W x |psi><psi|) rho), W on X and the projector on the complement.
    """
    x_sites = tuple(sorted(int(s) for s in x_sites))
    w_ops = [np.asarray(w, dtype=complex) for w in w_ops]
    for i, w in enumerate(w_ops):
        opalg.require_hermitian(w, f"W_{i}")
        _require_psd(w, f"W_{i}")
    for w1, w2 in itertools.combinations(w_ops, 2):
        if not _commute(w1, w2):
            raise NotCommuting("weight factors must commute pairwise")
    rho_full = np.asarray(rho_full, dtype=complex)
    n = opalg.n_qubits(rho_full.shape[0])
    _require_psd(rho_full, "rho")

    keep = tuple(s for s in range(n) if s not in x_sites)
    psi_vec = np.asarray(psi_vec, dtype=complex)
    psi_vec = psi_vec / np.linalg.norm(psi_vec)
    projector = np.outer(psi_vec, psi_vec.conj())

    def bracket(mats):
        prod = functools.reduce(np.matmul, mats, np.eye(2 ** len(x_sites)))
        return opalg.local_trace(np.kron(prod, projector), x_sites + keep, rho_full).real

    lhs = bracket(w_ops)
    rhs = bracket([w + np.eye(2 ** len(x_sites)) for w in w_ops])
    for w in w_ops:
        nw = opalg.opnorm(w)
        rhs *= nw / (nw + 1.0)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return WeightedProductReport(lhs=lhs, rhs=rhs, passed=lhs <= rhs + 1e-10 * scale)


# ---------------------------------------------------------------------------
# block-localized inclusion-exclusion (the Gamma pair)


@dataclass(frozen=True)
class GammaPairReport:
    psi_trace_gamma_local: float
    psi_trace_decay: float
    factorization_residual: float
    z2: float


def gamma_pair(
    h_tc: TruncatedHamiltonian,
    centers,
    betas,
    o_x,
    o_y,
    tau_steps=32,
    integrator="cf4",
) -> tuple:
    """Block-local approximants of the alternating Gibbs sum over center bonds, one per beta.

    Gamma removes the zeroth order of every center bond from the doubled
    Gibbs exponential; Gamma-tilde replaces the exact removal operators by
    window-localized ones, after which the probe trace factorizes into the
    product form that drives the distance decay.  Only Gamma-tilde is
    traced, so the full space sees one exponential per beta whatever m is,
    e^{beta H_0} (H_0 = H minus every center bond), and Z is the sum of
    e^{beta E} over H's spectrum; each window takes one ``qbp.localized_sweep``
    over all betas.  All traces go through the tensor-square factorization.

    Each window BP operator B_j stays on its own window and acts on a
    full-space matrix by contraction (``opalg.apply_local``; a diagonal B_j,
    as on a commuting chain, scales rows), never embedded:
    M_lam = B_lam e^{beta H_0} B_lam^dag is e^{beta H_0} sandwiched by each
    B_j in lam, and K_S e^{beta H_0} applies each window product
    K_j = B_j^dag B_j in S.  The windows are disjoint, so the B_j commute.
    """
    m = centers.m
    _check_branches(m)
    probe = psi(o_x, o_y)
    h_mat = h_tc.matrix()
    bonds = [centers.bond_matrix(j) for j in range(m)]

    # window-localized removal operators on their windows, per window one per beta
    sweeps = [qbp.localized_sweep(h_tc, centers.centers[j], centers.blocks[j + 1], betas,
                                  tau_steps=tau_steps, integrator=integrator)
              for j in range(m)]
    spec0 = opalg.hermitian_eig(h_mat - sum(bonds))
    spec = opalg.hermitian_eig(h_mat)
    reports = []
    for i, beta in enumerate(betas):
        local_ops = [ops[i].op for ops in sweeps]
        e0 = opalg.herm_expm(spec0, beta)
        z = float(sum(c * np.sum(np.exp(beta * e))
                      for c, e in zip(spec.layout.counts(), spec.evals)))
        tr_gamma_local = 0.0 + 0.0j
        for lam, sign in lambda_branches(m):
            m_lam = e0
            for op, l in zip(local_ops, lam):
                if l:
                    m_lam = _sandwich(op, m_lam)
            tr_gamma_local += sign * probe.expectation(m_lam)

        # product form: expand prod_j (K_j (x) K_j - 1) over subsets, K_j = B_j^dag B_j
        k_ops = [replace(op, matrix=op.matrix.conj().T @ op.matrix) for op in local_ops]
        tr_product_form = 0.0 + 0.0j
        for subset, sign in lambda_branches(m):
            k_e0 = e0
            for k, inc in zip(k_ops, subset):
                if inc:
                    k_e0 = _apply(k, k_e0)
            tr_product_form += sign * probe.expectation(k_e0)

        z2 = z * z
        scale = max(abs(tr_gamma_local), abs(tr_product_form), z2 * 1e-30)
        reports.append(GammaPairReport(
            psi_trace_gamma_local=abs(tr_gamma_local),
            psi_trace_decay=abs(tr_gamma_local) / z2,
            factorization_residual=float(abs(tr_gamma_local - tr_product_form) / scale),
            z2=z2,
        ))
    return tuple(reports)
