"""Reference oracles and one-point wrappers used only by the tests, kept out of the library."""

import math

import numpy as np
from scipy.linalg import expm

from gibbschain import chain, opalg, qbp
from gibbschain.errors import GibbsChainError, Overlap, OverlappingSupports


class OutOfRange(GibbsChainError):
    """Site index outside the chain."""


class SingularPoint(GibbsChainError):
    """Function evaluated at a non-integrable singular point."""


def coupling_strength(h, i, j):
    """Summed norm of all terms of chain ``h`` containing both sites."""
    if i == j:
        raise Overlap("coupling strength needs two distinct sites")
    for s in (i, j):
        if s < 0 or s >= h.n:
            raise OutOfRange(f"site {s} outside 0..{h.n - 1}")
    return sum(t.norm for t in h.terms if i in t.sites and j in t.sites)


def filter_value(beta, t):
    """Filter kernel value and its exponential tail majorant at time t.

    Returns (value, tail_bound) with tail_bound = (4/(pi beta))/(e^{pi|t|/beta}-1),
    which dominates the value for every t != 0.
    """
    t = float(t)
    if t == 0.0:
        raise SingularPoint("filter kernel diverges (integrably) at t = 0")
    x = math.pi * abs(t) / beta
    em1 = math.expm1(x)
    value = (2.0 / (math.pi * beta)) * math.log1p(2.0 / em1)
    tail = (4.0 / (math.pi * beta)) / em1
    return value, tail


def build_truncated_bp(h_tc, s, r, beta, **kw):
    """Window-truncated BP operator for boundary bundle s, window radius r."""
    cut, window = qbp._window_around(h_tc, s, r)
    return qbp.localized_sweep(h_tc, cut, window, (beta,), **kw)[0]


def spectral_filter_direct(scheme, omega):
    """sum_j w_j f_beta(t_j) cos(omega t_j), the quadrature node sum approximating F(omega)."""
    coef = scheme.weights * scheme.filter_at_nodes
    return np.cos(np.outer(omega, scheme.nodes)) @ coef


def reconstruction_residual(phi_mat, h_env, h_bond, beta):
    """|| Phi e^{beta H_env} Phi^dag - e^{beta H} || / || e^{beta H} ||, H = H_env + h.

    Dense and independent of the library: scipy's Pade exponentials and
    numpy's SVD spectral norm, no spectra and no symmetry sectors.
    """
    e_env = expm(beta * np.asarray(h_env))
    e_full = expm(beta * (np.asarray(h_env) + np.asarray(h_bond)))
    diff = phi_mat @ e_env @ phi_mat.conj().T - e_full
    return float(np.linalg.norm(diff, 2) / np.linalg.norm(e_full, 2))


def replace_terms(h, terms):
    """Chain ``h`` with its terms replaced (same site count and profile)."""
    return chain.ChainHamiltonian(n=h.n, terms=tuple(terms), profile=h.profile, g=h.g,
                                  gamma=h.gamma)


def as_chain(h_tc):
    """The truncated system ``h_tc`` repackaged as a plain chain of its kept terms."""
    return replace_terms(h_tc.base, h_tc.kept_terms)


def embed_matrix(mat, sites, n):
    """``mat`` on ``sites`` (in the order of its axes), identity on the rest of n qubits.

    Dense and independent of the library: mat (x) 1 on (sites, rest) by
    np.kron, then the tensor axes permuted into site order.
    """
    sites = [int(s) for s in sites]
    rest = [i for i in range(n) if i not in sites]
    full = np.kron(np.asarray(mat), np.eye(2 ** len(rest)))
    inv = list(np.argsort(sites + rest))
    t = full.reshape([2] * (2 * n)).transpose(inv + [n + i for i in inv])
    return t.reshape(2**n, 2**n)


def partial_trace(mat, keep_sites):
    """Trace out every site not in ``keep_sites`` from a full-space matrix.

    Returns the matrix on ``keep_sites`` in ascending site order.
    """
    mat = np.asarray(mat)
    n = opalg.n_qubits(mat.shape[0])
    keep = sorted(int(s) for s in keep_sites)
    drop = [i for i in range(n) if i not in keep]
    t = mat.reshape([2] * (2 * n))
    for k, site in enumerate(drop):
        ax = site - sum(1 for d2 in drop[:k] if d2 < site)
        nleft = n - k
        t = np.trace(t, axis1=ax, axis2=ax + nleft)
    dim = 2 ** len(keep)
    return t.reshape(dim, dim)


def dense_pauli_commutator(a, probe, site):
    """i[A, P] = 1j * (A @ P - P @ A), the Pauli ``probe`` embedded on ``site`` of A's qubits."""
    p = embed_matrix(opalg.pauli(probe), [site], opalg.n_qubits(a.shape[0]))
    return 1j * (a @ p - p @ a)


def apply_local_contracted(op, sites, mat):
    """(``op`` on ``sites``) @ ``mat`` by contraction for every ``op``, diagonal or not.

    The tensordot expression ``opalg.apply_local`` uses for a non-diagonal
    operator: op's column axes against the row axes of ``sites`` in the
    ``(2,) * n + (-1,)`` reshape of ``mat``, then the result's site axes moved
    back into place.
    """
    mat = np.asarray(mat)
    n = int(mat.shape[0]).bit_length() - 1
    k = len(sites)
    t = np.tensordot(np.asarray(op).reshape((2,) * (2 * k)), mat.reshape((2,) * n + (-1,)),
                     axes=(range(k, 2 * k), list(sites)))
    return np.moveaxis(t, range(k), list(sites)).reshape(mat.shape)


def herm_defect_untiled(mat):
    """max|A - A^dag| / max(max|A|, tiny) by one full-matrix difference, untiled."""
    mat = np.asarray(mat)
    d = float(np.abs(mat - mat.conj().T).max(initial=0.0))
    return d / max(float(np.abs(mat).max(initial=0.0)), 1e-300)


def gibbs_state(h, beta):
    """The dense Gibbs state exp(beta*H)/Z of a matrix or Spectrum, whose diagonal alone
    the library forms (``opalg.gibbs_populations``).

    V_p e^(beta E_p - log Z) V_p^dag per piece, each made Hermitian and the
    blocks assembled by the layout, with Z from the shifted weights counted
    once per block a piece fills.
    """
    spec = h if isinstance(h, opalg.Spectrum) else opalg.hermitian_eig(h)
    ms = [beta * e for e in spec.evals]
    shift = max(np.max(m) for m in ms)
    logz = shift + np.log(sum(c * np.sum(np.exp(m - shift))
                              for c, m in zip(spec.layout.counts(), ms)))
    rhos = [(v * np.exp(m - logz)) @ v.conj().T for v, m in zip(spec.vecs, ms)]
    return spec.layout.assemble([0.5 * (r + r.conj().T) for r in rhos])


def correlation(rho, o_x, o_y):
    """tr(rho O_X O_Y) - tr(rho O_X) tr(rho O_Y) for general probes on disjoint supports.

    O_X O_Y is the kron of the factors on their joint support; each trace
    is a correctly rounded ``opalg.local_trace``.
    """
    if set(o_x.sites) & set(o_y.sites):
        raise OverlappingSupports("correlation requires disjoint supports")
    joint = opalg.local_trace(np.kron(o_x.matrix, o_y.matrix), o_x.sites + o_y.sites, rho)
    return joint - (opalg.local_trace(o_x.matrix, o_x.sites, rho)
                    * opalg.local_trace(o_y.matrix, o_y.sites, rho))


def trace_of_product(p, a):
    """tr(p @ a) as the correctly rounded sum of the diagonal of the product."""
    terms = np.einsum("ij,ji->i", p, a)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def blockwise_evolve(o_mat, spec, t):
    """exp(iGt) O exp(-iGt) for a full-space O, U applied block by block.

    The dense block-pair form: over the spectrum's sectors, u_k is block k
    of V e^{iEt} V^dag, formed from its pieces, row block b_i of U O is
    u_i O[b_i], and each nonzero block pair (b_i, b_j) of it is multiplied by
    u_j^dag.  For Hermitian O, a pair below the diagonal is the conjugate
    transpose of its mirror and a diagonal pair P is (P + P^dag)/2 (a single
    block too), so the result is exactly Hermitian.
    """
    if t == 0:
        return np.asarray(o_mat).astype(complex)
    blocks = spec.layout.blocks
    us = spec.layout.blockwise([(v * np.exp(1j * e * t)) @ v.conj().T
                                for e, v in zip(spec.evals, spec.vecs)])
    hermitian = np.array_equal(o_mat, o_mat.conj().T)
    out = np.zeros(o_mat.shape, complex)
    for i, (bi, ui) in enumerate(zip(blocks, us)):
        left = ui @ o_mat[bi]
        for j, (bj, uj) in enumerate(zip(blocks, us)):
            if not np.any(left[:, bj]):
                continue
            if hermitian and j < i:
                out[np.ix_(bi, bj)] = out[np.ix_(bj, bi)].conj().T
                continue
            pair = left[:, bj] @ uj.conj().T
            out[np.ix_(bi, bj)] = 0.5 * (pair + pair.conj().T) if hermitian and i == j else pair
    return out


def dense_truncation_trace(spectra, beta):
    """(||e^{beta H} - e^{beta H_tc}||_1, tr e^{beta H}) from the two dense
    exponentials and their dense difference, ``spectra`` = (H's, H_tc's)."""
    e_full = opalg.herm_expm(spectra[0], scale=beta)
    e_trunc = opalg.herm_expm(spectra[1], scale=beta)
    return opalg.opnorm(e_full - e_trunc, kind="trace"), float(np.trace(e_full).real)


def theta_lines_by_search(reports, profile, block_len, count=10_000):
    """The rate-function fit's feasible lines on a slope grid, by search.

    Theta*_p, the least Theta at which ``qbp.locality_decay_envelope``
    dominates point p's error by 5%, comes from 200 steps of bisection.  The
    ``count`` slopes span evenly every slope between two of (0, 0) and the
    points (beta_p, Theta*_p), which holds the optimal slope; each gets its
    least intercept >= 0 with theta0 + theta1 beta_p >= Theta*_p at every
    point.  Returns (slopes, intercepts).
    """
    pts = [(rep.beta, rep.r, rep.exact) for rep in reports if rep.exact > 0]

    def dominates(theta, beta, r, exact):
        return qbp.locality_decay_envelope(lambda _: theta, profile, block_len, beta, r) >= (
            exact * 1.05)

    stars = []
    for beta, r, exact in pts:
        lo, hi = 0.0, 1.0
        while not dominates(hi, beta, r, exact):
            lo, hi = hi, 2.0 * hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if dominates(mid, beta, r, exact) else (mid, hi)
        stars.append(hi)
    betas = np.array([beta for beta, _, _ in pts])
    stars = np.array(stars)
    xs, ys = np.append(0.0, betas), np.append(0.0, stars)
    i, j = np.triu_indices(len(xs), 1)
    rise = xs[i] != xs[j]
    pair_slopes = (ys[j] - ys[i])[rise] / (xs[j] - xs[i])[rise]
    slopes = np.linspace(pair_slopes.min(), pair_slopes.max(), count)
    intercepts = np.maximum(0.0, np.max(stars - slopes[:, None] * betas, axis=1))
    return slopes, intercepts


_CF4_C1 = 0.5 - math.sqrt(3.0) / 6.0
_CF4_C2 = 0.5 + math.sqrt(3.0) / 6.0
_CF4_A1 = 0.25 + math.sqrt(3.0) / 6.0
_CF4_A2 = 0.25 - math.sqrt(3.0) / 6.0


def ordered_exponentials_two_rules(h_env, h_bond, betas, tau_steps, integrator):
    """The tau-ordered exponential with each rule written out on its own branch.

    Midpoint diagonalizes phi at the step's midpoint and exponentiates it from
    that spectrum (||phi|| is its largest |eigenvalue|); cf4 forms its two
    stage exponents x1, x2 from phi at the Gauss nodes and exponentiates each
    by ``opalg.expm_bounded``.  Returns one (Phi, max ||phi||) pair per beta.
    """
    us = [np.eye(h_env.shape[0]) for _ in betas]
    phi_max = [0.0 for _ in betas]
    dtau = 1.0 / tau_steps
    for k in range(tau_steps):
        t0 = k * dtau
        if integrator == "midpoint":
            node = qbp._node(h_env, h_bond, t0 + 0.5 * dtau)
            for i, beta in enumerate(betas):
                spec = opalg.spectrum(qbp._phi_tau(node, beta))
                phi_max[i] = max(phi_max[i], float(np.max(np.abs(spec.evals[0]))))
                us[i] = opalg.herm_expm(spec, dtau) @ us[i]
        else:
            nodes = (qbp._node(h_env, h_bond, t0 + _CF4_C1 * dtau),
                     qbp._node(h_env, h_bond, t0 + _CF4_C2 * dtau))
            for i, beta in enumerate(betas):
                a1, a2 = (qbp._phi_tau(node, beta) for node in nodes)
                n1, n2 = opalg.spectral_norm(a1), opalg.spectral_norm(a2)
                phi_max[i] = max(phi_max[i], n1, n2)
                x1 = dtau * (_CF4_A1 * a1 + _CF4_A2 * a2)
                x2 = dtau * (_CF4_A2 * a1 + _CF4_A1 * a2)
                u1 = opalg.expm_bounded(x1, dtau * (_CF4_A1 * n1 + abs(_CF4_A2) * n2))
                u2 = opalg.expm_bounded(x2, dtau * (abs(_CF4_A2) * n1 + _CF4_A1 * n2))
                us[i] = u2 @ u1 @ us[i]
    return list(zip(us, phi_max))
