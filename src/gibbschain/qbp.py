"""Quantum belief propagation operators.

For a split H = H_env + h of a Hamiltonian into an environment and one
positive bond, the belief propagation operator Phi satisfies

    exp(beta H) = Phi exp(beta H_env) Phi^dag,

and is constructed as an ordered product over the coupling parameter tau of
exponentials of the filtered, Heisenberg-evolved bond

    phi(tau) = (beta/2) * integral dt f_beta(t) h(H_env + tau h, t).

The weight f_beta is the explicit kernel (2/(pi beta)) log((e^{pi|t|/beta}+1)
/(e^{pi|t|/beta}-1)): nonnegative, even, unit integral, with an integrable
log singularity at t = 0 and an exp(-pi|t|/beta) tail.  Its Fourier
transform is known in closed form (Hastings, "Quantum belief propagation",
PRB 76, 201102(R), 2007):

    F(omega) = integral dt f_beta(t) cos(omega t)
             = tanh(beta omega/2) / (beta omega/2).

In the eigenbasis of the instantaneous Hamiltonian phi is the bond with each
matrix element multiplied by F at its Bohr frequency, which is how phi is
evaluated.  The interpolation H(tau) = H_env + tau h and its spectra do not
depend on beta; only F does.  ``build_bp_sweep`` therefore runs one tau
sweep for a tuple of betas, diagonalizing each H(tau) node once; it is the
one builder, and every BP operator (window-localized by ``localized_sweep``,
exact-split by ``bond_sweep``) comes from it, a single beta being the
one-element tuple.  ``filter_quadrature`` discretizes the t-integral by
Gauss panels (geometrically refined into the singularity); it certifies the
kernel's normalization and first moment, and its node sum is the
independent check of F.

Every tau step takes its rule, stage nodes and weights, from ``INTEGRATORS``
(midpoint is the one-stage case of cf4) and exponentiates each stage by
``opalg.expm_bounded`` from a bound on its norm: phi is never diagonalized.

Every matrix of the construction (H(tau), phi, their exponentials, Phi)
commutes with any symmetry shared by H_env and h.  ``build_bp_sweep``
therefore builds Phi in one loop over the pieces of ``opalg.split(h_env,
h)``: under the global spin flip F of an XXZ split, block n - k is block k
reversed and is not built (its Phi is the reversed copy, so F Phi F = Phi
exactly), and the self-image block k = n/2 is built as its F = +1 and
F = -1 halves; the split's layout assembles the dense Phi.  Chains without
the symmetry (random two-site terms) are the single-piece case.

When the bond commutes with its environment, phi(tau) = (beta/2) h for every
tau (h has no matrix element between distinct eigenvalues of H(tau), and
F(0) = 1), so Phi = exp(beta h / 2) exactly; each piece takes that closed
form in the same loop, with no tau sweep, when the commutation can be read
from exact zeros: the bond is diagonal, and H_env vanishes between basis
states where the bond's diagonal differs.  That covers every window and bond
of a classical (ising_zz) chain, and a diagonal bond that is a function of
total S^z against an XXZ environment.  Any other bond takes the sweep.

Truncating the construction to a window around the bond gives an operator
supported on the window only; the distance dependence of the truncation
error is certified against a fully explicit envelope, whose light-cone
constants (velocity, prefactor, F0) come from ``locality.LREnvelope``.
``calibrate_theta`` fits the rate function of the calibrated envelope
exactly, from the upper hull of the measured points, with no slope grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import opalg
from .chain import TruncatedHamiltonian, terms_matrix
from .errors import (
    GeometryError,
    NonConvergence,
    PreconditionViolated,
    ToleranceUnreachable,
)
from .locality import envelope_for_chain

# first absolute moment of the filter is FILTER_FIRST_MOMENT * beta; the
# literal is zeta(3) rounded to the nearest double
FILTER_FIRST_MOMENT = 7.0 * 1.2020569031595942 / math.pi**3

# filter_quadrature resolves integrands oscillating up to RESOLVE_OMEGA with
# Gauss panels of PANEL_ORDER nodes, and refuses a scheme of more than
# MAX_NODES nodes
RESOLVE_OMEGA = 192.0
PANEL_ORDER = 16
MAX_NODES = 60_000

# a residual-gated build doubles tau_steps at most this many times
MAX_REFINEMENTS = 3


def _filter_values(beta, ts):
    x = math.pi * np.abs(ts) / beta
    return (2.0 / (math.pi * beta)) * np.log1p(2.0 / np.expm1(x))


def filter_transfer(beta, omega):
    """Fourier transform of the filter kernel: F(omega) = tanh(x)/x, x = beta omega/2.

    F(0) = 1 exactly.  The quotient keeps tanh's relative accuracy, so small
    |x| suffers no cancellation, and no cutoff in omega is needed.
    """
    x = (0.5 * beta) * np.asarray(omega, dtype=float)
    out = np.ones_like(x)
    np.divide(np.tanh(x), x, out=out, where=x != 0.0)
    return out


@dataclass(frozen=True)
class QuadratureScheme:
    """Node/weight discretization of integrals against the filter kernel.

    ``sum_j weights[j] * f_beta(nodes[j]) * g(nodes[j])`` approximates
    ``integral f_beta(t) g(t) dt`` for integrands g oscillating no faster
    than RESOLVE_OMEGA.  Nodes are symmetric about 0 and exclude it.
    """

    beta: float
    nodes: np.ndarray
    weights: np.ndarray
    t_max: float

    @property
    def filter_at_nodes(self):
        return _filter_values(self.beta, self.nodes)

    def normalization(self):
        return float(np.sum(self.weights * self.filter_at_nodes))

    def first_moment(self):
        return float(np.sum(self.weights * np.abs(self.nodes) * self.filter_at_nodes))


@lru_cache(maxsize=None)
def _legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, one build per order."""
    x, w = leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_panel(a, b, order):
    x, w = _legendre(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def filter_quadrature(beta, eps) -> QuadratureScheme:
    """Build the quadrature scheme for integrals against the filter kernel.

    The time cutoff T = (beta/pi) log(1 + 8/(pi eps)) keeps the discarded
    tail mass below eps/2; panels of width ~PANEL_ORDER/RESOLVE_OMEGA keep
    Gauss quadrature accurate for integrands oscillating up to RESOLVE_OMEGA;
    geometric refinement into the origin handles the log singularity.
    """
    if not (0.0 < eps <= 1e-2):
        raise ValueError("eps must lie in (0, 1e-2]")
    t_max = (beta / math.pi) * math.log(1.0 + 8.0 / (math.pi * eps))
    w0 = min(1.4 * PANEL_ORDER / RESOLVE_OMEGA, t_max / 4.0)

    edges = [w0]
    while edges[-1] < t_max:
        edges.append(min(edges[-1] + w0, t_max))
    inner = [w0]
    for _ in range(54):  # leftover mass below w0 * 2^-54 is ~1e-16 relative
        inner.append(inner[-1] / 2.0)
    panels = [(inner[i + 1], inner[i]) for i in range(len(inner) - 1)]
    panels += [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]

    xs, ws = [], []
    for a, b in panels:
        order = PANEL_ORDER if (b - a) > w0 / 4 else max(8, PANEL_ORDER // 2)
        x, w = _gauss_panel(a, b, order)
        xs.append(x)
        ws.append(w)
    x_pos = np.concatenate(xs)
    w_pos = np.concatenate(ws)
    if 2 * x_pos.size > MAX_NODES:
        raise ToleranceUnreachable(
            f"{2 * x_pos.size} nodes exceed the budget of {MAX_NODES}"
        )
    nodes = np.concatenate([-x_pos[::-1], x_pos])
    weights = np.concatenate([w_pos[::-1], w_pos])
    scheme = QuadratureScheme(
        beta=float(beta),
        nodes=nodes,
        weights=weights,
        t_max=t_max,
    )
    if abs(scheme.normalization() - 1.0) > eps:
        raise ToleranceUnreachable("scheme failed its own normalization target")
    return scheme


# ---------------------------------------------------------------------------
# the ordered-product construction


@dataclass(frozen=True)
class BPOperator:
    """Belief propagation operator: its matrix on its sites, with its construction record."""

    sites: tuple
    matrix: np.ndarray
    beta: float
    tau_steps: int
    bond_norm: float
    phi_norm_max: float
    reconstruction_residual: float | None = None

    def norm(self):
        return opalg.opnorm(self.matrix)


def _node(h_env, h_bond, tau):
    """Spectrum of H(tau) = H_env + tau h and the bond in its eigenbasis.

    Nothing here depends on beta, so one node serves every beta.
    """
    (evals,), (vecs,), _ = opalg.spectrum(h_env + tau * h_bond)
    return evals, vecs, vecs.conj().T @ h_bond @ vecs


def _phi_tau(node, beta):
    evals, vecs, hb = node
    filt = filter_transfer(beta, evals[:, None] - evals[None, :])
    phi = (0.5 * beta) * (vecs @ (filt * hb) @ vecs.conj().T)
    return 0.5 * (phi + phi.conj().T)


# tau-step rules (stage nodes c, stage weights a): stage k of the step from t0
# exponentiates X_k = dtau sum_j a[k][j] phi(t0 + c[j] dtau), later stages left
_CF4_A = (0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0)
INTEGRATORS = {
    "midpoint": ((0.5,), ((1.0,),)),
    "cf4": ((0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0), (_CF4_A, _CF4_A[::-1])),
}


def _weighted(weights, values):
    """sum_j weights[j] values[j], summed from the first term."""
    return reduce(operator.add, (w * v for w, v in zip(weights, values)))


def _ordered_exponentials(h_env, h_bond, betas, tau_steps, integrator):
    """Product integration of the tau-ordered exponential, later factors left.

    Each step diagonalizes the H(tau) nodes of ``INTEGRATORS[integrator]``
    once for every beta.  Per beta it norms phi at each node and exponentiates
    each stage X_k by ``opalg.expm_bounded`` from ||X_k|| <= dtau sum_j
    |a[k][j]| ||phi_j||, forming the step's stage product before applying it.
    Returns one (Phi, max over evaluations of ||phi||) pair per beta.
    """
    offsets, weights = INTEGRATORS[integrator]
    # real inputs stay in the real BLAS path; dtype promotes only if phi is complex
    us = [np.eye(h_env.shape[0]) for _ in betas]
    phi_max = [0.0 for _ in betas]
    dtau = 1.0 / tau_steps
    for k in range(tau_steps):
        nodes = [_node(h_env, h_bond, k * dtau + c * dtau) for c in offsets]
        for i, beta in enumerate(betas):
            phis = [_phi_tau(node, beta) for node in nodes]
            norms = [opalg.spectral_norm(phi) for phi in phis]
            phi_max[i] = max(phi_max[i], *norms)
            stages = [opalg.expm_bounded(dtau * _weighted(a, phis),
                                         dtau * _weighted(map(abs, a), norms))
                      for a in weights]
            us[i] = reduce(lambda done, u: u @ done, stages) @ us[i]
    return list(zip(us, phi_max))


def _residual(phis, spectra, beta):
    """Relative reconstruction residual from per-piece Phi and spectra.

    ``spectra`` holds one (H_env spectrum, H spectrum) pair per piece; the
    norms of block-diagonal matrices are maxima over the pieces.
    """
    diff = scale = 0.0
    for phi, (env_spectrum, full_spectrum) in zip(phis, spectra):
        e_full = opalg.herm_expm(full_spectrum, beta)
        d = phi @ opalg.herm_expm(env_spectrum, beta) @ phi.conj().T - e_full
        diff = max(diff, opalg.spectral_norm(d))
        scale = max(scale, opalg.spectral_norm(e_full))
    return float(diff / scale)


def _commuting_diagonal(h_env, h_bond):
    """The bond's diagonal (real part) when the bond is diagonal and commutes
    with H_env, else None.

    Both conditions are read from exact zeros, with no floating-point
    product: the bond has no nonzero entry off its diagonal (one count over
    the matrix), and H_env is zero between basis states where the bond's
    diagonal differs, which is [H_env, h] = 0 for a diagonal h.
    """
    diag = np.diagonal(h_bond)
    if np.count_nonzero(h_bond) != np.count_nonzero(diag):
        return None
    diag = diag.real
    return diag if opalg.respects((h_env,), diag) else None


def build_bp_sweep(
    h_env, h_bond, betas, tau_steps=32, integrator="cf4", residual_gate=None, sites=None,
) -> tuple:
    """Belief propagation operators of the split H = H_env + h_bond, one per beta.

    h_env and h_bond are Hermitian matrices on a common space (checked).
    Each Phi is built on the pieces of ``opalg.split(h_env, h_bond)`` and
    assembled by its layout.  A diagonal bond that commutes with H_env
    (``_commuting_diagonal``, read from exact zeros) has the closed form
    Phi = exp(beta h / 2), diag(exp(beta h_p / 2)) on each piece, with
    ||h|| = max |h_ii| and phi_norm_max = beta ||h|| / 2; no tau sweep runs
    and tau_steps is recorded as given.  Any other bond takes one tau sweep
    for every beta, since the spectra of H(tau) do not depend on beta.
    With a residual_gate, the reconstruction residual is computed (from
    per-piece H_env and H spectra shared across beta) and the betas above
    the gate are rebuilt with doubled tau_steps; NonConvergence is raised
    after MAX_REFINEMENTS doublings, and at once for a closed form, which no
    refinement changes.  An infinite gate measures the residual and never
    refines; without a gate it is left uncomputed.  A zero bond is a
    commuting diagonal one, so its closed form is the identity exactly.
    Each operator equals, bit for bit, a one-beta build.
    """
    h_env = np.asarray(h_env)
    h_bond = np.asarray(h_bond)
    opalg.require_hermitian(h_env, "environment")
    opalg.require_hermitian(h_bond, "bond")
    sites = tuple(range(opalg.n_qubits(h_env.shape[0]))) if sites is None else tuple(sites)
    diag = _commuting_diagonal(h_env, h_bond)
    pieces, layout = opalg.split(h_env, h_bond)
    if diag is None:
        bond_norm = max(opalg.spectral_norm(hb) for _, hb in pieces)
    else:
        bond_norm = float(np.max(np.abs(diag)))

    def record(beta, u, steps, phi_max, residual):
        return BPOperator(
            sites=sites, matrix=u, beta=beta, tau_steps=steps,
            bond_norm=bond_norm, phi_norm_max=phi_max, reconstruction_residual=residual,
        )

    def build(he, hb, pending_betas, steps):
        if diag is None:
            return _ordered_exponentials(he, hb, pending_betas, steps, integrator)
        return [(np.diag(np.exp((0.5 * beta) * np.diagonal(hb).real)), 0.5 * beta * bond_norm)
                for beta in pending_betas]

    spectra = None
    if residual_gate is not None:
        spectra = [(opalg.spectrum(he), opalg.spectrum(he + hb)) for he, hb in pieces]
    # no refinement changes a closed form
    attempts = 1 if diag is not None else MAX_REFINEMENTS + 1
    out = [None] * len(betas)
    pending = list(range(len(betas)))
    steps = tau_steps
    for _ in range(attempts):
        built = [build(he, hb, [betas[i] for i in pending], steps) for he, hb in pieces]
        failed = []
        for k, i in enumerate(pending):
            us = [per_piece[k][0] for per_piece in built]
            phi_max = max(per_piece[k][1] for per_piece in built)
            residual = None
            if spectra is not None:
                residual = _residual(us, spectra, betas[i])
                if residual > residual_gate:
                    failed.append((i, residual))
                    continue
            out[i] = record(betas[i], layout.assemble(us), steps, phi_max, residual)
        if not failed:
            return tuple(out)
        pending = [i for i, _ in failed]
        steps *= 2
    i, residual = failed[0]
    kind = "residual" if diag is None else "closed-form residual"
    raise NonConvergence(
        f"{kind} {residual:.3e} above gate {residual_gate:.1e} at beta={betas[i]} "
        f"after {attempts - 1} refinements"
    )


# ---------------------------------------------------------------------------
# localized construction on truncated chains


def _window_split_matrices(h_tc: TruncatedHamiltonian, cut, window):
    """Environment and bond matrices on the window subspace.

    The bond is the bundle of kept terms crossing ``cut``; the environment is
    every other kept term inside the window.
    """
    window = tuple(sorted(int(s) for s in window))
    if window != tuple(range(window[0], window[-1] + 1)):
        raise GeometryError("window must be a contiguous interval")
    wset = set(window)
    env, bond = [], []
    for t in h_tc.kept_terms:
        if t.crosses(cut):
            if not set(t.sites) <= wset:
                raise GeometryError("bond bundle leaks outside the window")
            bond.append(t)
        elif set(t.sites) <= wset:
            env.append(t)
    return terms_matrix(env, window), terms_matrix(bond, window), window


def localized_sweep(h_tc: TruncatedHamiltonian, cut, window, betas, **kw):
    """BP operators for the bond at ``cut``, built from the window only, one per beta."""
    env, bond, window = _window_split_matrices(h_tc, cut, window)
    return build_bp_sweep(env, bond, betas, sites=window, **kw)


def _bond_cut(h_tc: TruncatedHamiltonian, s):
    """Cut of boundary bundle s, the bond between blocks s and s + 1 (0 <= s <= q)."""
    if not 0 <= s <= h_tc.q:
        raise GeometryError(f"bond index {s} outside 0..{h_tc.q}")
    return h_tc.blocks[s][-1]


def bond_sweep(h_tc: TruncatedHamiltonian, s, betas, **kw) -> tuple:
    """Exact-split BP operators for boundary bundle s, one per beta."""
    return localized_sweep(h_tc, _bond_cut(h_tc, s), tuple(range(h_tc.n)), betas, **kw)


def build_bond_bp(h_tc: TruncatedHamiltonian, s, beta, scheme=None, **kw) -> BPOperator:
    """One-beta ``bond_sweep``: the entry point of the benchmark's qbp_small workload.

    A quadrature ``scheme``, if given, must have been built for this beta
    (ValueError otherwise); phi never uses it.
    """
    if scheme is not None and scheme.beta != beta:
        raise ValueError(f"scheme built for beta={scheme.beta} used at beta={beta}")
    return bond_sweep(h_tc, s, (beta,), **kw)[0]


def _window_around(h_tc: TruncatedHamiltonian, s, r):
    """The bond cut of bundle s and the window of radius r around it."""
    cut = _bond_cut(h_tc, s)
    return cut, tuple(range(max(0, cut - r), min(h_tc.n - 1, cut + r) + 1))


# ---------------------------------------------------------------------------
# locality certification


@dataclass(frozen=True)
class ThetaFunction:
    """Affine rate function theta0 + theta1 * beta with positive coefficients."""

    theta0: float
    theta1: float

    def __post_init__(self):
        if self.theta0 <= 0 or self.theta1 <= 0:
            raise ValueError("both coefficients must be positive")

    def __call__(self, beta):
        return self.theta0 + self.theta1 * beta


def locality_decay_envelope(theta: ThetaFunction, profile, block_len, beta, r):
    """Calibrated envelope e^{Theta} min(e^{-r/(l0 Theta)}, jbar(r/3)^(1/Theta)).

    Where jbar(r/3) = 0 (a finite-range profile past three ranges) the jbar
    branch does not apply and the envelope is e^{Theta} e^{-r/(l0 Theta)}:
    the window-truncation error is not 0 there.
    """
    th = theta(beta)
    decay = -r / (block_len * th)
    jb = profile(r / 3.0)
    if jb > 0.0:
        decay = min(decay, math.log(jb) / th)
    log_val = th + decay
    if log_val > 709.0:
        return math.inf
    return math.exp(log_val)


@dataclass(frozen=True)
class BPLocalityReport:
    exact: float
    explicit_bound: float
    r: int
    beta: float
    vacuous: bool

    @property
    def passed(self):
        return self.exact <= self.explicit_bound + 1e-12


def _locality_envelope(h_tc: TruncatedHamiltonian, env, r, beta):
    """Explicit bound at (r, beta) after checking the preconditions; F0(r/3),
    the prefactor C and the velocity v come from the chain's envelope ``env``,
    g, gamma and g~ from the chain.  A prefactor e^{beta g~ / 2} past e^709
    gives math.inf, as in ``locality_decay_envelope``."""
    base = h_tc.base
    l0 = h_tc.block_len
    if r <= 6 * l0:
        raise PreconditionViolated(f"need r > 6*block_len = {6 * l0}, got {r}")
    f0 = env.f0(r / 3.0)
    if f0 > 1.0:
        raise PreconditionViolated(f"F0(r/3) = {f0:.3g} exceeds 1")

    g_tilde = base.g_tilde
    if beta * g_tilde / 2.0 > 709.0:
        return math.inf
    c_pref = env.prefactor
    v = env.velocity
    explicit = math.exp(beta * g_tilde / 2.0) * (
        beta * base.g * base.gamma**2 * r**2
        * (1.0 + base.k * g_tilde * beta / (2.0 * math.pi**3))
        * base.profile(r / 3.0)
        + (base.k * g_tilde * beta**2 / (2.0 * math.pi**3))
        * (
            9.0 * g_tilde * math.sqrt(c_pref * f0)
            + 72.0 * g_tilde * (f0 / c_pref) ** (math.pi / (4.0 * v * beta))
        )
    )
    return float(explicit)


def bp_locality_sweep(
    h_tc: TruncatedHamiltonian, s, radii, betas, tau_steps=32, integrator="cf4",
) -> tuple:
    """Measured || Phi_s - Phi_s,window || against the explicit envelope.

    One report per (beta, r), beta-major.  Requires 0 <= s <= q (else
    GeometryError), r > 6 * block_len and a subcritical light-cone value
    F0(r/3) <= 1 at every point, checked before any build.  The full
    operators of all betas come from one tau sweep, and so do the window
    operators at each radius.  When the window swallows the whole chain the
    two constructions coincide term by term and the error is exactly zero
    (reported as vacuous).
    """
    windows = {r: _window_around(h_tc, s, r) for r in radii}
    env = envelope_for_chain(h_tc)
    bounds = {(beta, r): _locality_envelope(h_tc, env, r, beta)
              for beta in betas for r in radii}
    measured = [r for r in radii if len(windows[r][1]) < h_tc.n]
    kw = dict(tau_steps=tau_steps, integrator=integrator)
    exact = {}
    if measured:
        full = bond_sweep(h_tc, s, betas, **kw)
        for r in measured:
            cut, window = windows[r]
            for beta, phi_full, phi_win in zip(
                betas, full, localized_sweep(h_tc, cut, window, betas, **kw)
            ):
                # Phi - Phi_window as Phi + (-Phi_window), added on the window's sites
                diff = phi_full.matrix.astype(np.result_type(phi_full.matrix, phi_win.matrix))
                opalg.add_embedded(diff, -phi_win.matrix, phi_win.sites)
                exact[(beta, r)] = opalg.opnorm(diff)
    return tuple(
        BPLocalityReport(
            exact=exact.get((beta, r), 0.0), explicit_bound=bounds[(beta, r)],
            r=int(r), beta=float(beta), vacuous=r not in measured,
        )
        for beta in betas
        for r in radii
    )


def calibrate_theta(reports, profile, block_len) -> ThetaFunction | None:
    """Affine rate function of least Theta(beta_bar), beta_bar the mean measured
    beta, whose envelope dominates every measured error by 5%; None if unresolved.

    reports: BPLocalityReport-like (.exact, .r, .beta); exact = 0 is left out.
    With c = max(r/l0, -log jbar(r/3)), or c = r/l0 where jbar(r/3) = 0, the
    envelope's log is Theta - c/Theta, so a point is dominated exactly when
    Theta(beta_p) >= Theta*_p = (L + sqrt(L^2 + 4c))/2, L = log(1.05 exact).
    The optimum of this linear program (theta0 >= 0 is the same condition at
    the point (0, 0)) is the edge above beta_bar of the upper hull of (0, 0)
    and the (beta_p, Theta*_p); at a hull vertex the edge to its right (the
    smaller slope) is taken.  theta0 is then raised by ulps of the largest
    Theta(beta_p) until every point is dominated in floating point.
    Unresolved: fewer than two distinct beta, or theta0 or theta1 <= 0.
    """
    pts = [(rep.beta, rep.r, rep.exact) for rep in reports if rep.exact > 0]
    if len({beta for beta, _, _ in pts}) < 2:
        return None

    def least_theta(r, exact):
        jb = profile(r / 3.0)
        c = r / block_len if jb == 0.0 else max(r / block_len, -math.log(jb))
        big_l = math.log(1.05 * exact)
        root = math.sqrt(big_l * big_l + 4.0 * c)
        # the form without cancellation for the sign of L
        return 0.5 * (big_l + root) if big_l >= 0.0 else 2.0 * c / (root - big_l)

    hull = [(0.0, 0.0)]
    for beta, star in sorted((beta, least_theta(r, exact)) for beta, r, exact in pts):
        # drop the last vertex while it lies on or below the chord to the new point
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (star - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (beta - hull[-2][0])):
            hull.pop()
        hull.append((beta, star))
    beta_bar = sum(beta for beta, _, _ in pts) / len(pts)
    edges = list(zip(hull, hull[1:]))
    (b0, s0), (b1, s1) = next((e for e in edges if e[1][0] > beta_bar), edges[-1])
    th1 = (s1 - s0) / (b1 - b0)
    th0 = s0 - th1 * b0
    if th0 <= 0.0 or th1 <= 0.0:
        return None
    theta = ThetaFunction(th0, th1)
    while any(locality_decay_envelope(theta, profile, block_len, beta, r) < exact * 1.05
              for beta, r, exact in pts):
        theta = ThetaFunction(theta.theta0 + math.ulp(theta(hull[-1][0])), th1)
    return theta
