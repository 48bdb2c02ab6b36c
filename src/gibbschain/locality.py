"""Information-propagation envelopes and their certification.

``LREnvelope`` holds the light-cone constants of a chain (read by
``envelope_for_chain`` from the chain, which owns g, gamma and g~; the mode
follows from the input) and is the one source of the velocity v, the
prefactor C and the light-cone amplitude F0(r), which the QBP locality
bound reads as well.  Every other bound here reads g, gamma and g~ from the
chain too.  Three envelope modes bound the commutator norm ||[O_i(t), O_j]||
of unit-norm single-site operators at distance r = |i - j|:

* ``finite_range`` - the factorial light-cone envelope for interaction
  length d_H, (2/k) (2 g k |t|)^n0 / n0!  with  n0 = floor(r/d_H + 1);
* ``infinite_range`` - the convolution-constant envelope
  (2/gg) (exp(2 gg |t|) - 1) jbar(r);
* ``truncated`` - the packaged envelope for interaction-truncated chains,
  min(2, exp(v|t|) F0(r)), F0(r) = C min(exp(-r/(2 l0)), jbar(r)).

Every returned value is additionally capped by the trivial commutator bound
2.  ``lr_certify`` sweeps a (t, r) grid and compares the envelope against
exact commutator norms ||[A(t), X_j]|| of the evolved sigma_x probe A(t)
with sigma_x on site j.  X_j is a permutation, so the commutator's block
on a row set R is formed from two gathers of A.  When A(t) flips parity,
the commutator splits into the two parity blocks, which X_j maps onto
each other with a sign (X_j i[A, X_j] X_j = -i[A, X_j]); they share their
norm, so R is the even-parity rows and the block is normed at half the
dimension; otherwise R is every index.  ``lr_certify`` reads R once per
t, for every r.  At even n the flip F maps the parity block onto itself,
and ``opalg.evolve`` keeps F A(t) F = A(t) bit for bit, so the commutator
commutes with F exactly: ``opalg.opnorm`` norms the block on its two
F = +-1 halves, two eigvalsh calls at a quarter of the full dimension per
(t, r) row.

Both light-cone checks evolve sigma_x on one site: ``opalg.evolve`` gathers
the columns it permutes, and ``subset_evolution_error`` subtracts the window
evolution on the window's sites (``opalg.add_embedded``); no probe is formed
as a full-space matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import opalg
from .chain import ChainHamiltonian, TruncatedHamiltonian, set_distance
from .errors import MissingParam, SubsetViolation
from .profiles import DecayProfile


def convolution_constant(profile: DecayProfile, n: int) -> float:
    """Smallest c with sum_i0 jbar(d(i,i0)) jbar(d(i0,i')) <= c jbar(d(i,i'))
    on an n-site chain, the largest ratio over all site pairs.

    Profiles that vanish at finite distance admit no finite constant once the
    chain is long enough; math.inf is returned in that case.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    idx = np.arange(n)
    jm = profile(np.abs(idx[:, None] - idx[None, :]).astype(float))
    conv = jm @ jm
    # a pair with jbar = 0 but a positive convolution has ratio inf; 0 / 0 counts as 0
    ratios = np.divide(conv, jm, out=np.where(conv > 0.0, np.inf, 0.0), where=jm != 0.0)
    return float(ratios.max())


@dataclass(frozen=True)
class LREnvelope:
    """Light-cone constants of a chain (its coupling scale g, its profile's
    range_cutoff) and the envelope mode they enter; block_len is read in
    truncated mode only."""

    mode: str  # finite_range | infinite_range | truncated
    profile: DecayProfile
    g: float
    conv_const: float
    k: int
    block_len: int | None = None

    def __post_init__(self):
        if self.mode not in ("finite_range", "infinite_range", "truncated"):
            raise ValueError(f"unknown envelope mode {self.mode!r}")
        if self.mode == "finite_range" and self.profile.range_cutoff is None:
            raise MissingParam("finite_range mode needs range_cutoff")
        if self.mode == "infinite_range" and math.isinf(self.conv_const):
            raise MissingParam("profile admits no finite convolution constant")
        if self.mode == "truncated" and self.block_len is None:
            raise MissingParam("truncated mode needs block_len")

    @property
    def velocity(self):
        return max(2.0 * self.g * self.k, 2.0 * self.conv_const)

    @property
    def prefactor(self):
        if math.isinf(self.conv_const):
            return 2.0 / self.k
        return 2.0 * (1.0 / self.k + 1.0 / self.conv_const)

    def f0(self, r):
        """Light-cone amplitude F0(r) of the mode, before the trivial 2-cap."""
        if self.mode == "finite_range":
            return self.prefactor * math.exp(-r / self.profile.range_cutoff)
        if self.mode == "infinite_range":
            return self.prefactor * self.profile(r)
        return self.prefactor * min(math.exp(-r / (2.0 * self.block_len)), self.profile(r))


def envelope_for_chain(h) -> LREnvelope:
    """Measure the envelope constants of a chain (finite_range or infinite_range,
    as its profile) or of a truncated chain (truncated mode)."""
    if isinstance(h, TruncatedHamiltonian):
        base, mode, block_len = h.base, "truncated", h.block_len
    else:
        base, block_len = h, None
        mode = "finite_range" if base.profile.is_finite_range else "infinite_range"
    return LREnvelope(
        mode=mode, profile=base.profile, g=base.g,
        conv_const=convolution_constant(base.profile, base.n), k=base.k, block_len=block_len,
    )


def combined_lightcone(env: LREnvelope, t, r):
    """min(2, exp(v|t|) F0(r)) with F0 per mode; the per-pair envelope core."""
    f0 = env.f0(r)
    if t == 0:
        return min(2.0, f0)
    if math.isinf(env.velocity):
        return 2.0
    if not f0 > 0:
        return 0.0
    exponent = env.velocity * abs(t)
    if exponent + math.log(f0) > math.log(2.0):
        return 2.0
    try:
        return min(2.0, math.exp(exponent) * f0)
    except OverflowError:  # a subnormal f0: the product, below 2, in log space
        return math.exp(exponent + math.log(f0))


def lr_envelope(env: LREnvelope, t, r):
    """Envelope on ||[O_Z(t), O_Z']|| for unit-norm single-site O_Z, O_Z' at distance r >= 1.

    The mode-specific form is evaluated and the trivial commutator bound 2
    is applied on top.
    """
    if r < 1:
        raise ValueError("supports must be disjoint (r >= 1)")
    if env.mode == "finite_range":
        n0 = math.floor(r / env.profile.range_cutoff + 1)
        if t == 0 or env.g == 0:  # no time or no couplings: nothing spreads
            return 0.0
        # factorial in log space; for the n0 <= 12 that DIM_CAP allows
        # (r <= 11) this equals scipy's gammaln(n0 + 1) bit for bit, past 12
        # the two can differ by 1 ulp
        log_core = n0 * math.log(2.0 * env.g * env.k * abs(t)) - math.log(
            math.factorial(n0)
        )
        try:
            return min((2.0 / env.k) * math.exp(log_core), 2.0)
        except OverflowError:  # e^log_core past float range is far past the cap
            return 2.0
    if env.mode == "infinite_range":
        jb = env.profile(r)
        exponent = 2.0 * env.conv_const * abs(t)
        if jb > 0 and exponent + math.log(jb) > 710.0:
            return 2.0
        try:
            return min((2.0 / env.conv_const) * math.expm1(exponent) * jb, 2.0)
        except OverflowError:  # e^exponent past float range: the value in log space
            if not jb > 0:
                return 0.0
            log_value = math.log(2.0 / env.conv_const) + exponent + math.log(jb)
            return 2.0 if log_value > math.log(2.0) else math.exp(log_value)
    return combined_lightcone(env, t, r)


def _commutator_rows(a):
    """The rows R on which i[A, X_j] is formed: the even-parity indices for
    an A that is exactly zero between basis states of equal parity (read in
    row chunks by ``opalg.respects``), else every index."""
    (_, _), (parity, _) = opalg.sector_labels(opalg.n_qubits(a.shape[0]))
    if opalg.respects((a,), parity, parity ^ 1):
        return np.flatnonzero(parity == 0)
    return np.arange(a.shape[0])


def _commutator_block(a, site, rows):
    """Block (R, R) of i[A, X_j] for sigma_x on ``site`` j, R = ``rows``.

    Site j is bit n-1-j (site 0 is the most significant bit).  X_j maps
    index i to i ^ m, so (A X_j)[R, R] and (X_j A)[R, R] are the gathers
    A[R, R ^ m] and A[R ^ m, R], and the block equals the dense products'
    exactly.
    """
    moved = rows ^ (1 << (opalg.n_qubits(a.shape[0]) - 1 - site))
    block = np.asarray(a[np.ix_(rows, moved)], dtype=complex)  # A X_j
    block -= a[np.ix_(moved, rows)]  # X_j A
    block *= 1j
    return block


def _commutator_norm(a, site, rows):
    """||[A, X_j]|| for Hermitian A, as ``opalg.opnorm`` of the block of
    i[A, X_j] on ``rows`` (``_commutator_rows``).  Where those are the
    even-parity rows, the other parity block is unitarily equivalent up to
    sign and shares the norm; ``opnorm`` splits the block again when F maps
    it onto itself."""
    return opalg.opnorm(_commutator_block(a, site, rows))


@dataclass(frozen=True)
class SubsetEvolutionReport:
    exact: float
    bound: float
    distance: float

    @property
    def ok(self):
        """The envelope holds: exact, which carries the roundoff of two
        evolutions, exceeds it by at most 1e-12."""
        return self.exact <= self.bound + 1e-12


def subset_evolution_error(h, site, window, t) -> SubsetEvolutionReport:
    """Error of evolving sigma_x on ``site`` with the window-restricted Hamiltonian.

    exact = || X(H, t) - X(H_window, t) ||, the second evolved on the window's
    own space and subtracted on the window's sites; the envelope combines the
    interaction tail across the window boundary with the light-cone factor
    (the envelope of the chain evolved) at half the boundary distance.
    """
    if not isinstance(h, ChainHamiltonian):
        raise TypeError("need a chain to form subset Hamiltonians")
    window = sorted(int(s) for s in window)
    if site not in window:
        raise SubsetViolation("window must contain the probe site")

    n = h.n
    diff = opalg.evolve(h.matrix(), site, t)
    # H_window acts on the window only: evolve X there and subtract the result
    # on the window's sites
    b_win = opalg.evolve(h.subset_matrix(window), window.index(site), t)
    opalg.add_embedded(diff, -b_win, window)
    exact = opalg.opnorm(diff)

    complement = [s for s in range(n) if s not in window]
    if not complement:
        return SubsetEvolutionReport(exact=exact, bound=0.0, distance=math.inf)
    ell = set_distance(complement, [site])
    lightcone = combined_lightcone(envelope_for_chain(h), t, ell / 2.0)
    bound = abs(t) * (0.5 * h.g * h.gamma**2 * ell**2 * h.profile(ell / 2.0)
                      + h.g_tilde * h.k * lightcone)
    return SubsetEvolutionReport(exact=exact, bound=float(bound), distance=float(ell))


@dataclass(frozen=True)
class CertificationRow:
    t: float
    r: int
    exact: float
    envelope: float

    @property
    def ok(self):
        """The envelope holds: exact exceeds it by at most 1e-10."""
        return self.exact <= self.envelope + 1e-10


@dataclass(frozen=True)
class CertificationReport:
    rows: tuple
    skipped: tuple  # separations whose partner site falls past the interior


def lr_certify(h, t_grid, r_grid) -> CertificationReport:
    """Certify the chain's envelope (``envelope_for_chain``) against exact
    commutators on a (t, r) grid.

    Probes are sigma_x at the first site i0 (of the interior blocks, for a
    truncated chain, where the truncated envelope applies) and at i0 + r
    inside the same range; a separation whose partner falls past that range
    has no rows and is listed in ``skipped``.  Each row carries its verdict,
    ``CertificationRow.ok``.  A(t)'s parity pattern is read once per t
    (``_commutator_rows``) and serves every r.
    """
    if isinstance(h, TruncatedHamiltonian):
        i0, interior_hi = h.blocks[1][0], h.blocks[-2][-1]
    else:
        i0, interior_hi = 0, h.n - 1

    kept = [int(r) for r in r_grid if i0 + r <= interior_hi]
    skipped = tuple(int(r) for r in r_grid if i0 + r > interior_hi)
    env = envelope_for_chain(h)
    rows = []
    h_spectrum = opalg.hermitian_eig(h.matrix())  # one diagonalization serves every t
    for t in t_grid:
        a_t = opalg.evolve(h_spectrum, i0, t)
        comm_rows = _commutator_rows(a_t)  # one parity scan serves every r
        rows += [CertificationRow(t=float(t), r=r,
                                  exact=_commutator_norm(a_t, i0 + r, comm_rows),
                                  envelope=lr_envelope(env, t, r)) for r in kept]
    return CertificationReport(rows=tuple(rows), skipped=skipped)
