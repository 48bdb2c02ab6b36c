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
exact commutator norms (``commutator_norm``: Pauli probes as signed
permutations, norms over the commutator's ``opalg`` pieces).  One builder
forms the commutator's block on a row set R from two gathers of A.  For
sigma_x and sigma_y probes and an evolved probe that flips parity, the
commutator splits into the two parity blocks, which P maps onto each other
with a sign (P i[A, P] P = -i[A, P]); they share their norm, so R is the
even-parity rows and the block is normed at half the dimension; otherwise
R is every index.  ``lr_certify`` reads R once per t, for every r.  At
even n the flip F maps the parity block onto itself, and ``opalg.evolve``
keeps F A(t) F = +-A(t) bit for bit, so the commutator commutes with F
exactly: ``opalg.opnorm`` norms the block on its two F = +-1 halves, two
eigvalsh calls at a quarter of the full dimension per (t, r) row.

Probes stay local: ``opalg.evolve`` contracts them on their own sites, and
``subset_evolution_error`` subtracts the window evolution on the window's
sites (``opalg.add_embedded``); no probe is embedded as a full-space matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import opalg
from .chain import ChainHamiltonian, TruncatedHamiltonian, set_distance
from .errors import MissingParam, SubsetViolation, SupportMismatch
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
    exponent = env.velocity * abs(t)
    if f0 > 0 and exponent + math.log(f0) > math.log(2.0):
        return 2.0
    return min(2.0, math.exp(exponent) * f0) if f0 > 0 else 0.0


def lr_envelope(env: LREnvelope, t, r):
    """Envelope on ||[O_Z(t), O_Z']|| for unit-norm single-site O_Z, O_Z' at distance r >= 1.

    The mode-specific form is evaluated and the trivial commutator bound 2
    is applied on top.
    """
    if r < 1:
        raise ValueError("supports must be disjoint (r >= 1)")
    if env.mode == "finite_range":
        n0 = math.floor(r / env.profile.range_cutoff + 1)
        if t == 0:
            return 0.0
        # factorial in log space; for the n0 <= 12 that DIM_CAP allows
        # (r <= 11) this equals scipy's gammaln(n0 + 1) bit for bit, past 12
        # the two can differ by 1 ulp
        log_core = n0 * math.log(2.0 * env.g * env.k * abs(t)) - math.log(
            math.factorial(n0)
        )
        return min((2.0 / env.k) * math.exp(log_core), 2.0)
    if env.mode == "infinite_range":
        jb = env.profile(r)
        exponent = 2.0 * env.conv_const * abs(t)
        if jb > 0 and exponent + math.log(jb) > 710.0:
            return 2.0
        return min((2.0 / env.conv_const) * math.expm1(exponent) * jb, 2.0)
    return combined_lightcone(env, t, r)


# P maps index i to i ^ m (m the probe's bit, 0 for sigma_z) with the phase
# of i's bit; sigma_x needs no phase
_PAULI_PHASE = {"x": None, "y": (1j, -1j), "z": (1, -1)}


def _commutator_rows(a, probe):
    """The rows R on which i[A, P] is formed: the even-parity indices for a
    sigma_x or sigma_y ``probe`` and an A that is exactly zero between basis
    states of equal parity (read in row chunks by ``opalg.respects``), else
    every index."""
    (_, _), (parity, _) = opalg.sector_labels(opalg.n_qubits(a.shape[0]))
    if probe != "z" and opalg.respects((a,), parity, parity ^ 1):
        return np.flatnonzero(parity == 0)
    return np.arange(a.shape[0])


def _commutator_block(a, probe, site, rows):
    """Block (R, R) of i[A, P] for the Pauli ``probe`` on ``site``, R = ``rows``.

    Site j is bit n-1-j (site 0 is the most significant bit).  P maps index
    i to i ^ m with the phase of i's bit, so (A P)[R, R] and (P A)[R, R]
    are the gathers A[R, R ^ m] and A[R ^ m, R] with their phases; every
    product is by 0, +-1 or +-i, so the block equals the dense products'
    exactly.
    """
    shift = opalg.n_qubits(a.shape[0]) - 1 - site
    moved = rows ^ (0 if probe == "z" else 1 << shift)
    block = np.asarray(a[np.ix_(rows, moved)], dtype=complex)  # A P
    p_a = np.asarray(a[np.ix_(moved, rows)], dtype=complex)  # P A
    phase = _PAULI_PHASE[probe]
    if phase is not None:
        block *= np.array(phase)[(rows >> shift) & 1]
        p_a *= np.array(phase)[(moved >> shift) & 1][:, None]
    block -= p_a
    block *= 1j
    return block


def _commutator_norm(a, probe, site, rows):
    """||[A, P]|| as ``opalg.opnorm`` of the block of i[A, P] on ``rows``."""
    return opalg.opnorm(_commutator_block(a, probe, site, rows))


def commutator_norm(a, probe, site):
    """||[A, P]|| for Hermitian A and the Pauli ``probe`` on ``site`` of A's qubits.

    The norm is that of the commutator's block on the rows of
    ``_commutator_rows``.  Where those are the even-parity rows, A flips
    parity and P is sigma_x or sigma_y: P i[A, P] P = -i[A, P] and P maps
    each parity block onto the other, so the two blocks are unitarily
    equivalent up to sign and share their norm.  ``opnorm`` splits the
    block again when F maps it onto itself (even n, A F-symmetric up to
    sign): it is normed on its two F halves.
    """
    a = np.asarray(a)
    n = opalg.n_qubits(a.shape[0])
    if not 0 <= site < n:
        raise SupportMismatch(f"probe site {site} not inside 0..{n - 1}")
    probe = probe.lower()
    return _commutator_norm(a, probe, site, _commutator_rows(a, probe))


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


def subset_evolution_error(o_local, h, window, t) -> SubsetEvolutionReport:
    """Error of evolving with the window-restricted Hamiltonian.

    exact = || O(H, t) - O(H_window, t) ||, the second evolved on the window's
    own space and subtracted on the window's sites; the envelope combines the
    interaction tail across the window boundary with the light-cone factor
    (the envelope of the chain evolved) at half the boundary distance.
    """
    if not isinstance(h, ChainHamiltonian):
        raise TypeError("need a chain to form subset Hamiltonians")
    window = sorted(int(s) for s in window)
    support = set(o_local.sites)
    if not support <= set(window):
        raise SubsetViolation("window must contain the operator support")

    n = h.n
    diff = opalg.evolve(o_local, h.matrix(), t)
    # H_window acts on the window only: evolve O there and subtract the result
    # on the window's sites
    pos = [window.index(s) for s in o_local.sites]
    b_win = opalg.evolve(opalg.DenseOperator(pos, o_local.matrix),
                         h.subset_matrix(window), t)
    opalg.add_embedded(diff, -b_win, window)
    exact = opalg.opnorm(diff)

    complement = [s for s in range(n) if s not in window]
    if not complement:
        return SubsetEvolutionReport(exact=exact, bound=0.0, distance=math.inf)
    ell = set_distance(complement, support)
    norm_o = opalg.opnorm(o_local)
    lightcone = combined_lightcone(envelope_for_chain(h), t, ell / 2.0)
    bound = (
        abs(t)
        * len(support)
        * norm_o
        * (0.5 * h.g * h.gamma**2 * ell**2 * h.profile(ell / 2.0) + h.g_tilde * h.k * lightcone)
    )
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


def lr_certify(h, t_grid, r_grid, probe="x") -> CertificationReport:
    """Certify the chain's envelope (``envelope_for_chain``) against exact
    commutators on a (t, r) grid.

    Probes are single-site Paulis at the first site i0 (of the interior
    blocks, for a truncated chain, where the truncated envelope applies) and
    at i0 + r inside the same range; a separation whose partner falls past
    that range has no rows and is listed in ``skipped``.  Each row carries its
    verdict, ``CertificationRow.ok``.  A(t)'s parity pattern is read once per
    t (``_commutator_rows``) and serves every r, as in ``commutator_norm``.
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
    probe = probe.lower()
    o_a = opalg.single_site(opalg.pauli(probe), i0)
    for t in t_grid:
        a_t = opalg.evolve(o_a, h_spectrum, t)
        comm_rows = _commutator_rows(a_t, probe)  # one parity scan serves every r
        rows += [CertificationRow(t=float(t), r=r,
                                  exact=_commutator_norm(a_t, probe, i0 + r, comm_rows),
                                  envelope=lr_envelope(env, t, r)) for r in kept]
    return CertificationReport(rows=tuple(rows), skipped=skipped)
