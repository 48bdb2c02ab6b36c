"""Interaction decay profiles.

A profile is the normalized envelope ``jbar(r)`` of coupling strength versus
distance: monotonically non-increasing, ``jbar(0) = 1``.  Four families are
supported: finite range, power law, stretched exponential and exponential.
The profile is evaluated on real arguments as well (half-integer distances
appear in the locality bounds); the power law is held at 1 on [0, 1] so the
normalization and monotonicity survive interpolation.

The tail-sum condition

    sum_{x >= l} x^z * jbar(x)  <=  gamma * l^(z+1) * jbar(l),  z in {0, 1}

is what the locality machinery needs from a profile.  ``measure_gamma``
returns the smallest gamma that works on a finite chain, from analytic
tails (``tail_sum``).  A profile is only its shape: the measured constants
(gamma, and the coupling scale g) belong to the chain they were measured
on, ``chain.ChainHamiltonian``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergentTail

# each profile kind and the parameters that shape it
PARAMETERS = {
    "finite_range": ("range_cutoff",),
    "power_law": ("alpha",),
    "stretched_exp": ("kappa", "stretch_c"),
    "exponential": ("rate",),
}


@dataclass(frozen=True)
class DecayProfile:
    """Normalized coupling-decay envelope: its kind and the parameters of its shape.

    Parameters
    ----------
    kind : a key of PARAMETERS
    range_cutoff : interaction length for ``finite_range`` (sites)
    alpha : power-law exponent
    kappa, stretch_c : stretched-exponential shape, jbar(x) = exp(-c x^kappa)
    rate : exponential decay rate per site
    """

    kind: str
    range_cutoff: int | None = None
    alpha: float | None = None
    kappa: float | None = None
    stretch_c: float | None = None
    rate: float | None = None

    def __post_init__(self):
        if self.kind not in PARAMETERS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        for name in PARAMETERS[self.kind]:
            value = getattr(self, name)
            if value is None or not (math.isfinite(value) and value > 0):
                raise ValueError(f"{self.kind} profile needs a finite {name} > 0 (got {value})")

    def __call__(self, x):
        """jbar evaluated elementwise on real x >= 0."""
        x = np.asarray(x, dtype=float)
        if self.kind == "finite_range":
            out = np.where(x <= self.range_cutoff, 1.0, 0.0)
        elif self.kind == "power_law":
            out = np.maximum(x, 1.0) ** (-self.alpha)
        elif self.kind == "stretched_exp":
            out = np.exp(-self.stretch_c * x**self.kappa)
        else:
            out = np.exp(-self.rate * x)
        return float(out) if out.ndim == 0 else out

    @property
    def is_finite_range(self):
        return self.kind == "finite_range"


def finite_range(d_h: int) -> DecayProfile:
    return DecayProfile("finite_range", range_cutoff=int(d_h))


def power_law(alpha: float) -> DecayProfile:
    return DecayProfile("power_law", alpha=float(alpha))


def stretched_exp(kappa: float, c: float) -> DecayProfile:
    return DecayProfile("stretched_exp", kappa=float(kappa), stretch_c=float(c))


def exponential(rate: float) -> DecayProfile:
    return DecayProfile("exponential", rate=float(rate))


# Euler-Maclaurin stop and the coefficients (2k)! / B_2k of Cephes' zeta.c
_MACHEP = 1.11022302462515654042e-16
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
    -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
    1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)


def hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta sum_{j >= 0} (q + j)^-x for x > 1, q > 0.

    A line-for-line port of the Cephes routine behind scipy.special.zeta(x, q)
    (same terms, stops and order of operations), so the two agree bit for bit.
    """
    if q > 1e8:  # asymptotic expansion, DLMF 25.11.43
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    # direct terms until at least 9 are summed and a > 9
    s = q**-x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    # Euler-Maclaurin tail from w = a
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coeff in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coeff
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def tail_sum(profile: DecayProfile, ell: int, z: int) -> float:
    """sum over integer x >= ell of x^z * jbar(x), via analytic tails.

    Raises NonConvergentTail when the sum diverges (power law with
    alpha <= z + 1).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if z not in (0, 1):
        raise ValueError("z must be 0 or 1")

    if profile.kind == "finite_range":
        hi = profile.range_cutoff
        if ell > hi:
            return 0.0
        xs = np.arange(ell, hi + 1, dtype=float)
        return float(np.sum(xs**z))

    if profile.kind == "power_law":
        s = profile.alpha - z
        if s <= 1.0:
            raise NonConvergentTail(
                f"power-law tail sum diverges for alpha={profile.alpha}, z={z}"
            )
        # Hurwitz zeta gives the exact tail.
        return hurwitz_zeta(s, float(ell))

    if profile.kind == "exponential":
        q = math.exp(-profile.rate)
        if z == 0:
            return q**ell / (1.0 - q)
        return q**ell * (ell * (1.0 - q) + q) / (1.0 - q) ** 2

    # stretched exponential: partial sum plus an integral majorant of the
    # remainder, started past the maximum of t^z exp(-c t^kappa)
    c, kappa = profile.stretch_c, profile.kappa
    peak = (z / (c * kappa)) ** (1.0 / kappa) if z > 0 else 0.0
    total = 0.0
    x = ell
    while True:
        term = x**z * math.exp(-c * x**kappa)
        total += term
        if x > peak and term < 1e-18 * (total + 1e-300):
            break
        if x > ell + 2_000_000:
            raise NonConvergentTail("stretched-exponential tail failed to settle")
        x += 1
    # the library's one use of scipy, imported here so that importing
    # gibbschain loads numpy alone
    from scipy import integrate

    rem, _ = integrate.quad(
        lambda t: t**z * math.exp(-c * t**kappa), x, np.inf, limit=200
    )
    return total + rem


def measure_gamma(profile: DecayProfile, ell_max: int) -> float:
    """Smallest gamma for which the tail-sum condition holds for both moments
    on ell in [1, ell_max]: the largest tail / (l^(z+1) jbar(l)).  Points
    where jbar(l) = 0 are vacuous (the tail is then 0 as well)."""
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    worst = 0.0
    for z in (0, 1):
        for ell in range(1, ell_max + 1):
            j = profile(ell)
            if j != 0.0:
                worst = max(worst, tail_sum(profile, ell, z) / (ell ** (z + 1) * j))
    return worst
