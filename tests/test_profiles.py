import math
from dataclasses import fields

import numpy as np
import pytest

from gibbschain import profiles
from gibbschain.errors import NonConvergentTail


def test_profile_shapes_and_normalization():
    for p in (
        profiles.finite_range(2),
        profiles.power_law(3.0),
        profiles.stretched_exp(0.5, 1.0),
        profiles.exponential(0.7),
    ):
        assert p(0) == 1.0
        xs = np.linspace(0, 12, 49)
        vals = p(xs)
        assert np.all(np.diff(vals) <= 1e-15), p.kind


def test_profile_parameters_are_finite_and_positive():
    """Each kind's parameters come from one table, and each must be finite and
    > 0: rate -1 gave couplings growing as e^r, and zeros divided by zero."""
    assert {p.kind for p in (profiles.finite_range(1), profiles.power_law(2.0),
                             profiles.stretched_exp(0.5, 1.0), profiles.exponential(0.7))
            } == set(profiles.PARAMETERS)
    for make, args in ((profiles.finite_range, (0,)), (profiles.power_law, (math.nan,)),
                       (profiles.stretched_exp, (0.5, 0.0)), (profiles.stretched_exp, (-1, 1)),
                       (profiles.exponential, (-1.0,)), (profiles.exponential, (math.inf,))):
        with pytest.raises(ValueError, match="needs a finite .* > 0"):
            make(*args)
    with pytest.raises(ValueError, match="needs a finite rate > 0"):
        profiles.DecayProfile("exponential")


def test_profile_is_only_its_shape():
    """A profile holds its kind and the parameters of its shape; the measured
    constants g and gamma belong to the chain."""
    shape = {name for names in profiles.PARAMETERS.values() for name in names}
    assert {f.name for f in fields(profiles.DecayProfile)} == {"kind"} | shape


def test_power_law_flat_inside_unit_distance():
    p = profiles.power_law(3.0)
    assert p(0.3) == 1.0
    assert p(3) == pytest.approx(1.0 / 27.0, rel=1e-15)


def test_tail_sum_matches_brute_force():
    from scipy.integrate import quad

    rng_cases = [
        (profiles.power_law(3.0), 1, 0),
        (profiles.power_law(3.0), 4, 1),
        (profiles.exponential(0.7), 2, 0),
        (profiles.exponential(0.7), 3, 1),
        (profiles.stretched_exp(0.5, 1.0), 1, 0),
        (profiles.stretched_exp(0.5, 1.0), 2, 1),
        (profiles.finite_range(4), 2, 1),
    ]
    for p, ell, z in rng_cases:
        hi = 200_000
        xs = np.arange(ell, hi + 1, dtype=float)
        brute = float(np.sum(xs**z * p(xs)))
        # midpoint integral approximates the discarded tail to O(hi^-3)
        if p.kind == "power_law":
            s = p.alpha - z
            brute += (hi + 0.5) ** (1.0 - s) / (s - 1.0)
        else:
            brute += quad(lambda t: t**z * p(t), hi + 0.5, np.inf, limit=200)[0]
        got = profiles.tail_sum(p, ell, z)
        assert got == pytest.approx(brute, rel=1e-8), (p.kind, ell, z)


def test_hurwitz_zeta_equals_scipy_bit_for_bit():
    """The Cephes port equals scipy.special.zeta exactly, not to a tolerance."""
    from scipy.special import zeta

    rng = np.random.default_rng(11)
    # the bundled configs' alpha - z (alpha = 3, z in {0, 1}), then s in (1, 40]
    s_values = [2.0, 3.0, 1.0 + 1e-9, 1.25, 1.5, 2.5, 40.0]
    s_values += list(1.0 + 39.0 * (1.0 - rng.random(60)))
    qs = np.arange(1.0, 401.0)
    for s in s_values:
        expect = zeta(s, qs)
        got = [profiles.hurwitz_zeta(float(s), float(q)) for q in qs]
        assert got == expect.tolist(), s
    # the asymptotic branch past q = 1e8
    for q in (1e8 + 1.0, 1e9, 1e12):
        for s in (1.5, 2.0, 3.0):
            assert profiles.hurwitz_zeta(s, q) == zeta(s, q), (s, q)
    assert profiles.tail_sum(profiles.power_law(3.0), 4, 1) == zeta(2.0, 4.0)


def _ratios(p, z, ell_max):
    """tail / (l^(z+1) jbar(l)) for l in [1, ell_max] with jbar(l) > 0."""
    return [profiles.tail_sum(p, ell, z) / (ell ** (z + 1) * p(ell))
            for ell in range(1, ell_max + 1) if p(ell) > 0]


def test_geometric_tail_closed_form():
    # jbar(x) = 2^-x: tail sums from ell are 2^(1-ell) and 2^(1-ell) (ell + 1),
    # ratios 2/ell and 2 (ell + 1)/ell^2, worst 2 and 4, both at ell = 1
    p = profiles.exponential(math.log(2.0))
    for ell in range(1, 31):
        assert profiles.tail_sum(p, ell, 0) == pytest.approx(2.0 ** (1 - ell), rel=1e-12)
        assert profiles.tail_sum(p, ell, 1) == pytest.approx(2.0 ** (1 - ell) * (ell + 1),
                                                             rel=1e-12)
    assert max(_ratios(p, 0, 30)) == pytest.approx(2.0, rel=1e-12)
    assert profiles.measure_gamma(p, 30) == pytest.approx(4.0, rel=1e-12)


def test_inverse_square_first_moment_diverges():
    p = profiles.power_law(2.0)
    with pytest.raises(NonConvergentTail):
        profiles.tail_sum(p, 1, 1)
    with pytest.raises(NonConvergentTail):
        profiles.measure_gamma(p, 5)


def test_cubic_power_law_ratio_against_partial_sums():
    # frozen from an independent 2e6-term partial sum
    p = profiles.power_law(3.0)
    assert max(_ratios(p, 0, 50)) == pytest.approx(1.202056903159, rel=1e-9)


def test_measure_gamma_covers_both_moments():
    p = profiles.power_law(3.0)
    g = profiles.measure_gamma(p, 12)
    assert g == max(_ratios(p, 0, 12) + _ratios(p, 1, 12))
    # z=1 dominates for the cubic power law
    assert g == pytest.approx(math.pi**2 / 6.0, rel=1e-10)


def test_finite_range_vacuous_beyond_cutoff():
    p = profiles.finite_range(2)
    # points with jbar = 0 are vacuous: the worst ratio is (1 + 2) / 1 at l = 1
    assert profiles.measure_gamma(p, 10) == 3.0
