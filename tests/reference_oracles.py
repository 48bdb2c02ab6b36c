"""Reference oracles and one-point wrappers used only by the tests, kept out of the library."""

import math

import numpy as np
from scipy.linalg import expm

from gibbschain import qbp
from gibbschain.errors import GibbsChainError, Overlap


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


def reconstruction_residual(phi_mat, h_env, h_bond, beta):
    """|| Phi e^{beta H_env} Phi^dag - e^{beta H} || / || e^{beta H} ||, H = H_env + h.

    Dense and independent of the library: scipy's Pade exponentials and
    numpy's SVD spectral norm, no spectra and no symmetry sectors.
    """
    e_env = expm(beta * np.asarray(h_env))
    e_full = expm(beta * (np.asarray(h_env) + np.asarray(h_bond)))
    diff = phi_mat @ e_env @ phi_mat.conj().T - e_full
    return float(np.linalg.norm(diff, 2) / np.linalg.norm(e_full, 2))
