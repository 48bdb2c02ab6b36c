"""Independent closed-form references used by sweeps and the test suite.

These deliberately avoid the dense operator algebra: the transfer-matrix
product below touches only 2x2 matrices, so it can cross-check the dense
Gibbs-state correlation path without sharing code with it.
"""

from __future__ import annotations

import math

import numpy as np


def ising_transfer_correlation(n, coupling, beta, i, j):
    """Connected zz correlation of the open classical Ising chain.

    Spins sigma = +-1 with weight exp(beta * coupling * sum sigma_k sigma_k+1)
    (couplings enter with a plus sign; the customary minus is absorbed into
    the energy).  Sites are 0-based, i < j < n.
    """
    if not (0 <= i < j < n):
        raise ValueError("need 0 <= i < j < n")
    bj = beta * coupling
    t = np.array([[math.exp(bj), math.exp(-bj)], [math.exp(-bj), math.exp(bj)]])
    s = np.array([[1.0, 0.0], [0.0, -1.0]])
    ones = np.ones(2)

    def chain_product(insertions):
        vec = ones.copy()
        for site in range(n):
            if site in insertions:
                vec = s @ vec
            if site < n - 1:
                vec = t @ vec
        return ones @ vec

    z = chain_product(set())
    two = chain_product({i, j}) / z
    one_i = chain_product({i}) / z
    one_j = chain_product({j}) / z
    return two - one_i * one_j


def ising_correlation_length(beta, coupling):
    """Closed-form correlation length -1/log(tanh(beta*J)) of the open chain."""
    t = math.tanh(beta * abs(coupling))
    return -1.0 / math.log(t)


def fit_exponential_decay(distances, values):
    """Least-squares fit of values ~ A * exp(-d / xi) on log scale.

    Rows with |value| at or below the underflow floor 1e-14 are excluded (and
    reported); returns
    (xi, log_amplitude, n_used, excluded_indices).
    """
    distances = np.asarray(distances, dtype=float)
    values = np.abs(np.asarray(values, dtype=float))
    mask = values > 1e-14
    excluded = tuple(int(k) for k in np.nonzero(~mask)[0])
    if mask.sum() < 2:
        return math.nan, math.nan, int(mask.sum()), excluded
    slope, intercept = np.polyfit(distances[mask], np.log(values[mask]), 1)
    xi = -1.0 / slope if slope < 0 else math.inf
    return float(xi), float(intercept), int(mask.sum()), excluded


def fit_log_line(xs, ys):
    """Least-squares line log y ~ slope * x + intercept over the points with
    finite y > 0, the fit behind "log xi (or log tau) is linear in beta".

    Returns (slope, intercept, max_residual, log_y), log_y the logs of the
    kept ys in order, or None when fewer than two points remain.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(ys) & (ys > 0)
    if keep.sum() < 2:
        return None
    xs, log_y = xs[keep], np.log(ys[keep])
    slope, intercept = np.polyfit(xs, log_y, 1)
    resid = float(np.max(np.abs(log_y - (slope * xs + intercept))))
    return float(slope), float(intercept), resid, log_y
