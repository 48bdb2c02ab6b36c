"""The acceptance suite: every certified inequality at its fixed tolerance.

A criterion is a function ``criterion_NN_title`` that returns its rows,
one (label, measured, bound, ok) row per assertion; it passes when it has
rows and every one is ok.  ``run_acceptance`` reads the number and title
from the function name, times each call, records each criterion and each
runtime budget as one ``Manifest.add_check`` check, prints one pass/fail
line each and writes acceptance.csv plus acceptance_detail.csv.  Criterion
parameters (sizes, seeds, couplings, tolerances) are pinned here, not
configurable: the suite is the contract.
"""

from __future__ import annotations

import math
import os
import tempfile
import time

import numpy as np

from . import chain as chain_mod
from . import cluster, csvio, locality, opalg, oracles, qbp
from .config import ExperimentConfig
from .experiments import (correlation_lengths, decay_row, gamma_decay_values, ising_xi_row,
                          log_xi_line, run_experiment)
from .profiles import exponential, finite_range, power_law, stretched_exp


def _random_hermitian(rng, dim, scale=1.0):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (m + m.conj().T)


def _random_psd(rng, dim, scale=1.0):
    (evals,), (vecs,), _ = opalg.spectrum(_random_hermitian(rng, dim))
    return (vecs * (scale * np.abs(evals))) @ vecs.conj().T


# --------------------------------------------------------------------------
# criteria


def criterion_01_filter_normalization():
    """Quadrature normalization and first moment of the filter kernel."""
    rows = []
    for beta in (0.5, 1.0, 2.0, 4.0):
        scheme = qbp.filter_quadrature(beta, 1e-9)
        norm_err = abs(scheme.normalization() - 1.0)
        rows.append((f"norm[beta={beta}]", norm_err, 1e-8, norm_err <= 1e-8))
        m1_err = abs(scheme.first_moment() - qbp.FILTER_FIRST_MOMENT * beta)
        rows.append((f"first_moment[beta={beta}]", m1_err, 1e-6, m1_err <= 1e-6))
    return rows


def criterion_02_qbp_reconstruction():
    """Reconstruction residual of exact-split BP operators on random chains."""
    rows = []
    for seed in range(10):
        h = chain_mod.build_chain(
            6, "random_two_site", power_law(3.0), coupling=0.4, seed=seed
        )
        htc = chain_mod.truncate(h, [0], [5], 1)
        betas = (0.5, 1.0, 2.0)
        # an infinite gate measures each residual and never refines: the row checks it
        ops = qbp.bond_sweep(htc, 2, betas, tau_steps=32, integrator="cf4",
                             residual_gate=math.inf)
        for beta, bp in zip(betas, ops):
            for label, measured, bound in (
                ("residual", bp.reconstruction_residual, 1e-6),
                ("phi_cap", bp.phi_norm_max, beta * bp.bond_norm / 2.0 + 1e-8),
                ("op_cap", bp.norm(), math.exp(beta * bp.bond_norm / 2.0) + 1e-8),
            ):
                rows.append((f"{label}[seed={seed},beta={beta}]", measured, bound,
                             measured <= bound))
    return rows


def criterion_03_bp_window_locality():
    """Window-truncation error of BP operators against the explicit envelope."""
    rows = []
    # each radius's window leaves part of the chain, so no row is vacuous
    cases = [(10, [0], [9], (7,)), (11, [0], [9, 10], (7, 8))]
    for n, x, y, radii in cases:
        h = chain_mod.build_chain(
            n, "heisenberg_xxz", power_law(3.0), coupling=0.25, seed=4
        )
        htc = chain_mod.truncate(h, x, y, 1)
        for rep in qbp.bp_locality_sweep(
            htc, 1, radii, (0.5, 1.0), tau_steps=12, integrator="midpoint"
        ):
            rows.append((f"n={n},beta={rep.beta},r={rep.r}", rep.exact, rep.explicit_bound,
                         rep.passed))
    return rows


def criterion_04_lr_certification():
    """Zero envelope violations on finite-range, long-range, truncated chains."""
    rows = []
    h3 = chain_mod.build_chain(10, "heisenberg_xxz", power_law(3.0), coupling=0.5, seed=2)
    for label, h in (
        ("finite_range", chain_mod.build_chain(8, "ising_zz", finite_range(1), coupling=1.0,
                                               seed=0)),
        ("power_law", chain_mod.build_chain(8, "heisenberg_xxz", power_law(3.0), coupling=0.5,
                                            seed=1)),
        ("truncated", chain_mod.truncate(h3, [0], [9], 2)),
    ):
        rep = locality.lr_certify(h, (0.0, 0.25, 0.5, 1.0), range(1, h.n))
        bad = sum(not row.ok for row in rep.rows)
        rows.append((f"{label}_violations", float(bad), 0.0, bad == 0))
    return rows


def criterion_05_subset_evolution():
    """Window-restricted evolution error within its envelope, 20 seeded runs."""
    rows = []
    profiles = (power_law(3.0), exponential(0.7), stretched_exp(0.5, 1.0))
    for seed in range(20):
        n = 7 + seed % 4
        gen = ("heisenberg_xxz", "random_two_site")[seed % 2]
        prof = profiles[seed % 3]
        h = chain_mod.build_chain(n, gen, prof, coupling=0.4, seed=seed)
        t = (0.2, 0.4, 0.6)[seed % 3]
        site = n // 2
        lo = 1 + (seed // 2) % 2
        if gen == "heisenberg_xxz" and seed >= 12:
            lo = 3 - lo  # XXZ ignores its seed: seeds 12-18 would repeat 0-6 bit for bit
        window = range(lo, n - 1)
        rep = locality.subset_evolution_error(h, site, window, t)
        rows.append((f"seed={seed},n={n},t={t}", rep.exact, rep.bound, rep.ok))
    return rows


def criterion_06_block_interaction():
    """Region-coupling norms under their distance envelope, all interval pairs."""
    h = chain_mod.build_chain(12, "random_two_site", power_law(3.0), coupling=0.5, seed=3)
    reps = [chain_mod.block_interaction_norm(h, range(a1, a2 + 1), range(b1, b2 + 1))
            for a1 in range(12) for a2 in range(a1, 12)
            for b1 in range(a2 + 1, 12) for b2 in range(b1, 12)]
    worst = max(rep.exact / rep.bound if rep.bound else 0.0 for rep in reps)
    return [(f"interval_pairs[{len(reps)}]", worst, 1.0, all(rep.passed for rep in reps))]


def criterion_07_truncation_bounds():
    """Truncation error norms inside their closed-form envelopes."""
    rows = []
    h = chain_mod.build_chain(10, "heisenberg_xxz", power_law(3.0), coupling=0.01, seed=5)
    beta = 0.3
    h_spectrum = opalg.hermitian_eig(h.matrix())
    for l0 in (1, 2):
        htc = chain_mod.truncate(h, [0], [9], l0)
        spectra = (h_spectrum, opalg.hermitian_eig(htc.matrix()))
        rep = chain_mod.truncation_error_report(h, htc, beta, spectra)
        rows += [
            (f"delta_norm[l0={l0}]", rep.exact_delta_norm, rep.op_norm_bound, rep.op_ok),
            (f"smallness_condition[l0={l0}]", rep.condition_value, 1.0, rep.condition_ok),
            (f"trace_norm[l0={l0}]", rep.exact_trace_norm_diff, rep.trace_norm_bound,
             rep.trace_ok),
        ]
    return rows


def criterion_08_operator_lemmas():
    """Three standalone operator inequalities on 100 seeded draws each."""
    rows = []

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        a = _random_hermitian(rng, dim)
        b = _random_hermitian(rng, dim, scale=float(rng.uniform(0.05, 1.5)))
        # tr e^A is ||e^A||_1, as e^A > 0
        lhs, tr_ea = opalg.expm_difference(opalg.hermitian_eig(a), opalg.hermitian_eig(a + b))
        nb = opalg.opnorm(b)
        rhs = nb * math.exp(nb) * tr_ea
        worst = max(worst, lhs / rhs)
    rows.append(("exp_perturbation_worst_ratio", worst, 1.0, worst <= 1.0 + 1e-10))

    rng = np.random.default_rng(1)
    n_fail = 0
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        a = _random_psd(rng, dim, scale=0.5)
        b = _random_psd(rng, dim, scale=0.5)
        zeta = opalg.opnorm(a)
        if not cluster.verify_positivity_shift(a, b, zeta).passed:
            n_fail += 1
    rows.append(("positivity_shift_failures", float(n_fail), 0.0, n_fail == 0))
    counter = cluster.verify_positivity_shift(np.diag([0.0, 10.0]), np.ones((2, 2)), 1.0)
    rows.append(
        ("positivity_counterexample_min_eig", counter.min_eig, -1e-6,
         counter.min_eig < -1e-6)
    )

    rng = np.random.default_rng(2)
    n_fail = 0
    for k in range(100):
        nx = 2
        n_all = 3 + k % 2
        dim_x = 2**nx
        m = 1 + k % 3
        ws = [np.diag(rng.uniform(0.0, 3.0, size=dim_x)) for _ in range(m)]
        rho = _random_psd(rng, 2**n_all)
        psi_dim = 2 ** (n_all - nx)
        psi_vec = rng.standard_normal(psi_dim) + 1j * rng.standard_normal(psi_dim)
        rep = cluster.verify_weighted_product(ws, rho, psi_vec, (0, 1))
        if not rep.passed:
            n_fail += 1
    rows.append(("weighted_product_failures", float(n_fail), 0.0, n_fail == 0))
    return rows


def criterion_09_disconnected_traces():
    """Vanishing disconnected traces and the all-bond cancellation identity."""
    rows = []
    rng = np.random.default_rng(9)
    for seed in range(20):
        n = 4 + seed % 2
        mid = n // 2
        z_ops = []
        for _ in range(1 + seed % 3):
            if rng.uniform() < 0.5:
                sites = sorted(rng.choice(range(0, mid), size=min(2, mid), replace=False))
            else:
                sites = sorted(rng.choice(range(mid, n - 1), size=min(2, n - 1 - mid), replace=False))
            z_ops.append(chain_mod.LocalTerm(sites, _random_hermitian(rng, 2 ** len(sites))))
        res = cluster.disconnected_trace(z_ops, n)
        # keep only genuinely split collections; the construction all but ensures it
        if not res.disconnected:
            continue
        tol = 1e-10 * res.scale
        rows.append((f"trace[seed={seed},n={n}]", abs(res.value), tol, abs(res.value) <= tol))

    for label, gen, prof, coupling, beta, seed in (
        ("ising", "ising_zz", finite_range(1), 1.0, 0.6, 0),
        ("random", "random_two_site", power_law(3.0), 0.4, 1.0, 7),
    ):
        h = chain_mod.build_chain(6, gen, prof, coupling=coupling, seed=seed)
        htc = chain_mod.truncate(h, [0], [5], 2)
        pauli = "z" if label == "ising" else "x"
        rep = cluster.correlation_identity_residual(htc, pauli, beta)
        rows.append((f"identity_residual[{label}]", rep.residual, 1e-8, rep.residual <= 1e-8))
        if rep.trace_norm_ratio is not None:
            rows.append(
                (f"trace_norm_majorant[{label}]", rep.trace_norm_ratio, 1.0,
                 rep.trace_norm_ratio <= 1.0 + 1e-10)
            )
    return rows


def criterion_10_commuting_clustering():
    """Commuting-case bound chain on the classical zz chain, with oracle."""
    rows = []
    h = chain_mod.build_chain(10, "ising_zz", finite_range(1), coupling=1.0, seed=0)
    htc = chain_mod.truncate(h, [0], [9], 1)
    for beta in (0.5, 1.0, 2.0):
        rep = cluster.commuting_chain_bound(htc, beta)  # Z probes on sites 0 and 9
        oracle = abs(oracles.ising_transfer_correlation(10, 1.0, beta, 0, 9))
        dev = abs(rep.exact_cor - oracle)
        rows.append((f"oracle_match[beta={beta}]", dev, 1e-10, dev <= 1e-10))
        rows += [
            (f"product_bound[beta={beta}]", rep.exact_cor, rep.product_bound, rep.product_ok),
            (f"final_bound[beta={beta}]", rep.product_bound, rep.final_bound, rep.final_ok),
        ]
    return rows


def criterion_11_correlation_length():
    """Fitted correlation lengths: oracle match and temperature monotonicity."""
    rows = []

    h = chain_mod.build_chain(10, "ising_zz", finite_range(1), coupling=1.0, seed=0)
    betas = (0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5)
    xis = [xi for _, xi, _, _ in correlation_lengths(h, betas, range(1, 10))]
    rows.append(ising_xi_row(betas, xis, 1.0))

    betas = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)
    for n, label in ((10, "quantum_log_xi_monotone"), (12, "quantum_log_xi_monotone[n=12]")):
        hq = chain_mod.build_chain(
            n, "heisenberg_xxz", finite_range(1), coupling=1.0, seed=0, anisotropy=1.5
        )
        xis = [xi for _, xi, _, _ in correlation_lengths(hq, betas, range(1, n))]
        rows.append(log_xi_line(label, betas, xis)[1])
    return rows


def criterion_12_gamma_machinery():
    """Inclusion-exclusion identities and block-local product decay."""
    rows = []

    h = chain_mod.build_chain(6, "random_two_site", power_law(3.0), coupling=0.4, seed=7)
    htc = chain_mod.truncate(h, [0], [5], 2)
    beta = 0.7
    h_mat = htc.matrix()
    for subset in ((0,), (1,), (0, 1), (1, 2)):
        bonds = [htc.bond_matrix(s) for s in subset]
        g_sum = cluster.g_operator(h_mat, bonds, beta)
        g_rec = cluster.g_operator_nested(h_mat, bonds, beta)
        scale = max(opalg.opnorm(g_rec), 1e-300)
        dev = opalg.opnorm(g_sum - g_rec) / scale
        rows.append((f"lambda_vs_nested[S={subset}]", dev, 1e-12, dev <= 1e-12))

    for label, gen, prof, coupling, seed, beta_f in (
        ("ising", "ising_zz", finite_range(1), 1.0, 0, 0.7),
        ("random", "random_two_site", power_law(3.0), 0.4, 3, 0.5),
    ):
        hf = chain_mod.build_chain(6, gen, prof, coupling=coupling, seed=seed)
        hft = chain_mod.truncate(hf, [0], [5], 1)
        cd = chain_mod.center_decomposition(hft, 2, 1)
        pauli = "z" if label == "ising" else "x"
        (rep,) = cluster.gamma_pair(hft, cd, (beta_f,), pauli, tau_steps=16)
        rows.append(
            (f"factorization_residual[{label}]", rep.factorization_residual, 1e-10,
             rep.factorization_residual <= 1e-10)
        )

    # m = 0, 1, 2 center blocks on the 2 + 2m site Ising chain
    cfg = ExperimentConfig(experiment="gamma_decay", generator="ising_zz",
                           profile="finite_range", range_cutoff=1, coupling=1.0, seed=0,
                           beta_list=(0.5, 1.0), m_list=(0, 1, 2), half_width=1,
                           tau_steps=16)
    decay = gamma_decay_values(cfg)
    for beta in cfg.beta_list:
        rows.append(decay_row(beta, [value for b, _, _, value, _ in decay if b == beta]))
    return rows


def criterion_13_determinism():
    """Identical config and seed reproduce CSV bodies byte for byte."""
    rows = []
    configs = (
        ExperimentConfig(experiment="lr_sweep", n=6, generator="heisenberg_xxz",
                         profile="power_law", alpha=3.0, coupling=0.5, seed=1,
                         t_grid=(0.0, 0.5), block_len=1, x_width=1, y_width=1),
        ExperimentConfig(experiment="clustering_sweep", n=8, generator="ising_zz",
                         profile="finite_range", range_cutoff=1, coupling=1.0,
                         seed=0, beta_list=(0.4, 0.8)),
        ExperimentConfig(experiment="gamma_decay", generator="ising_zz",
                         profile="finite_range", range_cutoff=1, coupling=1.0,
                         seed=0, beta_list=(0.7,), m_list=(0, 1, 2), half_width=1),
    )
    with tempfile.TemporaryDirectory(prefix="determinism_") as base:
        for cfg in configs:
            dirs = []
            for run in (1, 2):
                outdir = os.path.join(base, f"{cfg.experiment}_{run}")
                run_experiment(cfg, output_dir=outdir)
                dirs.append(outdir)
            csvs = sorted(f for f in os.listdir(dirs[0]) if f.endswith(".csv"))
            for name in csvs:
                b1 = csvio.csv_body_bytes(os.path.join(dirs[0], name))
                b2 = csvio.csv_body_bytes(os.path.join(dirs[1], name))
                rows.append((f"bytes_equal[{cfg.experiment}/{name}]",
                             float(b1 != b2), 0.0, b1 == b2))
    return rows


ALL_CRITERIA = (
    criterion_01_filter_normalization,
    criterion_02_qbp_reconstruction,
    criterion_03_bp_window_locality,
    criterion_04_lr_certification,
    criterion_05_subset_evolution,
    criterion_06_block_interaction,
    criterion_07_truncation_bounds,
    criterion_08_operator_lemmas,
    criterion_09_disconnected_traces,
    criterion_10_commuting_clustering,
    criterion_11_correlation_length,
    criterion_12_gamma_machinery,
    criterion_13_determinism,
)

# wall-clock budgets (seconds) that are part of the criteria; checked in the
# manifest rather than the CSVs, which must stay byte-deterministic
RUNTIME_CAPS = {1: 1, 2: 120, 3: 300, 4: 180, 5: 120, 6: 30, 7: 60, 8: 60,
                9: 180, 10: 60, 11: 300, 12: 300}


def run_acceptance(cfg, manifest, outdir):
    """Run every criterion, print one line each, write the two CSV files."""
    summary, detail = [], []
    for fn in ALL_CRITERIA:
        _, number, title = fn.__name__.split("_", 2)
        number = int(number)
        t0 = time.time()
        rows = fn()
        seconds = round(time.time() - t0, 2)
        passed = manifest.add_check(fn.__name__, rows)
        print(f"criterion {number:02d} {title:<24s} {'PASS' if passed else 'FAIL'} "
              f"({seconds:.1f}s; {manifest.checks[-1][2]})")
        cap = RUNTIME_CAPS.get(number)
        if cap is not None:
            manifest.add_check(f"criterion_{number:02d}_runtime",
                               [("wall_s", seconds, cap, seconds <= cap)])
        summary.append((number, title, passed, len(rows)))
        detail += [(number, label, float(m), float(b), ok) for label, m, b, ok in rows]

    manifest.write_csv(
        outdir, "acceptance.csv", ["acceptance: one row per certified criterion"],
        ("criterion", "title", "passed", "checks"), summary,
    )
    comments = [
        "acceptance_detail: every asserted inequality with its measured value",
        "ok is the row's verdict; measured <= bound passes except on rows whose",
        "measured value is a smallest increment or drop, or a counterexample's eigenvalue",
    ]
    manifest.write_csv(
        outdir, "acceptance_detail.csv", comments,
        ("criterion", "label", "measured", "bound", "ok"), detail,
    )
