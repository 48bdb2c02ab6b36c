"""Experiment sweeps: build chains, run certifications, emit CSV + manifest.

Each runner fills a Manifest and writes ``<experiment>.csv`` through it
into the output directory; ``runners`` maps each experiment to its runner,
and ``run_experiment`` alone dispatches, times and writes the manifest.
Sweep points run one after another in a single thread, and a run holds
OpenBLAS on one thread (``_one_blas_thread``), so its CSV bodies do not
depend on OPENBLAS_NUM_THREADS; clustering_sweep emits its rows in sorted
beta order.  Correlations are Z-Z correlators of the Gibbs populations
(``opalg.gibbs_populations``); no 2^n x 2^n Gibbs state is formed.
"""

from __future__ import annotations

import contextlib
import math
import os
import time

import numpy as np

from . import chain as chain_mod
from . import cluster, csvio, locality, opalg, oracles, qbp
from .config import ExperimentConfig
from .errors import ConfigError, FitDegenerate, GibbsChainError


def build_config_chain(cfg: ExperimentConfig, n=None):
    return chain_mod.build_chain(
        cfg.n if n is None else n,
        cfg.generator,
        cfg.make_profile(),
        coupling=cfg.coupling,
        seed=cfg.seed,
        anisotropy=cfg.anisotropy,
    )


def truncation_regions(n, x_width, y_width):
    return tuple(range(x_width)), tuple(range(n - y_width, n))


def correlation_lengths(h, betas, x0, r_list):
    """Connected zz correlations and their fitted correlation length at each beta.

    ``h`` is diagonalized once.  For each beta the list holds
    (cors, xi, n_used, excluded): cors[k] = Cor(Z_x0, Z_(x0 + r_list[k]))
    from ``opalg.zz_correlation`` on the Gibbs populations, and the rest from
    ``oracles.fit_exponential_decay`` of |cors| against r_list.
    """
    spectrum = opalg.hermitian_eig(h.matrix())
    out = []
    for beta in betas:
        pops = opalg.gibbs_populations(spectrum, beta)
        cors = [opalg.zz_correlation(pops, x0, x0 + r) for r in r_list]
        xi, _, used, excluded = oracles.fit_exponential_decay(r_list, cors)
        out.append((cors, xi, used, excluded))
    return out


def gamma_decay_values(cfg: ExperimentConfig):
    """(beta, m, n_m, value, factorization residual) for each beta and m, in
    config order, with Z probes on the ends of an n_m-site chain.

    m = 0 gives |Cor(O_X, O_Y)| (residual 0); m >= 1 gives ``gamma_pair``'s
    psi_trace_decay over m center blocks of 2*half_width sites.  m is the outer
    loop: each m's chain is built, and its spectra taken, once for every beta.
    """
    ell = cfg.half_width
    ladder = []  # per m, its rows in beta order
    for m in cfg.m_list:
        n_m = cfg.x_width + cfg.y_width + 2 * ell * m
        h = build_config_chain(cfg, n=n_m)
        if m == 0:
            spec = opalg.hermitian_eig(h.matrix())
            pops = [opalg.gibbs_populations(spec, beta) for beta in cfg.beta_list]
            values = [(abs(opalg.zz_correlation(p, 0, n_m - 1)), 0.0) for p in pops]
        else:
            x, y = truncation_regions(n_m, cfg.x_width, cfg.y_width)
            htc = chain_mod.truncate(h, x, y, cfg.block_len)
            cd = chain_mod.center_decomposition(htc, m, ell)
            o_x = opalg.single_site(opalg.pauli("z"), 0)
            o_y = opalg.single_site(opalg.pauli("z"), n_m - 1)
            reps = cluster.gamma_pair(htc, cd, cfg.beta_list, o_x, o_y,
                                      tau_steps=cfg.tau_steps, integrator=cfg.integrator)
            values = [(rep.psi_trace_decay, rep.factorization_residual) for rep in reps]
        ladder.append([(beta, m, n_m, *v) for beta, v in zip(cfg.beta_list, values)])
    return [row for rows in zip(*ladder) for row in rows]


def ising_xi_row(betas, xis, coupling):
    """The row that each xi lies within 5% of the Ising chain's closed form."""
    refs = [oracles.ising_correlation_length(beta, coupling) for beta in betas]
    worst = max([0.0] + [abs(xi - ref) / ref for xi, ref in zip(xis, refs)])
    return ("ising_xi_worst_rel_dev", worst, 0.05, worst <= 0.05)


def log_xi_line(label, betas, xis):
    """(fit, row): ``oracles.fit_log_line`` of xi on beta, None unless every xi is finite
    and > 0, and the row that log xi increases, measured by its least step (nan if None)."""
    fit = oracles.fit_log_line(betas, xis)
    fit = fit if fit is not None and len(fit[3]) == len(betas) else None
    steps = np.diff(fit[3]) if fit else np.array([math.nan])
    return fit, (label, float(np.min(steps)), 0.0, bool(np.all(steps > 0)))


def decay_row(beta, values):
    """The row that ``values`` (by increasing m) rise by at most 1e-12; measured: the least drop."""
    drops = [a - b for a, b in zip(values, values[1:])]
    return (f"decay_nonincreasing[beta={beta}]", float(min(drops, default=0.0)), 0.0,
            all(d >= -1e-12 for d in drops))


# ---------------------------------------------------------------------------
# individual experiments


def run_lr_sweep(cfg: ExperimentConfig, manifest, outdir):
    h = build_config_chain(cfg)
    r_list = cfg.r_list or tuple(range(1, cfg.n))
    targets = [("plain", h)]
    if not h.profile.is_finite_range:
        x, y = truncation_regions(cfg.n, cfg.x_width, cfg.y_width)
        targets.append(("truncated", chain_mod.truncate(h, x, y, cfg.block_len)))

    rows = []
    for label, target in targets:
        rep = locality.lr_certify(target, cfg.t_grid, r_list)
        rows += [(label, row.t, row.r, row.exact, row.envelope, not row.ok) for row in rep.rows]
        note = (f"skipped r={','.join(map(str, rep.skipped))} (past the {label} interior)"
                if rep.skipped else "")
        manifest.add_check(f"lr_envelope[{label}]",
                           [(f"t={row.t},r={row.r}", row.exact, row.envelope, row.ok)
                            for row in rep.rows], note)
    columns = ("mode", "t", "r", "exact_commutator", "envelope", "violation")
    comments = [
        "lr_sweep: exact commutator norms against propagation envelopes",
        "exact_commutator: ||[O_Z(t), O_Z']|| from the exact eigenvalues of one parity"
        " block (of the whole commutator where the chain has no parity sectors)",
        "envelope: mode-specific light-cone bound, trivial 2-cap applied",
    ]
    manifest.write_csv(outdir, "lr_sweep.csv", comments, columns, rows)


def run_qbp_locality(cfg: ExperimentConfig, manifest, outdir):
    h = build_config_chain(cfg)
    x, y = truncation_regions(cfg.n, cfg.x_width, cfg.y_width)
    htc = chain_mod.truncate(h, x, y, cfg.block_len)
    reports = qbp.bp_locality_sweep(
        htc, cfg.bond_index, cfg.radius_list, cfg.beta_list,
        tau_steps=cfg.tau_steps, integrator=cfg.integrator,
    )
    rows = [(rep.beta, rep.r, rep.exact, rep.explicit_bound, rep.vacuous, not rep.passed)
            for rep in reports]
    manifest.add_check("bp_locality_explicit_bound",
                       [(f"beta={rep.beta},r={rep.r}", rep.exact, rep.explicit_bound, rep.passed)
                        for rep in reports])
    theta = qbp.calibrate_theta(reports, h.profile, cfg.block_len)
    if theta is None:
        manifest.add_fit("theta", "unresolved")
    else:
        manifest.add_fit("theta0", theta.theta0)
        manifest.add_fit("theta1", theta.theta1)
    columns = ("beta", "r", "exact", "explicit_bound", "vacuous", "violation")
    comments = [
        "qbp_locality: window-truncation error of belief propagation operators",
        "exact: || Phi - Phi_window ||, explicit_bound: fully explicit envelope",
        "vacuous rows: window covers the chain, constructions coincide",
    ]
    manifest.write_csv(outdir, "qbp_locality.csv", comments, columns, rows)


def run_truncation_sweep(cfg: ExperimentConfig, manifest, outdir):
    h = build_config_chain(cfg)
    h_spectrum = opalg.hermitian_eig(h.matrix())
    rows, checks = [], []
    for l0 in cfg.block_len_list:
        x, y = truncation_regions(cfg.n, cfg.x_width, cfg.y_width)
        htc = chain_mod.truncate(h, x, y, l0)
        spectra = (h_spectrum, opalg.hermitian_eig(htc.matrix()))
        for beta in cfg.beta_list:
            rep = chain_mod.truncation_error_report(h, htc, beta, spectra)
            point = [(f"delta_norm[l0={l0},beta={beta}]", rep.exact_delta_norm,
                      rep.op_norm_bound, rep.op_ok)]
            # without the smallness condition there is no trace-norm bound to check
            if rep.condition_ok:
                point.append((f"trace_norm[l0={l0},beta={beta}]", rep.exact_trace_norm_diff,
                              rep.trace_norm_bound, rep.trace_ok))
            checks += point
            rows.append((l0, beta, rep.exact_delta_norm, rep.op_norm_bound,
                         rep.exact_trace_norm_diff, rep.trace_norm_bound, rep.condition_value,
                         rep.condition_ok, not all(row[3] for row in point)))
    manifest.add_check("truncation_bounds", checks)
    columns = ("block_len", "beta", "exact_delta_norm", "op_norm_bound",
               "exact_trace_norm_diff", "trace_norm_bound", "condition_value",
               "condition_ok", "violation")
    comments = [
        "truncation_sweep: measured truncation errors against closed forms",
        "op bound: gamma^2 g q l0^2 jbar(l0); trace bound requires beta-smallness",
    ]
    manifest.write_csv(outdir, "truncation_sweep.csv", comments, columns, rows)


def run_clustering_sweep(cfg: ExperimentConfig, manifest, outdir):
    r_list = cfg.clustering_sites()
    betas = sorted(cfg.beta_list)
    sweep = correlation_lengths(build_config_chain(cfg), betas, 0, r_list)

    rows = []
    xis = []
    for beta, (cors, xi, used, excluded) in zip(betas, sweep):
        if used < 2:
            raise FitDegenerate(
                f"beta={beta}: only {used} rows above the underflow floor"
            )
        xis.append(xi)
        for k, r in enumerate(r_list):
            rows.append((beta, r, abs(cors[k]), k in excluded))
        manifest.add_fit(f"xi[beta={beta}]", xi)

    fit, monotone = log_xi_line("min_log_xi_increment", betas, xis)
    if fit is not None:
        slope, intercept, resid, _ = fit
        manifest.add_fit("log_xi_slope", slope)
        manifest.add_fit("log_xi_intercept", intercept)
        manifest.add_fit("log_xi_max_residual", resid)
    manifest.add_check("log_xi_monotone_increasing", [monotone])

    if cfg.generator == "ising_zz" and cfg.profile == "finite_range" and cfg.range_cutoff == 1:
        row = ising_xi_row(betas, xis, cfg.coupling)
        manifest.add_fit(row[0], row[1])
        manifest.add_check("ising_xi_within_5pct", [row])

    columns = ("beta", "r", "cor_abs", "excluded")
    comments = [
        "clustering_sweep: connected zz correlations versus separation",
        "rows with cor_abs below the underflow floor are excluded from fits",
    ]
    manifest.write_csv(outdir, "clustering_sweep.csv", comments, columns, rows)


def run_gamma_decay(cfg: ExperimentConfig, manifest, outdir):
    rows = gamma_decay_values(cfg)
    values = {(beta, m): value for beta, m, _, value, _ in rows}

    betas, taus = [], []
    for beta in sorted(cfg.beta_list):
        seq = [values[(beta, m)] for m in sorted(cfg.m_list)]
        manifest.add_check(f"decay_nonincreasing[beta={beta}]", [decay_row(beta, seq)])
        tau, _, used, _ = oracles.fit_exponential_decay(sorted(cfg.m_list), seq)
        if used >= 2:
            manifest.add_fit(f"tau[beta={beta}]", tau)
            betas.append(beta)
            taus.append(tau)

    fit = oracles.fit_log_line(betas, taus)
    if fit is not None:
        slope, _, resid, _ = fit
        manifest.add_fit("log_tau_slope", slope)
        manifest.add_fit("log_tau_linear_max_residual", resid)
        manifest.add_check("log_tau_at_most_linear",
                           [("log_tau_linear_max_residual", resid, 0.5, resid <= 0.5)])

    columns = ("beta", "m", "n", "psi_trace_decay", "factorization_residual")
    comments = [
        "gamma_decay: block-local inclusion-exclusion trace versus block count",
        "each m uses the chain of width x_width + 2*half_width*m + y_width",
    ]
    manifest.write_csv(outdir, "gamma_decay.csv", comments, columns, rows)


# ---------------------------------------------------------------------------
# dispatcher


def runners():
    """Experiment -> its runner(cfg, manifest, outdir), one per ``config.READS`` entry."""
    from .acceptance import run_acceptance  # acceptance imports this module

    return {
        "lr_sweep": run_lr_sweep,
        "qbp_locality": run_qbp_locality,
        "truncation_sweep": run_truncation_sweep,
        "clustering_sweep": run_clustering_sweep,
        "gamma_decay": run_gamma_decay,
        "acceptance": run_acceptance,
    }


@contextlib.contextmanager
def _one_blas_thread(manifest):
    """OpenBLAS on one thread inside the block, its previous count restored after.

    Products and eigensolvers split their sums by thread, so output bytes
    would depend on the thread count.  The count is set through the
    ``scipy_openblas_set_num_threads64_`` symbol of numpy's bundled OpenBLAS;
    without it the block runs at the ambient count and ``manifest`` notes so.
    """
    import ctypes  # here, not at import time, so importing gibbschain costs nothing more

    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)  # dlsym also searches its OpenBLAS
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError) as exc:
        manifest.add_note(f"BLAS threads not set (ambient count, output bytes may depend "
                          f"on it): {exc}")
        yield
        return
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def run_experiment(cfg: ExperimentConfig, output_dir=None):
    """Run one experiment; returns the written Manifest.  An unknown
    experiment is a ConfigError, raised before any output is written."""
    from . import __version__

    runner = runners().get(cfg.experiment)
    if runner is None:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    outdir = output_dir or cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    manifest = csvio.Manifest(cfg, __version__)
    t0 = time.time()
    try:
        with _one_blas_thread(manifest):
            runner(cfg, manifest, outdir)
    except GibbsChainError as exc:
        manifest.add_error(f"{type(exc).__name__}: {exc}")
    manifest.wall_seconds = round(time.time() - t0, 3)
    manifest.write(outdir)
    return manifest
