"""Benchmark workloads: input generation, the certification run, and its gate.

Each workload is three functions of the child process:

* ``inputs(seed, smoke)`` builds the run's inputs (configs, seeds) from the
  workload seed.  It runs before the clock for ``certify_s`` starts.
* ``certify(inputs, outdir)`` runs the library and writes CSV bodies and
  manifests into ``outdir``.
* ``gate(outdir)`` re-reads what was written and returns one
  ``(label, ok, detail)`` item per certification: every manifest check,
  every certified row (``exact <= bound``) and every oracle cross-check, at
  the acceptance suite's pinned tolerances.

Sizes are cut down from the bundled configs and acceptance criteria so
that one cold repetition takes a few seconds; ``smoke`` shrinks them further
for the benchmark's own tests.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

# library functions are reached through their modules, so that the traced
# run's wrappers (installed after this import) see every call
from gibbschain import chain as chain_mod
from gibbschain import csvio, experiments, oracles, profiles, qbp
from gibbschain.config import load_config
from gibbschain.errors import GibbsChainError

# acceptance-suite tolerances (criteria 2, 3, 4, 10, 11, 12)
RESIDUAL_GATE = 1e-6
PHI_SLACK = 1e-8
BP_SLACK = 1e-12
LR_SLACK = 1e-10
ORACLE_TOL = 1e-10
FACTORIZATION_TOL = 1e-10


def _config(**keys):
    keys.setdefault("threads", 1)
    return load_config(overrides={k: str(v) for k, v in keys.items()}, environ={})


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _manifest_items(outdir, label):
    """One gate item per manifest check, plus one for a clean summary."""
    items = []
    with open(os.path.join(outdir, "manifest.txt")) as fh:
        lines = fh.read().splitlines()
    section = None
    for line in lines:
        if line.startswith("["):
            section = line
        elif section == "[checks]" and line.startswith(("PASS", "FAIL")):
            verdict, _, rest = line.partition("  ")
            items.append((f"{label}:{rest.strip()}", verdict == "PASS", ""))
    summary = lines[-1] if lines else ""
    items.append((f"{label}:summary", summary == "summary: PASS", summary))
    return items


def _run_configs(cfgs, outdir):
    for label, cfg in cfgs:
        experiments.run_experiment(cfg, output_dir=os.path.join(outdir, label))


# ---------------------------------------------------------------------------
# qbp_window: the bundled qbp_locality chain, full and window builds, two beta


def qbp_window_inputs(seed, smoke):
    # heisenberg_xxz is deterministic: the seed reaches the chain but changes nothing
    return [(
        "qbp_locality",
        _config(
            experiment="qbp_locality", n=8 if smoke else 10, generator="heisenberg_xxz",
            profile="power_law", alpha=3.0, coupling=0.25, seed=seed, block_len=1,
            bond_index=1, radius_list="7" if smoke else "7,8",
            beta_list="0.5" if smoke else "0.5,1.0",
            tau_steps=1 if smoke else 2, integrator="midpoint",
        ),
    )]


def qbp_window_gate(outdir):
    sub = os.path.join(outdir, "qbp_locality")
    items = _manifest_items(sub, "qbp_locality")
    for row in _rows(os.path.join(sub, "qbp_locality.csv")):
        exact, bound = float(row["exact"]), float(row["explicit_bound"])
        items.append((
            f"bp_window[beta={row['beta']},r={row['r']}]",
            row["violation"] == "0" and exact <= bound + BP_SLACK,
            f"{exact:.3g} <= {bound:.3g}",
        ))
    return items


# ---------------------------------------------------------------------------
# qbp_small: the criterion-2 shape called directly on random complex chains


def qbp_small_inputs(seed, smoke):
    n_chains = 1 if smoke else 6
    chain_seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=n_chains)
    # criterion 2 also runs beta=2; its spline filter build alone takes ~10 s and is
    # memory-bandwidth bound, which made run-to-run spread exceed the bound
    return {
        "chain_seeds": [int(s) for s in chain_seeds],
        "betas": (0.5,) if smoke else (0.5, 1.0),
        "tau_steps": 32,
    }


def qbp_small_certify(inputs, outdir):
    schemes = {b: qbp.filter_quadrature(b, 1e-9) for b in inputs["betas"]}
    rows = []
    for seed in inputs["chain_seeds"]:
        h = chain_mod.build_chain(
            6, "random_two_site", profiles.power_law(3.0), coupling=0.4, seed=seed
        )
        htc = chain_mod.truncate(h, [0], [5], 1)
        for beta, scheme in schemes.items():
            try:
                bp = qbp.build_bond_bp(
                    htc, 2, beta, scheme=scheme, tau_steps=inputs["tau_steps"],
                    integrator="cf4", residual_gate=RESIDUAL_GATE,
                )
            except GibbsChainError:
                rows.append((seed, beta, math.nan, math.nan, math.nan, math.nan, 0))
                continue
            rows.append((seed, beta, bp.reconstruction_residual, bp.phi_norm_max,
                         bp.bond_norm, bp.norm(), bp.tau_steps))
    columns = ("seed", "beta", "residual", "phi_norm_max", "bond_norm", "op_norm", "tau_steps")
    comments = ["qbp_small: reconstruction residual of exact-split BP operators"]
    csvio.write_csv(os.path.join(outdir, "qbp_small.csv"), comments, columns, rows)


def qbp_small_gate(outdir):
    items = []
    for row in _rows(os.path.join(outdir, "qbp_small.csv")):
        beta, half = float(row["beta"]), 0.5 * float(row["beta"]) * float(row["bond_norm"])
        res, phi, nrm = float(row["residual"]), float(row["phi_norm_max"]), float(row["op_norm"])
        at = f"seed={row['seed']},beta={beta}"
        items.append((f"residual[{at}]", res <= RESIDUAL_GATE, f"{res:.3g}"))
        items.append((f"phi_cap[{at}]", phi <= half + PHI_SLACK, f"{phi:.6g} <= {half:.6g}"))
        op_cap = math.exp(half) + PHI_SLACK
        items.append((f"op_cap[{at}]", nrm <= op_cap, f"{nrm:.6g} <= {op_cap:.6g}"))
    return items


# ---------------------------------------------------------------------------
# gibbs_lightcone: light cones, clustering sweeps and the truncation report


def gibbs_lightcone_inputs(seed, smoke):
    n = 6 if smoke else 10
    # every generator here is deterministic: the seed reaches each chain but changes nothing
    return [
        ("lr_sweep", _config(
            experiment="lr_sweep", n=n, generator="heisenberg_xxz", profile="power_law",
            alpha=3.0, coupling=0.5, seed=seed, t_grid="1.0",
            r_list="1,2" if smoke else "3", block_len=1,
        )),
        ("clustering_ising", _config(
            experiment="clustering_sweep", n=n, generator="ising_zz",
            profile="finite_range", range_cutoff=1, coupling=1.0, seed=seed,
            beta_list="0.3,0.9" if smoke else "0.3,0.9,1.5",
        )),
        ("clustering_xxz", _config(
            experiment="clustering_sweep", n=n, generator="heisenberg_xxz",
            profile="finite_range", range_cutoff=1, coupling=1.0, anisotropy=1.5, seed=seed,
            beta_list="0.2,0.6" if smoke else "0.2,0.6,1.0",
        )),
        ("truncation_sweep", _config(
            experiment="truncation_sweep", n=n, generator="heisenberg_xxz",
            profile="power_law", alpha=3.0, coupling=0.01, seed=seed, beta_list="0.3",
            block_len_list="2",
        )),
    ]


def gibbs_lightcone_gate(outdir):
    items = []
    for label in ("lr_sweep", "clustering_ising", "clustering_xxz", "truncation_sweep"):
        items += _manifest_items(os.path.join(outdir, label), label)

    for row in _rows(os.path.join(outdir, "lr_sweep", "lr_sweep.csv")):
        exact, env = float(row["exact_commutator"]), float(row["envelope"])
        items.append((
            f"lr[{row['mode']},t={row['t']},r={row['r']}]",
            row["violation"] == "0" and exact <= env + LR_SLACK,
            f"{exact:.3g} <= {env:.3g}",
        ))

    ising = os.path.join(outdir, "clustering_ising")
    n = _config_value(ising, "n", int)
    coupling = _config_value(ising, "coupling", float)
    for row in _rows(os.path.join(ising, "clustering_sweep.csv")):
        beta, r = float(row["beta"]), int(row["r"])
        ref = abs(oracles.ising_transfer_correlation(n, coupling, beta, 0, r))
        dev = abs(float(row["cor_abs"]) - ref)
        items.append((f"ising_oracle[beta={beta},r={r}]", dev <= ORACLE_TOL, f"dev={dev:.3g}"))

    for row in _rows(os.path.join(outdir, "truncation_sweep", "truncation_sweep.csv")):
        exact, bound = float(row["exact_delta_norm"]), float(row["op_norm_bound"])
        items.append((
            f"truncation[l0={row['block_len']},beta={row['beta']}]",
            row["violation"] == "0" and exact <= bound + BP_SLACK,
            f"{exact:.3g} <= {bound:.3g}",
        ))
    return items


def _config_value(outdir, key, kind):
    with open(os.path.join(outdir, "manifest.txt")) as fh:
        for line in fh:
            name, sep, value = line.partition(" = ")
            if sep and name == key:
                return kind(value.strip())
    raise KeyError(key)


# ---------------------------------------------------------------------------
# cluster_gamma: block-local inclusion-exclusion on the commuting Ising chain


def cluster_gamma_inputs(seed, smoke):
    # ising_zz is deterministic: the seed reaches the chain but changes nothing
    return [(
        "gamma_decay",
        _config(
            experiment="gamma_decay", generator="ising_zz", profile="finite_range",
            range_cutoff=1, coupling=1.0, seed=seed, beta_list="0.8",
            m_list="0,1" if smoke else "0,1,2,3", half_width=1, x_width=2, y_width=1,
            tau_steps=16,
        ),
    )]


def cluster_gamma_gate(outdir):
    sub = os.path.join(outdir, "gamma_decay")
    items = _manifest_items(sub, "gamma_decay")
    for row in _rows(os.path.join(sub, "gamma_decay.csv")):
        res = float(row["factorization_residual"])
        items.append((
            f"factorization[beta={row['beta']},m={row['m']}]",
            res <= FACTORIZATION_TOL and math.isfinite(float(row["psi_trace_decay"])),
            f"{res:.3g}",
        ))
    return items


# ---------------------------------------------------------------------------


WORKLOADS = {
    "qbp_window": (qbp_window_inputs, _run_configs, qbp_window_gate),
    "qbp_small": (qbp_small_inputs, qbp_small_certify, qbp_small_gate),
    "gibbs_lightcone": (gibbs_lightcone_inputs, _run_configs, gibbs_lightcone_gate),
    "cluster_gamma": (cluster_gamma_inputs, _run_configs, cluster_gamma_gate),
}

# workloads whose inputs depend on the seed; the others ignore it
SEEDED = ("qbp_small",)
