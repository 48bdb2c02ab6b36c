import csv
import dataclasses
import math
import os

import numpy as np
import pytest

from gibbschain import chain, cli, csvio, locality, opalg, profiles, qbp
from gibbschain.config import ExperimentConfig, load_config, parse_config_text, read_keys
from gibbschain.errors import BadPartition, ConfigError, GeometryError, SupportMismatch
from gibbschain.experiments import build_config_chain, run_experiment, truncation_regions
from reference_oracles import correlation as oracle_correlation
from reference_oracles import dense_pauli_commutator, gibbs_state


def test_parse_config_text():
    raw = parse_config_text("""
# comment
experiment = lr_sweep
n = 8            # trailing comment
beta_list = 0.5, 1.0
""")
    assert raw == {"experiment": "lr_sweep", "n": "8", "beta_list": "0.5, 1.0"}
    with pytest.raises(ConfigError):
        parse_config_text("just a line without equals")


def test_load_config_round_trip(tmp_path):
    """The manifest's [config] echo holds exactly the keys the run reads and
    reloads to an equal config, for a direct config and every bundled one."""
    import glob

    cfg = ExperimentConfig(experiment="clustering_sweep", n=6, beta_list=(0.4, 0.9),
                           r_list=(1, 2, 3), coupling=0.7)
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(cfg.as_lines()))
    assert load_config(path, environ={}) == cfg
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.cfg")))
    assert len(paths) >= 7
    for bundled in paths:
        cfg = load_config(bundled, environ={})
        csvio.Manifest(cfg, "test").write(str(tmp_path))
        echo = (tmp_path / "manifest.txt").read_text().split("[config]\n")[1].split("\n\n")[0]
        assert set(parse_config_text(echo)) == read_keys(cfg), bundled
        path.write_text(echo)
        assert load_config(path, environ={}) == cfg, bundled


def test_env_and_cli_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment = clustering_sweep\nn = 6\nseed = 1\n")
    cfg = load_config(path, environ={"GIBBSCHAIN_SEED": "5"})
    assert cfg.seed == 5
    cfg2 = load_config(path, overrides={"seed": 9}, environ={"GIBBSCHAIN_SEED": "5"})
    assert cfg2.seed == 9


def test_config_validation_errors(tmp_path, monkeypatch):
    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    with pytest.raises(ConfigError):
        load_config(None, overrides={"experiment": "nope"}, environ={})
    with pytest.raises(ConfigError, match="n must be >= 2"):
        load_config(None, overrides={"experiment": "clustering_sweep", "n": 1}, environ={})
    with pytest.raises(ConfigError):
        load_config(None, overrides={"bogus_key": 1}, environ={})
    # interior width 7 with block_len 2 is not an even block count
    with pytest.raises(ConfigError):
        load_config(None, overrides={"experiment": "qbp_locality", "n": 9,
                                     "block_len": 2}, environ={})
    with pytest.raises(ConfigError, match="DIM_CAP"):
        load_config(None, overrides={"experiment": "clustering_sweep", "n": 14}, environ={})
    # geometry below 1 site: block_len = 0 used to divide by zero in validation,
    # x_width = 0 failed in chain.truncate and half_width = 0 mid-run
    for overrides in (
        {"experiment": "lr_sweep", "profile": "power_law", "block_len": 0},
        {"experiment": "truncation_sweep", "block_len_list": "1,0"},
        {"experiment": "truncation_sweep", "x_width": 0},
        {"experiment": "qbp_locality", "y_width": 0},
        {"experiment": "gamma_decay", "half_width": 0},
        {"experiment": "gamma_decay", "x_width": -1},
    ):
        with pytest.raises(ConfigError, match="must be >= 1"):
            load_config(None, overrides=overrides, environ={})
    # interior width 0 (n = x_width + y_width) leaves no blocks to truncate
    with pytest.raises(ConfigError):
        load_config(None, overrides={"experiment": "truncation_sweep", "n": 2}, environ={})
    # separations off the chain or of a site with itself: these used to write a
    # fabricated r = 9 row (identity partner), fit a self-correlation row, raise
    # FitDegenerate mid-run (twice) and raise an uncaught ValueError.
    # qbp_locality at the defaults has q = 8 interior blocks, so bonds 0..8:
    # bond 9 and bond -1 used to certify the empty bond at the chain's end
    # (exact = 0), bond 20 raised IndexError and r <= 6*block_len failed mid-run.
    # A negative beta used to raise a math domain error (clustering_sweep) or
    # pass (gamma_decay).
    # An empty sweep list, and an lr_sweep r_list with no truncated row (r = 7 on
    # n = 8 power law), used to pass with a header-only CSV; r = 6 on n = 6 was
    # skipped.  The gamma_decay geometries (odd or single interior block count, a
    # kept XXZ power-law pair leaving its center block) failed mid-run.  qbp_locality
    # truncates with block_len (width 8 with block_len 3 failed mid-run).
    # An unknown generator passed and exited 1 mid-run with InvalidSpec.  A profile
    # parameter <= 0 died with a ZeroDivisionError or ValueError traceback, or with
    # NonConvergentTail after the chain was built; rate = -1 built couplings growing
    # as e^r, on which clustering_sweep reported PASS.
    bad_parameters = [
        ("lr_sweep", "finite_range", "range_cutoff", "0"),
        ("lr_sweep", "finite_range", "range_cutoff", "-1"),
        ("clustering_sweep", "exponential", "rate", "0"),
        ("clustering_sweep", "exponential", "rate", "-1"),
        ("clustering_sweep", "exponential", "rate", "inf"),
        ("truncation_sweep", "stretched_exp", "kappa", "0"),
        ("gamma_decay", "stretched_exp", "stretch_c", "0"),
        ("gamma_decay", "stretched_exp", "stretch_c", "nan"),
    ]
    matched = [
        ({"n": 6, "experiment": "clustering_sweep", "generator": "isng_zz"},
         "unknown generator 'isng_zz'"),
    ] + [
        ({"experiment": experiment, "profile": kind, key: value,
          **({} if experiment == "gamma_decay" else {"n": 6})},
         rf"{kind} profile needs a finite {key} > 0")
        for experiment, kind, key, value in bad_parameters
    ]
    for k, (overrides, match) in enumerate([(o, None) for o in (
        {"n": 6, "experiment": "clustering_sweep", "r_list": "1,2,9"},
        {"n": 6, "experiment": "clustering_sweep", "r_list": "0,1,2"},
        {"n": 6, "experiment": "clustering_sweep", "r_list": "2,8"},
        {"n": 6, "experiment": "clustering_sweep", "r_list": "1"},
        {"n": 6, "experiment": "lr_sweep", "r_list": "0,1"},
        {"experiment": "qbp_locality", "bond_index": 9},
        {"experiment": "qbp_locality", "bond_index": -1},
        {"experiment": "qbp_locality", "bond_index": 20},
        {"experiment": "qbp_locality", "radius_list": "6,7"},
        {"experiment": "clustering_sweep", "beta_list": "-0.5,0.5"},
        {"experiment": "clustering_sweep", "beta_list": "0.5,nan"},
        {"experiment": "gamma_decay", "beta_list": "-0.5"},
        {"experiment": "gamma_decay", "beta_list": "0"},
        {"experiment": "gamma_decay", "beta_list": "inf"},
        {"experiment": "clustering_sweep", "threads": 2},
        {"experiment": "clustering_sweep", "beta_list": ""},
        {"experiment": "gamma_decay", "beta_list": ""},
        {"experiment": "truncation_sweep", "beta_list": ""},
        {"experiment": "qbp_locality", "beta_list": ""},
        {"experiment": "lr_sweep", "t_grid": ""},
        {"experiment": "gamma_decay", "m_list": ""},
        {"experiment": "qbp_locality", "radius_list": ""},
        {"n": 8, "experiment": "lr_sweep", "profile": "power_law", "r_list": "7"},
        {"n": 6, "experiment": "lr_sweep", "r_list": "1,6"},
        {"experiment": "gamma_decay", "block_len": 2, "half_width": 1, "m_list": "0,1"},
        {"experiment": "gamma_decay", "block_len": 2, "half_width": 3, "m_list": "0,1"},
        {"experiment": "gamma_decay", "block_len": 4, "half_width": 2, "m_list": "0,1"},
        {"experiment": "gamma_decay", "m_list": "1"},
        {"experiment": "gamma_decay", "generator": "heisenberg_xxz", "profile": "power_law",
         "block_len": 2, "half_width": 1, "m_list": "0,2"},
        {"experiment": "qbp_locality", "block_len": 3, "radius_list": "19"},
    )] + matched):
        with pytest.raises(ConfigError, match=match):
            load_config(None, overrides=overrides, environ={})
        path = tmp_path / f"bad{k}.cfg"
        path.write_text("".join(f"{key} = {v}\n" for key, v in overrides.items()))
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / f"out{k}")]) == 2
        assert not (tmp_path / f"out{k}").exists()
    for s in (0, 8):
        load_config(None, overrides={"experiment": "qbp_locality", "bond_index": s}, environ={})
    # the smallest r_list entry may reach the truncated interior's end, and the
    # block_len 2 long-range gamma_decay geometry with half_width 2 fits
    for ok in ({"n": 8, "experiment": "lr_sweep", "profile": "power_law", "r_list": "5,7"},
               {"experiment": "gamma_decay", "generator": "heisenberg_xxz",
                "profile": "power_law", "block_len": 2, "half_width": 2, "m_list": "0,1,2"}):
        load_config(None, overrides=ok, environ={})
    # argparse rejects the retired flag with its own exit code 2
    path = tmp_path / "ok.cfg"
    path.write_text("experiment = clustering_sweep\nn = 6\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(path), "--threads", "2"])
    assert exc.value.code == 2
    # the farthest partner on the chain is accepted
    edge = {"experiment": "clustering_sweep", "n": 6, "r_list": "1,5"}
    assert load_config(None, overrides=edge, environ={}).r_list == (1, 5)


def test_gamma_decay_caps_checked_at_config_time(tmp_path, monkeypatch):
    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    gamma = {"experiment": "gamma_decay", "half_width": 1, "x_width": 1, "y_width": 1}
    # m = 6 needs a 14-site chain (dimension 16384) whatever n says
    with pytest.raises(ConfigError, match="DIM_CAP"):
        load_config(None, overrides={**gamma, "m_list": "0,6"}, environ={})
    # the cap is read at call time: at 64, m = 2 (6 sites) fits and m = 3 does not
    monkeypatch.setattr(opalg, "DIM_CAP", 64)
    cfg = load_config(None, overrides={**gamma, "m_list": "0,1,2"}, environ={})
    assert cfg.m_list == (0, 1, 2)
    with pytest.raises(ConfigError, match="m=3: dimension 256"):
        load_config(None, overrides={**gamma, "m_list": "0,1,3"}, environ={})
    path = tmp_path / "gamma.cfg"
    path.write_text("experiment = gamma_decay\nm_list = 0,1,3\n")
    assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2


def test_gamma_decay_config_accepts_exactly_what_the_chain_builds(monkeypatch):
    """load_config accepts a gamma_decay geometry exactly when build_chain,
    truncate and center_decomposition do.  Pairs left uncoupled by the profile
    and coupling do not count: exponential(400) couples nearest neighbours only
    (jbar(2) underflows to 0) and coupling 0 couples none."""
    import itertools

    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    cases = (
        ({"profile": "finite_range", "range_cutoff": 1}, profiles.finite_range(1), 1.0),
        ({"profile": "finite_range", "range_cutoff": 2}, profiles.finite_range(2), 1.0),
        ({"profile": "power_law", "alpha": 3.0}, profiles.power_law(3.0), 1.0),
        ({"profile": "exponential", "rate": 400.0}, profiles.exponential(400.0), 1.0),
        ({"profile": "power_law", "alpha": 3.0, "coupling": 0.0}, profiles.power_law(3.0), 0.0),
    )
    chains = {}
    outcomes = set()
    for (k, (keys, profile, coupling)), xw, yw, hw, l0, m in itertools.product(
        enumerate(cases), (1, 2), (1, 2), (1, 2, 3), (1, 2, 3), (1, 2, 3)
    ):
        n = xw + yw + 2 * hw * m
        if n > 12:
            continue
        overrides = {"experiment": "gamma_decay", "generator": "heisenberg_xxz",
                     "x_width": xw, "y_width": yw, "half_width": hw, "block_len": l0,
                     "m_list": f"0,{m}", **keys}
        try:
            load_config(None, overrides=overrides, environ={})
            accepted = True
        except ConfigError:
            accepted = False
        if (k, n) not in chains:
            chains[(k, n)] = chain.build_chain(n, "heisenberg_xxz", profile, coupling=coupling)
        try:
            htc = chain.truncate(chains[(k, n)], range(xw), range(n - yw, n), l0)
            chain.center_decomposition(htc, m, hw)
            built = "built"
        except (BadPartition, GeometryError) as exc:
            built = type(exc).__name__
        assert accepted == (built == "built"), (overrides, built)
        outcomes.add((k, built))
    # every profile has accepted geometries, and the center-cut rule rejects some
    assert {k for k, built in outcomes if built == "built"} == set(range(len(cases)))
    assert (2, "GeometryError") in outcomes


def test_gamma_decay_runs_where_the_profile_leaves_far_pairs_uncoupled(tmp_path, monkeypatch):
    """At rate 400 the pair (0, 2) of the m = 2 chain has jbar(2) = 0, so the
    block_len 2 geometry that power_law rejects runs to a pass."""
    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    path = tmp_path / "exp.cfg"
    path.write_text("experiment = gamma_decay\ngenerator = heisenberg_xxz\n"
                    "profile = exponential\nrate = 400\nblock_len = 2\n"
                    "half_width = 1\nm_list = 0,2\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
    rows = csvio.csv_body_bytes(out / "gamma_decay.csv").decode().splitlines()[1:]
    assert sorted({row.split(",")[1] for row in rows}) == ["0", "2"]


def test_lr_sweep_on_an_uncoupled_chain_certifies_a_zero_envelope(tmp_path, monkeypatch):
    """A finite_range chain with coupling 0 has g = 0: its factorial envelope
    is 0 at every t (the log of 2 g k |t| once raised a math domain error),
    and the run passes with every commutator exactly 0."""
    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    h = chain.build_chain(8, "heisenberg_xxz", profiles.finite_range(1), coupling=0.0)
    env = locality.envelope_for_chain(h)
    assert env.mode == "finite_range" and env.g == 0.0
    assert all(locality.lr_envelope(env, t, r) == 0.0 for t in (0.25, -1.0) for r in (1, 7))
    path = tmp_path / "exp.cfg"
    path.write_text("experiment = lr_sweep\nn = 8\ngenerator = heisenberg_xxz\n"
                    "profile = finite_range\nrange_cutoff = 1\ncoupling = 0.0\n"
                    "t_grid = 0,0.25,0.5,1.0\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
    assert (out / "manifest.txt").exists()
    rows = _csv_rows(out, "lr_sweep.csv")
    assert len(rows) == 28
    assert all(float(r["exact_commutator"]) == float(r["envelope"]) == 0.0 for r in rows)


def test_config_validation_does_no_matrix_work(monkeypatch):
    """Config checks read site arithmetic and chain's geometry rules over site
    tuples only: no term, matrix or eigensolver call.  This covers every
    bundled config and every benchmark workload's inputs, whose setup time
    includes load_config."""
    import glob
    import sys

    def refuse(*args, **kwargs):
        raise AssertionError("matrix work during config validation")

    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    monkeypatch.setattr(chain, "terms_matrix", refuse)
    monkeypatch.setattr(chain.LocalTerm, "__post_init__", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.cfg")))
    assert len(paths) >= 7
    for path in paths:
        load_config(path, environ={})
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    for inputs, _, _ in workloads.WORKLOADS.values():
        inputs(0, False)


def test_lr_sweep_geometry_checked_only_where_it_truncates(tmp_path, monkeypatch):
    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    # interior width 7 with block_len 1 gives an odd block count, which only a
    # truncated (infinite-range) lr_sweep reads
    text = "experiment = lr_sweep\nn = 9\nprofile = {}\n"
    finite = tmp_path / "finite.cfg"
    finite.write_text(text.format("finite_range"))
    assert load_config(finite, environ={}).profile == "finite_range"
    power = tmp_path / "power.cfg"
    power.write_text(text.format("power_law"))
    with pytest.raises(ConfigError, match="even block count"):
        load_config(power, environ={})
    assert cli.main(["run", str(power), "--output-dir", str(tmp_path / "out")]) == 2


def test_lr_sweep_names_the_separations_it_skips(tmp_path, monkeypatch):
    """A separation whose partner falls past the truncated interior gets no rows;
    the check detail says so instead of passing silently."""
    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("GIBBSCHAIN_R_LIST", "1,6,7")
    cfg_path = os.path.join(os.path.dirname(__file__), "..", "configs", "lr_sweep.cfg")
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--output-dir", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "lr_envelope[truncated]" in manifest
    for line in manifest.splitlines():
        if "lr_envelope[truncated]" in line:
            assert "skipped r=6,7 (past the truncated interior)" in line
        if "lr_envelope[plain]" in line:
            assert "skipped" not in line
    rows = [line.split(",") for line in (out / "lr_sweep.csv").read_text().splitlines()
            if line.startswith(("plain,", "truncated,"))]
    assert {int(r[2]) for r in rows if r[0] == "truncated"} == {1}
    assert {int(r[2]) for r in rows if r[0] == "plain"} == {1, 6, 7}


def test_lr_sweep_on_a_chain_without_sectors_matches_the_dense_commutator(tmp_path):
    """A random_two_site chain has no parity blocks, so each t > 0 row norms
    the commutator on every row; its exact_commutator column is the largest
    |eigenvalue| of the dense commutator of the same evolved probe."""
    cfg = load_config(None, overrides=dict(
        experiment="lr_sweep", n=6, generator="random_two_site", profile="power_law",
        alpha=3.0, coupling=0.5, seed=7, t_grid="0,0.4,1.0"), environ={})
    out = tmp_path / "out"
    run_experiment(cfg, output_dir=str(out))
    h = build_config_chain(cfg)
    htc = chain.truncate(h, *truncation_regions(cfg.n, cfg.x_width, cfg.y_width), cfg.block_len)
    targets = {"plain": (h, 0), "truncated": (htc, htc.blocks[1][0])}
    rows = _csv_rows(out, "lr_sweep.csv")
    assert {r["mode"] for r in rows} == set(targets) and len(rows) > 6
    for row in rows:
        target, i0 = targets[row["mode"]]
        a_t = opalg.evolve(target.matrix(), i0, float(row["t"]))
        comm = dense_pauli_commutator(a_t, "x", i0 + int(row["r"]))
        want = np.max(np.abs(np.linalg.eigvalsh(comm)))
        assert abs(float(row["exact_commutator"]) - want) <= 1e-14 * want


def test_lr_sweep_csv_violation_column_is_the_certified_verdict(tmp_path, monkeypatch):
    """A row 1.5e-10 over its envelope violates in the CSV and fails the manifest
    check alike: both read lr_certify's one slack of 1e-10."""
    from gibbschain import locality

    monkeypatch.setattr(locality, "lr_envelope", lambda env, t, r: 0.5)
    monkeypatch.setattr(locality, "_commutator_norm",
                        lambda a, site, rows: 0.5 + 1.5e-10 if site == 2 else 0.25)
    cfg = load_config(None, overrides=dict(
        experiment="lr_sweep", n=5, generator="heisenberg_xxz", profile="finite_range",
        range_cutoff=1, t_grid="0.5,1.0"), environ={})
    out = tmp_path / "out"
    manifest = run_experiment(cfg, output_dir=str(out))
    rows = [line.split(",") for line in (out / "lr_sweep.csv").read_text().splitlines()
            if line.startswith("plain,")]
    assert sorted((float(r[1]), int(r[2])) for r in rows if r[5] == "1") == [(0.5, 2), (1.0, 2)]
    assert ("lr_envelope[plain]", False) in [c[:2] for c in manifest.checks]
    assert "FAIL  lr_envelope[plain]" in (out / "manifest.txt").read_text()


def _patch_lr(monkeypatch):
    from gibbschain import locality

    norm = locality._commutator_norm
    monkeypatch.setattr(locality, "_commutator_norm", lambda a, site, rows:
                        2.5 if site == 2 else norm(a, site, rows))


def _patch_qbp(monkeypatch):
    sweep = qbp.bp_locality_sweep

    def first_over(*args, **kwargs):
        first, *rest = sweep(*args, **kwargs)
        return [dataclasses.replace(first, exact=2.0 * first.explicit_bound + 1.0), *rest]

    monkeypatch.setattr(qbp, "bp_locality_sweep", first_over)


def _patch_truncation(monkeypatch):
    report = chain.truncation_error_report

    def over(*args):
        rep = report(*args)
        return dataclasses.replace(rep, exact_delta_norm=3.0 * rep.op_norm_bound)

    monkeypatch.setattr(chain, "truncation_error_report", over)


def _patch_clustering(monkeypatch):
    from gibbschain import experiments

    lengths = experiments.correlation_lengths

    def first_high(h, betas, r_list):  # xi at the first beta 20% high
        (cors, xi, used, excluded), *rest = lengths(h, betas, r_list)
        return [(cors, 1.2 * xi, used, excluded), *rest]

    monkeypatch.setattr(experiments, "correlation_lengths", first_high)


def _patch_gamma(monkeypatch):
    from gibbschain import experiments

    values = experiments.gamma_decay_values

    def last_rises(cfg):  # the last m's value lies 0.5 above the first's
        rows = values(cfg)
        beta, m, n_m, _, fact = rows[-1]
        return rows[:-1] + [(beta, m, n_m, rows[0][3] + 0.5, fact)]

    monkeypatch.setattr(experiments, "gamma_decay_values", last_rises)


def _patch_criterion(monkeypatch):
    from gibbschain import acceptance

    norm = chain.block_interaction_norm

    def first_pair_over(h, a, b):
        rep = norm(h, a, b)
        first = (a, b) == (range(1), range(1, 2))
        return dataclasses.replace(rep, exact=3.0 * rep.bound) if first else rep

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (acceptance.criterion_06_block_interaction,))
    monkeypatch.setattr(chain, "block_interaction_norm", first_pair_over)


def _csv_rows(out, name):
    import csv

    with open(out / name, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _fitted(out, label):
    prefix = f"{label} = "
    lines = (out / "manifest.txt").read_text().splitlines()
    return float(next(line for line in lines if line.startswith(prefix))[len(prefix):])


def _drop(rows):
    first, last = (float(r["psi_trace_decay"]) for r in rows)
    return first - last


# experiment: (keys, patch, check, failing row's label, (measured, bound) read from the output)
FAILING_ROWS = {
    "lr_sweep": (
        dict(experiment="lr_sweep", n=5, generator="heisenberg_xxz", profile="finite_range",
             range_cutoff=1, t_grid="0.5"),
        _patch_lr, "lr_envelope[plain]", "t=0.5,r=2",
        lambda out: [(float(r["exact_commutator"]), float(r["envelope"]))
                     for r in _csv_rows(out, "lr_sweep.csv") if r["r"] == "2"][0]),
    "qbp_locality": (
        dict(experiment="qbp_locality", n=10, generator="heisenberg_xxz",
             profile="finite_range", range_cutoff=2, beta_list="0.5", radius_list="7",
             tau_steps=1, integrator="midpoint"),
        _patch_qbp, "bp_locality_explicit_bound", "beta=0.5,r=7",
        lambda out: [(float(r["exact"]), float(r["explicit_bound"]))
                     for r in _csv_rows(out, "qbp_locality.csv")][0]),
    "truncation_sweep": (
        dict(experiment="truncation_sweep", n=6, generator="heisenberg_xxz",
             profile="power_law", alpha=3.0, coupling=0.01, beta_list="0.3",
             block_len_list="1"),
        _patch_truncation, "truncation_bounds", "delta_norm[l0=1,beta=0.3]",
        lambda out: [(float(r["exact_delta_norm"]), float(r["op_norm_bound"]))
                     for r in _csv_rows(out, "truncation_sweep.csv")][0]),
    "clustering_sweep": (
        dict(experiment="clustering_sweep", n=6, generator="ising_zz", profile="finite_range",
             range_cutoff=1, beta_list="0.5,0.9"),
        _patch_clustering, "ising_xi_within_5pct", "ising_xi_worst_rel_dev",
        lambda out: (_fitted(out, "ising_xi_worst_rel_dev"), 0.05)),
    "gamma_decay": (
        dict(experiment="gamma_decay", generator="ising_zz", profile="finite_range",
             range_cutoff=1, beta_list="0.6", m_list="0,1", half_width=1, tau_steps=4),
        _patch_gamma, "decay_nonincreasing[beta=0.6]", "decay_nonincreasing[beta=0.6]",
        lambda out: (_drop(_csv_rows(out, "gamma_decay.csv")), 0.0)),
    "acceptance": (
        dict(experiment="acceptance"),
        _patch_criterion, "criterion_06_block_interaction", "interval_pairs[1001]",
        lambda out: [(float(r["measured"]), float(r["bound"]))
                     for r in _csv_rows(out, "acceptance_detail.csv")][0]),
}


@pytest.mark.parametrize("experiment", FAILING_ROWS)
def test_a_failing_row_is_named_in_the_manifest_and_on_stderr(experiment, tmp_path, monkeypatch,
                                                              capsys):
    """One row made to fail: the run exits 1, and its check's manifest line,
    also printed on stderr, names the row with its measured value and bound."""
    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    keys, patch, check, label, read_values = FAILING_ROWS[experiment]
    patch(monkeypatch)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    failing = [line for line in (out / "manifest.txt").read_text().splitlines()
               if line.startswith("FAIL")]
    measured, bound = read_values(out)
    relation = "<=" if measured <= bound else ">"
    assert failing[0].startswith(f"FAIL  {check}  (1 of ")
    assert failing[0].endswith(
        f" rows fail; first {label}: {measured:.4g} {relation} {bound:.4g})")
    assert failing[0] in capsys.readouterr().err.splitlines()


def test_power_law_alpha_at_most_two_rejected_at_config_time(tmp_path, monkeypatch):
    """alpha <= 2 is the theorem's excluded case; its tail sums diverge, so it
    used to exit 1 with NonConvergentTail once the chain was built."""
    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    for k, (experiment, alpha) in enumerate((
        ("lr_sweep", "2.0"), ("qbp_locality", "1.5"), ("truncation_sweep", "2"),
        ("clustering_sweep", "nan"), ("gamma_decay", "-3"),
    )):
        overrides = {"experiment": experiment, "profile": "power_law", "alpha": alpha}
        with pytest.raises(ConfigError, match=r"faster than r\^-2"):
            load_config(None, overrides=overrides, environ={})
        path = tmp_path / f"alpha{k}.cfg"
        path.write_text("".join(f"{key} = {v}\n" for key, v in overrides.items()))
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / f"out{k}")]) == 2
        assert not (tmp_path / f"out{k}").exists()
    for alpha in (2.0001, 3.0):
        overrides = {"experiment": "lr_sweep", "profile": "power_law", "alpha": alpha}
        assert load_config(None, overrides=overrides, environ={}).alpha == alpha


def test_library_and_configs_run_without_scipy(tmp_path):
    """Importing gibbschain, then running a power-law lr_sweep, a gamma_decay
    and every benchmark workload (smoke size), loads no scipy module: only the
    stretched-exponential tail integral imports it."""
    import subprocess
    import sys

    script = """
import os, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import gibbschain
print(scipy_modules())
from gibbschain.config import load_config
from gibbschain.experiments import run_experiment
out, perfbench = sys.argv[1:]
for label, overrides in (
    ("lr", dict(experiment="lr_sweep", n=6, generator="heisenberg_xxz", profile="power_law",
                alpha=3.0, coupling=0.5, t_grid="0.5", block_len=1)),
    ("gamma", dict(experiment="gamma_decay", generator="ising_zz", profile="finite_range",
                   range_cutoff=1, beta_list="0.6", m_list="0,1", half_width=1, tau_steps=4)),
):
    cfg = load_config(None, overrides=overrides, environ={})
    assert run_experiment(cfg, output_dir=os.path.join(out, label)).all_passed, label
sys.path.insert(0, perfbench)
import workloads
for name, (inputs, certify, gate) in workloads.WORKLOADS.items():
    os.makedirs(os.path.join(out, name))
    certify(inputs(3, smoke=True), os.path.join(out, name))
print(scipy_modules())
"""
    root = os.path.join(os.path.dirname(__file__), "..")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIBBSCHAIN_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), os.path.join(root, "perfbench")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_gamma_decay_ignores_and_rejects_n(tmp_path, monkeypatch):
    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    monkeypatch.setattr(opalg, "DIM_CAP", 64)
    gamma = {"experiment": "gamma_decay", "m_list": "0,1"}
    # the default n = 10 would exceed DIM_CAP = 64, but gamma_decay never builds it
    cfg = load_config(None, overrides=gamma, environ={})
    assert 2**cfg.n > opalg.DIM_CAP
    # n is outside gamma_decay's read set, so setting it is a config error that
    # names the keys the run does read
    unread = r"gamma_decay does not read n \(it reads .*half_width.*m_list"
    for n in ("6", "14"):
        with pytest.raises(ConfigError, match=unread):
            load_config(None, overrides={**gamma, "n": n}, environ={})
        with pytest.raises(ConfigError, match=unread):
            load_config(None, overrides=gamma, environ={"GIBBSCHAIN_N": n})
    path = tmp_path / "gamma.cfg"
    path.write_text("experiment = gamma_decay\nn = 14\nm_list = 0,1\n")
    assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_threads_rejected_where_unused():
    # every experiment runs on one thread, so only threads = 1 is accepted
    for experiment in ("lr_sweep", "qbp_locality", "truncation_sweep", "clustering_sweep",
                       "gamma_decay", "acceptance"):
        for threads in (0, 2):
            with pytest.raises(ConfigError, match="threads must be 1"):
                load_config(None, overrides={"experiment": experiment, "threads": threads},
                            environ={})
        assert load_config(None, overrides={"experiment": experiment, "threads": 1},
                           environ={}).threads == 1


def test_retired_and_unknown_keys_fail_at_config_time(tmp_path, monkeypatch):
    # eps no longer changes any output, so a config that still sets it is rejected
    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    path = tmp_path / "stale.cfg"
    path.write_text("experiment = clustering_sweep\nn = 6\neps = 1e-9\n")
    assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "a")]) == 2
    with pytest.raises(ConfigError):
        load_config(None, environ={"GIBBSCHAIN_EPS": "1e-9"})
    with pytest.raises(ConfigError):
        load_config(None, environ={"GIBBSCHAIN_NOT_A_KEY": "1"})
    path.write_text("experiment = clustering_sweep\nn = 6\n")
    monkeypatch.setenv("GIBBSCHAIN_EPS", "1e-9")
    assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "b")]) == 2
    assert not (tmp_path / "b").exists()
    monkeypatch.delenv("GIBBSCHAIN_EPS")
    # keys that nothing read: the residual gate, the doubled-space cap, the
    # observable sites (correlations start at site 0) and the local dimension
    # (every generator is qubit-only); and the size caps, which are constants
    # (opalg.DIM_CAP, cluster.BRANCH_CAP)
    for key, value in (("residual_gate", "1e-6"), ("doubled_dim_cap", "4096"),
                       ("obs_x_site", "-1"), ("obs_y_site", "3"), ("local_dim", "2"),
                       ("dim_cap", "8192"), ("branch_cap", "64")):
        path.write_text(f"experiment = clustering_sweep\nn = 6\n{key} = {value}\n")
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / key)]) == 2
        path.write_text("experiment = clustering_sweep\nn = 6\n")
        monkeypatch.setenv(f"GIBBSCHAIN_{key.upper()}", value)
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / key)]) == 2
        monkeypatch.delenv(f"GIBBSCHAIN_{key.upper()}")
        assert not (tmp_path / key).exists()


def test_csv_format_and_body_bytes(tmp_path):
    path = tmp_path / "x.csv"
    csvio.write_csv(path, ["header text"], ("a", "b"), [(1.5, True), (0.1, False)])
    text = path.read_text()
    assert text.startswith("# header text\na,b\n1.5,1\n")
    body = csvio.csv_body_bytes(path)
    assert b"header" not in body
    # a field holding a comma is quoted, and only that field: csv.reader reads it back whole
    csvio.write_csv(path, [], ("label", "measured"), [("r[seed=0,beta=0.5]", 0.25), ("x", 1.0)])
    assert path.read_text() == 'label,measured\n"r[seed=0,beta=0.5]",0.25\nx,1.0\n'
    with open(path, newline="") as fh:
        assert list(csv.reader(fh))[1] == ["r[seed=0,beta=0.5]", "0.25"]


def test_lr_sweep_empty_grid(tmp_path):
    # config validation rejects an empty t_grid; built directly, the run writes
    # its files, and its check, having no rows, fails
    cfg = ExperimentConfig(experiment="lr_sweep", n=6, generator="ising_zz",
                           profile="finite_range", range_cutoff=1, t_grid=())
    m = run_experiment(cfg, output_dir=str(tmp_path))
    assert not m.all_passed
    body = csvio.csv_body_bytes(tmp_path / "lr_sweep.csv")
    assert body.strip().count(b"\n") == 0  # header row only
    assert "FAIL  lr_envelope[plain]  (no rows)" in (tmp_path / "manifest.txt").read_text()


def test_truncation_sweep_experiment(tmp_path):
    cfg = ExperimentConfig(experiment="truncation_sweep", n=10,
                           generator="heisenberg_xxz", profile="power_law",
                           alpha=3.0, coupling=0.01, beta_list=(0.3,),
                           block_len_list=(1, 2))
    m = run_experiment(cfg, output_dir=str(tmp_path))
    assert m.all_passed
    assert any(name == "truncation_sweep.csv" for name, _, _ in m.files)


def test_gamma_decay_experiment(tmp_path):
    cfg = ExperimentConfig(experiment="gamma_decay", generator="ising_zz",
                           profile="finite_range", range_cutoff=1, coupling=1.0,
                           beta_list=(0.6, 1.0), m_list=(0, 1, 2), half_width=1,
                           tau_steps=8)
    m = run_experiment(cfg, output_dir=str(tmp_path))
    assert m.all_passed
    taus = {label: v for label, v in m.fitted if label.startswith("tau")}
    assert len(taus) == 2
    assert all(v > 0 for v in taus.values())


def test_gamma_decay_values_diagonalize_once_for_every_beta(monkeypatch):
    # the long-range XXZ chain at alpha = 3: each m's chain, window sweeps and
    # full-space spectra are built once for all betas, so four betas take the
    # eigh calls of one, and each beta's rows equal its one-beta run bit for bit
    from gibbschain import experiments

    calls = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kw):
        calls.append(a.shape[0])
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    cfg = ExperimentConfig(experiment="gamma_decay", generator="heisenberg_xxz",
                           profile="power_law", alpha=3.0, coupling=0.25, block_len=2,
                           half_width=2, m_list=(0, 1, 2), beta_list=(0.5, 1.0, 1.5, 2.0),
                           tau_steps=16)
    rows = experiments.gamma_decay_values(cfg)
    four = len(calls)
    calls.clear()
    for beta in cfg.beta_list:
        one = experiments.gamma_decay_values(dataclasses.replace(cfg, beta_list=(beta,)))
        assert [row for row in rows if row[0] == beta] == one
        assert len(calls) == four
        calls.clear()
    assert [(beta, m) for beta, m, *_ in rows] == [
        (beta, m) for beta in cfg.beta_list for m in cfg.m_list]


def test_qbp_locality_experiment(tmp_path):
    cfg = ExperimentConfig(experiment="qbp_locality", n=10,
                           generator="heisenberg_xxz", profile="power_law",
                           alpha=3.0, coupling=0.25, seed=4, beta_list=(0.5,),
                           block_len=1, bond_index=1, radius_list=(7,),
                           tau_steps=8, integrator="midpoint")
    m = run_experiment(cfg, output_dir=str(tmp_path))
    assert m.all_passed
    # one beta cannot fix a slope: the manifest says so and writes no number
    assert m.fitted == [("theta", "unresolved")]
    assert "theta = unresolved" in (tmp_path / "manifest.txt").read_text().splitlines()


def test_qbp_locality_bound_past_float_range_is_infinite(tmp_path, capsys):
    # g~ = 3316 on this chain, so e^{beta g~ / 2} overflows a float; r = 7
    # covers the 8-site chain, so the run builds no BP operator
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "experiment = qbp_locality\nn = 8\ngenerator = heisenberg_xxz\n"
        "profile = stretched_exp\nkappa = 0.5\nstretch_c = 1.0\n"
        "beta_list = 0.5\nradius_list = 7\n"
    )
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--output-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    body = csvio.csv_body_bytes(out / "qbp_locality.csv").decode().split("\n")
    assert body[1:3] == ["0.5,7,0.0,inf,1,0", ""]


def test_qbp_locality_fits_theta_where_jbar_vanishes(tmp_path):
    # range_cutoff 2 gives jbar(7/3) = 0, yet the window error at r = 7 is not 0:
    # the fitted envelope there is e^Theta e^(-r/(l0 Theta)), and it dominates by 5%.
    # One beta leaves the fit unresolved; beta = 0.5 and 1.0 resolve it
    keys = dict(experiment="qbp_locality", n=10, generator="heisenberg_xxz",
                profile="finite_range", range_cutoff=2, radius_list=(7,), tau_steps=1,
                integrator="midpoint")
    m = run_experiment(ExperimentConfig(beta_list=(0.5,), **keys),
                       output_dir=str(tmp_path / "one"))
    assert m.all_passed and m.fitted == [("theta", "unresolved")]
    m = run_experiment(ExperimentConfig(beta_list=(0.5, 1.0), **keys),
                       output_dir=str(tmp_path / "two"))
    assert m.all_passed
    fitted = dict(m.fitted)
    assert sorted(fitted) == ["theta0", "theta1"]
    rows = csvio.csv_body_bytes(tmp_path / "two" / "qbp_locality.csv").decode().split("\n")[1:-1]
    assert [row.split(",")[:2] for row in rows] == [["0.5", "7"], ["1.0", "7"]]
    profile = profiles.finite_range(2)
    assert profile(7 / 3) == 0.0
    theta = qbp.ThetaFunction(fitted["theta0"], fitted["theta1"])
    for row in rows:
        beta, exact = float(row.split(",")[0]), float(row.split(",")[2])
        assert exact > 1e-3
        assert qbp.locality_decay_envelope(theta, profile, 1, beta, 7) >= 1.05 * exact


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(
        "experiment = clustering_sweep\nn = 6\ngenerator = ising_zz\n"
        "profile = finite_range\nrange_cutoff = 1\nbeta_list = 0.5,0.9\n"
    )
    out = tmp_path / "out"
    code = cli.main(["run", str(cfg_path), "--output-dir", str(out)])
    assert code == 0
    assert (out / "clustering_sweep.csv").exists()
    assert (out / "manifest.txt").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = not_an_experiment\n")
    assert cli.main(["run", str(bad)]) == 2
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("generator", ["ising_zz", "heisenberg_xxz", "random_two_site"])
def test_correlation_lengths_equal_dense_correlation(generator):
    from gibbschain import oracles
    from gibbschain.experiments import correlation_lengths

    n = 6
    h = chain.build_chain(n, generator, profiles.power_law(3.0), coupling=0.7, seed=2)
    betas = (0.4, 0.9)
    z = opalg.pauli("z")
    r_list = tuple(range(1, n))
    for beta, (cors, xi, used, excluded) in zip(betas, correlation_lengths(h, betas, r_list)):
        rho = gibbs_state(h.matrix(), beta)
        dense = [oracle_correlation(rho, chain.LocalTerm((0,), z),
                                    chain.LocalTerm((r,), z)).real for r in r_list]
        assert np.max(np.abs(np.subtract(cors, dense))) <= 5e-14
        fit = oracles.fit_exponential_decay(r_list, cors)
        assert (xi, used, excluded) == (fit[0], fit[2], fit[3])


def test_decay_row_reads_nan_when_a_value_is_nan():
    # a nan psi_trace_decay (Z^2 past float range) past the first drop: Python's
    # min skipped it and reported the finite drops as the measured value
    from gibbschain.experiments import decay_row

    row = decay_row(30.0, [1e-3, 4e-4, math.nan, 1e-4])
    assert math.isnan(row[1]) and row[3] is False
    assert csvio._row_text(row) == "decay_nonincreasing[beta=30.0]: nan > 0"
    assert decay_row(0.5, [1.0, 0.5, 0.25]) == ("decay_nonincreasing[beta=0.5]", 0.25, 0.0, True)


def test_correlation_lengths_match_the_ising_closed_form():
    # the open nearest-neighbour Ising chain: Cor(Z_0, Z_r) = tanh(beta J)^r exactly
    from gibbschain.experiments import correlation_lengths

    betas = (0.5, 1.0, 2.0, 3.0)
    for n in range(3, 11):
        h = chain.build_chain(n, "ising_zz", profiles.finite_range(1), coupling=1.0, seed=0)
        for beta, (cors, *_) in zip(betas, correlation_lengths(h, betas, range(1, n))):
            exact = [math.tanh(beta) ** r for r in range(1, n)]
            assert np.max(np.abs(np.subtract(cors, exact))) <= 1e-15, (n, beta)


def test_correlation_lengths_at_twelve_sites_stay_small():
    # the n = 12 XXZ sweep of criterion 11 from the populations: no 2^n x 2^n
    # Gibbs state (a 134 MB real matrix) or dim^2 temporary; what is left is the
    # pieces that hermitian_eig splits and diagonalizes
    import tracemalloc

    from gibbschain.experiments import correlation_lengths

    h = chain.build_chain(12, "heisenberg_xxz", profiles.finite_range(1), coupling=1.0,
                          seed=0, anisotropy=1.5)
    h_mat = h.matrix()  # built before the measurement, which covers what follows it

    class Built:
        def matrix(self):
            return h_mat

    tracemalloc.start()
    try:
        out = correlation_lengths(Built(), (0.2, 1.2), range(1, 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert all(math.isfinite(xi) and xi > 0 for _, xi, _, _ in out)


def test_fit_log_line_drops_nonpositive_and_nonfinite_points():
    from gibbschain.oracles import fit_log_line

    xs = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4]
    ys = [0.5, math.inf, 1.3, 0.0, 2.9, -1.0, math.nan]
    slope, intercept, resid, log_y = fit_log_line(xs, ys)
    kept_x, kept_y = np.array([0.2, 0.6, 1.0]), np.array([0.5, 1.3, 2.9])
    ref_slope, ref_intercept = np.polyfit(kept_x, np.log(kept_y), 1)
    assert (slope, intercept) == (ref_slope, ref_intercept)
    assert np.array_equal(log_y, np.log(kept_y))
    assert resid == np.max(np.abs(np.log(kept_y) - (ref_slope * kept_x + ref_intercept)))
    # an exact exponential leaves no residual to speak of
    exact = fit_log_line([1.0, 2.0, 3.0], [math.exp(0.5 + 2.0 * b) for b in (1.0, 2.0, 3.0)])
    assert exact[0] == pytest.approx(2.0) and exact[1] == pytest.approx(0.5)
    assert exact[2] < 1e-12
    # fewer than two usable points: no line
    assert fit_log_line([0.1, 0.2, 0.3], [1.0, 0.0, math.inf]) is None
    assert fit_log_line([0.1], [1.0]) is None
    assert fit_log_line([], []) is None
    assert fit_log_line([0.1, 0.2], [-1.0, math.nan]) is None


def test_determinism_same_seed(tmp_path):
    cfg = ExperimentConfig(experiment="clustering_sweep", n=8, generator="ising_zz",
                           profile="finite_range", range_cutoff=1,
                           beta_list=(0.4, 0.8), seed=3)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, output_dir=str(d1))
    run_experiment(cfg, output_dir=str(d2))
    assert csvio.csv_body_bytes(d1 / "clustering_sweep.csv") == csvio.csv_body_bytes(
        d2 / "clustering_sweep.csv"
    )


def test_bundled_configs_parse(tmp_path):
    """Every bundled config parses, and every one but acceptance (covered by
    test_acceptance.py) runs, passes its checks and writes data rows."""
    import glob
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.cfg")))
    assert len(paths) >= 6
    for path in paths:
        cfg = load_config(path, environ={})
        if cfg.experiment != "acceptance":
            outdir = tmp_path / os.path.basename(path)
            manifest = run_experiment(cfg, output_dir=str(outdir))
            assert manifest.all_passed, (path, manifest.errors)
            csvs = sorted(outdir.glob("*.csv"))
            assert csvs, path
            for csv in csvs:
                # the body holds the column header, then one line per row
                assert len(csvio.csv_body_bytes(csv).splitlines()) >= 2, csv


def test_library_is_qubit_only():
    """No public function or dataclass takes a local dimension; d = 2 is fixed.

    ``build_chain`` takes no support cap k (every term has two sites, read as
    ``ChainHamiltonian.k``), and functions handed a full-space matrix read the
    site count from its dimension instead of taking n.
    """
    import dataclasses
    import importlib
    import inspect
    import pkgutil

    import gibbschain
    from gibbschain import chain, cluster, locality

    offenders = []
    for info in pkgutil.iter_modules(gibbschain.__path__):
        mod = importlib.import_module(f"gibbschain.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            names = set()
            if inspect.isfunction(obj):
                names |= set(inspect.signature(obj).parameters)
            elif inspect.isclass(obj):
                names |= set(vars(obj))  # methods, properties, defaulted fields
                if dataclasses.is_dataclass(obj):
                    names |= {f.name for f in dataclasses.fields(obj)}
                for member in vars(obj).values():
                    if inspect.isfunction(member):
                        names |= set(inspect.signature(member).parameters)
            if "local_dim" in names:
                offenders.append(f"{info.name}.{name}")
    assert offenders == []
    assert "k" not in inspect.signature(chain.build_chain).parameters
    h = chain.build_chain(3, "ising_zz", profiles.finite_range(1))
    assert h.k == 2 and locality.envelope_for_chain(h).k == 2
    for fn in (opalg.add_embedded, opalg.apply_local, opalg.local_trace,
               opalg.gibbs_populations, locality._commutator_rows,
               cluster.verify_weighted_product):
        assert "n" not in inspect.signature(fn).parameters, fn.__name__
    with pytest.raises(SupportMismatch):
        opalg.gibbs_populations(np.zeros((6, 6)), 1.0)
    with pytest.raises(SupportMismatch):
        opalg.local_trace(np.eye(2), [0], np.zeros((6, 6)))
    with pytest.raises(SupportMismatch):
        opalg.apply_local(np.eye(2), [0], np.zeros((6, 2)))
    with pytest.raises(SupportMismatch):
        locality._commutator_rows(np.zeros((6, 6)))


def test_only_opalg_knows_the_flip_split():
    """The flip pieces and their reassembly stay in opalg: every other library
    module reaches them through ``opalg.split`` and the layout it returns."""
    import ast
    import glob

    src = os.path.join(os.path.dirname(__file__), "..", "src", "gibbschain")
    banned = ("flip_split", "FlipLayout", "from_blocks")
    offenders = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        if os.path.basename(path) == "opalg.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name in banned:
                offenders.append(f"{os.path.basename(path)}:{node.lineno}: {name}")
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{os.path.basename(path)}:{node.lineno}: {a.name}"
                              for a in node.names if a.name in banned]
    assert offenders == []


def _library_and_benchmark_trees():
    """(library module paths, path -> parsed AST for them and perfbench/*.py)."""
    import ast
    import glob

    root = os.path.join(os.path.dirname(__file__), "..")
    library = sorted(glob.glob(os.path.join(root, "src", "gibbschain", "*.py")))
    trees = {}
    for path in library + sorted(glob.glob(os.path.join(root, "perfbench", "*.py"))):
        with open(path) as fh:
            trees[path] = ast.parse(fh.read())
    return library, trees


def test_every_public_library_name_has_a_library_reader():
    """Every public module-level function and class of the library, and every
    public method, is named (by a Name, an Attribute or an import) somewhere
    in the library or the benchmark scripts outside its own definition: a
    name only the tests reach belongs with the tests' oracles."""
    import ast

    library, trees = _library_and_benchmark_trees()
    mentions = []  # (name, path, line)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentions.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                mentions.append((node.attr, path, node.lineno))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                mentions += [(a.name.split(".")[-1], path, node.lineno) for a in node.names]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = []
    for path in library:
        module = os.path.basename(path)[:-3]
        for node in trees[path].body:
            if not isinstance(node, kinds):
                continue
            defs = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                defs += [(m, f"{node.name}.{m.name}") for m in node.body
                         if isinstance(m, kinds[:2])]
            for d, label in defs:
                if d.name.startswith("_"):
                    continue
                readers = [(where, line) for name, where, line in mentions if name == d.name
                           and not (where == path and d.lineno <= line <= d.end_lineno)]
                if not readers:
                    unread.append(f"{module}.{label}")
    assert unread == []


def test_no_library_object_caches_what_it_computes():
    """No ``cached_property``, ``lru_cache`` or ``cache`` and no dataclass field
    with a ``default_factory`` in the library: an object holds its inputs and
    computes the rest on each read.  The two exceptions memoize a function of
    one int that returns read-only arrays, ``opalg.sector_labels`` and
    ``qbp._legendre``."""
    import ast

    library, trees = _library_and_benchmark_trees()
    caches = {"cached_property", "lru_cache", "cache"}
    allowed = {("opalg", "sector_labels"), ("qbp", "_legendre")}
    found = []
    for path in library:
        module = os.path.basename(path)[:-3]
        exempt = set()  # the decorator nodes of the allowed functions
        for node in ast.walk(trees[path]):
            if isinstance(node, ast.FunctionDef) and (module, node.name) in allowed:
                exempt |= {id(n) for d in node.decorator_list for n in ast.walk(d)}
        for node in ast.walk(trees[path]):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.arg if isinstance(node, ast.keyword) else None)
            if (name in caches and id(node) not in exempt) or name == "default_factory":
                found.append(f"{module}:{node.lineno}: {name}")
    assert found == []


def test_every_defaulted_library_parameter_is_set_by_a_library_call():
    """Every defaulted parameter of a public library function or method is set,
    by keyword or by position, by some call in the library or the benchmark
    scripts: a default that only the tests change is an unread knob, and
    belongs in a module constant the tests can patch."""
    import ast

    library, trees = _library_and_benchmark_trees()
    calls = {}  # callee name -> [(positional count, keywords)]; None: unpacked, sets all
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            unpacked = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                None if unpacked else (len(node.args), {k.arg for k in node.keywords}))
    unset = []
    for path in library:
        module = os.path.basename(path)[:-3]
        defs = []  # (function node, label, positional slots its callers skip)
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((node, node.name, 0))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for m in node.body:
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in m.decorator_list)
                        defs.append((m, f"{node.name}.{m.name}", 0 if static else 1))
        for fn, label, skip in defs:
            if fn.name.startswith("_"):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = [(i - skip, p.arg)
                         for i, p in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            for index, param in defaulted:
                if not any(c is None or param in c[1] or (index is not None and c[0] > index)
                           for c in calls.get(fn.name, [])):
                    unset.append(f"{module}.{label}({param}=)")
    assert unset == []


def test_only_opalg_calls_the_eigensolver():
    """Every eigendecomposition, eigenvalue and singular-value call of the library
    goes through opalg, the one seam where dense diagonalization is counted."""
    import ast
    import glob

    src = os.path.join(os.path.dirname(__file__), "..", "src", "gibbschain")
    offenders = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        if os.path.basename(path) == "opalg.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh", "eig", "svd")
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                offenders.append(f"{os.path.basename(path)}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                offenders.append(f"{os.path.basename(path)}:{node.lineno}")
    assert offenders == []


def test_local_operators_are_never_embedded_in_the_library():
    """Local operators meet full-space matrices by contraction only: the deleted
    embeddings, the dense probe copies and the test-only helpers stay out of src/."""
    import glob

    src = os.path.join(os.path.dirname(__file__), "..", "src", "gibbschain")
    banned = ("def embed(", "embed_matrix", "embedded_matrix", "x_full", "y_full", "xy_full",
              "_trace_of_product", "GibbsState", "as_chain", "replace_terms")
    offenders = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                offenders += [f"{os.path.basename(path)}:{lineno}: {name}"
                              for name in banned if name in line]
    assert offenders == []


def test_no_private_names_imported_across_modules():
    """The library and the demos import no underscore-prefixed name from another
    gibbschain module; what a caller needs is public."""
    import ast
    import glob

    root = os.path.join(os.path.dirname(__file__), "..")
    paths = sorted(glob.glob(os.path.join(root, "src", "gibbschain", "*.py"))
                   + glob.glob(os.path.join(root, "demos", "*.py")))
    assert paths
    offenders = []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                ours = node.level > 0 or (node.module or "").startswith("gibbschain")
                parts = (node.module or "").split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                ours = any(a.name.startswith("gibbschain") for a in node.names)
                parts = [p for a in node.names for p in a.name.split(".")]
            else:
                continue
            if ours and any(p.startswith("_") and not p.startswith("__") for p in parts):
                offenders.append(f"{os.path.basename(path)}:{node.lineno}")
    assert offenders == []


def test_benchmark_workloads_run_and_gate_at_smoke_size(tmp_path, monkeypatch):
    """Every benchmark workload runs against this library and passes its gate.

    The benchmark calls the library through its public names and parameters;
    this keeps a change to them from surfacing only in a benchmark run.
    """
    import sys

    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    for name, (inputs, certify, gate) in workloads.WORKLOADS.items():
        outdir = tmp_path / name
        outdir.mkdir()
        certify(inputs(3, smoke=True), str(outdir))
        failed = [item for item in gate(str(outdir)) if not item[1]]
        assert failed == [], name


def test_csv_bodies_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The configs whose bodies once moved with OPENBLAS_NUM_THREADS, and
    lr_sweep, run in subprocesses at 1 and 2 threads write the same CSV bytes."""
    import subprocess
    import sys

    root = os.path.join(os.path.dirname(__file__), "..")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIBBSCHAIN_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    for name in ("qbp_locality", "clustering_xxz", "truncation_sweep", "lr_sweep"):
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "gibbschain.cli", "run",
                 os.path.join(root, "configs", f"{name}.cfg"), "--output-dir", str(out)],
                env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            written.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert written[0] and written[0] == written[1], name


def test_missing_blas_thread_symbol_is_a_note(tmp_path, monkeypatch):
    import ctypes

    class NoSymbols:
        def __init__(self, path):
            pass

    monkeypatch.setattr(ctypes, "CDLL", NoSymbols)
    cfg = load_config(None, overrides=dict(experiment="truncation_sweep", n=4,
                                           generator="heisenberg_xxz", profile="power_law",
                                           alpha=3.0, coupling=0.01, beta_list="0.3",
                                           block_len_list="1"), environ={})
    manifest = run_experiment(cfg, output_dir=str(tmp_path))
    assert manifest.all_passed
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    notes = lines.index("[notes]")
    assert lines[notes + 1].startswith("BLAS threads not set")
    assert notes > lines.index("[checks]") + len(manifest.checks)
    assert lines[-1] == "summary: PASS"
