"""The read-set table: a run accepts exactly the keys it reads.

``config.read_keys`` states which keys each run reads.  These tests hold the
table to the runs: a key outside it exits 2 from every source and writes no
output directory, a key inside it changes what the run writes, and every
field is read by some run.
"""

import ast
import dataclasses
import glob
import itertools
import os

import pytest

from gibbschain import chain, cli, csvio, profiles
from gibbschain.config import (
    EXPERIMENTS, READS, ExperimentConfig, load_config, read_keys, validate_config,
)
from gibbschain.errors import ConfigError
from gibbschain.experiments import run_experiment, runners

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "gibbschain")


@pytest.fixture(autouse=True)
def _no_env_overrides(monkeypatch):
    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)


def _text(value):
    return ",".join(repr(x) for x in value) if isinstance(value, tuple) else str(value)


def _write(path, keys):
    path.write_text("".join(f"{k} = {_text(v)}\n" for k, v in keys.items()))
    return path


def test_every_field_is_read_by_some_run():
    read = set()
    for experiment, generator, kind in itertools.product(
        EXPERIMENTS, chain.GENERATORS, profiles.PARAMETERS
    ):
        read |= read_keys(ExperimentConfig(experiment=experiment, generator=generator,
                                           profile=kind))
    assert read == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_every_experiment_has_one_runner(tmp_path):
    assert runners().keys() == READS.keys()
    # an experiment outside the table fails before any output is written
    outdir = tmp_path / "out"
    with pytest.raises(ConfigError, match="unknown experiment"):
        run_experiment(ExperimentConfig(experiment="nope"), output_dir=str(outdir))
    assert not outdir.exists()


@pytest.mark.parametrize("base", [
    {"experiment": "lr_sweep", "n": 6},
    {"experiment": "lr_sweep", "n": 6, "profile": "power_law"},
    {"experiment": "qbp_locality"},
    {"experiment": "truncation_sweep", "generator": "heisenberg_xxz"},
    {"experiment": "clustering_sweep", "n": 6, "profile": "exponential"},
    {"experiment": "gamma_decay", "generator": "random_two_site", "profile": "stretched_exp"},
    {"experiment": "acceptance"},
], ids=lambda base: "-".join(str(v) for v in base.values()))
def test_unread_keys_exit_2_from_every_source(base, tmp_path, monkeypatch):
    """Each field outside the run's read set, even at its default value, exits 2
    and writes no output directory: set in the file, as GIBBSCHAIN_<KEY> or as
    an override."""
    path = _write(tmp_path / "base.cfg", base)
    keys = read_keys(load_config(path, environ={}))
    defaults = ExperimentConfig()
    unread = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in keys]
    assert unread
    out = tmp_path / "out"
    for key in unread:
        value = _text(getattr(defaults, key))
        _write(tmp_path / "bad.cfg", {**base, key: value})
        assert cli.main(["run", str(tmp_path / "bad.cfg"), "--output-dir", str(out)]) == 2, key
        monkeypatch.setenv(f"GIBBSCHAIN_{key.upper()}", value)
        assert cli.main(["run", str(path), "--output-dir", str(out)]) == 2, key
        monkeypatch.delenv(f"GIBBSCHAIN_{key.upper()}")
        with pytest.raises(ConfigError, match=rf"does not read {key} \(it reads"):
            load_config(path, overrides={key: value}, environ={})
        assert not out.exists(), key


def test_unread_flags_exit_2(tmp_path):
    # acceptance builds no chain from the config, so it reads no seed
    acceptance = _write(tmp_path / "acceptance.cfg", {"experiment": "acceptance"})
    out = tmp_path / "out"
    assert cli.main(["run", str(acceptance), "--output-dir", str(out), "--seed", "3"]) == 2
    # gamma_decay builds a chain per m and reads no n
    clustering = _write(tmp_path / "clustering.cfg", {"experiment": "clustering_sweep", "n": 6})
    assert cli.main(["run", str(clustering), "--output-dir", str(out),
                     "--experiment", "gamma_decay"]) == 2
    assert not out.exists()


def test_library_configs_set_only_keys_their_runs_read():
    """Every ExperimentConfig the library builds (criteria 12 and 13) sets
    only keys its run reads, and passes config validation."""
    built = 0
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            # load_config's ExperimentConfig(**kwargs) is checked by the tests above
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExperimentConfig"
                    and all(kw.arg for kw in node.keywords)):
                kwargs = {kw.arg: ast.literal_eval(kw.value) for kw in node.keywords}
                cfg = ExperimentConfig(**kwargs)
                where = f"{os.path.basename(path)}:{node.lineno}"
                assert set(kwargs) <= read_keys(cfg), (where, set(kwargs) - read_keys(cfg))
                validate_config(cfg)
                built += 1
    assert built >= 4


# Small chains (n <= 6 where the key shows there) on which each key the run
# reads changes its output.  Each case is (base, key, changed value).
BASES = {
    "lr": dict(experiment="lr_sweep", n=6, generator="random_two_site", profile="power_law",
               alpha=3.0, coupling=0.5, seed=1, t_grid=(0.5,), r_list=(1, 2), block_len=1),
    # the window of radius r > 6*block_len covers any shorter chain, and a covered
    # window certifies no measured row: x_width, bond_index, tau_steps and
    # integrator show only at n = 10 (heisenberg_xxz splits into cheap sectors)
    "qbp": dict(experiment="qbp_locality", n=10, generator="heisenberg_xxz",
                profile="exponential", rate=0.7, anisotropy=1.5, coupling=0.25, block_len=1,
                bond_index=1, radius_list=(7,), beta_list=(0.5,), tau_steps=1,
                integrator="midpoint"),
    "truncation": dict(experiment="truncation_sweep", n=6, generator="random_two_site",
                       profile="stretched_exp", kappa=0.5, stretch_c=1.0, coupling=0.01,
                       seed=1, block_len_list=(1,), beta_list=(0.3,)),
    "clustering": dict(experiment="clustering_sweep", n=6, generator="heisenberg_xxz",
                       profile="finite_range", range_cutoff=1, anisotropy=1.5, coupling=1.0,
                       r_list=(1, 2, 3), beta_list=(0.4, 0.8)),
    "gamma": dict(experiment="gamma_decay", generator="random_two_site", profile="power_law",
                  alpha=3.0, coupling=0.5, seed=1, m_list=(0, 1), beta_list=(0.5,),
                  tau_steps=4),
    # with block_len 1 the truncation keeps nearest neighbours only, whatever alpha
    "gamma_wide": dict(experiment="gamma_decay", generator="random_two_site",
                       profile="power_law", seed=1, block_len=2, half_width=2,
                       m_list=(0, 1), beta_list=(0.5,), tau_steps=4),
}
CHANGES = (
    ("lr", "n", 4), ("lr", "t_grid", (0.25,)), ("lr", "r_list", (1, 3)),
    ("lr", "x_width", 3), ("lr", "y_width", 3), ("lr", "block_len", 2),
    ("lr", "generator", "heisenberg_xxz"), ("lr", "profile", "exponential"),
    ("lr", "alpha", 4.0), ("lr", "coupling", 0.4), ("lr", "seed", 2),
    ("qbp", "n", 8), ("qbp", "x_width", 3), ("qbp", "y_width", 3), ("qbp", "bond_index", 0),
    ("qbp", "radius_list", (8,)), ("qbp", "beta_list", (0.6,)), ("qbp", "tau_steps", 2),
    ("qbp", "integrator", "cf4"), ("qbp", "generator", "ising_zz"),
    ("qbp", "profile", "power_law"), ("qbp", "rate", 0.9), ("qbp", "anisotropy", 1.0),
    ("qbp", "coupling", 0.3),
    ("truncation", "n", 4), ("truncation", "x_width", 3), ("truncation", "y_width", 3),
    ("truncation", "block_len_list", (2,)), ("truncation", "beta_list", (0.2,)),
    ("truncation", "generator", "heisenberg_xxz"), ("truncation", "profile", "exponential"),
    ("truncation", "kappa", 0.6), ("truncation", "stretch_c", 1.5),
    ("truncation", "coupling", 0.02), ("truncation", "seed", 2),
    ("clustering", "n", 5), ("clustering", "r_list", (1, 2)),
    ("clustering", "beta_list", (0.5, 0.8)), ("clustering", "generator", "ising_zz"),
    ("clustering", "profile", "power_law"), ("clustering", "range_cutoff", 2),
    ("clustering", "anisotropy", 1.0), ("clustering", "coupling", 0.7),
    ("gamma", "x_width", 2), ("gamma", "y_width", 2), ("gamma", "half_width", 2),
    ("gamma", "m_list", (0, 1, 2)), ("gamma", "beta_list", (0.6,)), ("gamma", "tau_steps", 8),
    ("gamma", "integrator", "midpoint"), ("gamma", "generator", "heisenberg_xxz"),
    ("gamma", "profile", "exponential"), ("gamma", "coupling", 0.4), ("gamma", "seed", 2),
    ("gamma_wide", "alpha", 4.0), ("gamma_wide", "block_len", 1),
)
# keys that change no output by design: where it goes, the one thread count
# and the run itself (which every row above changes)
UNSEEN = {"output_dir", "threads", "experiment"}
# the seed of a generator that draws nothing from it
DETERMINISTIC = ("ising_zz", "heisenberg_xxz")
# qbp_locality needs radii above 6*block_len, and at n <= 12 a window that wide
# covers the chain: every row is then vacuous, with a bound that does not
# depend on block_len, so block_len 2 writes what block_len 1 writes
HIDDEN = {("qbp_locality", "block_len")}


def _outputs(cfg, outdir):
    manifest = run_experiment(cfg, output_dir=str(outdir))
    assert manifest.errors == [], manifest.errors
    bodies = [csvio.csv_body_bytes(p) for p in sorted(outdir.glob("*.csv"))]
    return bodies, manifest.fitted


def test_every_read_key_changes_the_output(tmp_path):
    required, changed = set(), set()
    for name, keys in BASES.items():
        base = ExperimentConfig(**keys)
        validate_config(base)
        seen = read_keys(base) - UNSEEN
        if base.generator in DETERMINISTIC:
            seen.discard("seed")
        required |= {(base.experiment, key) for key in seen} - HIDDEN
        reference = _outputs(base, tmp_path / name)
        for key, value in (c[1:] for c in CHANGES if c[0] == name):
            cfg = dataclasses.replace(base, **{key: value})
            validate_config(cfg)
            assert _outputs(cfg, tmp_path / f"{name}-{key}") != reference, (name, key)
            changed.add((base.experiment, key))
    assert changed == required


def test_clustering_sweep_needs_two_betas(tmp_path, monkeypatch):
    """One beta fits no log xi line: the run would certify nothing, so the
    bundled config with a one-entry beta_list exits 2 and writes no output."""
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "clustering_xxz.cfg")
    out = tmp_path / "out"
    monkeypatch.setenv("GIBBSCHAIN_BETA_LIST", "0.6")
    with pytest.raises(ConfigError, match="two or more beta_list entries"):
        load_config(path)
    assert cli.main(["run", path, "--output-dir", str(out)]) == 2
    assert not out.exists()
    monkeypatch.setenv("GIBBSCHAIN_BETA_LIST", "0.6,0.8")
    assert load_config(path).beta_list == (0.6, 0.8)


@pytest.mark.parametrize("config, key, values", [
    ("clustering_xxz", "coupling", ("nan", "inf", "-inf")),
    ("clustering_xxz", "anisotropy", ("nan", "inf")),
    ("lr_sweep", "t_grid", ("0.25,nan", "0.25,inf")),
], ids=["coupling", "anisotropy", "t_grid"])
def test_non_finite_floats_exit_2(config, key, values, tmp_path, monkeypatch):
    """A nan or inf coupling, anisotropy or t_grid entry used to pass validation
    and die mid-run with LinAlgError: the bundled config exits 2 with it and
    writes no output."""
    path = os.path.join(os.path.dirname(__file__), "..", "configs", f"{config}.cfg")
    out = tmp_path / "out"
    for value in values:
        monkeypatch.setenv(f"GIBBSCHAIN_{key.upper()}", value)
        with pytest.raises(ConfigError, match=f"{key}.* must be finite"):
            load_config(path)
        assert cli.main(["run", path, "--output-dir", str(out)]) == 2
        assert not out.exists()


def test_negative_seed_exits_2(tmp_path, monkeypatch):
    """numpy's generators take no negative seed: a negative --seed or
    GIBBSCHAIN_SEED used to pass validation and die in the chain build with
    an empty output directory; it exits 2 and writes no output."""
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "clustering_xxz.cfg")
    out = tmp_path / "out"
    for name in [k for k in os.environ if k.startswith("GIBBSCHAIN_")]:
        monkeypatch.delenv(name)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        load_config(path, overrides={"seed": -5})
    assert cli.main(["run", path, "--seed", "-5", "--output-dir", str(out)]) == 2
    assert not out.exists()
    monkeypatch.setenv("GIBBSCHAIN_SEED", "-1")
    assert cli.main(["run", path, "--output-dir", str(out)]) == 2
    assert not out.exists()
    monkeypatch.setenv("GIBBSCHAIN_SEED", "0")
    assert load_config(path).seed == 0


def test_gamma_decay_needs_two_block_counts(tmp_path, monkeypatch):
    """One m checks no decay in m: the bundled config with a one-entry m_list
    exits 2 and writes no output."""
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "gamma_decay.cfg")
    out = tmp_path / "out"
    monkeypatch.setenv("GIBBSCHAIN_M_LIST", "1")
    with pytest.raises(ConfigError, match="two or more m_list entries"):
        load_config(path)
    assert cli.main(["run", path, "--output-dir", str(out)]) == 2
    assert not out.exists()
    monkeypatch.setenv("GIBBSCHAIN_M_LIST", "0,1")
    assert load_config(path).m_list == (0, 1)
