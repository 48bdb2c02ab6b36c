"""Flat key=value experiment configuration.

The config file format is one ``key = value`` pair per line, ``#`` comments,
no sections and no nesting, so every knob stays greppable.  Types are fixed
by the defaults table; list-valued keys take comma-separated entries.
Environment variables GIBBSCHAIN_<KEY> (upper-cased key) override file
values, and CLI flags override both.  ``read_keys`` states which keys a run
reads; a key it does not read, from any source, is a ConfigError, as are an
unknown key and an empty list the run reads (an empty ``r_list`` selects
every separation).  The manifest echoes only the keys read.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from . import chain, opalg, qbp
from .errors import BadPartition, ConfigError, GeometryError
from .profiles import PARAMETERS, DecayProfile

# the keys each experiment reads, besides experiment, output_dir, threads and
# its chain's keys (see read_keys); acceptance pins its parameters itself
READS = {
    "lr_sweep": ("n", "t_grid", "r_list"),
    "qbp_locality": ("n", "x_width", "y_width", "block_len", "bond_index", "radius_list",
                     "beta_list", "tau_steps", "integrator"),
    "truncation_sweep": ("n", "x_width", "y_width", "block_len_list", "beta_list"),
    "clustering_sweep": ("n", "r_list", "beta_list"),
    # each m builds its own chain of x_width + y_width + 2*half_width*m sites
    "gamma_decay": ("x_width", "y_width", "half_width", "block_len", "m_list", "beta_list",
                    "tau_steps", "integrator"),
    "acceptance": (),
}
EXPERIMENTS = tuple(READS)

ENV_PREFIX = "GIBBSCHAIN_"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "acceptance"
    n: int = 10
    generator: str = "ising_zz"
    profile: str = "finite_range"
    alpha: float = 3.0
    range_cutoff: int = 1
    kappa: float = 0.5
    stretch_c: float = 1.0
    rate: float = 0.7
    coupling: float = 1.0
    anisotropy: float = 1.5
    seed: int = 7
    beta_list: tuple = (0.5, 1.0)
    t_grid: tuple = (0.0, 0.25, 0.5, 1.0)
    r_list: tuple = ()
    block_len: int = 1
    block_len_list: tuple = (1,)
    half_width: int = 1
    m_list: tuple = (0, 1, 2, 3)
    x_width: int = 1
    y_width: int = 1
    tau_steps: int = 32
    integrator: str = "cf4"
    bond_index: int = 1
    radius_list: tuple = (7, 8, 9, 10)
    # every run is single-threaded and only 1 is accepted; the key stays
    # because the benchmark workloads still set threads = 1
    threads: int = 1
    output_dir: str = "out"

    def make_profile(self) -> DecayProfile:
        return DecayProfile(
            self.profile, **{k: getattr(self, k) for k in PARAMETERS.get(self.profile, ())}
        )

    def clustering_sites(self):
        """Separations from site 0 of clustering_sweep: an empty r_list runs to
        the chain's end."""
        return self.r_list or tuple(range(1, self.n))

    def as_lines(self):
        """Config echo in file format: the keys the run reads, sorted."""
        out = []
        for name in sorted(read_keys(self)):
            v = getattr(self, name)
            if isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            out.append(f"{name} = {v}")
        return out


def read_keys(cfg: ExperimentConfig) -> set:
    """The keys a run of cfg reads.  An unknown experiment, generator or
    profile, which the set depends on, is a ConfigError."""
    if cfg.experiment not in READS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    keys = {"experiment", "output_dir", "threads", *READS[cfg.experiment]}
    if cfg.experiment == "acceptance":
        return keys
    if cfg.generator not in chain.GENERATORS:
        raise ConfigError(f"unknown generator {cfg.generator!r}")
    if cfg.profile not in PARAMETERS:
        raise ConfigError(f"unknown profile {cfg.profile!r}")
    # seed counts as read on the deterministic generators too
    keys |= {"generator", "profile", "coupling", "seed", *PARAMETERS[cfg.profile]}
    if cfg.generator == "heisenberg_xxz":
        keys.add("anisotropy")
    # lr_sweep truncates its chain only where the profile has an infinite range
    if cfg.experiment == "lr_sweep" and cfg.profile != "finite_range":
        keys |= {"x_width", "y_width", "block_len"}
    return keys


def _parser(f):
    if isinstance(f.default, tuple):
        kind = int if f.name in ("r_list", "m_list", "radius_list", "block_len_list") else float
        return lambda text: tuple(kind(x) for x in str(text).split(",") if x.strip())
    if isinstance(f.default, str):
        return lambda s: str(s).strip()
    return type(f.default)


_PARSERS = {f.name: _parser(f) for f in fields(ExperimentConfig)}


def parse_config_text(text) -> dict:
    """Raw key -> string dict from config text."""
    out = {}
    for lineno, line in enumerate(str(text).splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        out[key.strip()] = value.strip()
    return out


def load_config(path=None, overrides=None, environ=None) -> ExperimentConfig:
    """Config from file, environment and explicit overrides, then validated."""
    raw = {}
    if path is not None:
        with open(path) as fh:
            raw.update(parse_config_text(fh.read()))
    environ = os.environ if environ is None else environ
    for env_key, value in environ.items():
        if env_key.startswith(ENV_PREFIX):
            raw[env_key[len(ENV_PREFIX):].lower()] = value
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    kwargs = {}
    for key in sorted(raw.keys() & _PARSERS.keys()):
        try:
            kwargs[key] = _PARSERS[key](raw[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {raw[key]!r} ({exc})") from exc
    cfg = ExperimentConfig(**kwargs)
    # an unknown key is one no run reads
    keys = read_keys(cfg)
    unread = set(raw) - keys
    if unread:
        raise ConfigError(
            f"{cfg.experiment} does not read {', '.join(sorted(unread))} "
            f"(it reads {', '.join(sorted(keys))})"
        )
    validate_config(cfg)
    return cfg


def _check_dimension(n_sites, what):
    # read at call time, so the cap has a single owner in opalg
    if 2**n_sites > opalg.DIM_CAP:
        raise ConfigError(f"{what}dimension {2**n_sites} exceeds opalg.DIM_CAP {opalg.DIM_CAP}")


def _geometry(prefix, rule, *args):
    """Run one of chain's geometry rules, its failure as a ConfigError."""
    try:
        return rule(*args)
    except (BadPartition, GeometryError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _check_center_cuts(cfg, profile, n_m, m):
    """chain.truncate's partition and chain.center_decomposition's center-cut
    rule on gamma_decay's m-block chain, read from the pairs it would couple."""
    blocks = chain.partition(n_m, cfg.x_width, cfg.y_width, cfg.block_len)
    pairs = list(chain.coupled_pairs(n_m, profile, cfg.coupling))
    kept = [p for p, span in zip(pairs, chain.truncation_spans(blocks, pairs)) if span is not None]
    chain.center_cuts(kept, cfg.x_width, m, cfg.half_width)


def validate_config(cfg: ExperimentConfig):
    """Reject invalid knobs before any matrix work."""
    keys = read_keys(cfg)
    if cfg.n < 2:
        raise ConfigError("n must be >= 2")
    # gamma_decay's per-m chains are checked below
    if "n" in keys:
        _check_dimension(cfg.n, "")
    for key in ("x_width", "y_width", "half_width", "block_len", "tau_steps"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1")
    if cfg.seed < 0:  # numpy's generators take no negative seed
        raise ConfigError("seed must be >= 0")
    for key in ("block_len_list", "r_list"):
        if any(v < 1 for v in getattr(cfg, key)):
            raise ConfigError(f"{key} entries must be >= 1")
    if not all(math.isfinite(b) and b > 0 for b in cfg.beta_list):
        raise ConfigError("beta_list entries must be finite and > 0")
    for key in ("coupling", "anisotropy"):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{key} must be finite")
    if not all(math.isfinite(t) for t in cfg.t_grid):
        raise ConfigError("t_grid entries must be finite")
    # an empty list certifies no rows; an empty r_list selects every separation
    empty = sorted(key for key in keys - {"r_list"} if getattr(cfg, key) == ())
    if empty:
        raise ConfigError(f"{cfg.experiment} needs a non-empty {', '.join(empty)}")
    if cfg.experiment == "clustering_sweep":
        r_list = cfg.clustering_sites()
        if any(r > cfg.n - 1 for r in r_list):
            raise ConfigError(f"r_list entries must be <= n - 1 = {cfg.n - 1}")
        # xi is fitted to two or more rows, and log xi to two or more beta
        if len(r_list) < 2:
            raise ConfigError("clustering_sweep needs two or more separations on the chain")
        if len(cfg.beta_list) < 2:
            raise ConfigError("clustering_sweep needs two or more beta_list entries")
    if cfg.integrator not in qbp.INTEGRATORS:
        raise ConfigError(f"unknown integrator {cfg.integrator!r}")
    if cfg.threads != 1:
        raise ConfigError("threads must be 1")
    # the tail sums behind gamma converge only for alpha > 2
    if cfg.profile == "power_law" and not cfg.alpha > 2:
        raise ConfigError(
            f"power_law needs alpha > 2 (got {cfg.alpha}): the theorem assumes "
            "couplings that decay faster than r^-2"
        )
    try:
        profile = cfg.make_profile()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.experiment == "lr_sweep" and cfg.r_list:
        # lr_certify skips a separation whose partner site is off its range
        if max(cfg.r_list) > cfg.n - 1:
            raise ConfigError(f"r_list entries must be <= n - 1 = {cfg.n - 1}")
        interior = cfg.n - cfg.x_width - cfg.y_width - 1
        if not profile.is_finite_range and min(cfg.r_list) > interior:
            raise ConfigError(
                f"r_list certifies no truncated row: its smallest entry exceeds "
                f"n - x_width - y_width - 1 = {interior}"
            )
    # an n-site run truncates with the block lengths it reads; gamma_decay's
    # m-block chains are checked below
    for key, lens in (("block_len_list", cfg.block_len_list), ("block_len", (cfg.block_len,))):
        if {"n", key} <= keys:
            for l0 in lens:
                _geometry("", chain.partition, cfg.n, cfg.x_width, cfg.y_width, l0)
    if cfg.experiment == "qbp_locality":
        q = len(chain.partition(cfg.n, cfg.x_width, cfg.y_width, cfg.block_len)) - 2
        if not 0 <= cfg.bond_index <= q:
            raise ConfigError(f"bond_index must lie in 0..{q}, the bonds of {q} interior blocks")
        if any(r <= 6 * cfg.block_len for r in cfg.radius_list):
            raise ConfigError(f"radius_list entries must exceed 6*block_len = {6 * cfg.block_len}")
    if cfg.experiment == "gamma_decay":
        if any(m < 0 for m in cfg.m_list):
            raise ConfigError("m_list entries must be >= 0")
        # the decay of psi_trace_decay in m is checked between two or more m
        if len(cfg.m_list) < 2:
            raise ConfigError("gamma_decay needs two or more m_list entries")
        # each m builds its own chain.  With every width >= 1 this also keeps
        # m <= 5, inside cluster.BRANCH_CAP's 2^6 inclusion-exclusion branches.
        for m in cfg.m_list:
            n_m = cfg.x_width + cfg.y_width + 2 * cfg.half_width * m
            _check_dimension(n_m, f"m={m}: ")
            if m >= 1:
                _geometry(f"m={m}: ", _check_center_cuts, cfg, profile, n_m, m)
