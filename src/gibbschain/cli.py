"""Command-line entry point.

    gibbschain run <config-file> [--output-dir DIR] [--seed N] [--experiment NAME]

Exit codes: 0 all checks passed, 1 assertion failure or runtime error,
2 invalid configuration, which includes a key the experiment does not read
(so --seed on acceptance exits 2).  Environment variables GIBBSCHAIN_<KEY>
override config-file values; command-line flags override both.  A failed
run prints its first failing check's manifest line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, load_config
from .errors import ConfigError
from .experiments import run_experiment


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gibbschain",
        description="Certification experiments for 1D quantum Gibbs states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment from a config file")
    run.add_argument("config", help="flat key=value config file")
    run.add_argument("--output-dir", default=None, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override the seed")
    run.add_argument(
        "--experiment", default=None, choices=EXPERIMENTS, help="override the experiment"
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {
        "output_dir": args.output_dir,
        "seed": args.seed,
        "experiment": args.experiment,
    }
    try:
        cfg = load_config(args.config, overrides=overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    manifest = run_experiment(cfg)
    for message in manifest.errors:
        print(f"error: {message}", file=sys.stderr)
    failing = [line for line in manifest.check_lines() if line.startswith("FAIL")]
    if failing:
        print(failing[0], file=sys.stderr)
    print(f"{cfg.experiment}: {'PASS' if manifest.all_passed else 'FAIL'} "
          f"({manifest.wall_seconds}s) -> {cfg.output_dir}")
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
