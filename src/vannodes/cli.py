"""Command-line entry point.

Each experiment subcommand reads an optional key=value config file, applies
--set overrides, and runs the corresponding runner from `experiments`.
Exit status is 0 only when every requested run completed.
"""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig
from . import experiments
from .data import fetch_mnist

# subcommand -> (experiment, runner, help), in the order of the help text
_RUNNERS = {
    "sweep": ("vni_sweep", experiments.run_vni_sweep, "indicator vs depth, theory vs simulation"),
    "heatmap": ("heatmap", experiments.run_heatmap, "permuted squared-correlation heatmaps"),
    "dynamics": ("dynamics", experiments.run_dynamics, "indicator quartiles over training"),
    "tasks": ("tasks_table", experiments.run_tasks_table, "task table: plain vs bottleneck init"),
    "grid": ("grid", experiments.run_grid, "success probability over depth x learning rate"),
    "orth": ("orthogonal_table", experiments.run_orthogonal_table, "orthogonal and reflection-parametrized training"),
    "diag": ("diagnostics", experiments.run_diagnostics, "single-network diagnostic report"),
}


def _load_config(args, experiment: str) -> ExperimentConfig:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    overrides["experiment"] = experiment
    if args.config:
        with open(args.config) as f:
            return ExperimentConfig.from_text(f.read(), overrides)
    return ExperimentConfig.from_text("", overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vannodes",
        description="Node-correlation diagnostics for deep feed-forward networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _RUNNERS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config field (repeatable)")
    fetch = sub.add_parser("fetch-mnist", help="download and verify the MNIST IDX files")
    fetch.add_argument("--out-dir", default="data/mnist")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "fetch-mnist":
        try:
            paths = fetch_mnist(args.out_dir)
        except (OSError, ValueError) as e:
            print(f"fetch failed: {e}", file=sys.stderr)
            return 1
        for p in paths:
            print(p)
        return 0
    experiment, runner, _ = _RUNNERS[args.command]
    try:
        config = _load_config(args, experiment)
    except (ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        runner(config)
    except Exception as e:  # incomplete runs must not exit 0
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    print(f"done: {experiment} (hash {config.config_hash()}) -> {config.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
