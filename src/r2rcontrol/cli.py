"""Command-line front end: preset experiments plus generic config-driven runs."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import ConfigError, R2RError
from .harness import ExperimentConfig, read_config, run_experiment
from . import experiments

# preset subcommand -> (experiment function, help); the functions hold the defaults
PRESETS = {
    "table1": (experiments.table1_experiment, "RL vs OAPE mean/std MSE grid"),
    "table2": (experiments.table2_experiment, "no-control vs PGS on Wiener/gamma"),
    "figure2": (experiments.figure2_experiment, "RL vs EWMA cost distributions"),
    "figure5": (experiments.figure5_experiment, "GHR vs PGS cost distributions"),
}


def _out_dir(args, configured=None) -> str:
    """``--out``, else ``$R2R_OUTPUT_DIR``, else the config's ``output_dir``, else ``r2r-output``."""
    return args.out or os.environ.get("R2R_OUTPUT_DIR") or configured or "r2r-output"


def _apply_overrides(raw: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass  # keep as string
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r}: {part!r} is not a mapping")
        node[parts[-1]] = value
    return raw


def _load_config(args) -> ExperimentConfig:
    raw = _apply_overrides(read_config(args.config), args.set or [])
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if args.threads is not None:
        raw["threads"] = args.threads
    if args.replications is not None:
        raw["replications"] = args.replications
    raw["output_dir"] = _out_dir(args, raw.get("output_dir"))
    try:
        return ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad config key in {args.config}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="r2rctl", description="Run-to-run process control experiments"
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p, replicated=True):
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory (or $R2R_OUTPUT_DIR)")
        if replicated:
            p.add_argument("--threads", type=int, default=None, help="parallel replications")
            p.add_argument("--replications", type=int, default=None)
        return p

    run = add_common(sub.add_parser("run", help="run an experiment config"))
    run.add_argument("--config", required=True, help="experiment config JSON")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config entry (dotted keys allowed)")
    for name, (_, help_text) in PRESETS.items():
        add_common(sub.add_parser(name, help=help_text))
    add_common(sub.add_parser("theory-check", help="bound battery, rate check, ratio diagnostics"),
               replicated=False)
    sub.add_parser("version", help="print the package version")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "version":
        print(__version__)
        return 0
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        seed = args.seed if args.seed is not None else 20260826
        out = _out_dir(args)
        if args.command == "run":
            report = run_experiment(_load_config(args)).to_dict()
        elif args.command in PRESETS:
            flags = {"replications": args.replications, "threads": args.threads}
            report = PRESETS[args.command][0](
                seed, out_dir=out, **{k: v for k, v in flags.items() if v is not None}
            )
        else:  # theory-check
            report = experiments.theory_check(seed, out_dir=out)
        print(json.dumps(report, indent=2))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except R2RError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
