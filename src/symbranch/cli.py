"""Command-line entry point.

Each subcommand is one of the validation experiments
(`symbranch <experiment> [--config FILE] [--seed N] [--out DIR]
[--set KEY=VAL]`). It prints one PASS/FAIL line per check and exits 0 on
success, 1 on a criterion failure and 2 on a config error. The simulators
themselves are called from Python (see README).
"""

import argparse
import json
import sys

from symbranch.config import apply_overrides, config_from_dict
from symbranch.experiments import EXPERIMENTS, EXPERIMENT_DEFAULTS, run_experiment


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="symbranch",
        description="Validation experiments for finite- and infinite-rate "
                    "symbiotic branching on finite graphs.")
    sub = parser.add_subparsers(dest="command")

    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        _common_flags(sp)
        sp.set_defaults(handler=_cmd_experiment, experiment=name)

    return parser


def _common_flags(sp):
    sp.add_argument("--config", default=None, metavar="FILE",
                    help="JSON config; overrides built-in defaults")
    sp.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    sp.add_argument("--out", default=None, metavar="DIR",
                    help="directory for CSV/JSON artifacts")
    sp.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                    dest="overrides", help="dotted config override (JSON value)")


def _load_config(args, defaults, experiment):
    merged = dict(defaults)
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        loaded.pop("experiment", None)
        merged.update(loaded)
    merged["experiment"] = experiment
    cfg = config_from_dict(merged)
    if args.overrides:
        cfg = apply_overrides(cfg, args.overrides)
    if args.seed is not None:
        cfg = apply_overrides(cfg, [f"seed={args.seed}"])
    return cfg


def _cmd_experiment(args):
    cfg = _load_config(args, EXPERIMENT_DEFAULTS[args.experiment],
                       experiment=args.experiment)
    report = run_experiment(cfg, out_dir=args.out)
    for line in report.lines():
        print(line)
    print(f"RESULT: {'PASS' if report.passed else 'FAIL'} "
          f"({sum(r.passed for r in report.criteria)}/"
          f"{len(report.criteria)} checks)")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
