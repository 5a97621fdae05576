"""Command-line entry point: one verb per experiment, flags override the
config file (flag > file > default).

Exit status: 0 every assertion passed, 1 an assertion failed, 2 invalid
config or input, 3 numerical failure (a non-finite solver state)."""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, ConfigError, parse_config, validate_config
from .experiments import run_experiment
from .solver import StepFailureError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsrw",
        description="Spectral experiments with randomized rough initial data",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in EXPERIMENTS:
        sp = sub.add_parser(verb, help=f"run the {verb} experiment")
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="override master_seed")
        sp.add_argument("--out", default=None, help="override output_dir")
        sp.add_argument("--M", type=int, default=None, help="override monte_carlo_M")
        sp.add_argument("--workers", type=int, default=None, help="override workers")
        if verb == "solve":
            sp.add_argument("--resume", default=None, help="checkpoint to resume from")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        cfg.experiment = args.verb
        if args.seed is not None:
            cfg.master_seed = args.seed
        if args.out is not None:
            cfg.output_dir = args.out
        if args.M is not None:
            cfg.monte_carlo_M = args.M
        if args.workers is not None:
            cfg.workers = args.workers
        validate_config(cfg)
        result = run_experiment(cfg, resume=getattr(args, "resume", None))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StepFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    failures = result.summary.get("failures", [])
    if failures:
        print(f"{cfg.experiment}: {len(failures)} assertion(s) failed", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
    else:
        print(f"{cfg.experiment}: ok ({result.output_dir})")
    return result.status


if __name__ == "__main__":
    raise SystemExit(main())
