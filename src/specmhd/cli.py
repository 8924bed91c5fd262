"""Command-line entry point.

Subcommands::

    specmhd run   --config FILE [--output-dir DIR] [--seed N] [--quiet]
    specmhd sweep --config FILE [--output-dir DIR] [--quiet]
    specmhd check [--suite NAME] [--quiet]

Exit codes: 0 pass, 1 invariant failure, 2 configuration error,
3 numerical abort; a sweep exits with the code of its first aborted cell.
Every failure names its cause on stderr: ``<status>: <error>`` for a run,
one such line per aborted cell for a sweep.
The environment variable ``SPECMHD_OUTPUT_ROOT`` sets the default output
root when neither the config nor ``--output-dir`` names one.
"""

from __future__ import annotations

import argparse
import sys

from specmhd import harness
from specmhd.config import load_config
from specmhd.errors import ConfigError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specmhd", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--quiet", action="store_true")

    p_sweep = sub.add_parser("sweep", help="run the configured refinement study")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--output-dir", default=None)
    p_sweep.add_argument("--quiet", action="store_true")

    p_check = sub.add_parser("check", help="run the verification property suite")
    p_check.add_argument("--suite", default=None)
    p_check.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            report = harness.run(cfg, output_dir=args.output_dir, seed=args.seed, quiet=args.quiet)
            if report.exit_code == harness.EXIT_CONFIG:  # e.g. a --seed the config does not admit
                raise ConfigError(report.summary["error"])
            if report.exit_code != harness.EXIT_PASS:
                print(f"{report.status}: {report.summary['error']}", file=sys.stderr)
            if not args.quiet:
                print(f"outputs: {report.output_dir}")
            return report.exit_code
        if args.command == "sweep":
            cfg = load_config(args.config)
            study = harness.convergence_study(cfg, output_dir=args.output_dir, quiet=args.quiet)
            for cell in study.aborted_cells:
                print(f"sweep value {cell['value']}: {cell['status']}: {cell['error']}", file=sys.stderr)
            return study.aborted_cells[0]["exit_code"] if study.aborted_cells else harness.EXIT_PASS
        if args.command == "check":
            ok, _ = harness.check(suite=args.suite, quiet=args.quiet)
            return harness.EXIT_PASS if ok else harness.EXIT_INVARIANT
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return harness.EXIT_CONFIG
    return harness.EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
